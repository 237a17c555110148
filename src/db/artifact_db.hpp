#pragma once

/**
 * @file artifact_db.hpp
 * Persistent tuning-artifact database: one on-disk store for the three
 * artifacts a tuning run produces and the next run wants back.
 *
 * The paper's offline scenario assumes tuned history can be reused — warm-
 * starting from prior measurements is where the biggest speedups come
 * from — so everything a run learns is persisted under one root directory:
 *
 *   <root>/records/shard_NNNN.log   measured records, append-only text
 *                                   lines (the record_log codec), sharded
 *                                   by task hash so concurrent sessions
 *                                   append without a global lock
 *   <root>/measure_cache.bin        versioned, byte-deterministic binary
 *                                   snapshot of the MeasureCache keyed by
 *                                   (task hash, schedule hash) — repeated
 *                                   runs pay zero simulated measurements
 *                                   for shared candidates
 *   <root>/models/<key>.params      cost-model weight checkpoints in the
 *                                   nn/serialize text codec
 *
 * Storage faults never terminate a tuning run. Record lines are CRC-framed
 * (io::withLineCrc); loading skips every line without a valid CRC suffix
 * and physically truncates a torn final line (so later appends cannot
 * concatenate onto it). Snapshot and model writes go through
 * io::atomicWriteFile (tmp + rename, bounded retries); corrupt snapshots
 * and model checkpoints are quarantined to "<path>.corrupt" and skipped.
 * Every degradation warns once and bumps a StorageHealth counter; an
 * unwritable root disables persistence for the instance instead of
 * throwing. All queries and writes are thread-safe; record state is
 * sharded per task-hash so the existing ThreadPool workers (and multiple
 * tuning sessions sharing one ArtifactDb) contend only when touching the
 * same shard.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.hpp"
#include "search/measure_cache.hpp"
#include "search/tuning_record.hpp"

namespace pruner {

/** One schedule served from the store (see ArtifactDb::topK). */
struct ServedSchedule
{
    Schedule sch;
    double latency = 0.0;    ///< best persisted latency for this schedule
    uint64_t sched_hash = 0; ///< sch.hash(), precomputed by the store
};

/** What ArtifactDb::warmStart restored into a run's state. */
struct WarmStartStats
{
    size_t records_replayed = 0;  ///< records replayed into TuningRecordDb
    size_t cache_entries = 0;     ///< snapshot entries loaded into the cache
    bool model_restored = false;  ///< checkpoint applied to the cost model
};

/** Cumulative storage-fault accounting for one ArtifactDb instance (see
 *  ArtifactDb::storageHealth). All zeros on a healthy store. */
struct StorageHealth
{
    size_t quarantined_files = 0; ///< corrupt artifacts moved to *.corrupt
    size_t torn_tails = 0;        ///< torn final lines truncated on load
    size_t corrupt_lines = 0;     ///< CRC-mismatched / malformed lines skipped
    size_t io_failures = 0;       ///< failed writes degraded to warnings
};

/**
 * The persistent tuning-artifact store. Open one per experiment directory;
 * the instance is safe to share across threads and tuning sessions.
 */
class ArtifactDb
{
  public:
    /** Opens (and creates if missing) the store rooted at @p root, loading
     *  the record index from any existing shard logs. @p num_shards only
     *  applies to newly written records; logs from stores with a different
     *  shard count still load (sharding is a layout detail, not a key).
     *  An unwritable root degrades to a disabled store (warn + counter)
     *  instead of throwing — the tuner then runs without persistence. */
    explicit ArtifactDb(std::string root, size_t num_shards = kDefaultShards);

    ArtifactDb(const ArtifactDb&) = delete;
    ArtifactDb& operator=(const ArtifactDb&) = delete;

    const std::string& root() const { return root_; }

    /** False when the root directories could not be created; every write
     *  is then a warned no-op and every read serves the empty store. */
    bool writable() const { return writable_; }

    /** Storage-fault counters accumulated by this instance. */
    StorageHealth storageHealth() const;

    // ------------------------------------------------------------ records

    /** Durably append measured records. Non-finite latencies are skipped
     *  (failed launches live in the cache snapshot, not the record log),
     *  and a (task, schedule) pair already stored with an equal-or-better
     *  latency is not re-written — replayed runs do not grow the log.
     *  Returns the number of lines actually written. */
    size_t appendRecords(const std::vector<MeasuredRecord>& records);

    /** Number of record lines currently retained (on disk + this session). */
    size_t recordCount() const;

    /** The up-to-k best distinct schedules stored for @p task, ascending
     *  by latency (ties broken by schedule hash, so the order is stable
     *  across runs and platforms). */
    std::vector<ServedSchedule> topK(const SubgraphTask& task,
                                     size_t k) const;

    /** Best stored schedule for @p task; nullopt if none. */
    std::optional<ServedSchedule> bestSchedule(const SubgraphTask& task) const;

    // --------------------------------------------- measure-cache snapshot

    /** Persist @p cache, merged with any snapshot already on disk (the
     *  cache wins on conflicting pairs). Entries are written sorted by
     *  (task hash, schedule hash), so saving the same state twice produces
     *  byte-identical files. */
    void saveMeasureCache(const MeasureCache& cache);

    /** Load the snapshot (if any) into @p cache via insert(); returns the
     *  number of entries restored. Missing or unreadable snapshots load
     *  nothing; a snapshot with a foreign magic or version, a size that
     *  does not match its entry count, or a failed checksum is quarantined
     *  and loads nothing. */
    size_t loadMeasureCache(MeasureCache* cache) const;

    // ------------------------------------------------- model checkpoints

    /** Persist a flat parameter snapshot under @p key (sanitized into a
     *  file name), e.g. key = "Pruner/PaCM/a100", via io::atomicWriteFile.
     *  A failed write warns and counts an io_failure. */
    void saveModelParams(const std::string& key,
                         const std::vector<double>& params);

    /** Load the checkpoint stored under @p key; nullopt if missing or
     *  malformed. A present-but-malformed checkpoint is quarantined to
     *  "<path>.corrupt" (warn + counter) so the next load starts cold. */
    std::optional<std::vector<double>>
    tryLoadModelParams(const std::string& key) const;

    // ---------------------------------------------------------- warm start

    /**
     * Restore a tuning run's state from the store:
     *  - stored records whose task hash matches one of @p known_tasks are
     *    replayed into @p records (worst-first, so the incumbent is the
     *    most recent entry),
     *  - the measure-cache snapshot is loaded into @p cache,
     *  - the checkpoint under @p model_key is applied to @p model when its
     *    parameter count matches.
     * Any of the three sinks may be nullptr to skip that artifact.
     */
    WarmStartStats warmStart(const std::vector<SubgraphTask>& known_tasks,
                             TuningRecordDb* records, MeasureCache* cache,
                             CostModel* model,
                             const std::string& model_key = "") const;

    static constexpr size_t kDefaultShards = 8;

  private:
    /** Best stored latency per distinct schedule of one task. */
    struct StoredSchedule
    {
        Schedule sch;
        double latency = 0.0;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::string path;
        /** task hash -> schedule hash -> best stored record. */
        std::unordered_map<uint64_t,
                           std::unordered_map<uint64_t, StoredSchedule>>
            by_task;
        size_t lines = 0;
    };

    Shard& shardFor(uint64_t task_hash) const;
    void loadShardFile(const std::string& path);
    std::string modelPath(const std::string& key) const;

    std::string root_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Serializes snapshot read-merge-write cycles within this process. */
    mutable std::mutex snapshot_mutex_;
    bool writable_ = true;
    /** Mutable: loads are const but still account the faults they survive
     *  (same convention as ArtifactSession's counters). */
    mutable std::atomic<size_t> quarantined_files_{0};
    mutable std::atomic<size_t> torn_tails_{0};
    mutable std::atomic<size_t> corrupt_lines_{0};
    mutable std::atomic<size_t> io_failures_{0};
};

} // namespace pruner
