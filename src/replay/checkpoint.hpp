#pragma once

/**
 * @file checkpoint.hpp
 * Crash-safe checkpoint/resume for long tuning sessions.
 *
 * Every TuneOptions::checkpoint_interval completed rounds (and after the
 * final round) the TuningSession (src/search/tuning_session.hpp) snapshots
 * the full resumable state — round index, simulated clock, every RNG
 * lineage, task-scheduler history, explorer state, cost-model weights,
 * measured records, measurement cache, curve, round stats and the
 * deterministic metrics channel — into one versioned file. A later run
 * pointed at that file via TuneOptions::resume_from continues the session
 * and produces a TuneResult byte-identical to the uninterrupted run, at
 * any kill point on a checkpoint boundary and at any worker count (the
 * checkpoint pins the resolved clock_lanes divisor just like session
 * replay does).
 *
 * Durability discipline:
 *  - The file is written tmp + rename (io::atomicWriteFile): a crash
 *    mid-write can never leave a torn checkpoint behind, only the previous
 *    good one (or none).
 *  - The header carries the payload's byte count and CRC32. A checkpoint
 *    that fails either check is quarantined (renamed to "<path>.corrupt",
 *    counted in checkpoint_quarantined_total) and the tuner starts cold
 *    instead of crashing — no corrupted artifact load ever terminates the
 *    tuner.
 *  - A fingerprint over the policy identity, workload and every
 *    trajectory-shaping option guards against resuming an incompatible
 *    run; worker-count-style execution knobs (measure_workers, clock_lanes,
 *    async_training, predict_batch) are deliberately excluded because the
 *    trajectory is invariant to them.
 *
 * Checkpointing is pure IO: enabling it never changes tuning results
 * (the forced async-trainer install() at the boundary is value-neutral in
 * every loop variant — the next prediction installs first anyway).
 */

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/workload_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/round_stats.hpp"
#include "search/measure_cache.hpp"
#include "search/measurer.hpp"
#include "search/search_policy.hpp"
#include "search/task_scheduler.hpp"
#include "support/rng.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

class Explorer;   // search/explorer.hpp
class MoAAdapter; // core/moa.hpp

/** Everything a tuning loop needs to continue mid-session. Plain data;
 *  the loops fill/apply it, encode/decode move it to/from disk. */
struct TuningCheckpoint
{
    /** checkpointFingerprint() of the writing run. */
    uint64_t fingerprint = 0;
    /** First round the resumed run executes (rounds before it are done). */
    int next_round = 0;
    /** Resolved compile-overlap divisor of the writing run; resume pins it
     *  so the simulated clock reproduces at any real worker count. */
    uint64_t clock_lanes = 1;
    /** SimClock per-category totals, CostCategory order. */
    std::array<double, kNumCostCategories> clock_totals{};
    /** The loop's main generator. */
    RngState rng;

    bool has_model = false;
    std::vector<double> model_params;
    /** Training-stream RNG lineage (the async back model's when async
     *  training is on — see AsyncModelTrainer::backModel()). */
    bool has_model_rng = false;
    RngState model_rng;
    /** MoA Siamese adapter parameters (MoA-Pruner only). */
    bool has_siamese = false;
    std::vector<double> siamese_params;

    MeasurerState measurer;
    TaskSchedulerState scheduler;
    /** TuningRecordDb records in insertion order, record_log line codec
     *  (precision-17 latencies roundtrip doubles exactly). */
    std::vector<std::string> record_lines;
    /** MeasureCache contents, least recently used first. */
    std::vector<MeasureCacheEntry> cache_entries;
    /** TuneResult::curve collected so far. */
    std::vector<CurvePoint> curve;
    /** Collected per-round stats (empty unless collect_round_stats). */
    std::vector<obs::RoundStats> round_stats;
    /** Deterministic-channel metrics accumulated so far (the counters
     *  TuneResult is filled from live here). */
    obs::MetricsSnapshot metrics;
    /** Explorer::serializeState() blob ("" for stateless explorers). */
    std::string explorer_blob;
};

/**
 * Identity hash of a tuning run: policy replay identity, device, workload
 * and every trajectory-shaping TuneOption. Two runs with equal
 * fingerprints follow identical trajectories round for round, so a
 * checkpoint from one resumes the other. Execution-only knobs
 * (measure_workers, clock_lanes, async_training, predict_batch) and pure
 * IO knobs (checkpointing itself, artifact paths, sinks) are excluded.
 */
uint64_t checkpointFingerprint(const std::string& replay_factory,
                               const std::string& replay_config,
                               const std::string& device_name,
                               const Workload& workload,
                               const TuneOptions& opts);

/** Borrowed views of everything a tuning loop snapshots at a round
 *  boundary. buildCheckpoint() assembles the TuningCheckpoint from them;
 *  null members are simply absent from the snapshot. */
struct CheckpointSources
{
    uint64_t fingerprint = 0;
    int next_round = 0;
    uint64_t clock_lanes = 1;
    const SimClock* clock = nullptr;
    const Rng* rng = nullptr;
    const Measurer* measurer = nullptr;
    const TaskScheduler* scheduler = nullptr;
    const TuningRecordDb* db = nullptr;
    /** Null when measurement caching is off. */
    const MeasureCache* cache = nullptr;
    const Explorer* explorer = nullptr;
    CostModel* model = nullptr;
    /** Training-stream RNG: the async back model's when async training is
     *  on (read after an install() barrier), the front model's otherwise.
     *  Null for models without one. */
    Rng* model_rng = nullptr;
    /** MoAAdapter::siameseParams() (MoA-Pruner only). */
    const std::vector<double>* siamese = nullptr;
    const std::vector<CurvePoint>* curve = nullptr;
    const std::vector<obs::RoundStats>* round_stats = nullptr;
    const obs::MetricsRegistry* metrics = nullptr;
};

/** Snapshot a round boundary into @p out (pure reads — never perturbs the
 *  tuning trajectory). Every field is rebuilt from @p src except the
 *  record lines: those already in @p out are kept and only records
 *  appended to the db since are formatted (TuningRecordDb is
 *  append-only), so the result is identical to a build into a fresh
 *  TuningCheckpoint. @p out must be fresh or hold the lines of an earlier
 *  build from the same db. */
void buildCheckpoint(const CheckpointSources& src, TuningCheckpoint* out);

/** Mutable counterparts applyCheckpoint() restores into, right after the
 *  loop constructs them and before the first round runs. Null members are
 *  skipped. */
struct CheckpointTargets
{
    SimClock* clock = nullptr;
    Rng* rng = nullptr;
    Measurer* measurer = nullptr;
    TaskScheduler* scheduler = nullptr;
    TuningRecordDb* db = nullptr;
    MeasureCache* cache = nullptr;
    Explorer* explorer = nullptr;
    CostModel* model = nullptr;
    MoAAdapter* moa = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    obs::RoundStatsCollector* round_stats = nullptr;
    std::vector<CurvePoint>* curve = nullptr;
};

/** Restore @p cp into a freshly constructed tuning loop. Records resolve
 *  against @p workload (the fingerprint already guaranteed the same task
 *  set). Must run before the async trainer is constructed, so the back
 *  model clone inherits the restored training-RNG lineage. Returns the
 *  round index to continue from. */
int applyCheckpoint(const TuningCheckpoint& cp, const Workload& workload,
                    const CheckpointTargets& targets);

/** Serialize to the on-disk format: a "#pruner-checkpoint v1" header
 *  carrying the payload byte count and CRC32, then the payload. */
std::string encodeCheckpoint(const TuningCheckpoint& cp);

/** Parse encodeCheckpoint() output.
 *  @throws FatalError on any framing, CRC or payload corruption. */
TuningCheckpoint decodeCheckpoint(const std::string& text);

/**
 * Durably write @p cp to @p path (tmp + rename; bounded retries through
 * the io fault layer). Never throws: failure warns, bumps
 * checkpoint_write_failures_total and returns false — a tuning run never
 * dies because its checkpoint could not be written.
 */
bool saveCheckpoint(const std::string& path, const TuningCheckpoint& cp,
                    obs::MetricsRegistry* metrics = nullptr);

/**
 * Load a checkpoint for the run identified by @p expected_fingerprint.
 * Degrades gracefully in every failure mode (the tuner then starts cold):
 *  - missing/unreadable file: warning, nullopt;
 *  - corrupt file (bad header, size or CRC mismatch, malformed payload):
 *    quarantined to "<path>.corrupt", warning,
 *    checkpoint_quarantined_total bumped, nullopt;
 *  - fingerprint mismatch (valid checkpoint of a different run): warning,
 *    nullopt — the file is left untouched.
 */
std::optional<TuningCheckpoint>
loadCheckpoint(const std::string& path, uint64_t expected_fingerprint,
               obs::MetricsRegistry* metrics = nullptr);

/**
 * Canonical byte signature of a TuneResult: every field (doubles as
 * IEEE-754 bit patterns, round stats included). Two results are
 * byte-identical iff their signatures compare equal — the equality the
 * checkpoint/resume tests and bench/crash_resume assert.
 */
std::string resultSignature(const TuneResult& result);

} // namespace pruner
