#include "db/artifact_db.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <sstream>

#include "search/record_log.hpp"
#include "nn/serialize.hpp"
#include "support/io.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace pruner {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCacheMagic = 0x434D5250; // "PRMC" little-endian
/** The 20-byte header holds magic, version, entry count and a CRC-32 of
 *  the entry bytes. Any other version, a size that is not exactly the
 *  claimed entries, or a CRC mismatch marks the file corrupt. */
constexpr uint32_t kCacheVersion = 2;
constexpr size_t kCacheHeaderBytes = 20;
constexpr size_t kCacheEntryBytes = 24;

void
putU32(std::string& out, uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
}

void
putU64(std::string& out, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
}

uint32_t
getU32(const char* p)
{
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) | static_cast<uint8_t>(p[i]);
    }
    return v;
}

uint64_t
getU64(const char* p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | static_cast<uint8_t>(p[i]);
    }
    return v;
}

/** (task hash, schedule hash) -> latency, the snapshot's logical content. */
using SnapshotMap =
    std::unordered_map<uint64_t, std::unordered_map<uint64_t, double>>;

/** Outcome of readSnapshotFile(). */
enum class SnapshotRead : uint8_t
{
    Missing, ///< no file (or unreadable): nothing loaded
    Ok,      ///< entries loaded (possibly zero)
    Corrupt, ///< foreign magic, bad size, or CRC mismatch — caller
             ///< should quarantine; nothing loaded
};

/** Parse a snapshot file into @p out. */
SnapshotRead
readSnapshotFile(const std::string& path, SnapshotMap* out)
{
    const std::optional<std::string> bytes = io::readFile(path);
    if (!bytes) {
        return SnapshotRead::Missing;
    }
    if (bytes->size() < kCacheHeaderBytes ||
        getU32(bytes->data()) != kCacheMagic ||
        getU32(bytes->data() + 4) != kCacheVersion) {
        return SnapshotRead::Corrupt;
    }
    // Check the size by division: a product of the claimed count wraps
    // when a high count bit flips, and the loop would then run off the
    // buffer.
    const char* body = bytes->data() + kCacheHeaderBytes;
    const size_t body_bytes = bytes->size() - kCacheHeaderBytes;
    const uint64_t count = getU64(bytes->data() + 8);
    if (body_bytes % kCacheEntryBytes != 0 ||
        count != body_bytes / kCacheEntryBytes ||
        getU32(bytes->data() + 16) != io::crc32(body, body_bytes)) {
        return SnapshotRead::Corrupt;
    }
    for (size_t i = 0; i < count; ++i) {
        const char* p = body + i * kCacheEntryBytes;
        const uint64_t task = getU64(p);
        const uint64_t sched = getU64(p + 8);
        const double latency = std::bit_cast<double>(getU64(p + 16));
        (*out)[task][sched] = latency;
    }
    return SnapshotRead::Ok;
}

/** Canonical snapshot order: flatten @p map sorted by (task hash,
 *  schedule hash). Both serialization and restore use this, so identical
 *  logical content always yields identical bytes and a deterministic
 *  restored cache state. */
std::vector<MeasureCacheEntry>
flattenSorted(const SnapshotMap& map)
{
    std::vector<MeasureCacheEntry> entries;
    for (const auto& [task, scheds] : map) {
        for (const auto& [sched, latency] : scheds) {
            entries.push_back({task, sched, latency});
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const MeasureCacheEntry& a, const MeasureCacheEntry& b) {
                  return a.task_hash != b.task_hash
                             ? a.task_hash < b.task_hash
                             : a.sched_hash < b.sched_hash;
              });
    return entries;
}

/** Serialize @p map in canonical order (v2: CRC-framed). */
std::string
encodeSnapshot(const SnapshotMap& map)
{
    const std::vector<MeasureCacheEntry> entries = flattenSorted(map);
    std::string body;
    body.reserve(entries.size() * kCacheEntryBytes);
    for (const auto& e : entries) {
        putU64(body, e.task_hash);
        putU64(body, e.sched_hash);
        putU64(body, std::bit_cast<uint64_t>(e.latency));
    }
    std::string bytes;
    bytes.reserve(kCacheHeaderBytes + body.size());
    putU32(bytes, kCacheMagic);
    putU32(bytes, kCacheVersion);
    putU64(bytes, entries.size());
    putU32(bytes, io::crc32(body));
    bytes += body;
    return bytes;
}

/** File-name-safe form of a model key ("Pruner/PaCM/a100" ->
 *  "Pruner_PaCM_a100"). */
std::string
sanitizeKey(const std::string& key)
{
    std::string out;
    out.reserve(key.size());
    for (char c : key) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '-';
        out.push_back(safe ? c : '_');
    }
    return out.empty() ? std::string("default") : out;
}

} // namespace

ArtifactDb::ArtifactDb(std::string root, size_t num_shards)
    : root_(std::move(root))
{
    PRUNER_CHECK_MSG(!root_.empty(), "ArtifactDb root must be non-empty");
    num_shards = std::max<size_t>(num_shards, 1);
    for (const char* sub : {"records", "models"}) {
        std::error_code ec;
        fs::create_directories(fs::path(root_) / sub, ec);
        if (ec) {
            PRUNER_WARN("cannot create ArtifactDb directory "
                        << (fs::path(root_) / sub).string() << ": "
                        << ec.message()
                        << "; persistence disabled for this store");
            writable_ = false;
            ++io_failures_;
            break;
        }
    }
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
        auto shard = std::make_unique<Shard>();
        std::ostringstream oss;
        oss << "shard_" << std::setw(4) << std::setfill('0') << i << ".log";
        shard->path = (fs::path(root_) / "records" / oss.str()).string();
        shards_.push_back(std::move(shard));
    }
    // Load every shard log present, dispatching each line to its in-memory
    // shard by task hash — which *file* a record sits in is a layout
    // detail, so stores written with a different shard count (or whose
    // shard files were concatenated) still load fully.
    std::vector<std::string> existing;
    std::error_code iter_ec;
    for (const auto& entry :
         fs::directory_iterator(fs::path(root_) / "records", iter_ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard_", 0) == 0 &&
            entry.path().extension() == ".log") {
            existing.push_back(entry.path().string());
        }
    }
    if (iter_ec && writable_) {
        PRUNER_WARN("cannot scan ArtifactDb records under "
                    << root_ << ": " << iter_ec.message()
                    << "; starting from an empty record index");
        ++io_failures_;
    }
    std::sort(existing.begin(), existing.end());
    for (const auto& path : existing) {
        loadShardFile(path);
    }
}

StorageHealth
ArtifactDb::storageHealth() const
{
    StorageHealth h;
    h.quarantined_files = quarantined_files_.load(std::memory_order_relaxed);
    h.torn_tails = torn_tails_.load(std::memory_order_relaxed);
    h.corrupt_lines = corrupt_lines_.load(std::memory_order_relaxed);
    h.io_failures = io_failures_.load(std::memory_order_relaxed);
    return h;
}

ArtifactDb::Shard&
ArtifactDb::shardFor(uint64_t task_hash) const
{
    return *shards_[task_hash % shards_.size()];
}

void
ArtifactDb::loadShardFile(const std::string& path)
{
    const std::optional<std::string> file = io::readFile(path);
    if (!file) {
        return; // fresh shard, no log yet
    }
    const std::string& bytes = *file;

    // A crash mid-append leaves a final line without its newline.
    // Truncate the file itself, not just the in-memory view: the shard
    // stays append-mode, and a later append must not concatenate a fresh
    // record onto the torn fragment.
    size_t usable = bytes.size();
    if (usable > 0 && bytes[usable - 1] != '\n') {
        const size_t last_nl = bytes.find_last_of('\n');
        const size_t keep = last_nl == std::string::npos ? 0 : last_nl + 1;
        PRUNER_WARN("record shard '"
                    << path << "' has a torn final line ("
                    << usable - keep
                    << " bytes); truncating to the last complete line");
        std::error_code ec;
        fs::resize_file(path, keep, ec);
        if (ec) {
            PRUNER_WARN("cannot truncate '" << path << "': " << ec.message()
                                            << "; ignoring the torn tail "
                                               "in memory only");
            ++io_failures_;
        }
        ++torn_tails_;
        usable = keep;
    }

    size_t good = 0;
    size_t bad = 0;
    size_t pos = 0;
    while (pos < usable) {
        const size_t eol = bytes.find('\n', pos);
        std::string line = bytes.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) {
            continue;
        }
        RawRecordLine raw;
        if (!io::checkLineCrc(line) || !lineToRawRecord(line, &raw)) {
            ++bad; // unframed, CRC-mismatched or malformed: skip
            continue;
        }
        ++good;
        Shard& shard = shardFor(raw.task_hash);
        ++shard.lines;
        auto& per_task = shard.by_task[raw.task_hash];
        const uint64_t sched_hash = raw.sch.hash();
        auto it = per_task.find(sched_hash);
        if (it == per_task.end() || raw.latency < it->second.latency) {
            per_task[sched_hash] = {std::move(raw.sch), raw.latency};
        }
    }
    if (bad > 0) {
        corrupt_lines_ += bad;
        if (good == 0) {
            // Nothing in the file is usable: move the whole shard aside so
            // the next open does not re-scan the same poison.
            const std::string moved = io::quarantineFile(path);
            PRUNER_WARN("record shard '"
                        << path << "' is wholly corrupt (" << bad
                        << " line(s)); "
                        << (moved.empty() ? "ignoring it"
                                          : "quarantined to '" + moved + "'"));
            ++quarantined_files_;
        } else {
            PRUNER_WARN("record shard '" << path << "': skipped " << bad
                                         << " corrupt line(s)");
        }
    }
}

size_t
ArtifactDb::appendRecords(const std::vector<MeasuredRecord>& records)
{
    if (!writable_) {
        return 0; // the constructor already warned once
    }
    // Group by shard first so each shard is locked (and its log opened)
    // at most once per batch.
    std::vector<std::vector<const MeasuredRecord*>> per_shard(
        shards_.size());
    for (const auto& record : records) {
        if (!std::isfinite(record.latency) || record.latency <= 0.0) {
            continue;
        }
        per_shard[record.task.hash() % shards_.size()].push_back(&record);
    }
    size_t written = 0;
    for (size_t s = 0; s < per_shard.size(); ++s) {
        if (per_shard[s].empty()) {
            continue;
        }
        Shard& shard = *shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        // Stage the whole batch, append it in one durable write, and only
        // then index: the in-memory dedup map must only claim records that
        // actually reached the log (a later improvement would otherwise be
        // deduped against a line that was never written).
        std::string batch;
        std::vector<std::pair<const MeasuredRecord*, uint64_t>> staged;
        std::unordered_map<uint64_t, double> staged_best;
        for (const MeasuredRecord* record : per_shard[s]) {
            const uint64_t task_hash = record->task.hash();
            const uint64_t sched_hash = record->sch.hash();
            double best = std::numeric_limits<double>::infinity();
            auto& per_task = shard.by_task[task_hash];
            if (const auto it = per_task.find(sched_hash);
                it != per_task.end()) {
                best = it->second.latency;
            }
            const uint64_t pair_key = hashCombine(task_hash, sched_hash);
            if (const auto it = staged_best.find(pair_key);
                it != staged_best.end()) {
                best = std::min(best, it->second);
            }
            if (best <= record->latency) {
                continue; // already stored at least as good: no log growth
            }
            batch += io::withLineCrc(recordToLine(*record));
            batch.push_back('\n');
            staged_best[pair_key] = record->latency;
            staged.emplace_back(record, sched_hash);
        }
        if (staged.empty()) {
            continue;
        }
        if (!io::appendFile(shard.path, batch)) {
            // A failed append (ENOSPC, torn write, …) drops this batch
            // from persistence but never from the run: the records stay in
            // the live TuningRecordDb and tuning continues. A torn tail
            // left by a partial append is truncated by the next load.
            PRUNER_WARN("record append to '"
                        << shard.path << "' failed; " << staged.size()
                        << " record(s) not persisted (tuning continues)");
            ++io_failures_;
            continue;
        }
        for (const auto& [record, sched_hash] : staged) {
            shard.by_task[record->task.hash()][sched_hash] = {
                record->sch, record->latency};
            ++shard.lines;
            ++written;
        }
    }
    return written;
}

size_t
ArtifactDb::recordCount() const
{
    size_t total = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->lines;
    }
    return total;
}

std::vector<ServedSchedule>
ArtifactDb::topK(const SubgraphTask& task, size_t k) const
{
    Shard& shard = shardFor(task.hash());
    std::vector<ServedSchedule> out;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.by_task.find(task.hash());
        if (it == shard.by_task.end()) {
            return out;
        }
        out.reserve(it->second.size());
        for (const auto& [sched_hash, stored] : it->second) {
            out.push_back({stored.sch, stored.latency, sched_hash});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const ServedSchedule& a, const ServedSchedule& b) {
                  return a.latency != b.latency
                             ? a.latency < b.latency
                             : a.sched_hash < b.sched_hash;
              });
    if (out.size() > k) {
        out.resize(k);
    }
    return out;
}

std::optional<ServedSchedule>
ArtifactDb::bestSchedule(const SubgraphTask& task) const
{
    auto top = topK(task, 1);
    if (top.empty()) {
        return std::nullopt;
    }
    return std::move(top.front());
}

void
ArtifactDb::saveMeasureCache(const MeasureCache& cache)
{
    if (!writable_) {
        return;
    }
    const std::string path =
        (fs::path(root_) / "measure_cache.bin").string();
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    // Merge with whatever is already persisted so concurrent sessions
    // accumulate instead of clobbering each other; the live cache wins on
    // conflicting pairs (its value is fresher). A corrupt on-disk
    // snapshot contributes nothing to the merge and is overwritten by the
    // fresh save (quarantining is the loader's job).
    SnapshotMap merged;
    readSnapshotFile(path, &merged);
    for (const auto& e : cache.exportEntries()) {
        merged[e.task_hash][e.sched_hash] = e.latency;
    }
    if (!io::atomicWriteFile(path, encodeSnapshot(merged))) {
        PRUNER_WARN("cannot persist measure-cache snapshot to '"
                    << path << "'; tuning continues without it");
        ++io_failures_;
    }
}

size_t
ArtifactDb::loadMeasureCache(MeasureCache* cache) const
{
    PRUNER_CHECK(cache != nullptr);
    if (cache->capacity() == 0) {
        return 0; // caching disabled: don't pay the snapshot read
    }
    const std::string path =
        (fs::path(root_) / "measure_cache.bin").string();
    SnapshotMap map;
    {
        std::lock_guard<std::mutex> lock(snapshot_mutex_);
        if (readSnapshotFile(path, &map) == SnapshotRead::Corrupt) {
            const std::string moved = io::quarantineFile(path);
            PRUNER_WARN("measure-cache snapshot '"
                        << path << "' is corrupt; "
                        << (moved.empty() ? "ignoring it"
                                          : "quarantined to '" + moved + "'")
                        << " — starting with an empty cache");
            ++quarantined_files_;
            return 0;
        }
    }
    // Insert in canonical sorted order so the restored LRU state is
    // deterministic. A snapshot larger than the cache keeps its canonical
    // tail (the earlier inserts get evicted) — report only what the cache
    // can actually hold.
    const std::vector<MeasureCacheEntry> entries = flattenSorted(map);
    if (entries.size() > cache->capacity()) {
        PRUNER_INFO("measure-cache snapshot ("
                    << entries.size() << " entries) exceeds cache capacity ("
                    << cache->capacity()
                    << "); oldest canonical entries will be evicted");
    }
    for (const auto& e : entries) {
        cache->insert(e.task_hash, e.sched_hash, e.latency);
    }
    return std::min(entries.size(), cache->capacity());
}

std::string
ArtifactDb::modelPath(const std::string& key) const
{
    return (fs::path(root_) / "models" / (sanitizeKey(key) + ".params"))
        .string();
}

void
ArtifactDb::saveModelParams(const std::string& key,
                            const std::vector<double>& params)
{
    if (!writable_) {
        return;
    }
    // A checkpoint that cannot be written is a warning, not a crash — the
    // next run simply trains from scratch.
    const std::string path = modelPath(key);
    if (!io::atomicWriteFile(path, encodeParams(params))) {
        PRUNER_WARN("cannot persist model checkpoint '"
                    << path << "'; the next run trains from scratch");
        ++io_failures_;
    }
}

std::optional<std::vector<double>>
ArtifactDb::tryLoadModelParams(const std::string& key) const
{
    const std::string path = modelPath(key);
    const std::optional<std::string> text = io::readFile(path);
    if (!text) {
        return std::nullopt;
    }
    try {
        return decodeParams(*text);
    } catch (const FatalError& e) {
        // Present but unparseable: quarantine so the next load does not
        // trip over the same poison.
        const std::string moved = io::quarantineFile(path);
        PRUNER_WARN("model checkpoint '"
                    << path << "' is corrupt (" << e.what() << "); "
                    << (moved.empty() ? "ignoring it"
                                      : "quarantined to '" + moved + "'")
                    << " — the model trains from scratch");
        ++quarantined_files_;
        return std::nullopt;
    }
}

WarmStartStats
ArtifactDb::warmStart(const std::vector<SubgraphTask>& known_tasks,
                      TuningRecordDb* records, MeasureCache* cache,
                      CostModel* model, const std::string& model_key) const
{
    WarmStartStats stats;
    if (records != nullptr) {
        for (const auto& task : known_tasks) {
            // Worst-first replay: the incumbent ends up most recent, so
            // recentWindow-based online training sees the best history.
            auto stored = topK(task, static_cast<size_t>(-1));
            for (auto it = stored.rbegin(); it != stored.rend(); ++it) {
                records->add({task, it->sch, it->latency});
                ++stats.records_replayed;
            }
        }
    }
    if (cache != nullptr) {
        stats.cache_entries = loadMeasureCache(cache);
    }
    if (model != nullptr) {
        if (auto params = tryLoadModelParams(model_key)) {
            const bool all_finite =
                std::all_of(params->begin(), params->end(),
                            [](double v) { return std::isfinite(v); });
            const size_t expected = model->getParams().size();
            if (all_finite && params->size() == expected) {
                model->setParams(*params);
                stats.model_restored = true;
            } else {
                // Never install garbage weights (and never silently zero
                // them either): the checkpoint parsed but its content is
                // unusable, so say so and train from scratch.
                PRUNER_WARN("model checkpoint '"
                            << modelPath(model_key) << "' rejected ("
                            << (all_finite
                                    ? "parameter count " +
                                          std::to_string(params->size()) +
                                          " != expected " +
                                          std::to_string(expected)
                                    : std::string("non-finite parameters"))
                            << "); the model trains from scratch");
                ++corrupt_lines_;
            }
        }
    }
    return stats;
}

} // namespace pruner
