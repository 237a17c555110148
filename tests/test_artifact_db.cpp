/** Tests for src/db: the persistent tuning-artifact database. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/pruner_tuner.hpp"
#include "db/artifact_db.hpp"
#include "db/artifact_session.hpp"
#include "obs/metrics.hpp"
#include "sched/sampler.hpp"
#include "search/record_log.hpp"
#include "support/io.hpp"
#include "support/thread_pool.hpp"

namespace pruner {
namespace {

namespace fs = std::filesystem;

std::string
readFileBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

class ArtifactDbTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = "/tmp/pruner_test_artifact_db";
        fs::remove_all(root_);
    }
    void
    TearDown() override
    {
        fs::remove_all(root_);
    }

    std::vector<MeasuredRecord>
    sampleRecords(const SubgraphTask& task, int n, uint64_t seed,
                  double base_latency = 1e-4)
    {
        ScheduleSampler sampler(task, dev_);
        Rng rng(seed);
        std::vector<MeasuredRecord> records;
        for (int i = 0; i < n; ++i) {
            records.push_back(
                {task, sampler.sample(rng), base_latency + i * 1e-6});
        }
        return records;
    }

    /** The one record shard written so far ("" when there is none). */
    std::string
    shardLogPath() const
    {
        std::string path;
        for (const auto& entry :
             fs::directory_iterator(fs::path(root_) / "records")) {
            if (entry.path().extension() == ".log") {
                path = entry.path().string();
            }
        }
        return path;
    }

    std::string root_;
    SubgraphTask task_ = makeGemm("adb", 1, 128, 128, 128);
    DeviceSpec dev_ = DeviceSpec::a100();
};

TEST_F(ArtifactDbTest, TopKServesBestDistinctSchedules)
{
    ArtifactDb db(root_);
    auto records = sampleRecords(task_, 10, 3);
    // Duplicate the best schedule with a worse latency: topK must dedupe
    // and keep the better measurement.
    records.push_back({task_, records[0].sch, records[0].latency * 10});
    db.appendRecords(records);

    const auto top = db.topK(task_, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_LE(top[0].latency, top[1].latency);
    EXPECT_LE(top[1].latency, top[2].latency);
    EXPECT_DOUBLE_EQ(top[0].latency, records[0].latency);
    EXPECT_EQ(top[0].sch, records[0].sch);

    const auto best = db.bestSchedule(task_);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->sch, top[0].sch);

    const SubgraphTask other = makeGemm("adb_other", 1, 64, 64, 64);
    EXPECT_TRUE(db.topK(other, 5).empty());
    EXPECT_FALSE(db.bestSchedule(other).has_value());
}

TEST_F(ArtifactDbTest, RecordsPersistAcrossReopen)
{
    const auto records = sampleRecords(task_, 8, 5);
    {
        ArtifactDb db(root_);
        EXPECT_EQ(db.appendRecords(records), 8u);
    }
    ArtifactDb reopened(root_);
    EXPECT_EQ(reopened.recordCount(), 8u);
    const auto top = reopened.topK(task_, 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].sch, records[0].sch);
    EXPECT_DOUBLE_EQ(top[0].latency, records[0].latency);
}

TEST_F(ArtifactDbTest, ReplayedAppendsDoNotGrowTheLog)
{
    ArtifactDb db(root_);
    const auto records = sampleRecords(task_, 6, 7);
    EXPECT_EQ(db.appendRecords(records), 6u);
    // Same batch again (a replayed run): every pair is already stored at
    // least as good, so nothing is written.
    EXPECT_EQ(db.appendRecords(records), 0u);
    EXPECT_EQ(db.recordCount(), 6u);
    // An improvement for a stored schedule is written.
    std::vector<MeasuredRecord> better{
        {task_, records[0].sch, records[0].latency / 2}};
    EXPECT_EQ(db.appendRecords(better), 1u);
    const auto best = db.bestSchedule(task_);
    ASSERT_TRUE(best.has_value());
    EXPECT_DOUBLE_EQ(best->latency, records[0].latency / 2);
}

TEST_F(ArtifactDbTest, NonFiniteLatenciesAreNotLogged)
{
    ArtifactDb db(root_);
    ScheduleSampler sampler(task_, dev_);
    Rng rng(11);
    std::vector<MeasuredRecord> records{
        {task_, sampler.sample(rng),
         std::numeric_limits<double>::infinity()},
        {task_, sampler.sample(rng), -1.0},
    };
    EXPECT_EQ(db.appendRecords(records), 0u);
    EXPECT_EQ(db.recordCount(), 0u);
}

TEST_F(ArtifactDbTest, ShardingSpreadsTasksAcrossFiles)
{
    ArtifactDb db(root_);
    for (int i = 0; i < 8; ++i) {
        const auto task =
            makeGemm("shard_" + std::to_string(i), 1, 64 + i, 64, 64);
        db.appendRecords(sampleRecords(task, 2, 13 + i));
    }
    size_t shard_files = 0;
    for (const auto& entry :
         fs::directory_iterator(fs::path(root_) / "records")) {
        (void)entry;
        ++shard_files;
    }
    EXPECT_GE(shard_files, 2u);
    EXPECT_EQ(db.recordCount(), 16u);
}

TEST_F(ArtifactDbTest, TruncatedLogTailIsSkippedOnLoad)
{
    std::string shard_path;
    {
        ArtifactDb db(root_);
        db.appendRecords(sampleRecords(task_, 4, 17));
        for (const auto& entry :
             fs::directory_iterator(fs::path(root_) / "records")) {
            shard_path = entry.path().string();
        }
    }
    // Emulate a crash mid-append: a half-written line at the end.
    {
        std::ofstream out(shard_path, std::ios::app);
        out << "gemm_half\t123456\t2;1;4,"; // no newline, cut mid-schedule
    }
    ArtifactDb reopened(root_);
    EXPECT_EQ(reopened.recordCount(), 4u);
    EXPECT_EQ(reopened.topK(task_, 10).size(), 4u);
}

TEST_F(ArtifactDbTest, CorruptLinesAreSkippedWithoutQuarantine)
{
    const auto records = sampleRecords(task_, 3, 37);
    std::string shard_path;
    {
        ArtifactDb db(root_);
        db.appendRecords(records);
        shard_path = shardLogPath();
    }
    ASSERT_FALSE(shard_path.empty());
    // A flipped payload byte under an intact CRC suffix: the payload would
    // still parse as a plausible record, so only the checksum rejects it.
    std::string framed =
        io::withLineCrc(recordToLine(sampleRecords(task_, 1, 41)[0]));
    framed[5] ^= 0x01;
    {
        std::ofstream out(shard_path, std::ios::app | std::ios::binary);
        out << framed << "\n";
        out << "garbage line without tabs\n";
        out << "a\tb\tc\td\n"; // right arity, wrong content
    }
    ArtifactDb reopened(root_);
    EXPECT_EQ(reopened.recordCount(), records.size());
    const auto top = reopened.topK(task_, 10);
    ASSERT_EQ(top.size(), records.size());
    for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].sch, records[i].sch);
        EXPECT_DOUBLE_EQ(top[i].latency, records[i].latency);
    }
    EXPECT_EQ(reopened.storageHealth().corrupt_lines, 3u);
    // Good lines remain, so the shard stays in place.
    EXPECT_EQ(reopened.storageHealth().quarantined_files, 0u);
    EXPECT_TRUE(fs::exists(shard_path));
}

TEST_F(ArtifactDbTest, BareShardLinesAreCorrupt)
{
    // A payload line without its CRC suffix is no form the writer
    // produces: it is a corrupt line, and a shard holding nothing else is
    // quarantined.
    std::string shard_path;
    {
        ArtifactDb db(root_);
        db.appendRecords(sampleRecords(task_, 1, 43));
        shard_path = shardLogPath();
    }
    ASSERT_FALSE(shard_path.empty());
    const MeasuredRecord record = sampleRecords(task_, 1, 47, 2e-4)[0];
    {
        std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
        out << recordToLine(record) << "\n";
    }
    ArtifactDb reopened(root_);
    EXPECT_EQ(reopened.recordCount(), 0u);
    EXPECT_FALSE(reopened.bestSchedule(task_).has_value());
    EXPECT_EQ(reopened.storageHealth().corrupt_lines, 1u);
    EXPECT_EQ(reopened.storageHealth().quarantined_files, 1u);
    EXPECT_TRUE(fs::exists(shard_path + ".corrupt"));
}

TEST_F(ArtifactDbTest, EverySuffixBitFlipIsRejected)
{
    // The CRC guards its own suffix too: no single-bit flip inside the 13
    // bytes of "\tcrc=XXXXXXXX" leaves a line that loads.
    const std::string framed =
        io::withLineCrc(recordToLine(sampleRecords(task_, 1, 53)[0]));
    const size_t suffix_at = framed.size() - 13;
    ASSERT_EQ(framed.compare(suffix_at, 5, "\tcrc="), 0);
    const fs::path shard = fs::path(root_) / "records" / "shard_0000.log";
    size_t flips = 0;
    for (size_t i = suffix_at; i < framed.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit, ++flips) {
            std::string line = framed;
            line[i] = static_cast<char>(line[i] ^ (1 << bit));
            fs::remove_all(root_);
            fs::create_directories(shard.parent_path());
            {
                std::ofstream out(shard, std::ios::binary);
                out << line << "\n";
            }
            const ArtifactDb db(root_);
            EXPECT_EQ(db.recordCount(), 0u)
                << "bit " << bit << " of suffix byte " << i - suffix_at;
            EXPECT_EQ(db.storageHealth().corrupt_lines, 1u);
        }
    }
    EXPECT_EQ(flips, 104u);
}

TEST_F(ArtifactDbTest, MeasureCacheSnapshotIsByteDeterministic)
{
    const std::string snapshot =
        (fs::path(root_) / "measure_cache.bin").string();
    MeasureCache cache;
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        cache.insert(rng(), rng(), 1e-4 + i * 1e-7);
    }
    // A cached failed launch must survive the round trip too.
    cache.insert(42, 43, std::numeric_limits<double>::infinity());

    ArtifactDb db(root_);
    db.saveMeasureCache(cache);
    const std::string first = readFileBytes(snapshot);
    ASSERT_FALSE(first.empty());
    // Saving the same state again produces identical bytes (the merge with
    // the existing file is idempotent).
    db.saveMeasureCache(cache);
    EXPECT_TRUE(readFileBytes(snapshot) == first);

    // save -> load -> save round-trips to identical bytes.
    MeasureCache restored;
    EXPECT_EQ(db.loadMeasureCache(&restored), 51u);
    const std::string root2 = root_ + "_roundtrip";
    fs::remove_all(root2);
    {
        ArtifactDb db2(root2);
        db2.saveMeasureCache(restored);
        EXPECT_TRUE(
            readFileBytes(
                (fs::path(root2) / "measure_cache.bin").string()) == first);
    }
    fs::remove_all(root2);

    // Values survive: a hit returns the stored latency, including +inf.
    double latency = 0.0;
    EXPECT_TRUE(restored.lookup(42, 43, &latency));
    EXPECT_TRUE(std::isinf(latency));
}

TEST_F(ArtifactDbTest, CorruptSnapshotLoadsNothing)
{
    ArtifactDb db(root_);
    const std::string snapshot =
        (fs::path(root_) / "measure_cache.bin").string();
    {
        std::ofstream out(snapshot, std::ios::binary);
        out << "not a snapshot";
    }
    MeasureCache cache;
    EXPECT_EQ(db.loadMeasureCache(&cache), 0u);
    EXPECT_EQ(cache.size(), 0u);
    // The poison is quarantined, not left in place: the next load starts
    // cold without re-reporting the same corruption.
    EXPECT_FALSE(fs::exists(snapshot));
    EXPECT_TRUE(fs::exists(snapshot + ".corrupt"));
    EXPECT_EQ(db.storageHealth().quarantined_files, 1u);
}

TEST_F(ArtifactDbTest, CrcMismatchedSnapshotIsQuarantined)
{
    const std::string snapshot =
        (fs::path(root_) / "measure_cache.bin").string();
    MeasureCache cache;
    cache.insert(1, 2, 1e-4);
    std::string good;
    {
        ArtifactDb db(root_);
        db.saveMeasureCache(cache);
        good = readFileBytes(snapshot);
    }
    // Header: magic (0..3), version (4..7), entry count (8..15), CRC of
    // the entries (16..19); then one 24-byte entry.
    ASSERT_EQ(good.size(), 20u + 24u);
    struct Flip
    {
        const char* what;
        size_t byte;
        unsigned mask;
    };
    const Flip flips[] = {
        {"entry payload bit 0", good.size() - 1, 0x01}, // the CRC catches it
        // count * 24 wraps back to the file size for bits 61..63, so only
        // a size check by division rejects them.
        {"entry count bit 61", 15, 0x20},
        {"entry count bit 63", 15, 0x80},
        {"version 2 -> 3", 4, 0x01},
    };
    for (const Flip& flip : flips) {
        SCOPED_TRACE(flip.what);
        std::string bytes = good;
        bytes[flip.byte] = static_cast<char>(bytes[flip.byte] ^ flip.mask);
        {
            std::ofstream out(snapshot, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        fs::remove(snapshot + ".corrupt");
        ArtifactDb reopened(root_);
        MeasureCache restored;
        EXPECT_EQ(reopened.loadMeasureCache(&restored), 0u);
        EXPECT_EQ(restored.size(), 0u);
        EXPECT_TRUE(fs::exists(snapshot + ".corrupt"));
        EXPECT_EQ(reopened.storageHealth().quarantined_files, 1u);
    }
}

TEST_F(ArtifactDbTest, V1SnapshotIsQuarantined)
{
    // The v1 layout (magic, version 1, count, entries, no CRC) is no
    // longer written, so it loads as corrupt.
    std::string bytes;
    const auto put = [&bytes](uint64_t v, int n) {
        for (int i = 0; i < n; ++i) {
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
        }
    };
    put(0x434D5250, 4);                     // magic "PRMC"
    put(1, 4);                              // version 1
    put(1, 8);                              // one entry:
    put(1, 8);                              //   task hash
    put(2, 8);                              //   schedule hash
    put(std::bit_cast<uint64_t>(1e-4), 8); //   latency bits
    ArtifactDb db(root_);
    const std::string snapshot =
        (fs::path(root_) / "measure_cache.bin").string();
    {
        std::ofstream out(snapshot, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    MeasureCache restored;
    EXPECT_EQ(db.loadMeasureCache(&restored), 0u);
    EXPECT_EQ(restored.size(), 0u);
    EXPECT_TRUE(fs::exists(snapshot + ".corrupt"));
    EXPECT_EQ(db.storageHealth().quarantined_files, 1u);
}

TEST_F(ArtifactDbTest, UnwritableRootDegradesToDisabledStore)
{
    // A plain file where the root directory should be: creating
    // <root>/records fails even for root (ENOTDIR). The store must warn
    // and disable persistence, never throw.
    const std::string blocker = root_ + "_blocker_file";
    fs::remove(blocker);
    {
        std::ofstream out(blocker);
        out << "in the way";
    }
    ArtifactDb db(blocker + "/store");
    EXPECT_FALSE(db.writable());
    EXPECT_GE(db.storageHealth().io_failures, 1u);
    EXPECT_EQ(db.appendRecords(sampleRecords(task_, 3, 5)), 0u);
    EXPECT_EQ(db.recordCount(), 0u);
    EXPECT_TRUE(db.topK(task_, 4).empty());
    MeasureCache cache;
    cache.insert(1, 2, 1e-4);
    db.saveMeasureCache(cache);                // warned no-op
    db.saveModelParams("k", {1.0, 2.0});       // warned no-op
    MeasureCache restored;
    EXPECT_EQ(db.loadMeasureCache(&restored), 0u);
    fs::remove(blocker);
}

TEST_F(ArtifactDbTest, EnospcInjectedSnapshotSaveDegradesToWarning)
{
    ArtifactDb db(root_);
    MeasureCache cache;
    cache.insert(1, 2, 1e-4);
    io::IoFaultPlan plan;
    plan.fault_kind = io::IoFaultKind::NoSpace;
    plan.fault_rate = 1.0;
    io::setIoFaultPlan(plan);
    db.saveMeasureCache(cache); // must not throw
    io::clearIoFaultPlan();
    EXPECT_FALSE(fs::exists(fs::path(root_) / "measure_cache.bin"));
    EXPECT_GE(db.storageHealth().io_failures, 1u);
    // Storage recovered: the next save succeeds.
    db.saveMeasureCache(cache);
    MeasureCache restored;
    EXPECT_EQ(db.loadMeasureCache(&restored), 1u);
}

TEST_F(ArtifactDbTest, EnospcInjectedModelSaveDegradesToWarning)
{
    ArtifactDb db(root_);
    const std::string path =
        (fs::path(root_) / "models" / "key.params").string();
    io::IoFaultPlan plan;
    plan.fault_kind = io::IoFaultKind::NoSpace;
    plan.fault_rate = 1.0;
    io::setIoFaultPlan(plan);
    db.saveModelParams("key", {1.0, 2.0}); // must not throw
    io::clearIoFaultPlan();
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(db.storageHealth().io_failures, 1u);
    // Storage recovered: the next save lands.
    db.saveModelParams("key", {1.0, 2.0});
    const auto loaded = db.tryLoadModelParams("key");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, (std::vector<double>{1.0, 2.0}));
}

TEST_F(ArtifactDbTest, EnospcInjectedRecordAppendKeepsTuningAlive)
{
    ArtifactDb db(root_);
    io::IoFaultPlan plan;
    plan.fault_kind = io::IoFaultKind::NoSpace;
    plan.fault_rate = 1.0;
    io::setIoFaultPlan(plan);
    EXPECT_EQ(db.appendRecords(sampleRecords(task_, 3, 29)), 0u);
    io::clearIoFaultPlan();
    EXPECT_GE(db.storageHealth().io_failures, 1u);
    // The failed batch was not indexed (it never reached the log), so a
    // recovered disk accepts it again in full.
    EXPECT_EQ(db.appendRecords(sampleRecords(task_, 3, 29)), 3u);
    EXPECT_EQ(db.recordCount(), 3u);
}

TEST_F(ArtifactDbTest, CorruptModelCheckpointIsQuarantinedNotInstalled)
{
    const std::vector<double> params = {1.0, 2.0, 3.0};
    ArtifactDb db(root_);
    db.saveModelParams("key", params);
    ASSERT_TRUE(db.tryLoadModelParams("key").has_value());
    // Stomp the checkpoint with garbage: load must quarantine and skip —
    // never crash, never hand back zeroed weights.
    const std::string path =
        (fs::path(root_) / "models" / "key.params").string();
    ASSERT_TRUE(fs::exists(path));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "\x7f garbage that is not a params file";
    }
    EXPECT_FALSE(db.tryLoadModelParams("key").has_value());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    EXPECT_EQ(db.storageHealth().quarantined_files, 1u);
    // A fresh save repopulates the slot.
    db.saveModelParams("key", params);
    const auto reloaded = db.tryLoadModelParams("key");
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(*reloaded, params);
}

TEST_F(ArtifactDbTest, WhollyCorruptShardIsQuarantined)
{
    {
        ArtifactDb db(root_);
        db.appendRecords(sampleRecords(task_, 2, 31));
    }
    // Overwrite the shard with binary garbage (every line corrupt).
    std::string shard_path;
    for (const auto& entry :
         fs::directory_iterator(fs::path(root_) / "records")) {
        if (entry.path().extension() == ".log") {
            shard_path = entry.path().string();
        }
    }
    ASSERT_FALSE(shard_path.empty());
    {
        std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
        out << "\x01\x02garbage\tmore\tgarbage\n\x03\x04\n";
    }
    ArtifactDb reopened(root_);
    EXPECT_EQ(reopened.recordCount(), 0u);
    EXPECT_FALSE(fs::exists(shard_path));
    EXPECT_TRUE(fs::exists(shard_path + ".corrupt"));
    EXPECT_EQ(reopened.storageHealth().quarantined_files, 1u);
    EXPECT_GE(reopened.storageHealth().corrupt_lines, 1u);
    // The quarantined shard name is free again: appends keep working.
    EXPECT_EQ(reopened.appendRecords(sampleRecords(task_, 2, 31)), 2u);
}

TEST_F(ArtifactDbTest, StorageHealthGaugesReachMetricsExposition)
{
    ArtifactDb db(root_);
    // Manufacture one quarantine: a corrupt model checkpoint.
    const std::string path =
        (fs::path(root_) / "models" / "bad.params").string();
    {
        std::ofstream out(path, std::ios::binary);
        out << "junk";
    }
    EXPECT_FALSE(db.tryLoadModelParams("bad").has_value());

    obs::MetricsRegistry metrics;
    ArtifactSession session(&db, "");
    session.bindMetrics(&metrics);
    const auto snap = metrics.snapshot();
    bool found = false;
    for (const auto& g : snap.gauges) {
        if (g.name == "db_quarantined_files") {
            EXPECT_EQ(g.value, 1);
            EXPECT_EQ(g.channel, obs::MetricChannel::Execution);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    // And it renders in the full text exposition.
    const std::string text = snap.renderText(/*deterministic_only=*/false);
    EXPECT_NE(text.find("db_quarantined_files 1"), std::string::npos)
        << text;
}

TEST_F(ArtifactDbTest, ModelParamsRoundTrip)
{
    ArtifactDb db(root_);
    const std::vector<double> params{1.5, -2.25, 0.0, 1e-17};
    const std::string key = artifactModelKey("Pruner", "PaCM", "a100");
    db.saveModelParams(key, params);
    const auto loaded = db.tryLoadModelParams(key);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
        EXPECT_DOUBLE_EQ((*loaded)[i], params[i]);
    }
    EXPECT_FALSE(db.tryLoadModelParams("missing/key").has_value());
}

TEST_F(ArtifactDbTest, ConcurrentAppendsFromPoolWorkers)
{
    ArtifactDb db(root_);
    ThreadPool pool(4);
    const int jobs = 8, per_job = 25;
    std::vector<std::future<void>> futures;
    for (int j = 0; j < jobs; ++j) {
        futures.push_back(pool.submit([&, j]() {
            const auto task =
                makeGemm("conc_" + std::to_string(j), 1, 96, 96, 96);
            ScheduleSampler sampler(task, dev_);
            Rng rng(100 + j);
            for (int i = 0; i < per_job; ++i) {
                db.appendRecords(
                    {{task, sampler.sample(rng), 1e-4 + i * 1e-6}});
            }
        }));
    }
    for (auto& f : futures) {
        f.get();
    }
    // Distinct schedules per task are random; the log retains every line
    // that improved or introduced a pair, and the count matches a reopen.
    const size_t count = db.recordCount();
    EXPECT_GT(count, 0u);
    ArtifactDb reopened(root_);
    EXPECT_EQ(reopened.recordCount(), count);
    for (int j = 0; j < jobs; ++j) {
        const auto task =
            makeGemm("conc_" + std::to_string(j), 1, 96, 96, 96);
        EXPECT_TRUE(reopened.bestSchedule(task).has_value());
    }
}

TEST_F(ArtifactDbTest, WarmStartReplaysIntoRunState)
{
    ArtifactDb db(root_);
    const auto records = sampleRecords(task_, 5, 23, /*base=*/5e-4);
    db.appendRecords(records);
    MeasureCache cache;
    cache.insert(task_.hash(), records[0].sch.hash(), records[0].latency);
    db.saveMeasureCache(cache);

    TuningRecordDb run_db;
    MeasureCache run_cache;
    const auto stats =
        db.warmStart({task_}, &run_db, &run_cache, nullptr, "");
    EXPECT_EQ(stats.records_replayed, 5u);
    EXPECT_EQ(stats.cache_entries, 1u);
    EXPECT_FALSE(stats.model_restored);
    EXPECT_EQ(run_db.size(), 5u);
    EXPECT_DOUBLE_EQ(run_db.bestLatency(task_), records[0].latency);
    // Worst-first replay: the incumbent is the most recent record.
    EXPECT_DOUBLE_EQ(run_db.recentWindow(1)[0].latency,
                     records[0].latency);
}

/** End-to-end: a second tuning run against a populated store performs
 *  zero simulated measurements for previously-seen pairs and reproduces
 *  the first run's result exactly. */
TEST_F(ArtifactDbTest, SecondTuneRunReplaysFromCache)
{
    Workload workload;
    workload.name = "adb_e2e";
    workload.tasks.push_back({task_, 1.0});

    TuneOptions options;
    options.rounds = 6;
    options.seed = 9;
    options.artifact_db_path = root_;

    PrunerPolicy first(dev_, {});
    const TuneResult run1 = first.tune(workload, options);
    EXPECT_GT(run1.simulated_trials, 0u);

    PrunerPolicy second(dev_, {});
    const TuneResult run2 = second.tune(workload, options);
    EXPECT_EQ(run2.simulated_trials, 0u);
    EXPECT_EQ(run2.cache_hits, run2.trials);
    EXPECT_DOUBLE_EQ(run2.final_latency, run1.final_latency);
    // Cache hits charge neither compilation nor measurement.
    EXPECT_DOUBLE_EQ(run2.measurement_s, 0.0);
    EXPECT_DOUBLE_EQ(run2.compile_s, 0.0);
    EXPECT_LT(run2.total_time_s, run1.total_time_s);
}

/** The offline warm-start: replaying stored records changes the search
 *  trajectory but never loses the stored incumbent. */
TEST_F(ArtifactDbTest, WarmStartRecordsKeepsIncumbent)
{
    Workload workload;
    workload.name = "adb_warm";
    workload.tasks.push_back({task_, 1.0});

    TuneOptions options;
    options.rounds = 6;
    options.seed = 9;
    options.artifact_db_path = root_;

    PrunerPolicy first(dev_, {});
    const TuneResult run1 = first.tune(workload, options);

    options.warm_start_records = true;
    PrunerPolicy second(dev_, {});
    const TuneResult run2 = second.tune(workload, options);
    EXPECT_GT(run2.warm_records, 0u);
    EXPECT_LE(run2.final_latency, run1.final_latency);
}

TEST(ArtifactSessionTest, DisabledSessionIsNoOp)
{
    ArtifactSession session(nullptr, "");
    EXPECT_FALSE(session.enabled());
    Workload workload;
    workload.name = "noop";
    workload.tasks.push_back({makeGemm("noop", 1, 64, 64, 64), 1.0});
    TuningRecordDb db;
    const auto stats =
        session.warmStart(workload, &db, nullptr, nullptr, "");
    EXPECT_EQ(stats.records_replayed, 0u);
    session.finish(nullptr, nullptr);
    EXPECT_EQ(db.size(), 0u);
}

} // namespace
} // namespace pruner
