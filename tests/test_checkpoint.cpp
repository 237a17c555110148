/** Crash-safe checkpoint/resume (src/replay/checkpoint).
 *
 *  The load-bearing assertions are identity ones: checkpointing is pure
 *  IO (enabling it never changes a result), and resuming from any
 *  checkpoint — mid-run or final, at any worker count — reproduces the
 *  uninterrupted run's TuneResult byte for byte. Every storage failure
 *  mode (missing file, corrupt file, fingerprint mismatch, failed write)
 *  degrades to a cold start or a warning, never a crash. Real kill-based
 *  crash coverage lives in bench/crash_resume. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/adatune.hpp"
#include "baselines/ansor.hpp"
#include "core/moa.hpp"
#include "core/pruner_tuner.hpp"
#include "cost/pacm_model.hpp"
#include "ir/workload_registry.hpp"
#include "obs/metrics.hpp"
#include "replay/checkpoint.hpp"
#include "search/explorer.hpp"
#include "support/io.hpp"
#include "support/logging.hpp"

namespace pruner {
namespace {

namespace fs = std::filesystem;

const std::string kCkptPath = "/tmp/pruner_test_checkpoint.ckpt";

/** Chaos options: sharded rounds, parallel measurement, async training,
 *  an active measurement fault plan, round stats and a measure cache —
 *  every piece of state the checkpoint must carry. */
TuneOptions
baseOptions()
{
    TuneOptions opts;
    opts.rounds = 4;
    opts.seed = 11;
    opts.tasks_per_round = 2;
    opts.measure_workers = 2;
    opts.async_training = true;
    opts.collect_round_stats = true;
    FaultPlan plan;
    plan.seed = 42;
    plan.launch_failure_rate = 0.05;
    plan.flaky_rate = 0.1;
    opts.fault_plan = plan;
    return opts;
}

Workload
smallWorkload()
{
    Workload w = workloads::resnet50();
    w.tasks.resize(2);
    return w;
}

PrunerConfig
smallPrunerConfig()
{
    PrunerConfig config;
    config.lse.spec_size = 64;
    return config;
}

void
removeCheckpointFiles()
{
    fs::remove(kCkptPath);
    fs::remove(kCkptPath + ".corrupt");
    fs::remove(kCkptPath + ".tmp");
}

std::string
readFileBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        removeCheckpointFiles();
    }
    void
    TearDown() override
    {
        io::clearIoFaultPlan();
        removeCheckpointFiles();
    }
};

TEST_F(CheckpointTest, CheckpointingIsPureIo)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    PrunerPolicy golden_policy(dev, smallPrunerConfig());
    const TuneResult golden = golden_policy.tune(w, baseOptions());

    TuneOptions opts = baseOptions();
    opts.checkpoint_interval = 1;
    opts.checkpoint_path = kCkptPath;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult checkpointed = policy.tune(w, opts);

    EXPECT_EQ(resultSignature(checkpointed), resultSignature(golden));
    EXPECT_TRUE(fs::exists(kCkptPath));
}

TEST_F(CheckpointTest, ResumeFromFinalCheckpointRebuildsResult)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    TuneOptions opts = baseOptions();
    opts.checkpoint_interval = 2;
    opts.checkpoint_path = kCkptPath;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult golden = policy.tune(w, opts);
    ASSERT_TRUE(fs::exists(kCkptPath));

    // The final checkpoint holds the completed run: resuming executes
    // zero rounds, yet the result — counters, curve, round stats, best
    // latencies, clock split — must be rebuilt bit-for-bit from the
    // restored state alone.
    TuneOptions resume = baseOptions();
    resume.resume_from = kCkptPath;
    PrunerPolicy resumed_policy(dev, smallPrunerConfig());
    const TuneResult resumed = resumed_policy.tune(w, resume);
    EXPECT_EQ(resultSignature(resumed), resultSignature(golden));
}

/** A resumable policy variant; make() builds an identical fresh policy
 *  for each run. */
struct ResumeCase
{
    const char* name;
    std::function<std::unique_ptr<SearchPolicy>()> make;
};

std::function<std::unique_ptr<SearchPolicy>()>
prunerVariant(bool use_moa, bool use_lse)
{
    return [use_moa, use_lse] {
        PrunerConfig config = smallPrunerConfig();
        config.use_moa = use_moa;
        config.use_lse = use_lse;
        return std::make_unique<PrunerPolicy>(DeviceSpec::a100(), config);
    };
}

TEST_F(CheckpointTest, MidRunResumeIsByteIdenticalForEveryVariant)
{
    const Workload w = smallWorkload();
    const ResumeCase cases[] = {
        {"pruner", prunerVariant(false, true)},
        // The MoA Siamese parameters ride in the checkpoint too; MoA
        // trains synchronously even with async set.
        {"moa", prunerVariant(true, true)},
        // PaCM scores the whole GA population inside the draft.
        {"pruner_nolse", prunerVariant(false, false)},
        {"ansor", [] { return baselines::makeAnsor(DeviceSpec::a100(), 9); }},
        {"adatune",
         [] { return baselines::makeAdatune(DeviceSpec::a100(), 9); }},
    };
    for (const ResumeCase& c : cases) {
        SCOPED_TRACE(c.name);
        removeCheckpointFiles();
        const TuneResult golden = c.make()->tune(w, baseOptions());

        // Interval 2 over 4 rounds saves after round 2 (write op 0) and
        // after the final round (write op 1). Failing op 1 freezes the
        // file at the round-2 state — exactly what a kill between the two
        // saves leaves behind.
        TuneOptions opts = baseOptions();
        opts.checkpoint_interval = 2;
        opts.checkpoint_path = kCkptPath;
        io::IoFaultPlan plan;
        plan.fault_kind = io::IoFaultKind::NoSpace;
        plan.fail_ops[0] = 1;
        io::setIoFaultPlan(plan);
        const TuneResult interrupted = c.make()->tune(w, opts);
        io::clearIoFaultPlan();
        // The failed final save is a warning, not a failure: the run
        // itself still matches the golden run.
        EXPECT_EQ(resultSignature(interrupted), resultSignature(golden));
        ASSERT_TRUE(fs::exists(kCkptPath));

        // Resume the round-2 checkpoint at 1, 2 and 4 workers: the pinned
        // clock lanes make every resumed trajectory byte-identical. A
        // cold start would match too, so the resume itself is asserted.
        for (const int workers : {1, 2, 4}) {
            TuneOptions resume = baseOptions();
            resume.resume_from = kCkptPath;
            resume.measure_workers = workers;
            resume.async_training = workers > 1;
            obs::MetricsRegistry metrics;
            resume.metrics = &metrics;
            const TuneResult resumed = c.make()->tune(w, resume);
            EXPECT_EQ(resultSignature(resumed), resultSignature(golden))
                << "workers=" << workers;
            EXPECT_EQ(metrics.snapshot().counterValue(
                          "checkpoint_resumes_total"),
                      1u)
                << "workers=" << workers;
        }
    }
}

TEST_F(CheckpointTest, EncodeDecodeRoundTripsExactly)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();
    TuneOptions opts = baseOptions();
    opts.checkpoint_interval = 2;
    opts.checkpoint_path = kCkptPath;
    PrunerPolicy policy(dev, smallPrunerConfig());
    (void)policy.tune(w, opts);
    ASSERT_TRUE(fs::exists(kCkptPath));

    const std::string bytes = readFileBytes(kCkptPath);
    const TuningCheckpoint decoded = decodeCheckpoint(bytes);
    EXPECT_EQ(encodeCheckpoint(decoded), bytes);
}

/** The fixed short MoA run whose final checkpoint is the checked-in
 *  fixture tests/data/golden_checkpoint.ckpt: both weight vectors, record
 *  and cache lines, fault attempts, round stats and metrics. The fixture
 *  pins the v1 bytes; regenerate it only when the format is deliberately
 *  versioned, by copying the checkpoint this run writes. */
TuneResult
runGoldenMoA(const std::string& checkpoint_path)
{
    PrunerConfig config;
    config.use_moa = true;
    config.lse.spec_size = 64;
    TuneOptions opts;
    opts.rounds = 6;
    opts.seed = 7;
    opts.tasks_per_round = 2;
    opts.collect_round_stats = true;
    FaultPlan plan;
    plan.seed = 42;
    plan.launch_failure_rate = 0.05;
    plan.flaky_rate = 0.1;
    opts.fault_plan = plan;
    opts.checkpoint_interval = 1;
    opts.checkpoint_path = checkpoint_path;
    PrunerPolicy policy(DeviceSpec::a100(), config);
    return policy.tune(smallWorkload(), opts);
}

std::string
goldenCheckpoint()
{
    const std::string bytes = readFileBytes(
        std::string(PRUNER_TEST_DATA_DIR) + "/golden_checkpoint.ckpt");
    EXPECT_FALSE(bytes.empty()) << "missing golden checkpoint fixture";
    return bytes;
}

TEST_F(CheckpointTest, GoldenFixtureIsReproducedByteForByte)
{
    // Six saves, each extending the previous save's record lines: the
    // final file must still be the bytes the fixture froze.
    (void)runGoldenMoA(kCkptPath);
    const std::string written = readFileBytes(kCkptPath);
    const std::string golden = goldenCheckpoint();
    ASSERT_EQ(written.size(), golden.size());
    EXPECT_TRUE(written == golden);
}

TEST_F(CheckpointTest, GoldenFixtureRoundTrips)
{
    const std::string golden = goldenCheckpoint();
    EXPECT_TRUE(encodeCheckpoint(decodeCheckpoint(golden)) == golden);
}

TEST_F(CheckpointTest, IncrementalBuildMatchesFreshBuild)
{
    // Restore the fixture into live objects, then snapshot them twice:
    // once into a fresh TuningCheckpoint, once incrementally — a first
    // build while the db holds half of the records, a second after the
    // rest are appended.
    const TuningCheckpoint golden = decodeCheckpoint(goldenCheckpoint());
    const Workload w = smallWorkload();
    const auto dev = DeviceSpec::a100();
    SimClock clock;
    Rng rng(0);
    Measurer measurer(dev, &clock, 0, CostConstants::defaults());
    TaskScheduler scheduler(w);
    TuningRecordDb db;
    MeasureCache cache;
    auto explorer = ExplorerRegistry::instance().make("", "");
    PaCMModel model(dev, 0);
    MoAAdapter moa(&model);
    obs::MetricsRegistry metrics;
    obs::RoundStatsCollector round_stats(true, &clock, &measurer);
    std::vector<CurvePoint> curve;

    CheckpointTargets targets;
    targets.clock = &clock;
    targets.rng = &rng;
    targets.measurer = &measurer;
    targets.scheduler = &scheduler;
    targets.db = &db;
    targets.cache = &cache;
    targets.explorer = explorer.get();
    targets.model = &model;
    targets.moa = &moa;
    targets.metrics = &metrics;
    targets.round_stats = &round_stats;
    targets.curve = &curve;
    ASSERT_EQ(applyCheckpoint(golden, w, targets), golden.next_round);
    ASSERT_GT(db.size(), 2u);

    CheckpointSources src;
    src.fingerprint = golden.fingerprint;
    src.next_round = golden.next_round;
    src.clock_lanes = golden.clock_lanes;
    src.clock = &clock;
    src.rng = &rng;
    src.measurer = &measurer;
    src.scheduler = &scheduler;
    src.db = &db;
    src.cache = &cache;
    src.explorer = explorer.get();
    src.model = &model;
    src.model_rng = model.trainingRng();
    src.siamese = &moa.siameseParams();
    src.curve = &curve;
    src.round_stats = &round_stats.rounds();
    src.metrics = &metrics;
    TuningCheckpoint fresh;
    buildCheckpoint(src, &fresh);

    TuningRecordDb growing;
    const auto& records = db.records();
    const size_t half = records.size() / 2;
    for (size_t i = 0; i < half; ++i) {
        growing.add(records[i]);
    }
    src.db = &growing;
    TuningCheckpoint incremental;
    buildCheckpoint(src, &incremental);
    EXPECT_EQ(incremental.record_lines.size(), half);
    for (size_t i = half; i < records.size(); ++i) {
        growing.add(records[i]);
    }
    buildCheckpoint(src, &incremental);

    const std::string fresh_bytes = encodeCheckpoint(fresh);
    EXPECT_TRUE(encodeCheckpoint(incremental) == fresh_bytes);
    // Restoring and re-snapshotting is lossless too.
    EXPECT_TRUE(fresh_bytes == encodeCheckpoint(golden));
}

TEST_F(CheckpointTest, MissingResumeFileStartsCold)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    PrunerPolicy golden_policy(dev, smallPrunerConfig());
    const TuneResult golden = golden_policy.tune(w, baseOptions());

    TuneOptions resume = baseOptions();
    resume.resume_from = "/tmp/definitely_missing_checkpoint.ckpt";
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult result = policy.tune(w, resume);
    EXPECT_EQ(resultSignature(result), resultSignature(golden));
}

TEST_F(CheckpointTest, CorruptCheckpointIsQuarantinedAndStartsCold)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    TuneOptions opts = baseOptions();
    opts.checkpoint_interval = 2;
    opts.checkpoint_path = kCkptPath;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult golden = policy.tune(w, opts);
    ASSERT_TRUE(fs::exists(kCkptPath));

    // Flip a payload byte: the header CRC catches it, the file is
    // quarantined, the counter fires, and the tuner starts cold instead
    // of crashing.
    {
        std::string bytes = readFileBytes(kCkptPath);
        bytes[bytes.size() / 2] ^= 0x10;
        std::ofstream out(kCkptPath, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    obs::MetricsRegistry metrics;
    TuneOptions resume = baseOptions();
    resume.resume_from = kCkptPath;
    resume.metrics = &metrics;
    PrunerPolicy cold_policy(dev, smallPrunerConfig());
    const TuneResult cold = cold_policy.tune(w, resume);
    EXPECT_EQ(resultSignature(cold), resultSignature(golden));
    EXPECT_FALSE(fs::exists(kCkptPath));
    EXPECT_TRUE(fs::exists(kCkptPath + ".corrupt"));

    // The quarantine is observable in the metrics exposition.
    const std::string text = metrics.renderText(/*deterministic_only=*/false);
    EXPECT_NE(text.find("checkpoint_quarantined_total 1"),
              std::string::npos)
        << text;
}

TEST_F(CheckpointTest, FingerprintMismatchStartsColdWithoutQuarantine)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    TuneOptions opts = baseOptions();
    opts.checkpoint_interval = 2;
    opts.checkpoint_path = kCkptPath;
    PrunerPolicy policy(dev, smallPrunerConfig());
    (void)policy.tune(w, opts);
    ASSERT_TRUE(fs::exists(kCkptPath));
    const std::string bytes_before = readFileBytes(kCkptPath);

    // A different seed is a different trajectory: the checkpoint is valid
    // but belongs to another run, so it is declined (and left on disk —
    // its own run may still want it) and this run starts cold.
    TuneOptions other = baseOptions();
    other.seed = 12;
    PrunerPolicy golden_policy(dev, smallPrunerConfig());
    const TuneResult golden = golden_policy.tune(w, other);

    TuneOptions resume = other;
    resume.resume_from = kCkptPath;
    PrunerPolicy cold_policy(dev, smallPrunerConfig());
    const TuneResult cold = cold_policy.tune(w, resume);
    EXPECT_EQ(resultSignature(cold), resultSignature(golden));
    EXPECT_EQ(readFileBytes(kCkptPath), bytes_before);
}

TEST_F(CheckpointTest, FailedCheckpointWriteNeverFailsTheRun)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    PrunerPolicy golden_policy(dev, smallPrunerConfig());
    const TuneResult golden = golden_policy.tune(w, baseOptions());

    // Every checkpoint write fails (permanent ENOSPC): the run warns,
    // counts the failures, and finishes identically anyway.
    io::IoFaultPlan plan;
    plan.fault_kind = io::IoFaultKind::NoSpace;
    plan.fault_rate = 1.0;
    io::setIoFaultPlan(plan);
    obs::MetricsRegistry metrics;
    TuneOptions opts = baseOptions();
    opts.checkpoint_interval = 1;
    opts.checkpoint_path = kCkptPath;
    opts.metrics = &metrics;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult result = policy.tune(w, opts);
    io::clearIoFaultPlan();

    EXPECT_EQ(resultSignature(result), resultSignature(golden));
    EXPECT_FALSE(fs::exists(kCkptPath));
    const std::string text = metrics.renderText(/*deterministic_only=*/false);
    EXPECT_NE(text.find("checkpoint_write_failures_total 4"),
              std::string::npos)
        << text;
}

TEST_F(CheckpointTest, ResultSignatureDiscriminates)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult a = policy.tune(w, baseOptions());
    TuneOptions other = baseOptions();
    other.seed = 12;
    PrunerPolicy policy_b(dev, smallPrunerConfig());
    const TuneResult b = policy_b.tune(w, other);
    EXPECT_EQ(resultSignature(a), resultSignature(a));
    EXPECT_NE(resultSignature(a), resultSignature(b));
}

} // namespace
} // namespace pruner
