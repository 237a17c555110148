/** Tests for src/search: record DB, measurer, evolutionary search, task
 *  scheduler, and the shared policy loop. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "baselines/ansor.hpp"
#include "core/symbol_analyzer.hpp"
#include "ir/workload_registry.hpp"
#include "search/evolution.hpp"
#include "search/measurer.hpp"
#include "search/search_policy.hpp"
#include "search/task_scheduler.hpp"
#include "search/tuning_record.hpp"

namespace pruner {
namespace {

MeasuredRecord
record(const SubgraphTask& task, const Schedule& sch, double lat)
{
    return {task, sch, lat};
}

class RecordDbTest : public ::testing::Test
{
  protected:
    SubgraphTask task_ = makeGemm("t", 1, 64, 64, 64);
    DeviceSpec dev_ = DeviceSpec::a100();
    ScheduleSampler sampler_{task_, dev_};
    Rng rng_{71};
};

TEST_F(RecordDbTest, TracksBestPerTask)
{
    TuningRecordDb db;
    const Schedule a = sampler_.sample(rng_);
    const Schedule b = sampler_.sample(rng_);
    db.add(record(task_, a, 2.0e-3));
    db.add(record(task_, b, 1.0e-3));
    EXPECT_DOUBLE_EQ(db.bestLatency(task_), 1.0e-3);
    EXPECT_EQ(db.bestSchedule(task_)->hash(), b.hash());
}

TEST_F(RecordDbTest, RejectsNonFiniteLatency)
{
    TuningRecordDb db;
    const Schedule a = sampler_.sample(rng_);
    EXPECT_THROW(
        db.add(record(task_, a, std::numeric_limits<double>::infinity())),
        InternalError);
    EXPECT_THROW(db.add(record(task_, a, -1.0)), InternalError);
}

TEST_F(RecordDbTest, MeasuredDetectsDuplicates)
{
    TuningRecordDb db;
    const Schedule a = sampler_.sample(rng_);
    EXPECT_FALSE(db.measured(task_, a));
    db.add(record(task_, a, 1e-3));
    EXPECT_TRUE(db.measured(task_, a));
}

TEST_F(RecordDbTest, RecentWindowReturnsSuffix)
{
    TuningRecordDb db;
    for (int i = 0; i < 10; ++i) {
        db.add(record(task_, sampler_.sample(rng_), 1e-3 + i * 1e-5));
    }
    const auto window = db.recentWindow(3);
    ASSERT_EQ(window.size(), 3u);
    EXPECT_DOUBLE_EQ(window.back().latency, 1e-3 + 9e-5);
}

TEST_F(RecordDbTest, UnknownTaskHasInfiniteBest)
{
    TuningRecordDb db;
    EXPECT_TRUE(std::isinf(db.bestLatency(task_)));
    EXPECT_EQ(db.bestSchedule(task_), nullptr);
}

TEST(Measurer, ChargesClockPerTrial)
{
    const auto task = makeGemm("t", 1, 128, 128, 128);
    const auto dev = DeviceSpec::a100();
    SimClock clock;
    CostConstants constants;
    Measurer measurer(dev, &clock, 5, constants);
    ScheduleSampler sampler(task, dev);
    Rng rng(3);
    const auto lats = measurer.measureBatch(task, sampler.sampleMany(rng, 7));
    EXPECT_EQ(lats.size(), 7u);
    EXPECT_NEAR(clock.total(CostCategory::Measurement),
                7 * constants.measure_per_trial, 1e-9);
    EXPECT_NEAR(clock.total(CostCategory::Compile),
                7 * constants.compile_per_trial, 1e-9);
    EXPECT_EQ(measurer.totalTrials(), 7u);
}

TEST(Measurer, AdaptiveCostsLessButNoisier)
{
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto dev = DeviceSpec::a100();
    SimClock clock;
    Measurer m(dev, &clock, 5);
    ScheduleSampler sampler(task, dev);
    Rng rng(3);
    const Schedule sch = sampler.sample(rng);
    const std::vector<Schedule> one{sch};
    m.measureBatch(task, one);
    const double full_cost = clock.total(CostCategory::Measurement);
    clock.reset();
    m.measureAdaptive(task, one, 0.5, 0.1);
    EXPECT_NEAR(clock.total(CostCategory::Measurement), full_cost * 0.5,
                1e-9);
}

TEST(Measurer, BatchParallelIsByteIdenticalToSerial)
{
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto dev = DeviceSpec::a100();
    ScheduleSampler sampler(task, dev);
    Rng rng(41);
    const auto candidates = sampler.sampleMany(rng, 64);

    // Serial reference: no pool attached.
    SimClock serial_clock;
    Measurer serial(dev, &serial_clock, 99);
    const auto serial_lats = serial.measureBatch(task, candidates);

    for (const size_t workers : {2u, 4u, 8u}) {
        SimClock clock;
        Measurer parallel(dev, &clock, 99);
        ThreadPool pool(workers);
        parallel.setThreadPool(&pool);
        const auto parallel_lats = parallel.measureBatch(task, candidates);
        ASSERT_EQ(parallel_lats.size(), serial_lats.size());
        EXPECT_EQ(std::memcmp(parallel_lats.data(), serial_lats.data(),
                              serial_lats.size() * sizeof(double)),
                  0)
            << "measureBatch diverged from the serial path with " << workers
            << " workers";
        // The device still runs trials exclusively; only host-side
        // compilation overlaps.
        EXPECT_DOUBLE_EQ(clock.total(CostCategory::Measurement),
                         serial_clock.total(CostCategory::Measurement));
        EXPECT_LE(clock.total(CostCategory::Compile),
                  serial_clock.total(CostCategory::Compile));
    }
}

TEST(Measurer, BatchValuesStableAcrossRepeatedRuns)
{
    // Same seed, fresh Measurer: batch values replay exactly (the
    // determinism the record/replay workflow relies on).
    const auto task = makeGemm("t", 1, 128, 128, 128);
    const auto dev = DeviceSpec::titanV();
    ScheduleSampler sampler(task, dev);
    Rng rng(43);
    const auto candidates = sampler.sampleMany(rng, 16);

    Measurer a(dev, nullptr, 7);
    Measurer b(dev, nullptr, 7);
    EXPECT_EQ(a.measureBatch(task, candidates),
              b.measureBatch(task, candidates));
}

TEST(Evolution, ChunkedScoringMatchesSerial)
{
    const auto task = makeGemm("t", 1, 512, 512, 512);
    const auto dev = DeviceSpec::a100();
    const SymbolAnalyzer sa(dev);
    ScheduleSampler sampler(task, dev);
    Rng rng(47);
    const auto candidates = sampler.sampleMany(rng, 150);
    const ScoreFn score = [&](std::span<const Schedule> cands) {
        std::vector<double> s;
        s.reserve(cands.size());
        for (const auto& c : cands) {
            s.push_back(sa.score(task, c));
        }
        return s;
    };
    const auto serial = score(candidates);
    ThreadPool pool(4);
    const auto chunked = scoreChunked(score, candidates, &pool, 32);
    ASSERT_EQ(chunked.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(chunked[i], serial[i]) << "candidate " << i;
    }
}

TEST(Evolution, SaGuidedSearchImprovesOverRandom)
{
    const auto task = makeGemm("t", 1, 1024, 1024, 1024);
    const auto dev = DeviceSpec::a100();
    const SymbolAnalyzer sa(dev);
    EvolutionarySearch evo(task, dev);
    EvolutionConfig config;
    config.population = 128;
    config.iterations = 6;
    Rng rng(5);
    size_t evals = 0;
    const auto ranked = evo.run(
        config,
        [&](std::span<const Schedule> cands) {
            std::vector<double> s;
            for (const auto& c : cands) {
                s.push_back(sa.score(task, c));
            }
            return s;
        },
        {}, rng, &evals);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(evals, 128u * 7u);
    // Best evolved fitness must beat the median random fitness clearly.
    ScheduleSampler sampler(task, dev);
    std::vector<double> random_scores;
    for (int i = 0; i < 128; ++i) {
        random_scores.push_back(sa.score(task, sampler.sample(rng)));
    }
    std::sort(random_scores.begin(), random_scores.end());
    EXPECT_GT(ranked.front().score, random_scores[random_scores.size() / 2]);
    // Output is sorted best-first.
    for (size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_GE(ranked[i - 1].score, ranked[i].score);
    }
}

TEST(Evolution, RespectsOutSizeAndDedup)
{
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto dev = DeviceSpec::a100();
    EvolutionarySearch evo(task, dev);
    EvolutionConfig config;
    config.population = 64;
    config.iterations = 2;
    config.out_size = 32;
    Rng rng(7);
    const auto ranked = evo.run(
        config,
        [](std::span<const Schedule> cands) {
            return std::vector<double>(cands.size(), 1.0);
        },
        {}, rng, nullptr);
    EXPECT_LE(ranked.size(), 32u);
    std::set<uint64_t> hashes;
    for (const auto& s : ranked) {
        EXPECT_TRUE(hashes.insert(s.sch.hash()).second);
    }
}

TEST(TaskSchedulerTest, RoundRobinFirstPass)
{
    const Workload w = workloads::bertTiny();
    TaskScheduler sched(w);
    TuningRecordDb db;
    Rng rng(9);
    std::set<size_t> seen;
    for (size_t i = 0; i < w.tasks.size(); ++i) {
        seen.insert(sched.nextTask(db, rng));
    }
    EXPECT_EQ(seen.size(), w.tasks.size());
}

TEST(TaskSchedulerTest, PrefersHighImpactTasks)
{
    // Two tasks; one dominates the weighted latency and keeps improving —
    // the scheduler should give it most of the rounds.
    Workload w;
    w.name = "toy";
    w.tasks.push_back({makeGemm("big", 1, 2048, 2048, 2048), 10.0});
    w.tasks.push_back({makeGemm("small", 1, 32, 32, 32), 1.0});
    TaskScheduler sched(w);
    TuningRecordDb db;
    const auto dev = DeviceSpec::a100();
    ScheduleSampler s0(w.tasks[0].task, dev), s1(w.tasks[1].task, dev);
    Rng rng(11);
    db.add(record(w.tasks[0].task, s0.sample(rng), 10e-3));
    db.add(record(w.tasks[1].task, s1.sample(rng), 1e-6));
    // Feed improvement history: big task keeps improving.
    sched.observe(0, 10e-3);
    sched.observe(0, 8e-3);
    sched.observe(1, 1e-6);
    sched.observe(1, 1e-6);
    int big_count = 0;
    for (int i = 0; i < 40; ++i) {
        const size_t pick = sched.nextTask(db, rng);
        if (pick <= 1 && i >= 2) { // after the round-robin pass
            big_count += pick == 0;
        }
    }
    EXPECT_GT(big_count, 25);
}

TEST(PolicyLoop, AnsorTunesAndImproves)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(3);
    auto ansor = baselines::makeAnsor(dev, 3);
    TuneOptions opts;
    opts.rounds = 9;
    opts.seed = 13;
    const TuneResult r = ansor->tune(w, opts);
    EXPECT_FALSE(r.failed);
    ASSERT_GE(r.curve.size(), 2u);
    EXPECT_TRUE(std::isfinite(r.final_latency));
    EXPECT_LE(r.curve.back().latency_s, r.curve.front().latency_s);
    EXPECT_EQ(r.trials, 90u);
    EXPECT_GT(r.exploration_s, 0.0);
    EXPECT_GT(r.measurement_s, 0.0);
    // Curve is monotone non-increasing in latency, increasing in time.
    for (size_t i = 1; i < r.curve.size(); ++i) {
        EXPECT_LE(r.curve[i].latency_s, r.curve[i - 1].latency_s);
        EXPECT_GE(r.curve[i].time_s, r.curve[i - 1].time_s);
    }
}

TEST(PolicyLoop, TimeToReachSemantics)
{
    TuneResult r;
    r.curve = {{10.0, 5.0}, {20.0, 3.0}, {30.0, 1.0}};
    EXPECT_DOUBLE_EQ(r.timeToReach(5.0), 10.0);
    EXPECT_DOUBLE_EQ(r.timeToReach(2.0), 30.0);
    EXPECT_TRUE(std::isinf(r.timeToReach(0.5)));
}

TEST(PolicyLoop, SelectForMeasurementSkipsMeasured)
{
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto dev = DeviceSpec::a100();
    ScheduleSampler sampler(task, dev);
    Rng rng(17);
    TuningRecordDb db;
    std::vector<ScoredSchedule> ranked;
    for (int i = 0; i < 20; ++i) {
        ranked.push_back({sampler.sample(rng), 20.0 - i});
    }
    db.add(record(task, ranked[0].sch, 1e-3)); // best already measured
    const auto picked =
        selectForMeasurement(ranked, task, db, sampler, 5, 0.0, rng);
    ASSERT_EQ(picked.size(), 5u);
    for (const auto& sch : picked) {
        EXPECT_NE(sch.hash(), ranked[0].sch.hash());
    }
}

} // namespace
} // namespace pruner
