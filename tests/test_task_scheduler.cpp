/** Tests for the gradient task scheduler's gain ranking (NaN guard, warm
 *  start), the sharded multi-task round pipeline, and asynchronous
 *  cost-model training (double-buffered weight swaps). */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "baselines/ansor.hpp"
#include "core/pruner_tuner.hpp"
#include "cost/async_trainer.hpp"
#include "cost/pacm_model.hpp"
#include "ir/workload_registry.hpp"
#include "search/measurer.hpp"
#include "search/task_scheduler.hpp"
#include "sim/gpu_simulator.hpp"
#include "support/thread_pool.hpp"

namespace pruner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Workload
twoTaskWorkload(double big_weight = 100.0)
{
    Workload w;
    w.name = "toy";
    w.tasks.push_back({makeGemm("big", 1, 1024, 1024, 1024), big_weight});
    w.tasks.push_back({makeGemm("small", 1, 32, 32, 32), 1.0});
    return w;
}

Workload
manyTaskWorkload(size_t n)
{
    Workload w;
    w.name = "many";
    for (size_t i = 0; i < n; ++i) {
        std::string name(1, 't');
        name += std::to_string(i);
        w.tasks.push_back({makeGemm(name, 1, 64 << (i % 3), 64, 64),
                           1.0 + static_cast<double>(i)});
    }
    return w;
}

/** Record one plausible measurement per task so bestLatency is finite. */
void
seedDb(TuningRecordDb* db, const Workload& w, double base_latency)
{
    const auto dev = DeviceSpec::a100();
    Rng rng(3);
    for (size_t i = 0; i < w.tasks.size(); ++i) {
        ScheduleSampler sampler(w.tasks[i].task, dev);
        db->add({w.tasks[i].task, sampler.sample(rng),
                 base_latency * (1.0 + static_cast<double>(i))});
    }
}

// --------------------------------------------------------------- NaN guard

TEST(SchedulerGain, ZeroLatencyHistoryDoesNotPoisonRanking)
{
    // Regression: a zero previous incumbent made the improvement rate
    // (prev - curr) / prev NaN, and NaN > best_gain is always false, so
    // the task silently never won the gradient ranking again.
    const Workload w = twoTaskWorkload();
    TaskScheduler sched(w);
    TuningRecordDb db;
    const auto dev = DeviceSpec::a100();
    Rng rng(5);
    ScheduleSampler s0(w.tasks[0].task, dev), s1(w.tasks[1].task, dev);
    db.add({w.tasks[0].task, s0.sample(rng), 1e-2});
    db.add({w.tasks[1].task, s1.sample(rng), 1e-3});
    // Poisoned history for the heavy task; settled history for the light.
    sched.observe(0, 0.0);
    sched.observe(0, 0.0);
    sched.observe(1, 1e-3);
    sched.observe(1, 1e-3);
    // Burn the round-robin pass.
    sched.nextTask(db, rng);
    sched.nextTask(db, rng);
    int heavy_picks = 0;
    for (int i = 0; i < 100; ++i) {
        heavy_picks += sched.nextTask(db, rng) == 0;
    }
    // weight x latency is 1000x larger for task 0: it must dominate. On
    // the unguarded scheduler it only ever appears via the 5% epsilon.
    EXPECT_GT(heavy_picks, 80);
}

TEST(SchedulerGain, ImprovementRateClampsNonFinite)
{
    const Workload w = twoTaskWorkload();
    TaskScheduler sched(w);
    // Prior until two rounds of history exist.
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.15);
    sched.observe(0, 1e-3);
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.15);
    // Normal case: 20% improvement.
    sched.observe(0, 8e-4);
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.2);
    // Regressions clamp to zero, not negative.
    sched.observe(0, 9e-4);
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.0);
    // Zero previous incumbent: rate must be 0, not NaN/Inf.
    sched.observe(1, 0.0);
    sched.observe(1, 0.0);
    EXPECT_DOUBLE_EQ(sched.improvementRate(1), 0.0);
    sched.observe(1, 5e-4);
    // prev == 0, curr > 0 would be -inf; clamped.
    EXPECT_DOUBLE_EQ(sched.improvementRate(1), 0.0);
}

TEST(SchedulerGain, AllFailedRoundObservesInfWithoutPoisoning)
{
    // The policies call observe(idx, db.bestLatency(task)), which is +inf
    // when every trial of a task failed — the real-world path into the
    // non-finite rate.
    const Workload w = twoTaskWorkload();
    TaskScheduler sched(w);
    sched.observe(0, kInf);
    sched.observe(0, kInf);
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.0);
    sched.observe(0, 1e-3); // first successful round after failures
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.0);
    sched.observe(0, 8e-4); // then normal improvement tracking resumes
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.2);
}

// ------------------------------------------------------------- batch picks

TEST(SchedulerBatch, RoundRobinCoversAllTasksInBatches)
{
    const Workload w = manyTaskWorkload(6);
    TaskScheduler sched(w);
    TuningRecordDb db;
    Rng rng(9);
    const auto first = sched.nextTasks(4, db, rng);
    ASSERT_EQ(first.size(), 4u);
    // The pass never mixes phases: the second round takes only the two
    // unvisited tasks.
    const auto second = sched.nextTasks(4, db, rng);
    ASSERT_EQ(second.size(), 2u);
    std::set<size_t> seen(first.begin(), first.end());
    seen.insert(second.begin(), second.end());
    EXPECT_EQ(seen.size(), 6u);
}

TEST(SchedulerBatch, ReturnsDistinctTasksClampedToWorkload)
{
    const Workload w = manyTaskWorkload(6);
    TaskScheduler sched(w);
    TuningRecordDb db;
    seedDb(&db, w, 1e-3);
    Rng rng(11);
    sched.nextTasks(6, db, rng); // burn round-robin
    for (int round = 0; round < 20; ++round) {
        const auto picked = sched.nextTasks(4, db, rng);
        ASSERT_EQ(picked.size(), 4u);
        const std::set<size_t> unique(picked.begin(), picked.end());
        EXPECT_EQ(unique.size(), picked.size()) << "duplicate task picked";
    }
    // k beyond the workload clamps.
    EXPECT_EQ(sched.nextTasks(64, db, rng).size(), w.tasks.size());
}

TEST(SchedulerBatch, NextTasksOfOneIsByteIdenticalToNextTask)
{
    const Workload w = manyTaskWorkload(5);
    TaskScheduler a(w), b(w);
    TuningRecordDb db;
    seedDb(&db, w, 1e-3);
    Rng ra(77), rb(77);
    for (int i = 0; i < 60; ++i) {
        const size_t single = a.nextTask(db, ra);
        const auto batch = b.nextTasks(1, db, rb);
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(single, batch.front()) << "diverged at round " << i;
        a.observe(single, 1e-3 / (1.0 + i));
        b.observe(batch.front(), 1e-3 / (1.0 + i));
    }
    // The two schedulers consumed identical random streams.
    EXPECT_EQ(ra(), rb());
}

TEST(SchedulerBatch, EpsilonGreedyIsDeterministicUnderFixedSeed)
{
    const Workload w = manyTaskWorkload(5);
    TaskScheduler a(w), b(w);
    TuningRecordDb db;
    seedDb(&db, w, 1e-3);
    Rng ra(123), rb(123);
    for (int i = 0; i < 80; ++i) {
        EXPECT_EQ(a.nextTasks(2, db, ra), b.nextTasks(2, db, rb))
            << "diverged at round " << i;
    }
}

TEST(SchedulerBatch, PrefersTopGradientTasks)
{
    // Heavy + improving task must occupy one slot of nearly every batch.
    const Workload w = twoTaskWorkload(10.0);
    TaskScheduler sched(w);
    TuningRecordDb db;
    seedDb(&db, w, 1e-2);
    sched.observe(0, 10e-3);
    sched.observe(0, 8e-3);
    sched.observe(1, 1e-6);
    sched.observe(1, 1e-6);
    Rng rng(11);
    sched.nextTasks(2, db, rng); // burn round-robin
    int heavy_first = 0;
    for (int i = 0; i < 40; ++i) {
        const auto picked = sched.nextTasks(2, db, rng);
        ASSERT_EQ(picked.size(), 2u);
        heavy_first += picked.front() == 0;
    }
    EXPECT_GT(heavy_first, 30);
}

// -------------------------------------------------------------- warm start

TEST(SchedulerWarmStart, SeedsSettledRateFromIncumbent)
{
    const Workload w = twoTaskWorkload();
    TaskScheduler sched(w);
    TuningRecordDb db;
    seedDb(&db, w, 1e-3);
    sched.warmStart(db);
    // Warm tasks resume settled (rate 0), not on the optimistic prior
    // that would overrate every warm task identically until its second
    // observe.
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.0);
    EXPECT_DOUBLE_EQ(sched.improvementRate(1), 0.0);
    // One real improving round immediately re-establishes the gradient.
    sched.observe(0, 0.5e-3);
    EXPECT_DOUBLE_EQ(sched.improvementRate(0), 0.5);
}

TEST(SchedulerWarmStart, FullyWarmSkipsRoundRobin)
{
    // Task 0 carries 100x the weighted latency: a gain-ranked first pick
    // must choose it, while the round-robin pass would emit 0 then 1
    // regardless. Partially warm workloads keep the pass.
    const Workload w = twoTaskWorkload();
    TuningRecordDb db;
    seedDb(&db, w, 1e-3);
    {
        TaskScheduler sched(w);
        sched.warmStart(db);
        Rng rng(19);
        const auto first = sched.nextTasks(2, db, rng);
        EXPECT_EQ(first.front(), 0u);
    }
    {
        TaskScheduler sched(w);
        TuningRecordDb partial;
        const auto dev = DeviceSpec::a100();
        ScheduleSampler s0(w.tasks[0].task, dev);
        Rng seed_rng(3);
        partial.add({w.tasks[0].task, s0.sample(seed_rng), 1e-3});
        sched.warmStart(partial);
        Rng rng(19);
        EXPECT_EQ(sched.nextTask(partial, rng), 0u);
        EXPECT_EQ(sched.nextTask(partial, rng), 1u);
    }
}

// ------------------------------------------------------ sharded round pipe

TEST(ShardedRound, MeasureRoundMatchesSequentialBatches)
{
    const auto dev = DeviceSpec::a100();
    const auto t1 = makeGemm("t1", 1, 256, 256, 256);
    const auto t2 = makeGemm("t2", 1, 128, 512, 64);
    Rng rng(41);
    const auto c1 = ScheduleSampler(t1, dev).sampleMany(rng, 12);
    const auto c2 = ScheduleSampler(t2, dev).sampleMany(rng, 9);

    Measurer sequential(dev, nullptr, 99);
    const auto l1 = sequential.measureBatch(t1, c1);
    const auto l2 = sequential.measureBatch(t2, c2);

    Measurer round(dev, nullptr, 99);
    const auto lats = round.measureRound({{&t1, &c1}, {&t2, &c2}});
    ASSERT_EQ(lats.size(), 2u);
    EXPECT_EQ(lats[0], l1);
    EXPECT_EQ(lats[1], l2);
    EXPECT_EQ(round.totalTrials(), sequential.totalTrials());
}

TEST(ShardedRound, ByteIdenticalForAnyWorkerCount)
{
    const auto dev = DeviceSpec::a100();
    const auto t1 = makeGemm("t1", 1, 256, 256, 256);
    const auto t2 = makeGemm("t2", 1, 512, 64, 128);
    const auto t3 = makeGemm("t3", 1, 64, 64, 64);
    Rng rng(43);
    const auto c1 = ScheduleSampler(t1, dev).sampleMany(rng, 10);
    const auto c2 = ScheduleSampler(t2, dev).sampleMany(rng, 10);
    const auto c3 = ScheduleSampler(t3, dev).sampleMany(rng, 10);
    const std::vector<RoundBatch> batches{{&t1, &c1}, {&t2, &c2},
                                          {&t3, &c3}};

    SimClock serial_clock;
    Measurer serial(dev, &serial_clock, 7);
    const auto serial_lats = serial.measureRound(batches);

    for (const size_t workers : {2u, 4u, 8u}) {
        SimClock clock;
        Measurer parallel(dev, &clock, 7);
        ThreadPool pool(workers);
        parallel.setThreadPool(&pool);
        const auto lats = parallel.measureRound(batches);
        ASSERT_EQ(lats.size(), serial_lats.size());
        for (size_t b = 0; b < lats.size(); ++b) {
            ASSERT_EQ(lats[b].size(), serial_lats[b].size());
            EXPECT_EQ(std::memcmp(lats[b].data(), serial_lats[b].data(),
                                  lats[b].size() * sizeof(double)),
                      0)
                << "sub-batch " << b << " diverged with " << workers
                << " workers";
        }
        EXPECT_DOUBLE_EQ(clock.total(CostCategory::Measurement),
                         serial_clock.total(CostCategory::Measurement));
        EXPECT_LE(clock.total(CostCategory::Compile),
                  serial_clock.total(CostCategory::Compile));
    }
}

TEST(ShardedRound, CompileOverlapAmortizesAcrossTasks)
{
    // 2 tasks x 5 misses on 4 workers: per-task batches pay
    // ceil(5/4) + ceil(5/4) = 4 compile slots, the pooled round pays
    // ceil(10/4) = 3 — the amortization a single-task loop cannot get.
    const auto dev = DeviceSpec::a100();
    const auto t1 = makeGemm("t1", 1, 256, 256, 256);
    const auto t2 = makeGemm("t2", 1, 128, 128, 128);
    Rng rng(47);
    const auto c1 = ScheduleSampler(t1, dev).sampleMany(rng, 5);
    const auto c2 = ScheduleSampler(t2, dev).sampleMany(rng, 5);
    const CostConstants constants;
    ThreadPool pool(4);

    SimClock per_task_clock;
    Measurer per_task(dev, &per_task_clock, 7);
    per_task.setThreadPool(&pool);
    per_task.measureBatch(t1, c1);
    per_task.measureBatch(t2, c2);
    EXPECT_NEAR(per_task_clock.total(CostCategory::Compile),
                4 * constants.compile_per_trial, 1e-9);

    SimClock round_clock;
    Measurer round(dev, &round_clock, 7);
    round.setThreadPool(&pool);
    round.measureRound({{&t1, &c1}, {&t2, &c2}});
    EXPECT_NEAR(round_clock.total(CostCategory::Compile),
                3 * constants.compile_per_trial, 1e-9);
    EXPECT_DOUBLE_EQ(round_clock.total(CostCategory::Measurement),
                     per_task_clock.total(CostCategory::Measurement));
}

/** Compare every measured-value field of two tune results (times are
 *  compared only when @p compare_times: worker counts legitimately change
 *  the simulated compile overlap). */
void
expectSameResults(const TuneResult& a, const TuneResult& b,
                  bool compare_times)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failed_trials, b.failed_trials);
    EXPECT_EQ(a.simulated_trials, b.simulated_trials);
    EXPECT_DOUBLE_EQ(a.final_latency, b.final_latency);
    ASSERT_EQ(a.best_per_task.size(), b.best_per_task.size());
    for (size_t i = 0; i < a.best_per_task.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.best_per_task[i], b.best_per_task[i]);
    }
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.curve[i].latency_s, b.curve[i].latency_s);
        if (compare_times) {
            EXPECT_DOUBLE_EQ(a.curve[i].time_s, b.curve[i].time_s);
        }
    }
    if (compare_times) {
        EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
        EXPECT_DOUBLE_EQ(a.training_s, b.training_s);
        EXPECT_DOUBLE_EQ(a.compile_s, b.compile_s);
    }
}

TEST(ShardedRound, PolicyResultsIndependentOfWorkerCount)
{
    // The whole sharded pipeline — batch scheduling, K drafts, pooled
    // verify, pooled measurement — must produce identical tuning values
    // serial vs parallel; only wall-clock and compile overlap may differ.
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(4);
    TuneOptions opts;
    opts.rounds = 4;
    opts.seed = 29;
    opts.measures_per_round = 6;
    opts.tasks_per_round = 4;

    opts.measure_workers = 1;
    PrunerPolicy serial(dev, {});
    const TuneResult rs = serial.tune(w, opts);

    opts.measure_workers = 4;
    PrunerPolicy parallel(dev, {});
    const TuneResult rp = parallel.tune(w, opts);

    EXPECT_FALSE(rs.failed);
    expectSameResults(rs, rp, /*compare_times=*/false);
    // Sharded rounds amortize host compilation across tasks.
    EXPECT_LT(rp.compile_s, rs.compile_s);
}

TEST(ShardedRound, ChargesOneTaskSwitchPerMultiTaskRound)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(3);
    TuneOptions opts;
    opts.rounds = 4;
    opts.seed = 31;
    opts.measures_per_round = 4;

    PrunerPolicy single(dev, {});
    const TuneResult r1 = single.tune(w, opts);

    opts.tasks_per_round = 3;
    PrunerPolicy sharded(dev, {});
    const TuneResult r3 = sharded.tune(w, opts);

    // Single-task rounds charge no switch overhead (byte-compatible with
    // the legacy loop); each 3-task round charges exactly one.
    const double other1 =
        r1.total_time_s - r1.exploration_s - r1.training_s -
        r1.measurement_s - r1.compile_s;
    const double other3 =
        r3.total_time_s - r3.exploration_s - r3.training_s -
        r3.measurement_s - r3.compile_s;
    EXPECT_NEAR(other1, 0.0, 1e-9);
    EXPECT_NEAR(other3, opts.rounds * opts.constants.task_switch_overhead,
                1e-9);
}

// ----------------------------------------------------------- async training

TEST(AsyncTraining, TrainerMatchesSynchronousUpdate)
{
    const auto dev = DeviceSpec::a100();
    const auto task = makeGemm("t", 1, 256, 256, 256);
    ScheduleSampler sampler(task, dev);
    GpuSimulator sim(dev);
    Rng rng(57);
    std::vector<MeasuredRecord> records;
    for (int i = 0; i < 32; ++i) {
        const Schedule sch = sampler.sample(rng);
        records.push_back({task, sch, sim.trueLatency(task, sch)});
    }

    PaCMModel async_model(dev, 0x9ACC);
    PaCMModel sync_model(dev, 0x9ACC);
    ThreadPool pool(2);
    AsyncModelTrainer trainer(async_model, pool);

    for (int round = 0; round < 3; ++round) {
        trainer.beginUpdate(records, 1);
        trainer.install();
        sync_model.train(records, 1);
    }
    // The back-buffer clone carries the model's RNG lineage: the visible
    // weight sequence is identical to training synchronously.
    EXPECT_EQ(async_model.getParams(), sync_model.getParams());
    EXPECT_EQ(trainer.updatesLaunched(), 3u);
}

TEST(AsyncTraining, PrunerAsyncMatchesSyncResults)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(3);
    TuneOptions opts;
    opts.rounds = 8;
    opts.seed = 21;
    opts.measure_workers = 4;

    PrunerPolicy sync_policy(dev, {});
    const TuneResult sync_result = sync_policy.tune(w, opts);

    opts.async_training = true;
    PrunerPolicy async_policy(dev, {});
    const TuneResult async_result = async_policy.tune(w, opts);

    EXPECT_FALSE(sync_result.failed);
    EXPECT_GT(sync_result.training_s, 0.0);
    // Overlapped training changes wall-clock behaviour only: results and
    // the simulated clock are identical, and the final weights match.
    expectSameResults(sync_result, async_result, /*compare_times=*/true);
    EXPECT_EQ(async_policy.model().getParams(),
              sync_policy.model().getParams());
}

TEST(AsyncTraining, AnsorShardedAsyncMatchesSyncResults)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(4);
    TuneOptions opts;
    opts.rounds = 6;
    opts.seed = 23;
    opts.measures_per_round = 6;
    opts.measure_workers = 4;
    opts.tasks_per_round = 2;

    auto sync_policy = baselines::makeAnsor(dev, 4);
    const TuneResult sync_result = sync_policy->tune(w, opts);

    opts.async_training = true;
    auto async_policy = baselines::makeAnsor(dev, 4);
    const TuneResult async_result = async_policy->tune(w, opts);

    EXPECT_FALSE(sync_result.failed);
    expectSameResults(sync_result, async_result, /*compare_times=*/true);
}

} // namespace
} // namespace pruner
