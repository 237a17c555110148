/** Failure-injection and determinism tests: the tuners must survive hostile
 *  conditions (frequent launch failures, degenerate fitness landscapes,
 *  injected fault storms) and every run must be bit-reproducible from its
 *  seed — including the injected fault stream, at any worker count. */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ansor.hpp"
#include "core/pruner_tuner.hpp"
#include "db/artifact_db.hpp"
#include "ir/workload_registry.hpp"
#include "replay/session_log.hpp"
#include "search/evolution.hpp"
#include "search/measurer.hpp"
#include "sched/sampler.hpp"
#include "support/thread_pool.hpp"

namespace pruner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A device with a crippled shared-memory budget: most sampled schedules
 *  of a big GEMM fail to launch. */
DeviceSpec
tinySmemDevice()
{
    DeviceSpec dev = DeviceSpec::k80();
    dev.name = "K80-tiny-smem";
    dev.smem_per_block_floats = 512; // 2 KiB
    dev.smem_per_sm_floats = 512;
    return dev;
}

TEST(FailureInjection, MeasurerCountsLaunchFailures)
{
    const auto dev = tinySmemDevice();
    const auto task = makeGemm("big", 1, 2048, 2048, 2048);
    // Bypass the sampler's smem-aware repair by constructing oversized
    // tiles directly: these must fail on the tiny-smem device.
    SpatialSplit i{{8, 16, 2, 4, 2}};
    SpatialSplit j{{8, 16, 2, 4, 2}};
    ReductionSplit k{{64, 8, 4}};
    Schedule sch({i, j}, {k});
    sch.repairOuter(task);
    SimClock clock;
    Measurer measurer(dev, &clock, 3);
    const auto lats = measurer.measureBatch(task, {sch, sch, sch});
    EXPECT_EQ(measurer.failedTrials(), 3u);
    for (double l : lats) {
        // Exactly +inf: the sign matters — a -inf or NaN sentinel would
        // rank as the best latency instead of the worst.
        EXPECT_EQ(l, kInf);
    }
    // Failed trials still cost compile+measure time, as on real hardware.
    EXPECT_GT(clock.now(), 0.0);
}

TEST(FailureInjection, TunersSurviveHostileDevice)
{
    // Even when a large share of candidates cannot launch, both tuners
    // must finish, record only finite measurements, and improve.
    const auto dev = tinySmemDevice();
    Workload w;
    w.name = "hostile";
    w.tasks.push_back({makeGemm("big", 1, 1024, 1024, 1024), 1.0});
    TuneOptions opts;
    opts.rounds = 6;
    opts.seed = 3;

    auto ansor = baselines::makeAnsor(dev, 3);
    const TuneResult ra = ansor->tune(w, opts);
    EXPECT_FALSE(ra.failed);
    EXPECT_TRUE(std::isfinite(ra.final_latency));

    PrunerConfig config;
    config.lse.spec_size = 128;
    PrunerPolicy pruner(dev, config);
    const TuneResult rp = pruner.tune(w, opts);
    EXPECT_FALSE(rp.failed);
    EXPECT_TRUE(std::isfinite(rp.final_latency));
}

TEST(FailureInjection, EvolutionHandlesConstantFitness)
{
    // A degenerate fitness landscape (all scores equal) must not divide
    // by zero or starve the output set.
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto dev = DeviceSpec::a100();
    EvolutionarySearch evo(task, dev);
    EvolutionConfig config;
    config.population = 32;
    config.iterations = 3;
    Rng rng(5);
    const auto ranked = evo.run(
        config,
        [](std::span<const Schedule> cands) {
            return std::vector<double>(cands.size(), 42.0);
        },
        {}, rng, nullptr);
    EXPECT_FALSE(ranked.empty());
    for (const auto& s : ranked) {
        EXPECT_DOUBLE_EQ(s.score, 42.0);
    }
}

/** Shared fixtures for the FaultPlan tests: one task, a pool of sampled
 *  candidates, and a measurer factory. */
std::vector<Schedule>
sampleCandidates(const SubgraphTask& task, const DeviceSpec& dev, size_t n)
{
    ScheduleSampler sampler(task, dev);
    Rng rng(7);
    return sampler.sampleMany(rng, n);
}

TEST(FaultInjection, FaultStreamIsWorkerCountInvariant)
{
    const auto dev = DeviceSpec::a100();
    const auto task = makeGemm("t", 1, 512, 512, 512);
    const auto candidates = sampleCandidates(task, dev, 24);

    FaultPlan plan;
    plan.seed = 9;
    plan.launch_failure_rate = 0.2;
    plan.timeout_rate = 0.2;
    plan.flaky_rate = 0.3;

    std::vector<double> serial_lats;
    size_t serial_launch = 0, serial_timeouts = 0, serial_flaky = 0;
    for (const size_t workers : {size_t{1}, size_t{4}}) {
        Measurer measurer(dev, nullptr, 3);
        measurer.setFaultPlan(plan);
        std::unique_ptr<ThreadPool> pool;
        if (workers > 1) {
            pool = std::make_unique<ThreadPool>(workers);
            measurer.setThreadPool(pool.get());
        }
        const auto lats = measurer.measureBatch(task, candidates);
        if (workers == 1) {
            serial_lats = lats;
            serial_launch = measurer.injectedLaunchFailures();
            serial_timeouts = measurer.injectedTimeouts();
            serial_flaky = measurer.injectedFlaky();
            EXPECT_GT(measurer.injectedFaults(), 0u);
        } else {
            ASSERT_EQ(lats.size(), serial_lats.size());
            for (size_t i = 0; i < lats.size(); ++i) {
                EXPECT_DOUBLE_EQ(lats[i], serial_lats[i]);
            }
            EXPECT_EQ(measurer.injectedLaunchFailures(), serial_launch);
            EXPECT_EQ(measurer.injectedTimeouts(), serial_timeouts);
            EXPECT_EQ(measurer.injectedFlaky(), serial_flaky);
        }
        measurer.setThreadPool(nullptr);
    }
}

TEST(FaultInjection, TimeoutsChargeExtraTimeAndAreNotCached)
{
    const auto dev = DeviceSpec::a100();
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto candidates = sampleCandidates(task, dev, 12);

    FaultPlan plan;
    plan.seed = 5;
    plan.timeout_rate = 1.0; // every attempt times out

    SimClock clock;
    Measurer measurer(dev, &clock, 3);
    measurer.setFaultPlan(plan);
    MeasureCache cache;
    measurer.setCache(&cache);

    const auto lats = measurer.measureBatch(task, candidates);
    const size_t jobs = measurer.simulatedTrials();
    EXPECT_GT(jobs, 0u);
    for (double l : lats) {
        EXPECT_EQ(l, kInf);
    }
    EXPECT_EQ(measurer.injectedTimeouts(), jobs);
    EXPECT_EQ(measurer.failedTrials(), candidates.size());
    // A timed-out trial blocks the device for its full timeout window on
    // top of the normal per-trial cost.
    const CostConstants c = CostConstants::defaults();
    EXPECT_DOUBLE_EQ(clock.total(CostCategory::Measurement),
                     static_cast<double>(jobs) *
                         (c.measure_per_trial + plan.timeout_extra_s));
    // Transient faults are a property of the attempt, not of the pair:
    // nothing may be cached, and a re-visit must re-measure.
    EXPECT_EQ(cache.size(), 0u);
    measurer.measureBatch(task, candidates);
    EXPECT_EQ(measurer.simulatedTrials(), 2 * jobs);
    EXPECT_EQ(measurer.cacheHits(), 0u);
    measurer.setCache(nullptr);
}

TEST(FaultInjection, FlakyLatenciesAreDeterministicButUncached)
{
    const auto dev = DeviceSpec::a100();
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto candidates = sampleCandidates(task, dev, 12);

    FaultPlan plan;
    plan.seed = 21;
    plan.flaky_rate = 1.0; // every attempt is perturbed
    plan.flaky_sigma = 0.3;

    // Baseline without faults, for comparison.
    Measurer clean(dev, nullptr, 3);
    const auto clean_lats = clean.measureBatch(task, candidates);

    std::vector<double> first_lats;
    for (int run = 0; run < 2; ++run) {
        Measurer measurer(dev, nullptr, 3);
        measurer.setFaultPlan(plan);
        MeasureCache cache;
        measurer.setCache(&cache);
        const auto lats = measurer.measureBatch(task, candidates);
        EXPECT_EQ(measurer.injectedFlaky(), measurer.simulatedTrials());
        // Perturbed, not destroyed: still finite and positive.
        bool any_changed = false;
        for (size_t i = 0; i < lats.size(); ++i) {
            if (std::isfinite(clean_lats[i])) {
                EXPECT_TRUE(std::isfinite(lats[i]));
                EXPECT_GT(lats[i], 0.0);
                any_changed |= lats[i] != clean_lats[i];
            } else {
                EXPECT_EQ(lats[i], kInf);
            }
        }
        EXPECT_TRUE(any_changed);
        // Never cached: the perturbation belongs to the attempt.
        EXPECT_EQ(cache.size(), 0u);

        if (run == 0) {
            first_lats = lats;
            // A re-visit draws the next attempt of the transient stream:
            // fresh perturbations, not a replayed copy.
            const auto revisit = measurer.measureBatch(task, candidates);
            bool any_different = false;
            for (size_t i = 0; i < revisit.size(); ++i) {
                any_different |= revisit[i] != lats[i];
            }
            EXPECT_TRUE(any_different);
        } else {
            // Same plan, fresh measurer: bit-identical fault stream.
            ASSERT_EQ(first_lats.size(), lats.size());
            for (size_t i = 0; i < lats.size(); ++i) {
                EXPECT_DOUBLE_EQ(first_lats[i], lats[i]);
            }
        }
        measurer.setCache(nullptr);
    }
}

TEST(FaultInjection, InjectedLaunchFailuresAreCachedAsPositiveInf)
{
    const auto dev = DeviceSpec::a100();
    const auto task = makeGemm("t", 1, 256, 256, 256);
    const auto candidates = sampleCandidates(task, dev, 24);

    FaultPlan plan;
    plan.seed = 33;
    plan.launch_failure_rate = 0.5;

    Measurer measurer(dev, nullptr, 3);
    measurer.setFaultPlan(plan);
    MeasureCache cache;
    measurer.setCache(&cache);

    const auto lats = measurer.measureBatch(task, candidates);
    const size_t failed = measurer.failedTrials();
    const size_t simulated = measurer.simulatedTrials();
    EXPECT_GT(measurer.injectedLaunchFailures(), 0u);
    EXPECT_GT(failed, 0u);
    ASSERT_LT(failed, candidates.size()); // some must still succeed

    // A launch failure is permanent: it is cached, and the cached value is
    // exactly +inf — positive, so it can never rank as a finite best.
    const uint64_t task_hash = task.hash();
    for (size_t i = 0; i < candidates.size(); ++i) {
        double cached = 0.0;
        ASSERT_TRUE(
            cache.lookup(task_hash, candidates[i].hash(), &cached));
        EXPECT_EQ(doubleBits(cached), doubleBits(lats[i]));
        if (!std::isfinite(lats[i])) {
            EXPECT_EQ(cached, kInf);
        }
    }
    // The re-visit is free — answered by the cache, no new simulation, no
    // new injected faults — but still counts its failed trials.
    const size_t launch_before = measurer.injectedLaunchFailures();
    measurer.measureBatch(task, candidates);
    EXPECT_EQ(measurer.simulatedTrials(), simulated);
    EXPECT_EQ(measurer.injectedLaunchFailures(), launch_before);
    EXPECT_EQ(measurer.failedTrials(), 2 * failed);
    measurer.setCache(nullptr);
}

TEST(FaultInjection, FailedTrialsNeverPersistAsFiniteRecords)
{
    // Under a fault storm on a hostile device, the tuner must finish, and
    // neither the in-run record db nor the persistent artifact store may
    // ever hold a failed trial as a finite best.
    const auto dev = tinySmemDevice();
    Workload w;
    w.name = "stormy";
    w.tasks.push_back({makeGemm("big", 1, 1024, 1024, 1024), 1.0});

    const std::string db_root = "/tmp/pruner_test_fault_records";
    std::filesystem::remove_all(db_root);
    TuneOptions opts;
    opts.rounds = 6;
    opts.seed = 3;
    opts.artifact_db_path = db_root;
    opts.fault_plan.seed = 77;
    opts.fault_plan.launch_failure_rate = 0.3;
    opts.fault_plan.timeout_rate = 0.2;

    PrunerConfig config;
    config.lse.spec_size = 128;
    PrunerPolicy policy(dev, config);
    const TuneResult result = policy.tune(w, opts);
    EXPECT_FALSE(result.failed);
    EXPECT_GT(result.injected_faults, 0u);
    EXPECT_GT(result.failed_trials, 0u);
    EXPECT_TRUE(std::isfinite(result.final_latency));
    for (const double best : result.best_per_task) {
        EXPECT_TRUE(std::isfinite(best));
        EXPECT_GT(best, 0.0);
    }

    ArtifactDb db(db_root);
    EXPECT_GT(db.recordCount(), 0u);
    for (const auto& served :
         db.topK(w.tasks[0].task, db.recordCount() + 1)) {
        EXPECT_TRUE(std::isfinite(served.latency));
        EXPECT_GT(served.latency, 0.0);
    }
    std::filesystem::remove_all(db_root);
}

TEST(FaultInjection, TunersSurviveFaultStorm)
{
    // Both tuning loops must finish with a finite best under sustained
    // injection of all three fault kinds.
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    TuneOptions opts;
    opts.rounds = 5;
    opts.seed = 4;
    opts.fault_plan.seed = 88;
    opts.fault_plan.launch_failure_rate = 0.25;
    opts.fault_plan.timeout_rate = 0.15;
    opts.fault_plan.flaky_rate = 0.25;

    auto ansor = baselines::makeAnsor(dev, 3);
    const TuneResult ra = ansor->tune(w, opts);
    EXPECT_FALSE(ra.failed);
    EXPECT_TRUE(std::isfinite(ra.final_latency));
    EXPECT_GT(ra.injected_faults, 0u);
    EXPECT_GT(ra.failed_trials, 0u);

    PrunerConfig config;
    config.lse.spec_size = 64;
    PrunerPolicy pruner(dev, config);
    const TuneResult rp = pruner.tune(w, opts);
    EXPECT_FALSE(rp.failed);
    EXPECT_TRUE(std::isfinite(rp.final_latency));
    EXPECT_GT(rp.injected_faults, 0u);
}

/** True when the ArtifactDb under @p root holds any model checkpoint
 *  (<root>/models/<key>.params). */
bool
hasModelCheckpoint(const std::filesystem::path& root)
{
    const std::filesystem::path models = root / "models";
    if (!std::filesystem::exists(models)) {
        return false;
    }
    for (const auto& entry : std::filesystem::directory_iterator(models)) {
        if (entry.path().extension() == ".params") {
            return true;
        }
    }
    return false;
}

TEST(FailureInjection, DivergedModelFailsRunAndIsNotPersisted)
{
    // A cost model that emits NaN has lost its search signal (TLP does
    // this when fine-tuned on little data). Pruner and Ansor alike must
    // report the run failed and keep the weights out of the ArtifactDb,
    // where the next warm-started run would restore them. The healthy run
    // under the same options proves the store does get a checkpoint
    // otherwise.
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(2);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    PrunerConfig pruner_config;
    pruner_config.lse.spec_size = 64;
    const size_t pacm_params =
        PrunerPolicy(dev, pruner_config).model().getParams().size();
    const struct
    {
        const char* name;
        std::function<std::unique_ptr<SearchPolicy>(bool)> make;
    } rows[] = {
        {"pruner",
         [&](bool diverged) -> std::unique_ptr<SearchPolicy> {
             PrunerConfig config = pruner_config;
             if (diverged) {
                 config.pretrained.assign(pacm_params, nan);
             }
             return std::make_unique<PrunerPolicy>(dev, config);
         }},
        {"ansor",
         [&](bool diverged) {
             auto policy = baselines::makeAnsor(dev, 7);
             if (diverged) {
                 CostModel& model =
                     static_cast<EvoCostModelPolicy&>(*policy).model();
                 model.setParams(
                     std::vector<double>(model.getParams().size(), nan));
             }
             return policy;
         }},
    };
    for (const auto& row : rows) {
        for (const bool diverged : {false, true}) {
            SCOPED_TRACE(std::string(row.name) +
                         (diverged ? "/diverged" : "/healthy"));
            const std::filesystem::path root =
                std::filesystem::temp_directory_path() /
                (std::string("pruner_test_diverged_") + row.name);
            std::filesystem::remove_all(root);
            TuneOptions opts;
            opts.rounds = 3;
            opts.online_training = false;
            opts.artifact_db_path = root.string();
            opts.reuse_model_checkpoint = true;
            const TuneResult result = row.make(diverged)->tune(w, opts);
            EXPECT_EQ(result.failed, diverged);
            EXPECT_EQ(result.failure_reason,
                      diverged ? "cost model diverged" : "");
            EXPECT_EQ(hasModelCheckpoint(root), !diverged);
            std::filesystem::remove_all(root);
        }
    }
}

TEST(Determinism, IdenticalSeedsGiveIdenticalResults)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(2);
    TuneOptions opts;
    opts.rounds = 5;
    opts.seed = 77;
    for (int variant = 0; variant < 2; ++variant) {
        TuneResult r1, r2;
        if (variant == 0) {
            auto a1 = baselines::makeAnsor(dev, 9);
            auto a2 = baselines::makeAnsor(dev, 9);
            r1 = a1->tune(w, opts);
            r2 = a2->tune(w, opts);
        } else {
            PrunerConfig config;
            config.lse.spec_size = 64;
            PrunerPolicy p1(dev, config), p2(dev, config);
            r1 = p1.tune(w, opts);
            r2 = p2.tune(w, opts);
        }
        ASSERT_EQ(r1.curve.size(), r2.curve.size());
        EXPECT_DOUBLE_EQ(r1.final_latency, r2.final_latency);
        EXPECT_DOUBLE_EQ(r1.total_time_s, r2.total_time_s);
        for (size_t i = 0; i < r1.curve.size(); ++i) {
            EXPECT_DOUBLE_EQ(r1.curve[i].latency_s, r2.curve[i].latency_s);
        }
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(2);
    TuneOptions opts;
    opts.rounds = 5;
    opts.seed = 77;
    auto a = baselines::makeAnsor(dev, 9);
    const TuneResult r1 = a->tune(w, opts);
    opts.seed = 78;
    auto b = baselines::makeAnsor(dev, 9);
    const TuneResult r2 = b->tune(w, opts);
    EXPECT_NE(r1.final_latency, r2.final_latency);
}

TEST(Determinism, CurveIsMonotoneInBothAxes)
{
    const auto dev = DeviceSpec::titanV();
    Workload w = workloads::bertTiny();
    w.tasks.resize(3);
    TuneOptions opts;
    opts.rounds = 8;
    opts.seed = 5;
    PrunerConfig config;
    config.lse.spec_size = 64;
    PrunerPolicy policy(dev, config);
    const TuneResult r = policy.tune(w, opts);
    for (size_t i = 1; i < r.curve.size(); ++i) {
        EXPECT_GE(r.curve[i].time_s, r.curve[i - 1].time_s);
        EXPECT_LE(r.curve[i].latency_s, r.curve[i - 1].latency_s);
    }
    EXPECT_LE(r.failed_trials, r.trials);
}

} // namespace
} // namespace pruner
