/** Observability layer: sharded metrics, sim-time tracing, round stats.
 *
 *  The load-bearing assertions are the identity ones: observability is a
 *  pure output. Tuning results must be byte-identical with it on or off,
 *  the deterministic exposition and trace must be byte-identical at any
 *  worker count, and a SessionReplayer re-execution must regenerate the
 *  live run's deterministic trace from the log alone. */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "baselines/ansor.hpp"
#include "core/pruner_tuner.hpp"
#include "ir/workload_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/round_stats.hpp"
#include "obs/trace.hpp"
#include "obs/tune_report.hpp"
#include "replay/session_replayer.hpp"
#include "support/logging.hpp"

namespace pruner {
namespace {

// --- MetricsRegistry -----------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics)
{
    obs::MetricsRegistry reg;
    obs::Counter* c = reg.counter("c_total");
    c->add();
    c->add(41);
    EXPECT_EQ(c->value(), 42u);

    obs::Gauge* g = reg.gauge("g");
    g->set(-7);
    g->add(10);
    EXPECT_EQ(g->value(), 3);

    obs::Histogram* h = reg.histogram("h", {1, 10, 100});
    h->observe(0);
    h->observe(10);
    h->observe(11);
    h->observe(1000);
    EXPECT_EQ(h->count(), 4u);
    EXPECT_EQ(h->sum(), 1021u);
    const auto buckets = h->bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 1u); // <= 1
    EXPECT_EQ(buckets[1], 1u); // <= 10
    EXPECT_EQ(buckets[2], 1u); // <= 100
    EXPECT_EQ(buckets[3], 1u); // +Inf
}

TEST(Metrics, SameNameReturnsSameHandle)
{
    obs::MetricsRegistry reg;
    EXPECT_EQ(reg.counter("x"), reg.counter("x"));
    EXPECT_EQ(reg.gauge("y"), reg.gauge("y"));
    EXPECT_EQ(reg.histogram("z", {1}), reg.histogram("z", {1}));
}

TEST(Metrics, TypeCollisionThrows)
{
    obs::MetricsRegistry reg;
    reg.counter("name");
    EXPECT_THROW(reg.gauge("name"), InternalError);
    EXPECT_THROW(reg.histogram("name", {1}), InternalError);
}

TEST(Metrics, NullSafeHelpersAreNoOps)
{
    EXPECT_NO_THROW(obs::counterAdd(nullptr));
    EXPECT_NO_THROW(obs::counterAdd(nullptr, 5));
    EXPECT_NO_THROW(obs::histogramObserve(nullptr, 5));
}

TEST(Metrics, ConcurrentCounterAddsAreExact)
{
    obs::MetricsRegistry reg;
    obs::Counter* c = reg.counter("hammer_total");
    obs::Histogram* h = reg.histogram("hammer_hist", {8, 64});
    constexpr int kThreads = 8;
    constexpr int kAdds = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&]() {
            for (int i = 0; i < kAdds; ++i) {
                c->add();
                h->observe(static_cast<uint64_t>(i % 100));
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kAdds);
    EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, SnapshotIsSortedAndQueryable)
{
    obs::MetricsRegistry reg;
    reg.counter("zebra_total")->add(3);
    reg.counter("alpha_total")->add(1);
    reg.gauge("mid")->set(5);
    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "alpha_total");
    EXPECT_EQ(snap.counters[1].name, "zebra_total");
    EXPECT_EQ(snap.counterValue("zebra_total"), 3u);
    EXPECT_EQ(snap.counterValue("missing"), 0u);
    EXPECT_TRUE(snap.hasCounter("alpha_total"));
    EXPECT_FALSE(snap.hasCounter("missing"));
    EXPECT_EQ(snap.gaugeValue("mid"), 5);
}

TEST(Metrics, DeterministicRenderDropsExecutionChannel)
{
    obs::MetricsRegistry reg;
    reg.counter("det_total")->add(1);
    reg.counter("exec_total", obs::MetricChannel::Execution)->add(2);
    reg.setLabel("host_tier", "avx2", obs::MetricChannel::Execution);
    const std::string all = reg.renderText(false);
    const std::string det = reg.renderText(true);
    EXPECT_NE(all.find("exec_total"), std::string::npos);
    EXPECT_NE(all.find("host_tier"), std::string::npos);
    EXPECT_EQ(det.find("exec_total"), std::string::npos);
    EXPECT_EQ(det.find("host_tier"), std::string::npos);
    EXPECT_NE(det.find("det_total"), std::string::npos);
}

TEST(Metrics, RenderJsonContainsSortedEntries)
{
    obs::MetricsRegistry reg;
    reg.counter("a_total")->add(7);
    reg.gauge("b")->set(-2);
    reg.histogram("c", {5})->observe(3);
    reg.setLabel("d", "tier\"x\"");
    const std::string json = reg.snapshot().renderJson();
    EXPECT_NE(json.find("\"a_total\""), std::string::npos);
    EXPECT_NE(json.find("-2"), std::string::npos);
    EXPECT_NE(json.find("\"c\""), std::string::npos);
    // Label values are JSON-escaped.
    EXPECT_NE(json.find("tier\\\"x\\\""), std::string::npos);
}

TEST(Metrics, MergeIntoAddsCountersOverwritesGauges)
{
    obs::MetricsRegistry a;
    a.counter("n_total")->add(5);
    a.gauge("g")->set(1);
    a.histogram("h", {10})->observe(3);

    obs::MetricsRegistry b;
    b.counter("n_total")->add(2);
    b.gauge("g")->set(9);
    b.histogram("h", {10})->observe(30);
    b.mergeInto(a);

    const auto snap = a.snapshot();
    EXPECT_EQ(snap.counterValue("n_total"), 7u);
    EXPECT_EQ(snap.gaugeValue("g"), 9);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 2u);
    EXPECT_EQ(snap.histograms[0].sum, 33u);
}

// --- Tracer --------------------------------------------------------------

TEST(Trace, SpansAndInstantsExportChromeJson)
{
    SimClock clock;
    obs::Tracer tracer;
    const auto outer =
        tracer.begin(obs::TraceTrack::Main, "outer", "cat", clock.now());
    clock.charge(CostCategory::Exploration, 1.5);
    const auto inner =
        tracer.begin(obs::TraceTrack::Main, "inner", "cat", clock.now());
    tracer.argU64(inner, "n", 3);
    clock.charge(CostCategory::Measurement, 0.5);
    tracer.end(inner, clock.now());
    const auto mark = tracer.instant(obs::TraceTrack::Main, "mark", "cat",
                                     clock.now());
    tracer.argStr(mark, "what", "checkpoint");
    tracer.end(outer, clock.now());
    EXPECT_EQ(tracer.eventCount(), 5u);

    const std::string json = tracer.chromeTrace();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // 1.5 simulated seconds = 1500000 us.
    EXPECT_NE(json.find("1500000.000"), std::string::npos);
    // Virtual track names are exported as thread-name metadata.
    EXPECT_NE(json.find("\"main\""), std::string::npos);
    EXPECT_NE(json.find("\"trainer\""), std::string::npos);
}

TEST(Trace, DeterministicExportDropsExecutionChannel)
{
    SimClock clock;
    obs::Tracer tracer;
    const auto det =
        tracer.begin(obs::TraceTrack::Main, "det", "cat", clock.now());
    tracer.end(det, clock.now());
    const auto exec =
        tracer.begin(obs::TraceTrack::Trainer, "exec", "cat", clock.now(),
                     obs::TraceChannel::Execution);
    tracer.end(exec, clock.now());
    const std::string all = tracer.chromeTrace(true);
    const std::string only_det = tracer.chromeTrace(false);
    EXPECT_NE(all.find("\"exec\""), std::string::npos);
    EXPECT_EQ(only_det.find("\"exec\""), std::string::npos);
    EXPECT_NE(only_det.find("\"det\""), std::string::npos);
}

TEST(Trace, CollapsedStacksComputeSelfTime)
{
    SimClock clock;
    obs::Tracer tracer;
    const auto outer =
        tracer.begin(obs::TraceTrack::Main, "outer", "cat", clock.now());
    clock.charge(CostCategory::Other, 1.0);
    const auto inner =
        tracer.begin(obs::TraceTrack::Main, "inner", "cat", clock.now());
    clock.charge(CostCategory::Other, 2.0);
    tracer.end(inner, clock.now());
    clock.charge(CostCategory::Other, 0.5);
    tracer.end(outer, clock.now());

    const std::string stacks = tracer.collapsedStacks();
    // outer self = 3.5s - 2.0s = 1.5s = 1500000000 ns.
    EXPECT_NE(stacks.find("main;outer 1500000000"), std::string::npos);
    EXPECT_NE(stacks.find("main;outer;inner 2000000000"),
              std::string::npos);
}

TEST(Trace, ScopedSpanInertWithoutTracerOrClock)
{
    SimClock clock;
    obs::Tracer tracer;
    {
        obs::ScopedSpan none(nullptr, obs::TraceTrack::Main, &clock, "a",
                             "c");
        none.argU64("k", 1);
    }
    {
        obs::ScopedSpan no_clock(&tracer, obs::TraceTrack::Main, nullptr,
                                 "a", "c");
        no_clock.argU64("k", 1);
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
    {
        obs::ScopedSpan live(&tracer, obs::TraceTrack::Main, &clock, "a",
                             "c");
        live.close();
        live.close(); // idempotent
    }
    EXPECT_EQ(tracer.eventCount(), 2u);
}

// --- Tuning-loop integration --------------------------------------------

TuneOptions
obsTuneOptions(int workers)
{
    TuneOptions opts;
    opts.rounds = 4;
    opts.seed = 11;
    opts.tasks_per_round = 2;
    opts.measure_workers = workers;
    // Pin the simulated compile overlap so different real worker counts
    // stay byte-identical (same convention as the replay tests).
    opts.clock_lanes = 2;
    opts.async_training = workers > 1;
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
expectSameResult(const TuneResult& a, const TuneResult& b)
{
    EXPECT_EQ(doubleBits(a.final_latency), doubleBits(b.final_latency));
    EXPECT_EQ(doubleBits(a.total_time_s), doubleBits(b.total_time_s));
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failed_trials, b.failed_trials);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.simulated_trials, b.simulated_trials);
    EXPECT_EQ(a.injected_faults, b.injected_faults);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_EQ(doubleBits(a.curve[i].latency_s),
                  doubleBits(b.curve[i].latency_s));
    }
}

TEST(ObsTune, ObservabilityNeverChangesResults)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    PrunerPolicy off_policy(dev, smallPrunerConfig());
    const TuneResult off = off_policy.tune(w, obsTuneOptions(2));

    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    TuneOptions opts = obsTuneOptions(2);
    opts.metrics = &metrics;
    opts.tracer = &tracer;
    opts.collect_round_stats = true;
    PrunerPolicy on_policy(dev, smallPrunerConfig());
    const TuneResult on = on_policy.tune(w, opts);

    expectSameResult(off, on);
    EXPECT_GT(tracer.eventCount(), 0u);
    EXPECT_GT(metrics.snapshot().counterValue("measure_trials_total"), 0u);
}

TEST(ObsTune, DeterministicViewIdenticalAcrossWorkerCounts)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    std::string text[2], trace[2], stacks[2];
    TuneResult results[2];
    const int workers[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        obs::MetricsRegistry metrics;
        obs::Tracer tracer;
        TuneOptions opts = obsTuneOptions(workers[i]);
        opts.metrics = &metrics;
        opts.tracer = &tracer;
        PrunerPolicy policy(dev, smallPrunerConfig());
        results[i] = policy.tune(w, opts);
        text[i] = metrics.renderText(/*deterministic_only=*/true);
        trace[i] = tracer.chromeTrace(/*include_execution=*/false);
        stacks[i] = tracer.collapsedStacks();
    }
    expectSameResult(results[0], results[1]);
    EXPECT_EQ(text[0], text[1]);
    EXPECT_EQ(trace[0], trace[1]);
    EXPECT_EQ(stacks[0], stacks[1]);
}

TEST(ObsTune, ResultCountersMatchMergedRegistry)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();
    obs::MetricsRegistry metrics;
    TuneOptions opts = obsTuneOptions(1);
    opts.metrics = &metrics;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult result = policy.tune(w, opts);

    const auto snap = metrics.snapshot();
    EXPECT_EQ(result.trials, snap.counterValue("measure_trials_total"));
    EXPECT_EQ(result.failed_trials,
              snap.counterValue("measure_failed_trials_total"));
    EXPECT_EQ(result.cache_hits,
              snap.counterValue("measure_cache_hits_total"));
    EXPECT_EQ(result.simulated_trials,
              snap.counterValue("measure_simulated_trials_total"));
    EXPECT_EQ(result.injected_faults,
              snap.counterValue("fault_injected_launch_total") +
                  snap.counterValue("fault_injected_timeout_total") +
                  snap.counterValue("fault_injected_flaky_total"));
    // The instrumented pipeline stages all reported in.
    EXPECT_GT(snap.counterValue("lse_drafts_total"), 0u);
    EXPECT_GT(snap.counterValue("lse_sa_evaluations_total"), 0u);
    EXPECT_GT(snap.counterValue("model_infer_batches_total"), 0u);
    EXPECT_GT(snap.counterValue("model_infer_candidates_total"), 0u);
    EXPECT_GT(snap.counterValue("model_train_groups_total"), 0u);
    EXPECT_GT(snap.counterValue("sched_pick_roundrobin_total") +
                  snap.counterValue("sched_pick_eps_total") +
                  snap.counterValue("sched_pick_gradient_total"),
              0u);
}

TEST(ObsTune, RoundStatsSumToRunTotals)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();
    TuneOptions opts = obsTuneOptions(2);
    opts.collect_round_stats = true;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult result = policy.tune(w, opts);

    ASSERT_EQ(result.round_stats.size(),
              static_cast<size_t>(opts.rounds));
    double expl = 0.0, train = 0.0, meas = 0.0, comp = 0.0;
    uint64_t trials = 0, hits = 0, faults = 0, measured = 0;
    for (const auto& r : result.round_stats) {
        EXPECT_EQ(r.tasks.size(), 2u);
        EXPECT_GE(r.end_time_s, r.begin_time_s);
        expl += r.exploration_s;
        train += r.training_s;
        meas += r.measurement_s;
        comp += r.compile_s;
        trials += r.trials;
        hits += r.cache_hits;
        faults += r.injected_faults;
        measured += r.measured;
    }
    EXPECT_NEAR(expl, result.exploration_s, 1e-9);
    EXPECT_NEAR(train, result.training_s, 1e-9);
    EXPECT_NEAR(meas, result.measurement_s, 1e-9);
    EXPECT_NEAR(comp, result.compile_s, 1e-9);
    EXPECT_EQ(trials, result.trials);
    EXPECT_EQ(hits, result.cache_hits);
    EXPECT_EQ(faults, result.injected_faults);
    EXPECT_GT(measured, 0u);
    // The final round's best matches the run's final latency.
    EXPECT_EQ(doubleBits(result.round_stats.back().best_latency),
              doubleBits(result.final_latency));
}

TEST(ObsTune, TuneReportRendersRoundTable)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();
    TuneOptions opts = obsTuneOptions(1);
    opts.collect_round_stats = true;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult result = policy.tune(w, opts);

    const std::string report = obs::tuneReport(result);
    EXPECT_NE(report.find("Pruner"), std::string::npos);
    EXPECT_NE(report.find("exploration"), std::string::npos);
    EXPECT_NE(report.find("trials"), std::string::npos);
    EXPECT_NE(report.find("round"), std::string::npos);
    // One data row per round after the per-round table header.
    const size_t header = report.find("round tasks");
    ASSERT_NE(header, std::string::npos) << report;
    int rows = 0;
    size_t pos = report.find('\n', header);
    while (pos != std::string::npos && pos + 1 < report.size()) {
        const size_t next = report.find('\n', pos + 1);
        if (report.compare(pos + 1, 2, "  ") == 0) {
            ++rows;
        }
        pos = next;
    }
    EXPECT_EQ(rows, opts.rounds) << report;
}

TEST(ObsTune, StageHistogramsTrackRoundsAndRenderInReport)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();
    obs::MetricsRegistry metrics;
    TuneOptions opts = obsTuneOptions(2);
    opts.metrics = &metrics;
    PrunerPolicy policy(dev, smallPrunerConfig());
    const TuneResult result = policy.tune(w, opts);
    EXPECT_FALSE(result.failed);

    const auto snap = metrics.snapshot();
    const obs::MetricsSnapshot::HistogramValue* draft = nullptr;
    const obs::MetricsSnapshot::HistogramValue* verify = nullptr;
    const obs::MetricsSnapshot::HistogramValue* train = nullptr;
    for (const auto& h : snap.histograms) {
        if (h.name == "round_draft_time_us") {
            draft = &h;
        } else if (h.name == "round_verify_time_us") {
            verify = &h;
        } else if (h.name == "round_train_time_us") {
            train = &h;
        }
    }
    ASSERT_NE(draft, nullptr);
    ASSERT_NE(verify, nullptr);
    ASSERT_NE(train, nullptr);
    // The Pruner loop drafts and verifies every round; training only
    // happens on rounds where the online update fires.
    EXPECT_EQ(draft->count, static_cast<uint64_t>(opts.rounds));
    EXPECT_EQ(verify->count, static_cast<uint64_t>(opts.rounds));
    EXPECT_LE(train->count, static_cast<uint64_t>(opts.rounds));
    EXPECT_GT(draft->sum, 0u);
    EXPECT_EQ(draft->channel, obs::MetricChannel::Deterministic);

    const std::string report = obs::tuneReport(result, snap);
    EXPECT_NE(report.find("per-stage sim-time distributions"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("draft"), std::string::npos);
    EXPECT_NE(report.find("verify"), std::string::npos);

    // Worker-count invariance: the histograms are sim-time functions of
    // the trajectory, so a 1-worker run produces identical buckets.
    obs::MetricsRegistry metrics1;
    TuneOptions opts1 = obsTuneOptions(1);
    opts1.metrics = &metrics1;
    PrunerPolicy policy1(dev, smallPrunerConfig());
    (void)policy1.tune(w, opts1);
    const auto snap1 = metrics1.snapshot();
    for (const auto& h1 : snap1.histograms) {
        if (h1.name != "round_draft_time_us") {
            continue;
        }
        EXPECT_EQ(h1.count, draft->count);
        EXPECT_EQ(h1.sum, draft->sum);
        EXPECT_EQ(h1.bucket_counts, draft->bucket_counts);
    }
}

TEST(ObsTune, EvoPolicyEmitsEvolutionCounters)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();
    obs::MetricsRegistry metrics;
    TuneOptions opts = obsTuneOptions(1);
    opts.metrics = &metrics;
    auto policy = baselines::makeAnsor(dev, 7);
    const TuneResult result = policy->tune(w, opts);
    EXPECT_FALSE(result.failed);
    const auto snap = metrics.snapshot();
    EXPECT_GT(snap.counterValue("evo_runs_total"), 0u);
    EXPECT_GT(snap.counterValue("evo_generations_total"), 0u);
    EXPECT_GT(snap.counterValue("evo_evaluations_total"), 0u);
    EXPECT_GT(snap.counterValue("model_infer_candidates_total"), 0u);
}

TEST(ObsTune, ReplayRegeneratesDeterministicTrace)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = smallWorkload();

    obs::MetricsRegistry live_metrics;
    obs::Tracer live_tracer;
    SessionRecorder recorder;
    TuneOptions opts = obsTuneOptions(2);
    opts.metrics = &live_metrics;
    opts.tracer = &live_tracer;
    opts.recorder = &recorder;
    PrunerPolicy policy(dev, smallPrunerConfig());
    policy.tune(w, opts);
    ASSERT_TRUE(recorder.finished());

    obs::MetricsRegistry replay_metrics;
    obs::Tracer replay_tracer;
    SessionReplayer replayer;
    ReplayEnv env;
    env.workers = 1; // different real parallelism than the live run
    env.metrics = &replay_metrics;
    env.tracer = &replay_tracer;
    const ReplayResult replayed = replayer.replay(recorder.log(), env);
    EXPECT_TRUE(replayed.diff.identical)
        << "diverged at: " << replayed.diff.describe();

    EXPECT_EQ(live_tracer.chromeTrace(false),
              replay_tracer.chromeTrace(false));
    EXPECT_EQ(live_tracer.collapsedStacks(),
              replay_tracer.collapsedStacks());
    EXPECT_EQ(live_metrics.renderText(true),
              replay_metrics.renderText(true));
}

} // namespace
} // namespace pruner
