#include "search/search_policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "cost/async_trainer.hpp"
#include "db/artifact_session.hpp"
#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_histograms.hpp"
#include "obs/trace.hpp"
#include "replay/checkpoint.hpp"
#include "replay/session_recorder.hpp"
#include "search/explorer.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Unbinds a model's metric handles when the per-run registry dies (the
 *  policy's model outlives tune(), the registry does not). */
struct ModelObsGuard
{
    CostModel* model;
    ~ModelObsGuard() { model->bindMetrics(nullptr); }
};

} // namespace

namespace obs_detail {

void
exportPoolStats(obs::MetricsRegistry& metrics, const ThreadPool* pool)
{
    if (pool == nullptr) {
        return;
    }
    const auto ch = obs::MetricChannel::Execution;
    metrics.gauge("pool_workers", ch)
        ->set(static_cast<int64_t>(pool->size()));
    metrics.gauge("pool_jobs_submitted", ch)
        ->set(static_cast<int64_t>(pool->jobsSubmitted()));
    metrics.gauge("pool_jobs_completed", ch)
        ->set(static_cast<int64_t>(pool->jobsCompleted()));
    metrics.gauge("pool_peak_queue_depth", ch)
        ->set(static_cast<int64_t>(pool->peakQueueDepth()));
}

void
exportKernelTiers(obs::MetricsRegistry& metrics)
{
    // Host property, not a trajectory property: Execution channel, so a
    // trace replayed on another machine still identity-matches.
    const auto ch = obs::MetricChannel::Execution;
    const nnkernel::KernelTiers tiers = nnkernel::kernelTiers();
    metrics.setLabel("nn_kernel_matmul", tiers.matmul, ch);
    metrics.setLabel("nn_kernel_matmul_nt", tiers.matmul_nt, ch);
    metrics.setLabel("nn_kernel_matmul_tn_acc", tiers.matmul_tn_acc, ch);
    metrics.setLabel("nn_kernel_matmul_tn_add_partial",
                     tiers.matmul_tn_add_partial, ch);
    metrics.setLabel("nn_kernel_matmul_tn_seg", tiers.matmul_tn_seg, ch);
    // CPU-supported tiers the startup self-check rejected. Zero on a
    // healthy host; nonzero means a vector kernel broke its byte-identity
    // contract and silently fell back (surfaced as a tuneReport warning).
    // Counters are monotonic, so set-once-per-export stays idempotent:
    // the demotion total is fixed after the first dispatch.
    obs::Counter* demotions =
        metrics.counter("kernel_tier_demotions_total", ch);
    const size_t total = nnkernel::kernelTierDemotions();
    if (demotions != nullptr && demotions->value() < total) {
        demotions->add(total - demotions->value());
    }
}

void
fillResultCounters(TuneResult& result, const obs::MetricsRegistry& metrics)
{
    // Satellite consolidation: TuneResult's ad-hoc counters are now read
    // back from the per-run registry snapshot — one source of truth for
    // the result struct, the /metrics exposition, and the round stats.
    const obs::MetricsSnapshot snap = metrics.snapshot();
    result.trials = snap.counterValue("measure_trials_total");
    result.failed_trials = snap.counterValue("measure_failed_trials_total");
    result.cache_hits = snap.counterValue("measure_cache_hits_total");
    result.simulated_trials =
        snap.counterValue("measure_simulated_trials_total");
    result.injected_faults =
        snap.counterValue("fault_injected_launch_total") +
        snap.counterValue("fault_injected_timeout_total") +
        snap.counterValue("fault_injected_flaky_total");
    result.warm_records = snap.counterValue("db_warm_records_total");
}

} // namespace obs_detail

double
TuneResult::timeToReach(double latency) const
{
    for (const auto& point : curve) {
        if (point.latency_s <= latency) {
            return point.time_s;
        }
    }
    return kInf;
}

double
workloadBest(const Workload& workload, const TuningRecordDb& db)
{
    double total = 0.0;
    for (const auto& inst : workload.tasks) {
        const double best = db.bestLatency(inst.task);
        if (!std::isfinite(best)) {
            return kInf;
        }
        total += inst.weight * best;
    }
    return total;
}

std::vector<Schedule>
selectForMeasurement(const std::vector<ScoredSchedule>& ranked,
                     const SubgraphTask& task, const TuningRecordDb& db,
                     const ScheduleSampler& sampler, size_t n, double eps,
                     Rng& rng)
{
    std::vector<Schedule> out;
    std::unordered_set<uint64_t> chosen;
    auto try_add = [&](const Schedule& sch) {
        if (out.size() >= n) {
            return;
        }
        if (db.measured(task, sch) || !chosen.insert(sch.hash()).second) {
            return;
        }
        out.push_back(sch);
    };
    // Epsilon share comes from fresh random samples (exploration).
    const size_t n_random =
        static_cast<size_t>(std::ceil(eps * static_cast<double>(n)));
    for (const auto& scored : ranked) {
        if (out.size() + n_random >= n) {
            break;
        }
        try_add(scored.sch);
    }
    size_t guard = 0;
    while (out.size() < n && guard++ < n * 30) {
        try_add(sampler.sample(rng));
    }
    return out;
}

EvoCostModelPolicy::EvoCostModelPolicy(std::string name,
                                       const DeviceSpec& device,
                                       std::unique_ptr<CostModel> model,
                                       EvoPolicyConfig config)
    : name_(std::move(name)),
      device_(device),
      model_(std::move(model)),
      config_(config)
{
    PRUNER_CHECK(model_ != nullptr);
}

bool
EvoCostModelPolicy::supportsTask(const SubgraphTask&) const
{
    return true;
}

std::vector<double>
EvoCostModelPolicy::scoreCandidates(
    const SubgraphTask& task, std::span<const Schedule> candidates) const
{
    return model_->predict(task, candidates);
}

TuneResult
EvoCostModelPolicy::tune(const Workload& workload, const TuneOptions& opts)
{
    TuneResult result;
    result.policy = name_;

    // Operator-coverage check (Figure 8: unsupported operators abort the
    // whole workload for Adatune / Felix / TLM).
    for (const auto& inst : workload.tasks) {
        if (!supportsTask(inst.task)) {
            result.failed = true;
            result.failure_reason =
                "unsupported operator: " + inst.task.key;
            result.final_latency = kInf;
            return result;
        }
    }

    SimClock clock;
    Rng rng(opts.seed);
    // Per-run observability. Every component accumulates into this private
    // registry (so concurrent tune() calls never share counters); the
    // caller's registry, if any, receives one merge at the end.
    obs::MetricsRegistry run_metrics;
    obs::Tracer* tracer = opts.tracer;
    obs::ScopedSpan tune_span(tracer, obs::TraceTrack::Main, &clock, "tune",
                              "session");
    tune_span.argStr("policy", name_);
    Measurer measurer(device_, &clock, hashCombine(opts.seed, 0x3EA5),
                      opts.constants);
    MeasureEnv env(measurer, opts.measure_workers, opts.measure_cache);
    measurer.setMetrics(&run_metrics);
    measurer.setTracer(tracer);
    measurer.setFaultPlan(opts.fault_plan);
    // Crash-safe checkpoint/resume (see replay/checkpoint.hpp): the
    // fingerprint binds a checkpoint to this exact run identity, and a
    // missing/corrupt/incompatible file degrades to a cold start.
    const uint64_t ckpt_fp = checkpointFingerprint(
        replayFactory(), replayConfig(), device_.name, workload, opts);
    std::optional<TuningCheckpoint> ckpt;
    if (!opts.resume_from.empty()) {
        ckpt = loadCheckpoint(opts.resume_from, ckpt_fp, &run_metrics);
    }
    const bool resumed = ckpt.has_value();
    SessionRecorder* recorder = opts.recorder;
    if (resumed && recorder != nullptr) {
        PRUNER_WARN("session recorder disabled for the resumed run: the "
                    "log would only cover the rounds after the checkpoint");
        recorder = nullptr;
    }
    measurer.setRecorder(recorder);
    // Pin the compile-overlap divisor so a recorded session replays with
    // the same simulated clock at any real worker count; a resumed run
    // pins the writing run's divisor the same way.
    measurer.setClockLanes(
        resumed ? static_cast<size_t>(ckpt->clock_lanes)
                : static_cast<size_t>(opts.clock_lanes > 0
                                          ? opts.clock_lanes
                                          : std::max(opts.measure_workers,
                                                     1)));
    if (recorder != nullptr) {
        recorder->beginSession(replayFactory(), replayConfig(),
                               device_.name, workload, opts);
    }
    EvoPolicyConfig run_config = config_;
    run_config.evolution.score_pool = env.pool();
    run_config.evolution.score_chunk =
        static_cast<size_t>(std::max(opts.predict_batch, 1));
    run_config.evolution.metrics = &run_metrics;
    // Draft-stage explorer ("" -> "evolution", the exact pre-interface
    // loop). Owns no RNG: every draw flows through the loop's rng below.
    std::unique_ptr<Explorer> explorer = ExplorerRegistry::instance().make(
        opts.explorer, opts.explorer_config);
    explorer->bindMetrics(&run_metrics);
    TuningRecordDb db;
    TaskScheduler scheduler(workload);
    scheduler.bindObs(&run_metrics);
    model_->bindMetrics(&run_metrics);
    ModelObsGuard model_obs_guard{model_.get()};
    obs_detail::exportKernelTiers(run_metrics);
    obs::RoundStatsCollector round_stats(opts.collect_round_stats, &clock,
                                         &measurer);
    // The evolutionary loop scores its population inline, so the whole
    // exploration delta is the draft stage; there is no separate verify
    // pass to observe (round_verify_time_us stays empty here).
    obs::StageTimeHistograms stage_hists(&run_metrics);

    ArtifactSession artifacts(opts.artifact_db, opts.artifact_db_path);
    artifacts.bindMetrics(&run_metrics);
    const std::string model_key =
        artifactModelKey(name_, model_->name(), device_.name);
    // A resumed run restores db/cache/model from the checkpoint instead:
    // warm-starting on top would double-apply the stored records.
    if (artifacts.enabled() && !resumed) {
        obs::ScopedSpan io_span(tracer, obs::TraceTrack::Io, &clock,
                                "warm_start", "io");
        const WarmStartStats warm = artifacts.warmStart(
            workload, opts.warm_start_records ? &db : nullptr,
            opts.measure_cache && opts.reuse_measure_cache ? env.cacheMut()
                                                           : nullptr,
            opts.reuse_model_checkpoint ? model_.get() : nullptr, model_key);
        io_span.argU64("records", warm.records_replayed);
        io_span.argU64("cache_entries", warm.cache_entries);
        if (warm.records_replayed > 0) {
            scheduler.warmStart(db);
            observeWarmRecords(*explorer, device_, db.records());
        }
    }

    // Resume before the async trainer exists: the back clone constructed
    // below must inherit the restored weights and training-RNG lineage.
    int start_round = 0;
    if (resumed) {
        CheckpointTargets targets;
        targets.clock = &clock;
        targets.rng = &rng;
        targets.measurer = &measurer;
        targets.scheduler = &scheduler;
        targets.db = &db;
        targets.cache = opts.measure_cache ? env.cacheMut() : nullptr;
        targets.explorer = explorer.get();
        targets.model = model_.get();
        targets.metrics = &run_metrics;
        targets.round_stats = &round_stats;
        targets.curve = &result.curve;
        start_round = applyCheckpoint(*ckpt, workload, targets);
        PRUNER_INFO("resumed from '" << opts.resume_from << "' at round "
                                     << start_round);
    }

    // Async online training: the update runs on the verify pool between
    // rounds and installs before the next round's first prediction. The
    // evolution loop predicts throughout its draft, so the overlap window
    // is smaller than Pruner's model-free LSE draft, but the update still
    // shares the pool instead of blocking the loop.
    std::unique_ptr<AsyncModelTrainer> async_trainer;
    if (opts.async_training && env.pool() != nullptr) {
        async_trainer =
            std::make_unique<AsyncModelTrainer>(*model_, *env.pool());
        async_trainer->bindObs(tracer, &clock, &run_metrics);
    }

    // Kept across saves: each save formats only the records measured since
    // the previous one.
    std::vector<std::string> ckpt_record_lines;
    for (int round = start_round; round < opts.rounds; ++round) {
        obs::ScopedSpan round_span(tracer, obs::TraceTrack::Main, &clock,
                                   "round", "sched");
        round_span.argU64("round", static_cast<uint64_t>(round));
        const auto picked = scheduler.nextTasks(
            static_cast<size_t>(std::max(opts.tasks_per_round, 1)), db,
            rng);
        round_span.argU64("tasks", picked.size());
        round_stats.beginRound(round, picked);
        if (picked.size() > 1) {
            // The serial loop never charges task_switch_overhead (its
            // calibrated per-round constants absorb it, and K=1 stays
            // byte-identical to it). A sharded round pays one explicit
            // switch charge for hopping across K tasks — flat per round
            // regardless of K, and far below the compile slots the
            // round-wide overlap saves.
            clock.charge(CostCategory::Other,
                         opts.constants.task_switch_overhead);
        }
        // Round-boundary weight swap, before the round's first predict.
        if (async_trainer != nullptr) {
            async_trainer->install();
        }
        if (recorder != nullptr) {
            recorder->onRound(round, picked);
            // Hash at the install point, where async and synchronous
            // training provably hold identical weights.
            recorder->onModelState(round, paramsHash(model_->getParams()));
        }

        struct RoundSlot
        {
            size_t task_index;
            const SubgraphTask* task;
            std::vector<Schedule> to_measure;
        };
        std::vector<RoundSlot> slots;
        slots.reserve(picked.size());

        // Draft + verify every picked task (the evolution's fitness
        // slices fan out across the shared pool), collecting each task's
        // measurement batch.
        const double draft_begin_s =
            clock.total(CostCategory::Exploration);
        for (const size_t idx : picked) {
            const SubgraphTask& task = workload.tasks[idx].task;
            ScheduleSampler sampler(task, device_);

            std::vector<Schedule> seeds;
            if (const Schedule* best = db.bestSchedule(task)) {
                seeds.push_back(*best);
            }
            size_t evals = 0;
            obs::ScopedSpan draft_span(tracer, obs::TraceTrack::Main,
                                       &clock, "draft", "explore");
            draft_span.argU64("task", idx);
            draft_span.argStr("explorer", explorer->key());
            ExplorerContext ectx;
            ectx.task = &task;
            ectx.device = &device_;
            ectx.seeds = &seeds;
            ectx.score = [&](std::span<const Schedule> cands) {
                return scoreCandidates(task, cands);
            };
            ectx.rng = &rng;
            ectx.n_evaluated = &evals;
            ectx.evo = run_config.evolution;
            const auto ranked = explorer->proposeBatch(ectx);
            clock.charge(CostCategory::Exploration,
                         static_cast<double>(evals) *
                             model_->evalCostPerCandidate());
            draft_span.argU64("evals", evals);
            draft_span.argU64("ranked", ranked.size());
            draft_span.close();
            round_stats.addDrafted(ranked.size());

            slots.push_back(
                {idx, &task,
                 selectForMeasurement(
                     ranked, task, db, sampler,
                     static_cast<size_t>(opts.measures_per_round),
                     opts.eps_greedy, rng)});
            round_stats.addMeasured(slots.back().to_measure.size());
        }
        stage_hists.observeDraft(clock.total(CostCategory::Exploration) -
                                 draft_begin_s);

        // Measure the whole round through one pooled pass (adaptive
        // measurement keeps its serial on-device loop by design).
        std::vector<std::vector<double>> round_latencies;
        if (config_.adaptive_measurement) {
            round_latencies.reserve(slots.size());
            for (const RoundSlot& slot : slots) {
                round_latencies.push_back(measurer.measureAdaptive(
                    *slot.task, slot.to_measure,
                    config_.adaptive_time_scale,
                    config_.adaptive_extra_noise));
            }
        } else {
            std::vector<RoundBatch> batches;
            batches.reserve(slots.size());
            for (const RoundSlot& slot : slots) {
                batches.push_back({slot.task, &slot.to_measure});
            }
            round_latencies = measurer.measureRound(batches);
        }
        for (size_t s = 0; s < slots.size(); ++s) {
            const RoundSlot& slot = slots[s];
            const auto& latencies = round_latencies[s];
            for (size_t i = 0; i < slot.to_measure.size(); ++i) {
                if (std::isfinite(latencies[i])) {
                    db.add({*slot.task, slot.to_measure[i], latencies[i]});
                }
            }
            artifacts.onMeasured(*slot.task, slot.to_measure, latencies);
            explorer->observe(*slot.task, device_, slot.to_measure,
                              latencies);
            scheduler.observe(slot.task_index, db.bestLatency(*slot.task));
        }

        const double train_begin_s = clock.total(CostCategory::Training);
        if (opts.online_training && config_.online_training &&
            db.size() >= 16) {
            // The "train" span brackets the Training charge point, which
            // sync and async modes share — its deterministic timestamps
            // are identical either way (the async overlap window itself
            // is the Execution-channel "async_update" span).
            obs::ScopedSpan train_span(tracer, obs::TraceTrack::Main,
                                       &clock, "train", "train");
            if (async_trainer != nullptr) {
                async_trainer->beginUpdate(db.recentWindow(768),
                                           opts.train_epochs);
            } else {
                model_->train(db.recentWindow(768), opts.train_epochs);
            }
            // Charged where synchronous training would pay it, so async
            // mode never changes the simulated clock.
            clock.charge(CostCategory::Training,
                         model_->trainCostPerRound());
        }
        // Observed only for rounds that actually trained, so the train
        // histogram's count is the number of training rounds.
        const double train_s =
            clock.total(CostCategory::Training) - train_begin_s;
        if (train_s > 0.0) {
            stage_hists.observeTrain(train_s);
        }

        const double e2e = workloadBest(workload, db);
        if (std::isfinite(e2e)) {
            result.curve.push_back({clock.now(), e2e});
            if (tracer != nullptr) {
                const auto h = tracer->instant(obs::TraceTrack::Main,
                                               "curve_point", "curve",
                                               clock.now());
                tracer->argDouble(h, "latency_s", e2e);
            }
        }
        round_stats.endRound(e2e);

        if (opts.checkpoint_interval > 0 &&
            ((round + 1) % opts.checkpoint_interval == 0 ||
             round + 1 == opts.rounds)) {
            if (opts.checkpoint_path.empty()) {
                PRUNER_WARN("checkpoint_interval set but checkpoint_path "
                            "is empty; not checkpointing");
            } else {
                // Drain the in-flight update first so the snapshot holds
                // this round's weights and the back model's training RNG
                // is quiescent. Value-neutral: the next prediction would
                // install before touching the model anyway.
                if (async_trainer != nullptr) {
                    async_trainer->install();
                }
                CheckpointSources src;
                src.fingerprint = ckpt_fp;
                src.next_round = round + 1;
                src.clock_lanes = measurer.clockLanes();
                src.clock = &clock;
                src.rng = &rng;
                src.measurer = &measurer;
                src.scheduler = &scheduler;
                src.db = &db;
                src.cache = opts.measure_cache ? &env.cache() : nullptr;
                src.explorer = explorer.get();
                src.model = model_.get();
                src.model_rng =
                    async_trainer != nullptr
                        ? async_trainer->backModel()->trainingRng()
                        : model_->trainingRng();
                src.curve = &result.curve;
                src.round_stats = &round_stats.rounds();
                src.metrics = &run_metrics;
                saveRoundCheckpoint(opts.checkpoint_path, src,
                                    &ckpt_record_lines, &run_metrics);
            }
        }
    }
    // Drain the last in-flight update before the divergence probe and the
    // checkpoint: both must see the final weights.
    if (async_trainer != nullptr) {
        async_trainer->install();
    }

    result.best_per_task.reserve(workload.tasks.size());
    for (const auto& inst : workload.tasks) {
        result.best_per_task.push_back(db.bestLatency(inst.task));
    }
    result.final_latency = workloadBest(workload, db);
    result.total_time_s = clock.now();
    result.exploration_s = clock.total(CostCategory::Exploration);
    result.training_s = clock.total(CostCategory::Training);
    result.measurement_s = clock.total(CostCategory::Measurement);
    result.compile_s = clock.total(CostCategory::Compile);
    obs_detail::fillResultCounters(result, run_metrics);
    result.round_stats = round_stats.take();

    // A learned model that diverged (non-finite scores) means the policy
    // lost its search signal — the paper observes this for TLP fine-tuned
    // on small data ("the tuning curve disappears").
    const Schedule probe_sch =
        ScheduleSampler(workload.tasks[0].task, device_).sample(rng);
    const auto probe = model_->predict(
        workload.tasks[0].task, std::span<const Schedule>(&probe_sch, 1));
    if (!probe.empty() && !std::isfinite(probe[0])) {
        result.failed = true;
        result.failure_reason = "cost model diverged";
    }
    // Checkpoint only after the divergence probe: a poisoned model must
    // not be persisted where the next warm-started run would restore it.
    if (artifacts.enabled()) {
        obs::ScopedSpan io_span(tracer, obs::TraceTrack::Io, &clock,
                                "db_finish", "io");
        artifacts.finish(opts.measure_cache ? &env.cache() : nullptr,
                         opts.reuse_model_checkpoint && !result.failed
                             ? model_.get()
                             : nullptr,
                         model_key);
    }
    if (recorder != nullptr) {
        recorder->onEnd(result, paramsHash(model_->getParams()));
    }
    tune_span.close();
    obs_detail::exportPoolStats(run_metrics, env.pool());
    if (opts.metrics != nullptr) {
        run_metrics.mergeInto(*opts.metrics);
    }
    return result;
}

} // namespace pruner
