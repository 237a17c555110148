#include "search/tuning_session.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "core/moa.hpp"
#include "nn/matrix.hpp"
#include "replay/checkpoint.hpp"
#include "replay/session_recorder.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {

/** Publish the dispatched nn kernel tiers as Execution-channel labels. */
void
exportKernelTiers(obs::MetricsRegistry& metrics)
{
    // Host property, not a trajectory property: Execution channel, so a
    // trace replayed on another machine still identity-matches.
    const auto ch = obs::MetricChannel::Execution;
    const nnkernel::KernelTiers tiers = nnkernel::kernelTiers();
    // One label per dispatched kernel (matmulNT runs on the matmul tier).
    metrics.setLabel("nn_kernel_matmul", tiers.matmul, ch);
    metrics.setLabel("nn_kernel_matmul_tn_seg", tiers.matmul_tn_seg, ch);
    // CPU-supported tiers the startup self-check rejected. Zero on a
    // healthy host; nonzero means a vector kernel broke its byte-identity
    // contract (surfaced as a tuneReport warning).
    // Counters are monotonic, so set-once-per-export stays idempotent:
    // the demotion total is fixed after the first dispatch.
    obs::Counter* demotions =
        metrics.counter("kernel_tier_demotions_total", ch);
    const size_t total = nnkernel::kernelTierDemotions();
    if (demotions != nullptr && demotions->value() < total) {
        demotions->add(total - demotions->value());
    }
}

} // namespace

TuningSession::TuningSession(const SearchPolicy& policy,
                             const DeviceSpec& device, CostModel& model,
                             const Workload& workload,
                             const TuneOptions& opts,
                             const PolicyTraits& traits)
    : workload(workload),
      opts(opts),
      rng(opts.seed),
      tracer(opts.tracer),
      round_stats(opts.collect_round_stats, &clock, &measurer_),
      stage_hists(&metrics),
      device_(device),
      model_(model),
      traits_(traits),
      tune_span_(tracer, obs::TraceTrack::Main, &clock, "tune", "session"),
      measurer_(device, &clock, hashCombine(opts.seed, traits.measurer_salt),
                opts.constants),
      // Parallel verify machinery shared by draft scoring and measurement.
      env_(measurer_, opts.measure_workers, opts.measure_cache),
      scheduler_(workload),
      model_obs_guard_{&model},
      artifacts_(opts.artifact_db, opts.artifact_db_path),
      model_key_(artifactModelKey(policy.name(), model.name(), device.name))
{
    result_.policy = policy.name();
    tune_span_.argStr("policy", result_.policy);
    measurer_.setMetrics(&metrics);
    measurer_.setTracer(tracer);
    measurer_.setFaultPlan(opts.fault_plan);
    // Crash-safe checkpoint/resume (see replay/checkpoint.hpp): the
    // fingerprint binds a checkpoint to this exact run identity, and a
    // missing/corrupt/incompatible file degrades to a cold start.
    ckpt_fp_ = checkpointFingerprint(policy.replayFactory(),
                                     policy.replayConfig(), device.name,
                                     workload, opts);
    std::optional<TuningCheckpoint> ckpt;
    if (!opts.resume_from.empty()) {
        ckpt = loadCheckpoint(opts.resume_from, ckpt_fp_, &metrics);
    }
    const bool resumed = ckpt.has_value();
    recorder_ = opts.recorder;
    if (resumed && recorder_ != nullptr) {
        PRUNER_WARN("session recorder disabled for the resumed run: the "
                    "log would only cover the rounds after the checkpoint");
        recorder_ = nullptr;
    }
    measurer_.setRecorder(recorder_);
    // Pin the compile-overlap divisor so a recorded session replays with
    // the same simulated clock at any real worker count; a resumed run
    // pins the writing run's divisor the same way.
    measurer_.setClockLanes(
        resumed ? static_cast<size_t>(ckpt->clock_lanes)
                : static_cast<size_t>(opts.clock_lanes > 0
                                          ? opts.clock_lanes
                                          : std::max(opts.measure_workers,
                                                     1)));
    if (recorder_ != nullptr) {
        recorder_->beginSession(policy.replayFactory(), policy.replayConfig(),
                                device.name, workload, opts);
    }
    explorer = makeExplorer(opts.explorer, opts.explorer_config);
    explorer->bindMetrics(&metrics);
    scheduler_.bindObs(&metrics);
    model.bindMetrics(&metrics);
    exportKernelTiers(metrics);

    artifacts_.bindMetrics(&metrics);
    // A resumed run restores db/cache/model from the checkpoint instead:
    // warm-starting on top would double-apply the stored records.
    if (artifacts_.enabled() && !resumed) {
        obs::ScopedSpan io_span(tracer, obs::TraceTrack::Io, &clock,
                                "warm_start", "io");
        const WarmStartStats warm = artifacts_.warmStart(
            workload, opts.warm_start_records ? &db : nullptr,
            opts.measure_cache && opts.reuse_measure_cache ? env_.cacheMut()
                                                           : nullptr,
            opts.reuse_model_checkpoint ? &model : nullptr, model_key_);
        io_span.argU64("records", warm.records_replayed);
        io_span.argU64("cache_entries", warm.cache_entries);
        if (warm.records_replayed > 0) {
            scheduler_.warmStart(db);
            observeWarmRecords(*explorer, device, db.records());
        }
    }

    // Resume before the async trainer exists: the back clone constructed
    // below must inherit the restored weights and training-RNG lineage.
    if (resumed) {
        CheckpointTargets targets;
        targets.clock = &clock;
        targets.rng = &rng;
        targets.measurer = &measurer_;
        targets.scheduler = &scheduler_;
        targets.db = &db;
        targets.cache = opts.measure_cache ? env_.cacheMut() : nullptr;
        targets.explorer = explorer.get();
        targets.model = &model;
        targets.moa = traits.moa;
        targets.metrics = &metrics;
        targets.round_stats = &round_stats;
        targets.curve = &result_.curve;
        start_round_ = applyCheckpoint(*ckpt, workload, targets);
        PRUNER_INFO("resumed from '" << opts.resume_from << "' at round "
                                     << start_round_);
    }

    // Async online training: the update of round r trains a back clone on
    // the verify pool and installs at the next syncModel(), overlapping
    // whatever the draft step does before it (all of Pruner's model-free
    // LSE draft). MoA's Siamese update is inherently sequential and stays
    // synchronous.
    if (opts.async_training && env_.pool() != nullptr &&
        traits.moa == nullptr) {
        async_trainer_ = std::make_unique<AsyncModelTrainer>(model,
                                                             *env_.pool());
        async_trainer_->bindObs(tracer, &clock, &metrics);
    }
}

std::vector<ScoredSchedule>
TuningSession::proposeScored(const SubgraphTask& task, EvolutionConfig evo,
                             size_t& evals)
{
    std::vector<Schedule> seeds;
    if (const Schedule* best = db.bestSchedule(task)) {
        seeds.push_back(*best);
    }
    evo.score_pool = env_.pool();
    evo.score_chunk = static_cast<size_t>(std::max(opts.predict_batch, 1));
    ExplorerContext ectx;
    ectx.task = &task;
    ectx.device = &device_;
    ectx.seeds = &seeds;
    ectx.score = [&](std::span<const Schedule> cands) {
        return model_.predict(task, cands);
    };
    ectx.rng = &rng;
    ectx.n_evaluated = &evals;
    ectx.evo = evo;
    std::vector<ScoredSchedule> ranked = explorer->proposeBatch(ectx);
    clock.charge(CostCategory::Exploration,
                 static_cast<double>(evals) * model_.evalCostPerCandidate());
    return ranked;
}

std::vector<Schedule>
TuningSession::select(const std::vector<ScoredSchedule>& ranked,
                      const SubgraphTask& task,
                      const ScheduleSampler& sampler)
{
    std::vector<Schedule> chosen = selectForMeasurement(
        ranked, task, db, sampler,
        static_cast<size_t>(opts.measures_per_round), opts.eps_greedy, rng);
    round_stats.addMeasured(chosen.size());
    return chosen;
}

void
TuningSession::installPendingUpdate()
{
    if (async_trainer_ != nullptr) {
        async_trainer_->install();
    }
}

void
TuningSession::syncModel(int round)
{
    installPendingUpdate();
    if (recorder_ != nullptr) {
        // Hash at the install point, where async and synchronous
        // training provably hold identical weights.
        recorder_->onModelState(round, paramsHash(model_.getParams()));
    }
}

TuneResult
TuningSession::run(const DraftStep& draft)
{
    for (int round = start_round_; round < opts.rounds; ++round) {
        obs::ScopedSpan round_span(tracer, obs::TraceTrack::Main, &clock,
                                   "round", "sched");
        round_span.argU64("round", static_cast<uint64_t>(round));
        const auto picked = scheduler_.nextTasks(
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
        if (recorder_ != nullptr) {
            recorder_->onRound(round, picked);
        }
        measure(draft(round, picked));
        train(round);
        endRound(round);
    }
    return finish();
}

void
TuningSession::measure(const std::vector<RoundSlot>& slots)
{
    // One pooled pass over every task's batch: the pool never drains at
    // task boundaries and compilation overlaps round-wide. Adaptive
    // measurement keeps its serial on-device loop by design.
    std::vector<std::vector<double>> round_latencies;
    if (traits_.adaptive_measurement) {
        round_latencies.reserve(slots.size());
        for (const RoundSlot& slot : slots) {
            round_latencies.push_back(measurer_.measureAdaptive(
                *slot.task, slot.to_measure, traits_.adaptive_time_scale,
                traits_.adaptive_extra_noise));
        }
    } else {
        std::vector<RoundBatch> batches;
        batches.reserve(slots.size());
        for (const RoundSlot& slot : slots) {
            batches.push_back({slot.task, &slot.to_measure});
        }
        round_latencies = measurer_.measureRound(batches);
    }
    for (size_t s = 0; s < slots.size(); ++s) {
        const RoundSlot& slot = slots[s];
        const auto& latencies = round_latencies[s];
        for (size_t i = 0; i < slot.to_measure.size(); ++i) {
            if (std::isfinite(latencies[i])) {
                db.add({*slot.task, slot.to_measure[i], latencies[i]});
            }
        }
        artifacts_.onMeasured(*slot.task, slot.to_measure, latencies);
        explorer->observe(*slot.task, device_, slot.to_measure, latencies);
        scheduler_.observe(slot.task_index, db.bestLatency(*slot.task));
    }
}

void
TuningSession::train(int round)
{
    // MoA lowers the training *frequency*; each update compensates with
    // proportionally more fine-tune epochs from the Siamese init, so the
    // total gradient work matches the per-round baseline while the
    // simulated training time is charged less often.
    const bool due = traits_.moa == nullptr ||
                     round % traits_.moa_train_every == 0;
    const double train_begin_s = clock.total(CostCategory::Training);
    if (opts.online_training && traits_.online_training && db.size() >= 16 &&
        due) {
        // The "train" span brackets the Training charge point, which sync
        // and async modes share — its deterministic timestamps are
        // identical either way (the async overlap window itself is the
        // Execution-channel "async_update" span).
        obs::ScopedSpan train_span(tracer, obs::TraceTrack::Main, &clock,
                                   "train", "train");
        if (traits_.moa != nullptr) {
            traits_.moa->roundUpdate(
                db.recentWindow(768),
                opts.train_epochs * traits_.moa_train_every);
        } else if (async_trainer_ != nullptr) {
            async_trainer_->beginUpdate(db.recentWindow(768),
                                        opts.train_epochs);
        } else {
            model_.train(db.recentWindow(768), opts.train_epochs);
        }
        // Charged where synchronous training would pay it, so async mode
        // never changes the simulated clock.
        clock.charge(CostCategory::Training, model_.trainCostPerRound());
    }
    // Observed only for rounds that actually trained, so the train
    // histogram's count is the number of training rounds.
    const double train_s = clock.total(CostCategory::Training) - train_begin_s;
    if (train_s > 0.0) {
        stage_hists.observeTrain(train_s);
    }
}

void
TuningSession::endRound(int round)
{
    const double e2e = workloadBest(workload, db);
    if (std::isfinite(e2e)) {
        result_.curve.push_back({clock.now(), e2e});
        if (tracer != nullptr) {
            const auto h = tracer->instant(obs::TraceTrack::Main,
                                           "curve_point", "curve",
                                           clock.now());
            tracer->argDouble(h, "latency_s", e2e);
        }
    }
    round_stats.endRound(e2e);

    if (opts.checkpoint_interval <= 0 ||
        ((round + 1) % opts.checkpoint_interval != 0 &&
         round + 1 != opts.rounds)) {
        return;
    }
    if (opts.checkpoint_path.empty()) {
        PRUNER_WARN("checkpoint_interval set but checkpoint_path is empty; "
                    "not checkpointing");
        return;
    }
    // Drain the in-flight update first so the snapshot holds this round's
    // weights and the back model's training RNG is quiescent.
    // Value-neutral: the next prediction would install before touching the
    // model anyway.
    installPendingUpdate();
    CheckpointSources src;
    src.fingerprint = ckpt_fp_;
    src.next_round = round + 1;
    src.clock_lanes = measurer_.clockLanes();
    src.clock = &clock;
    src.rng = &rng;
    src.measurer = &measurer_;
    src.scheduler = &scheduler_;
    src.db = &db;
    src.cache = opts.measure_cache ? &env_.cache() : nullptr;
    src.explorer = explorer.get();
    src.model = &model_;
    src.model_rng = async_trainer_ != nullptr
                        ? async_trainer_->backModel()->trainingRng()
                        : model_.trainingRng();
    src.siamese =
        traits_.moa != nullptr ? &traits_.moa->siameseParams() : nullptr;
    src.curve = &result_.curve;
    src.round_stats = &round_stats.rounds();
    src.metrics = &metrics;
    TuningCheckpoint cp;
    cp.record_lines = std::move(ckpt_record_lines_);
    buildCheckpoint(src, &cp);
    saveCheckpoint(opts.checkpoint_path, cp, &metrics);
    ckpt_record_lines_ = std::move(cp.record_lines);
}

TuneResult
TuningSession::finish()
{
    // Drain the last in-flight update before the divergence probe and the
    // ArtifactDb finish: both must see the final weights.
    installPendingUpdate();

    result_.best_per_task.reserve(workload.tasks.size());
    for (const auto& inst : workload.tasks) {
        result_.best_per_task.push_back(db.bestLatency(inst.task));
    }
    result_.final_latency = workloadBest(workload, db);
    result_.total_time_s = clock.now();
    result_.exploration_s = clock.total(CostCategory::Exploration);
    result_.training_s = clock.total(CostCategory::Training);
    result_.measurement_s = clock.total(CostCategory::Measurement);
    result_.compile_s = clock.total(CostCategory::Compile);
    // The counters are read back from the per-run registry: one source of
    // truth for the result struct, the /metrics exposition and the round
    // stats.
    const obs::MetricsSnapshot snap = metrics.snapshot();
    result_.trials = snap.counterValue("measure_trials_total");
    result_.failed_trials = snap.counterValue("measure_failed_trials_total");
    result_.cache_hits = snap.counterValue("measure_cache_hits_total");
    result_.simulated_trials =
        snap.counterValue("measure_simulated_trials_total");
    result_.injected_faults =
        snap.counterValue("fault_injected_launch_total") +
        snap.counterValue("fault_injected_timeout_total") +
        snap.counterValue("fault_injected_flaky_total");
    result_.warm_records = snap.counterValue("db_warm_records_total");
    result_.round_stats = round_stats.take();

    // A learned model that diverged (non-finite scores) means the policy
    // lost its search signal — the paper observes this for TLP fine-tuned
    // on small data ("the tuning curve disappears").
    const Schedule probe_sch =
        ScheduleSampler(workload.tasks[0].task, device_).sample(rng);
    const auto probe = model_.predict(
        workload.tasks[0].task, std::span<const Schedule>(&probe_sch, 1));
    if (!probe.empty() && !std::isfinite(probe[0])) {
        result_.failed = true;
        result_.failure_reason = "cost model diverged";
    }
    // Persist the model only after the probe: a poisoned model must not be
    // stored where the next warm-started run would restore it.
    if (artifacts_.enabled()) {
        obs::ScopedSpan io_span(tracer, obs::TraceTrack::Io, &clock,
                                "db_finish", "io");
        artifacts_.finish(opts.measure_cache ? &env_.cache() : nullptr,
                          opts.reuse_model_checkpoint && !result_.failed
                              ? &model_
                              : nullptr,
                          model_key_);
    }
    if (recorder_ != nullptr) {
        recorder_->onEnd(result_, paramsHash(model_.getParams()));
    }
    tune_span_.close();
    if (const ThreadPool* pool = env_.pool()) {
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
    if (opts.metrics != nullptr) {
        metrics.mergeInto(*opts.metrics);
    }
    return std::move(result_);
}

} // namespace pruner
