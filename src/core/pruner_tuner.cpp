#include "core/pruner_tuner.hpp"

#include <algorithm>
#include <cmath>

#include <sstream>

#include "cost/async_trainer.hpp"
#include "db/artifact_session.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_histograms.hpp"
#include "obs/trace.hpp"
#include "replay/checkpoint.hpp"
#include "replay/session_recorder.hpp"
#include "search/explorer.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {

/** Unbinds the model's metric handles when the per-run registry dies (the
 *  policy's PaCM outlives tune(), the registry does not). */
struct ModelObsGuard
{
    CostModel* model;
    ~ModelObsGuard() { model->bindMetrics(nullptr); }
};

} // namespace

PrunerPolicy::PrunerPolicy(const DeviceSpec& device, PrunerConfig config,
                           uint64_t model_seed)
    : device_(device),
      config_(std::move(config)),
      model_seed_(model_seed),
      model_(std::make_unique<PaCMModel>(device, model_seed, config_.pacm)),
      explorer_(device, config_.sa)
{
    if (!config_.pretrained.empty()) {
        model_->setParams(config_.pretrained);
    }
}

std::string
PrunerPolicy::name() const
{
    return config_.use_moa ? "MoA-Pruner" : "Pruner";
}

std::string
PrunerPolicy::replayConfig() const
{
    std::ostringstream out;
    out << "model_seed=" << hexU64(model_seed_)
        << "\tlse=" << (config_.use_lse ? 1 : 0)
        << "\tmoa=" << (config_.use_moa ? 1 : 0)
        << "\tfinetune=" << (config_.online_finetune ? 1 : 0)
        << "\trinit=" << config_.random_init
        << "\tmutants=" << config_.incumbent_mutants
        << "\tmoa_every=" << config_.moa_train_every
        << "\tmoa_m=" << doubleBits(config_.moa_momentum)
        << "\tpop=" << config_.lse.population
        << "\tsteps=" << config_.lse.n_steps
        << "\tspec=" << config_.lse.spec_size
        << "\tsa_c=" << (config_.sa.use_compute_penalties ? 1 : 0)
        << "\tsa_m=" << (config_.sa.use_memory_penalties ? 1 : 0)
        << "\tpacm_s=" << (config_.pacm.use_statement_features ? 1 : 0)
        << "\tpacm_d=" << (config_.pacm.use_dataflow_features ? 1 : 0)
        << "\tpretrained=" << (config_.pretrained.empty() ? 0 : 1);
    return out.str();
}

TuneResult
PrunerPolicy::tune(const Workload& workload, const TuneOptions& opts)
{
    TuneResult result;
    result.policy = name();

    SimClock clock;
    Rng rng(opts.seed);
    // Per-run observability (see TuneOptions::metrics): accumulate into a
    // private registry, merge into the caller's at the end.
    obs::MetricsRegistry run_metrics;
    obs::Tracer* tracer = opts.tracer;
    obs::ScopedSpan tune_span(tracer, obs::TraceTrack::Main, &clock, "tune",
                              "session");
    tune_span.argStr("policy", name());
    Measurer measurer(device_, &clock, hashCombine(opts.seed, 0x9EA5),
                      opts.constants);
    // Parallel verify machinery shared by draft scoring and measurement.
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
    LseConfig lse_config = config_.lse;
    lse_config.score_pool = env.pool();
    lse_config.metrics = &run_metrics;
    // Draft-stage explorer ("" -> "evolution", the exact pre-interface
    // loop). Owns no RNG: every draw flows through the loop's rng below.
    std::unique_ptr<Explorer> draft_explorer =
        ExplorerRegistry::instance().make(opts.explorer,
                                          opts.explorer_config);
    draft_explorer->bindMetrics(&run_metrics);
    lse_config.explorer = draft_explorer.get();
    TuningRecordDb db;
    TaskScheduler scheduler(workload);
    scheduler.bindObs(&run_metrics);
    model_->bindMetrics(&run_metrics);
    ModelObsGuard model_obs_guard{model_.get()};
    obs_detail::exportKernelTiers(run_metrics);
    obs::RoundStatsCollector round_stats(opts.collect_round_stats, &clock,
                                         &measurer);
    obs::StageTimeHistograms stage_hists(&run_metrics);

    std::unique_ptr<MoAAdapter> moa;
    if (config_.use_moa) {
        moa = std::make_unique<MoAAdapter>(model_.get(),
                                           config_.moa_momentum);
        if (!config_.pretrained.empty()) {
            moa->initializeFromPretrained(config_.pretrained);
        }
    }

    ArtifactSession artifacts(opts.artifact_db, opts.artifact_db_path);
    artifacts.bindMetrics(&run_metrics);
    const std::string model_key =
        artifactModelKey(name(), model_->name(), device_.name);
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
            observeWarmRecords(*draft_explorer, device_, db.records());
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
        targets.explorer = draft_explorer.get();
        targets.model = model_.get();
        targets.moa = moa.get();
        targets.metrics = &run_metrics;
        targets.round_stats = &round_stats;
        targets.curve = &result.curve;
        start_round = applyCheckpoint(*ckpt, workload, targets);
        PRUNER_INFO("resumed from '" << opts.resume_from << "' at round "
                                     << start_round);
    }

    // Async online training: the update of round r runs on the verify
    // pool while round r+1 drafts (LSE never touches PaCM), and its
    // weights swap in before the next verify pass. MoA's Siamese update
    // is inherently sequential and stays synchronous.
    std::unique_ptr<AsyncModelTrainer> async_trainer;
    if (opts.async_training && env.pool() != nullptr && !config_.use_moa) {
        async_trainer =
            std::make_unique<AsyncModelTrainer>(*model_, *env.pool());
        async_trainer->bindObs(tracer, &clock, &run_metrics);
    }

    // Kept across saves: each save formats only the records measured since
    // the previous one.
    std::vector<std::string> ckpt_record_lines;
    const auto& constants = opts.constants;
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
                         constants.task_switch_overhead);
        }
        if (recorder != nullptr) {
            recorder->onRound(round, picked);
        }

        struct RoundSlot
        {
            size_t task_index;
            const SubgraphTask* task;
            ScheduleSampler sampler;
            std::vector<Schedule> draft;
            std::vector<Schedule> to_measure;
        };
        std::vector<RoundSlot> slots;
        slots.reserve(picked.size());

        // --- Draft ------------------------------------------------------
        // All of the round's tasks draft back to back on the main thread
        // (the SA fitness fan-out inside explore() uses the shared pool);
        // in async mode the previous round's model update trains
        // concurrently on that same pool.
        const double draft_begin_s =
            clock.total(CostCategory::Exploration);
        for (const size_t idx : picked) {
            const SubgraphTask& task = workload.tasks[idx].task;
            RoundSlot slot{idx, &task, ScheduleSampler(task, device_),
                           {}, {}};

            std::vector<Schedule> seeds;
            if (const Schedule* best = db.bestSchedule(task)) {
                seeds.push_back(*best);
            }

            obs::ScopedSpan draft_span(tracer, obs::TraceTrack::Main,
                                       &clock, "draft", "explore");
            draft_span.argU64("task", idx);
            draft_span.argStr("explorer", draft_explorer->key());
            std::vector<Schedule>& draft = slot.draft;
            if (config_.use_lse) {
                size_t sa_evals = 0;
                const auto spec = explorer_.explore(task, lse_config,
                                                    seeds, rng, &sa_evals);
                clock.charge(CostCategory::Exploration,
                             static_cast<double>(sa_evals) *
                                 constants.sa_eval_per_candidate);
                draft.reserve(spec.size() + config_.random_init);
                for (const auto& scored : spec) {
                    draft.push_back(scored.sch);
                }
                // Algorithm 1, line 10: union with random-init schedules
                // to keep exploration randomness.
                const auto random_part =
                    slot.sampler.sampleMany(rng, config_.random_init);
                draft.insert(draft.end(), random_part.begin(),
                             random_part.end());
                // Mutation neighbourhood of the incumbent: judged by
                // PaCM, so hill-climbing is not capped by the draft
                // model's biases.
                if (!seeds.empty() && config_.incumbent_mutants > 0) {
                    ScheduleMutator mutator(task, device_);
                    for (size_t m = 0; m < config_.incumbent_mutants;
                         ++m) {
                        draft.push_back(
                            mutator.mutate(seeds.front(), rng));
                    }
                }
            } else {
                // Ablation "w/o LSE": the learned model must score the
                // entire evolutionary population, exactly like the
                // Ansor-style loop. The model is stable during the run:
                // async updates install before this point.
                if (async_trainer != nullptr) {
                    async_trainer->install();
                }
                EvolutionConfig evo_config;
                evo_config.out_size = config_.lse.spec_size;
                evo_config.score_pool = env.pool();
                evo_config.score_chunk =
                    static_cast<size_t>(std::max(opts.predict_batch, 1));
                size_t evals = 0;
                ExplorerContext ectx;
                ectx.task = &task;
                ectx.device = &device_;
                ectx.seeds = &seeds;
                ectx.score = [&](std::span<const Schedule> cands) {
                    return model_->predict(task, cands);
                };
                ectx.rng = &rng;
                ectx.n_evaluated = &evals;
                ectx.evo = evo_config;
                const auto ranked = draft_explorer->proposeBatch(ectx);
                clock.charge(CostCategory::Exploration,
                             static_cast<double>(evals) *
                                 model_->evalCostPerCandidate());
                draft.reserve(ranked.size());
                for (const auto& scored : ranked) {
                    draft.push_back(scored.sch);
                }
            }
            draft_span.argU64("drafted", draft.size());
            draft_span.close();
            round_stats.addDrafted(draft.size());
            slots.push_back(std::move(slot));
        }

        stage_hists.observeDraft(clock.total(CostCategory::Exploration) -
                                 draft_begin_s);

        // --- Verify -----------------------------------------------------
        // Swap in the weights trained during the draft stage: PaCM must
        // be stable for the whole verify pass (never torn mid-round).
        if (async_trainer != nullptr) {
            async_trainer->install();
        }
        if (recorder != nullptr) {
            // Hash at the install point, where async and synchronous
            // training provably hold identical weights.
            recorder->onModelState(round, paramsHash(model_->getParams()));
        }
        // PaCM scores only the drafted candidates; predict_batch-sized
        // sub-spans fan out across the pool, each one batched GEMM pass
        // (identical values to one serial predict call).
        obs::ScopedSpan verify_span(tracer, obs::TraceTrack::Main, &clock,
                                    "verify", "explore");
        const double verify_begin_s =
            clock.total(CostCategory::Exploration);
        for (RoundSlot& slot : slots) {
            const std::vector<double> scores = scoreChunked(
                [&](std::span<const Schedule> cands) {
                    return model_->predict(*slot.task, cands);
                },
                slot.draft, env.pool(),
                static_cast<size_t>(std::max(opts.predict_batch, 1)));
            clock.charge(CostCategory::Exploration,
                         static_cast<double>(slot.draft.size()) *
                             model_->evalCostPerCandidate());
            std::vector<ScoredSchedule> ranked;
            ranked.reserve(slot.draft.size());
            for (size_t i = 0; i < slot.draft.size(); ++i) {
                ranked.push_back({slot.draft[i], scores[i]});
            }
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto& a, const auto& b) {
                          return a.score > b.score;
                      });
            slot.to_measure = selectForMeasurement(
                ranked, *slot.task, db, slot.sampler,
                static_cast<size_t>(opts.measures_per_round),
                opts.eps_greedy, rng);
            round_stats.addMeasured(slot.to_measure.size());
        }
        verify_span.close();
        stage_hists.observeVerify(clock.total(CostCategory::Exploration) -
                                  verify_begin_s);

        // --- Measure ----------------------------------------------------
        // One pooled pass over every task's batch: the pool never drains
        // at task boundaries and compilation overlaps round-wide.
        std::vector<RoundBatch> batches;
        batches.reserve(slots.size());
        for (const RoundSlot& slot : slots) {
            batches.push_back({slot.task, &slot.to_measure});
        }
        const auto round_latencies = measurer.measureRound(batches);
        for (size_t s = 0; s < slots.size(); ++s) {
            const RoundSlot& slot = slots[s];
            const auto& latencies = round_latencies[s];
            for (size_t i = 0; i < slot.to_measure.size(); ++i) {
                if (std::isfinite(latencies[i])) {
                    db.add({*slot.task, slot.to_measure[i], latencies[i]});
                }
            }
            artifacts.onMeasured(*slot.task, slot.to_measure, latencies);
            draft_explorer->observe(*slot.task, device_, slot.to_measure,
                                    latencies);
            scheduler.observe(slot.task_index, db.bestLatency(*slot.task));
        }

        // --- Online model update -----------------------------------------
        const double train_begin_s = clock.total(CostCategory::Training);
        if (opts.online_training && config_.online_finetune &&
            db.size() >= 16) {
            if (config_.use_moa) {
                if (round % config_.moa_train_every == 0) {
                    // MoA lowers the training *frequency*; each update
                    // compensates with proportionally more fine-tune
                    // epochs from the Siamese init, so the total gradient
                    // work matches the per-round baseline while the
                    // simulated training time is charged less often.
                    obs::ScopedSpan train_span(tracer,
                                               obs::TraceTrack::Main,
                                               &clock, "train", "train");
                    moa->roundUpdate(db.recentWindow(768),
                                     opts.train_epochs *
                                         config_.moa_train_every);
                    clock.charge(CostCategory::Training,
                                 model_->trainCostPerRound());
                }
            } else {
                // Spans the Training charge point, which sync and async
                // share — deterministic timestamps are identical either
                // way (the overlap window is the Execution-channel
                // "async_update" span).
                obs::ScopedSpan train_span(tracer, obs::TraceTrack::Main,
                                           &clock, "train", "train");
                if (async_trainer != nullptr) {
                    async_trainer->beginUpdate(db.recentWindow(768),
                                               opts.train_epochs);
                } else {
                    model_->train(db.recentWindow(768), opts.train_epochs);
                }
                // Simulated cost is charged where synchronous training
                // would pay it, so async mode never changes the clock.
                clock.charge(CostCategory::Training,
                             model_->trainCostPerRound());
            }
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
                src.explorer = draft_explorer.get();
                src.model = model_.get();
                src.model_rng =
                    async_trainer != nullptr
                        ? async_trainer->backModel()->trainingRng()
                        : model_->trainingRng();
                src.siamese =
                    moa != nullptr ? &moa->siameseParams() : nullptr;
                src.curve = &result.curve;
                src.round_stats = &round_stats.rounds();
                src.metrics = &run_metrics;
                saveRoundCheckpoint(opts.checkpoint_path, src,
                                    &ckpt_record_lines, &run_metrics);
            }
        }
    }
    // Drain the last in-flight update so the persisted checkpoint (and
    // any post-run prediction) sees the final weights.
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
    if (artifacts.enabled()) {
        obs::ScopedSpan io_span(tracer, obs::TraceTrack::Io, &clock,
                                "db_finish", "io");
        artifacts.finish(opts.measure_cache ? &env.cache() : nullptr,
                         opts.reuse_model_checkpoint ? model_.get()
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
