#pragma once

/**
 * @file tuning_session.hpp
 * One tuning run of a learned-cost-model policy, shared by Pruner /
 * MoA-Pruner (src/core/pruner_tuner) and the evolutionary baselines
 * (EvoCostModelPolicy: Ansor, TenSetMLP, TLP, MetaSchedule, Adatune).
 *
 * The session owns what every run repeats: setup (clock, RNG, metrics,
 * measurer and pool, recorder, checkpoint resume, explorer, record db,
 * task scheduler, ArtifactDb warm start, async trainer), each round's
 * task pick, measurement, model update, curve point and checkpoint, and
 * the finish (result, divergence probe, ArtifactDb, recorder end). A
 * policy hands run() its draft step, which turns the picked tasks into
 * RoundSlots: LSE draft + PaCM verify for Pruner, explorer-inline scoring
 * for the baselines. Golden bytes hold because each policy keeps:
 *  - its measurer seed salt: 0x9EA5 for Pruner, 0x3EA5 for the baselines;
 *  - its RNG draw order: a baseline selects each task's batch right after
 *    drafting it; Pruner drafts every picked task, then verifies and
 *    selects;
 *  - where it calls syncModel(): a baseline before the round's first
 *    predict, Pruner after its draft (w/o LSE also installs inside it),
 *    so async training overlaps the model-free LSE draft;
 *  - its stage histograms: Pruner observes draft and verify, the
 *    baselines only draft (round_verify_time_us stays empty);
 *  - its span names, categories and nesting (tunebench parses them).
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cost/async_trainer.hpp"
#include "db/artifact_session.hpp"
#include "obs/metrics.hpp"
#include "obs/round_stats.hpp"
#include "obs/stage_histograms.hpp"
#include "obs/trace.hpp"
#include "search/explorer.hpp"
#include "search/search_policy.hpp"

namespace pruner {

class MoAAdapter;

/** One picked task of a round and the candidates to measure for it. */
struct RoundSlot
{
    size_t task_index;
    const SubgraphTask* task;
    std::vector<Schedule> to_measure;
};

/** The per-policy facts the shared loop branches on: plain values a
 *  policy derives from its own configuration, not tuning options. */
struct PolicyTraits
{
    /** The measurer is seeded with hashCombine(opts.seed, salt). */
    uint64_t measurer_salt = 0;
    /** The policy's own online-training switch; an update also needs
     *  TuneOptions::online_training and 16 measured records. */
    bool online_training = true;
    /** MoA-Pruner's Siamese updater (borrowed; null = plain fine-tune). It
     *  updates every moa_train_every rounds and always synchronously. */
    MoAAdapter* moa = nullptr;
    int moa_train_every = 1;
    /** Adatune's early-terminated measurement, serial per task; false =
     *  one pooled measureRound pass per round. */
    bool adaptive_measurement = false;
    double adaptive_time_scale = 0.0;
    double adaptive_extra_noise = 0.0;
};

/** One tuning run (see the file comment): a policy's tune() builds it and
 *  calls run() once. */
class TuningSession
{
  public:
    /** The policy's draft step: every picked task's measurement batch. */
    using DraftStep = std::function<std::vector<RoundSlot>(
        int round, const std::vector<size_t>& picked)>;

    /** Sets the run up: binds @p model's metrics to the run, opens the
     *  recorder, warm-starts from the ArtifactDb or resumes from
     *  TuneOptions::resume_from. All references are borrowed. */
    TuningSession(const SearchPolicy& policy, const DeviceSpec& device,
                  CostModel& model, const Workload& workload,
                  const TuneOptions& opts, const PolicyTraits& traits);

    // Members hold each other's addresses, and the draft step holds the
    // session's.
    TuningSession(const TuningSession&) = delete;
    TuningSession& operator=(const TuningSession&) = delete;

    /** Run the remaining rounds (all of them unless resumed) and finish. */
    TuneResult run(const DraftStep& draft);

    /** Worker pool for chunked scoring; nullptr when serial. */
    ThreadPool* pool() const { return env_.pool(); }

    /** Draft with the explorer over the model's own scores (the
     *  baselines' inline scoring, Pruner w/o LSE), seeded with the task's
     *  measured incumbent: @p evo gets the pool and predict_batch
     *  chunking; the @p evals evaluations are charged to Exploration. */
    std::vector<ScoredSchedule> proposeScored(const SubgraphTask& task,
                                              EvolutionConfig evo,
                                              size_t& evals);

    /** selectForMeasurement() with the run's budget, eps and RNG, counted
     *  in the round stats. */
    std::vector<Schedule> select(const std::vector<ScoredSchedule>& ranked,
                                 const SubgraphTask& task,
                                 const ScheduleSampler& sampler);

    /** Swap in the async update's weights (no-op when none is pending). */
    void installPendingUpdate();
    /** The model is about to predict for @p round: install any pending
     *  update and record the weight hash. */
    void syncModel(int round);

    // Run state the draft step reads and advances.
    const Workload& workload;
    const TuneOptions& opts;
    SimClock clock;
    Rng rng;
    /** Per-run registry (concurrent tune() calls never share counters);
     *  merged into TuneOptions::metrics at the end. */
    obs::MetricsRegistry metrics;
    obs::Tracer* tracer;
    TuningRecordDb db;
    /** Draft-stage explorer ("" -> "evolution", the exact pre-interface
     *  loop). Owns no RNG: every draw flows through rng. */
    std::unique_ptr<Explorer> explorer;
    obs::RoundStatsCollector round_stats;
    obs::StageTimeHistograms stage_hists;

  private:
    /** Unbinds the model's metric handles when the per-run registry dies
     *  (the policy's model outlives the session, the registry does not). */
    struct ModelObsGuard
    {
        CostModel* model;
        ~ModelObsGuard() { model->bindMetrics(nullptr); }
    };

    void measure(const std::vector<RoundSlot>& slots);
    void train(int round);
    void endRound(int round);
    TuneResult finish();

    const DeviceSpec& device_;
    CostModel& model_;
    PolicyTraits traits_;
    TuneResult result_;
    obs::ScopedSpan tune_span_;
    Measurer measurer_;
    MeasureEnv env_;
    SessionRecorder* recorder_ = nullptr;
    uint64_t ckpt_fp_ = 0;
    TaskScheduler scheduler_;
    ModelObsGuard model_obs_guard_;
    ArtifactSession artifacts_;
    std::string model_key_;
    int start_round_ = 0;
    std::unique_ptr<AsyncModelTrainer> async_trainer_;
    /** Checkpoint record lines kept across saves, so each save formats
     *  only the records measured since the previous one; the rest of the
     *  checkpoint is dropped after its write, so nothing but the lines
     *  stays resident between saves. */
    std::vector<std::string> ckpt_record_lines_;
};

} // namespace pruner
