#pragma once

/**
 * @file search_policy.hpp
 * The abstract tuner interface plus the evolution+cost-model policy used
 * by the Ansor / TenSetMLP / TLP / MetaSchedule baselines.
 *
 * A SearchPolicy tunes a whole workload: each round it picks one subgraph
 * (gradient-based task scheduler), explores its schedule space, measures a
 * few candidates, and optionally updates its cost model online. All time
 * accounting flows through SimClock with the calibrated CostConstants.
 */

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "ir/workload_registry.hpp"
#include "obs/round_stats.hpp"
#include "search/evolution.hpp"
#include "search/measurer.hpp"
#include "search/task_scheduler.hpp"
#include "search/tuning_record.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

class ArtifactDb; // persistent artifact store (src/db/artifact_db.hpp)
class SessionRecorder; // session event sink (src/replay/session_recorder.hpp)

namespace obs {
class MetricsRegistry; // src/obs/metrics.hpp
class Tracer;          // src/obs/trace.hpp
} // namespace obs

/** Options shared by every tuner. */
struct TuneOptions
{
    int rounds = 200;           ///< tuning rounds (paper: 200)
    int measures_per_round = 10;///< programs measured per round (paper: 10)
    uint64_t seed = 1;
    bool online_training = true;///< online cost-model updates
    int train_epochs = 1;       ///< epochs per online update
    double eps_greedy = 0.05;   ///< random fraction of measured programs
    CostConstants constants = CostConstants::defaults();
    /** Host workers for the batched verify stage (candidate compilation
     *  and cost-model scoring fan out across them). 1 = fully serial.
     *  Measured values are bit-identical for any setting; only wall-clock
     *  and the simulated compile overlap change. */
    int measure_workers = 1;
    /** LRU (task, schedule) measurement cache: re-visited candidates are
     *  free. Deterministic for a fixed seed. */
    bool measure_cache = true;
    /** Cap on candidates per batched cost-model inference pass. The draft
     *  population and the verify stage are scored in predict_batch-sized
     *  slices: one slice = one worker's sub-batch = one packed GEMM
     *  through the model (src/nn's batched engine). Scores are
     *  byte-identical for any cap and worker count — rows flow through
     *  the same kernels with the same per-element accumulation order —
     *  so this knob only moves wall-clock and memory. */
    int predict_batch = 64;
    /** Tasks per sharded round (clamped to [1, numTasks]). Each round the
     *  gradient scheduler picks the top-K tasks; their drafts verify and
     *  measure through one shared pool pass, so host compilation overlaps
     *  across task boundaries and the pool never drains between tasks. A
     *  multi-task round charges a single SimClock task_switch_overhead
     *  for hopping across its K tasks; single-task rounds stay on one
     *  task and charge none. 1 (the default) reproduces the serial
     *  single-task loop byte-identically. */
    int tasks_per_round = 1;
    /** Overlap online cost-model updates with the next round's draft
     *  stage: the update trains a back-buffer clone of the model as a job
     *  on the verify pool, and its weights are copied in after that job
     *  has finished, before the next verify pass (never torn). Results are
     *  identical to synchronous training — the clone carries the model's
     *  RNG lineage — so only wall-clock behaviour changes. Needs
     *  measure_workers > 1 (silently synchronous otherwise); MoA's
     *  Siamese update always stays synchronous. */
    bool async_training = false;
    /** Persistent artifact store (src/db): directory opened for this run.
     *  Empty = no persistence. */
    std::string artifact_db_path;
    /** Borrowed shared store (e.g. one per bench binary); takes precedence
     *  over artifact_db_path when non-null. Not owned. */
    ArtifactDb* artifact_db = nullptr;
    /** Replay persisted records into the run's TuningRecordDb before
     *  tuning — the paper's offline warm-start. Starts the search from the
     *  stored incumbents (changes the trajectory). */
    bool warm_start_records = false;
    /** Restore the persisted MeasureCache snapshot so previously simulated
     *  (task, schedule) pairs replay for free. Never changes measured
     *  values, only skips paid simulation. */
    bool reuse_measure_cache = true;
    /** Restore/persist cost-model weight checkpoints keyed by
     *  (policy, model, device). */
    bool reuse_model_checkpoint = false;
    /** Session event sink (borrowed, may be nullptr): records the run as a
     *  versioned event log a SessionReplayer can re-execute bit-exactly.
     *  See src/replay/. */
    SessionRecorder* recorder = nullptr;
    /** Deterministic fault-injection plan applied by the Measurer (default:
     *  disabled). The injected fault stream is a pure function of the plan
     *  and the candidate, so it is identical at any worker count and is
     *  captured in the session log. */
    FaultPlan fault_plan;
    /** Worker count the simulated compile-overlap divisor assumes (0 = use
     *  measure_workers). Session replay pins this to the recorded value so
     *  the simulated clock reproduces at any real measure_workers. */
    int clock_lanes = 0;
    /** Observability sinks (borrowed, may be nullptr). Pure outputs: they
     *  never change tuning results and are not written to the session log.
     *  tune() accumulates its per-run metrics into a private registry and
     *  merges the snapshot into @p metrics at the end, so one registry can
     *  aggregate many runs (a serve daemon's /metrics). The tracer receives
     *  the run's span/instant stream stamped with simulated time; its
     *  deterministic channel is byte-identical at any worker count. */
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    /** Collect per-round pipeline stats into TuneResult::round_stats.
     *  Deterministic; off by default to keep TuneResult small. */
    bool collect_round_stats = false;
    /** Draft-stage explorer key: "" or "evolution" (the default, the
     *  exact pre-interface draft loop) or "gbt" (see makeExplorer in
     *  src/search/explorer.hpp). Recorded on the session log's policycfg
     *  line, so recorded sessions replay under the same explorer. */
    std::string explorer;
    /** Comma-separated explorer options ("k=v,k=v", ExplorerSpec syntax),
     *  e.g. "min_records=20,trees=16" for gbt. */
    std::string explorer_config;
    /** Durably checkpoint the full resumable tuning state to
     *  @p checkpoint_path every this many completed rounds (and after the
     *  final round). 0 disables checkpointing. Pure IO: enabling it never
     *  changes tuning results. See src/replay/checkpoint.hpp. */
    int checkpoint_interval = 0;
    /** File the periodic checkpoint is written to (tmp + rename, CRC32
     *  framed). Required when checkpoint_interval > 0. */
    std::string checkpoint_path;
    /** Resume from a checkpoint file written by a compatible run (same
     *  policy, workload, device, and trajectory-shaping options). The
     *  resumed TuneResult is byte-identical to the uninterrupted run at
     *  any worker count. Empty = start fresh. */
    std::string resume_from;
};

/** One point of a tuning curve: simulated time vs best end-to-end
 *  latency. */
struct CurvePoint
{
    double time_s = 0.0;
    double latency_s = 0.0;
};

/** Result of tuning one workload. */
struct TuneResult
{
    std::string policy;
    std::vector<CurvePoint> curve;
    std::vector<double> best_per_task; ///< +inf where nothing measured
    double final_latency = 0.0;        ///< weighted end-to-end, +inf if
                                       ///< any task is unmeasured
    double total_time_s = 0.0;
    double exploration_s = 0.0;
    double training_s = 0.0;
    double measurement_s = 0.0;
    double compile_s = 0.0;
    size_t trials = 0;
    size_t failed_trials = 0;
    size_t cache_hits = 0;       ///< trials answered by the MeasureCache
    size_t simulated_trials = 0; ///< trials actually simulated
    size_t warm_records = 0;     ///< records replayed from the ArtifactDb
    size_t injected_faults = 0;  ///< faults the FaultPlan injected
    /** Per-round pipeline stats (empty unless
     *  TuneOptions::collect_round_stats). */
    std::vector<obs::RoundStats> round_stats;
    bool failed = false; ///< the policy could not tune this workload
    std::string failure_reason;

    /** Simulated time at which the curve first reaches @p latency;
     *  +inf if it never does. */
    double timeToReach(double latency) const;
};

/** Weighted end-to-end latency from the per-task incumbents; +inf if any
 *  task has no measurement. */
double workloadBest(const Workload& workload, const TuningRecordDb& db);

/** Abstract workload tuner. */
class SearchPolicy
{
  public:
    virtual ~SearchPolicy() = default;
    virtual std::string name() const = 0;
    virtual TuneResult tune(const Workload& workload,
                            const TuneOptions& options) = 0;

    /** Factory key a SessionReplayer rebuilds this policy under (the
     *  registry key, not necessarily the display name). */
    virtual std::string replayFactory() const { return name(); }
    /** Construction parameters the factory needs to rebuild an identical
     *  fresh policy (tab-separated key=value pairs; "" when the factory
     *  key alone suffices). */
    virtual std::string replayConfig() const { return ""; }
};

/** Configuration of EvoCostModelPolicy. */
struct EvoPolicyConfig
{
    EvolutionConfig evolution; ///< population/iterations of the GA
    /** If false, skip online training (offline mode with a pre-trained
     *  model, as in the paper's offline scenario). */
    bool online_training = true;
    /** Adaptive (early-terminated) measurement, the Adatune behaviour. */
    bool adaptive_measurement = false;
    double adaptive_time_scale = 0.6;
    double adaptive_extra_noise = 0.08;
};

/**
 * Evolutionary search scored by a learned cost model over the full
 * population, run by a TuningSession. Ansor, TenSetMLP, TLP, MetaSchedule
 * and Adatune are this policy with different models/options.
 */
class EvoCostModelPolicy : public SearchPolicy
{
  public:
    EvoCostModelPolicy(std::string name, const DeviceSpec& device,
                       std::unique_ptr<CostModel> model,
                       EvoPolicyConfig config = {});

    std::string name() const override { return name_; }
    TuneResult tune(const Workload& workload,
                    const TuneOptions& options) override;

    std::string replayFactory() const override
    {
        return replay_factory_.empty() ? name_ : replay_factory_;
    }
    std::string replayConfig() const override { return replay_config_; }
    /** Install the replay identity of this policy instance. Called by the
     *  baseline factories (makeAnsor etc.) so a recorded session names the
     *  factory and the arguments that rebuild an identical fresh policy. */
    void setReplaySpec(std::string factory, std::string config)
    {
        replay_factory_ = std::move(factory);
        replay_config_ = std::move(config);
    }

    CostModel& model() { return *model_; }
    const DeviceSpec& device() const { return device_; }

  protected:
    /** Hook: can this policy tune the given task at all? Baselines with
     *  operator-coverage gaps override this (Figure 8's X marks). */
    virtual bool supportsTask(const SubgraphTask& task) const;

    std::string name_;
    DeviceSpec device_;
    std::unique_ptr<CostModel> model_;
    EvoPolicyConfig config_;
    std::string replay_factory_; ///< see setReplaySpec (empty = name_)
    std::string replay_config_;
};

/** Select up to @p n distinct unmeasured candidates: mostly best-first,
 *  an eps fraction random (Ansor's epsilon-greedy selection). */
std::vector<Schedule> selectForMeasurement(
    const std::vector<ScoredSchedule>& ranked, const SubgraphTask& task,
    const TuningRecordDb& db, const ScheduleSampler& sampler, size_t n,
    double eps, Rng& rng);

} // namespace pruner
