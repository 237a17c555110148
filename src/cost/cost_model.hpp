#pragma once

/**
 * @file cost_model.hpp
 * Common interface for learned cost models plus the shared ranking
 * training loop.
 *
 * All three learned models in the paper's evaluation (TenSetMLP, TLP, and
 * Pruner's PaCM) share the same contract: score a batch of candidate
 * schedules for one task (higher = predicted faster) and train from
 * measured (task, schedule, latency) records with a ranking objective.
 * The simulated per-candidate inference cost and per-round training cost
 * differ per model and feed the SimClock.
 */

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "device/device_spec.hpp"
#include "ir/task.hpp"
#include "nn/layers.hpp"
#include "sched/schedule.hpp"
#include "support/rng.hpp"

namespace pruner {

namespace obs {
class Counter;
class MetricsRegistry;
} // namespace obs

/** One measured data point (the unit of both online and offline data). */
struct MeasuredRecord
{
    SubgraphTask task;
    Schedule sch;
    double latency = 0.0; ///< measured latency in seconds (finite)
};

/** Abstract learned cost model. */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Model name for reports ("TenSetMLP", "TLP", "PaCM"). */
    virtual std::string name() const = 0;

    /** Scores for candidate schedules of one task; higher = faster. Must
     *  be const and reentrant (used concurrently by pool workers inside
     *  search loops). Every model scores the whole span through its
     *  batched inference engine — one packed GEMM per layer — and the
     *  result is byte-identical to scoring candidates one at a time, at
     *  any batch size (the per-candidate reference path each model keeps
     *  as predictReference()). */
    virtual std::vector<double>
    predict(const SubgraphTask& task,
            std::span<const Schedule> candidates) const = 0;

    /** Train on measured records (grouped by task internally). Returns
     *  the final average ranking loss. The learned models route this
     *  through the batched segment-aware trainer (one GEMM per layer per
     *  LambdaRank group, forward and backward); weights after every
     *  epoch are byte-identical to trainReference(). */
    virtual double train(const std::vector<MeasuredRecord>& records,
                         int epochs) = 0;

    /** The frozen pre-batching training path (per-record forward +
     *  backward), kept as the golden reference the batched trainer is
     *  differentially tested against. Consumes the model's RNG exactly
     *  like train(), so compare fresh clones — not chained calls.
     *  Models without a separate reference path train normally. */
    virtual double trainReference(const std::vector<MeasuredRecord>& records,
                                  int epochs)
    {
        return train(records, epochs);
    }

    /** Simulated seconds of exploration cost per scored candidate. */
    virtual double evalCostPerCandidate() const = 0;

    /** Simulated seconds of training cost per tuning round. */
    virtual double trainCostPerRound() const = 0;

    /** Flat parameter snapshot (MoA / pre-train hand-off). */
    virtual std::vector<double> getParams() = 0;

    /** Restore a snapshot produced by getParams() of the same model. */
    virtual void setParams(const std::vector<double>& flat) = 0;

    /** Deep copy. */
    virtual std::unique_ptr<CostModel> clone() const = 0;

    /** The RNG that train() draws from (group shuffling / subset
     *  sampling), or nullptr for models without one. Checkpoint/resume
     *  snapshots and restores it so a resumed run's training stream
     *  continues exactly where the original left off — weights alone
     *  don't capture that lineage. */
    virtual Rng* trainingRng() { return nullptr; }

    /** Handles into a bound MetricsRegistry (all null when unbound; writes
     *  go through null-safe helpers). Deterministic channel: inference and
     *  training traffic is a pure function of the tuning trajectory. */
    struct ModelObsCounters
    {
        obs::Counter* infer_batches = nullptr;    ///< predict calls
        obs::Counter* infer_candidates = nullptr; ///< rows scored
        /// Logical feature rows packed, padding included: PaCM's
        /// padding-row elision shrinks the GEMMs, not this count.
        obs::Counter* infer_pack_rows = nullptr;
        obs::Counter* infer_segments = nullptr;   ///< segments packed
        obs::Counter* infer_alias_segments = nullptr; ///< aliased (deduped)
        obs::Counter* train_groups = nullptr;     ///< LambdaRank groups fit
        obs::Counter* train_records = nullptr;    ///< records fit
        obs::Counter* train_epochs = nullptr;     ///< training epochs run
    };

    /** Bind the model_* counters to @p metrics (nullptr unbinds). Pure
     *  accounting, never changes predictions or weights. A clone() carries
     *  the binding — deliberately: the async trainer trains a clone, and
     *  carrying the handles keeps the deterministic training counters
     *  identical between sync and async runs. */
    void bindMetrics(obs::MetricsRegistry* metrics);

  protected:
    ModelObsCounters obs_counters_;
};

namespace detail {

/** Group record indices by task hash (stable order of first appearance). */
std::vector<std::vector<size_t>>
groupByTask(const std::vector<MeasuredRecord>& records);

} // namespace detail

/** Scores training records @p subset (pack order) into out[0, size). */
using SubsetScoreFn =
    std::function<void(const std::vector<size_t>& subset, double* out)>;

/**
 * Shared LambdaRank training loop — batched backward.
 *
 * Owns the optimizer every learned model trains with: a fresh Adam over
 * @p params at learning rate 1e-3 per call, and after each group's fit
 * the global gradient norm clipped to 5.0, one Adam step and zeroed
 * gradients. Each epoch shuffles the task groups, then each group, and
 * fits at most 48 records of it (LambdaRank is quadratic in group size).
 *
 * Identical group/shuffle/loss structure (and RNG consumption) to
 * trainRankingLoopReference, but each group's fit runs as ONE
 * segment-packed batch: @p fit_batch receives the per-record dL/dscore of
 * the subset @p score just scored, and must make zero-gradient records
 * byte-level no-ops — either by skipping them like the reference loop
 * skips its fit_one calls, or by carrying them with a zero dy row (all
 * their partials are exactly +0.0; the models do the latter so the
 * backward can reuse the scoring pass's activations). score and fit_batch
 * are always called as a pair per group, so scoring state may carry into
 * the fit. All loop-level buffers (subset, scores, latencies, loss
 * scratch) are reused across groups and epochs, so steady-state epochs
 * allocate nothing at the loop level.
 *
 * @param records  measured data
 * @param epochs   passes over the grouped data
 * @param params   the model's parameters and gradients
 * @param rng      sampling source
 * @param score    scoring of a subset, caching what fit_batch needs
 * @param fit_batch  one batched backward over the subset just scored
 * @param counters  optional training counters (null members are no-ops)
 * Returns the last epoch's mean per-group loss.
 */
double trainRankingLoop(
    const std::vector<MeasuredRecord>& records, int epochs,
    std::vector<ParamRef> params, Rng& rng, const SubsetScoreFn& score,
    const std::function<void(const std::vector<double>& dscores)>&
        fit_batch,
    const CostModel::ModelObsCounters& counters = {});

/**
 * The frozen pre-batching loop: the same optimizer and sampling as
 * trainRankingLoop, but per-record @p fit_one calls (skipping zero
 * gradients), one record's full forward+backward at a time, then one step
 * per group. Kept as the golden reference behind every model's
 * trainReference(); byte-for-byte the behaviour train() had before the
 * batched backward.
 */
double trainRankingLoopReference(
    const std::vector<MeasuredRecord>& records, int epochs,
    std::vector<ParamRef> params, Rng& rng, const SubsetScoreFn& score,
    const std::function<void(size_t record, double dscore)>& fit_one);

} // namespace pruner
