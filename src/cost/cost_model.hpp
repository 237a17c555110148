#pragma once

/**
 * @file cost_model.hpp
 * The learned cost model: feature branches plus a fused head.
 *
 * All three learned models in the paper's evaluation (TenSetMLP, TLP and
 * Pruner's PaCM) share one contract: score a batch of candidate schedules
 * for one task (higher = predicted faster) and train from measured (task,
 * schedule, latency) records with a LambdaRank objective. They also share
 * one shape. Each is an ordered list of feature branches, each branch
 * pooling a candidate's feature rows into one 64-wide vector, and a head
 * Mlp({64 x branches, 64, 1}) over the concatenated vectors. So CostModel
 * is that one implementation, and each paper model is a branch
 * configuration of it:
 *
 *   model      branches (kind, embed depth)  class         source
 *   TenSetMLP  statement 2                   MlpCostModel  TenSet's MLP
 *   TLP        primitive 1                   TlpCostModel  arXiv 2211.03578
 *   PaCM       statement 3, dataflow 3       PaCMModel     Pruner §4.2
 *
 * A branch's kind fixes everything after its embed MLP. Statement rows
 * are an unordered set, one row per buffer statement and a varying count
 * per candidate, so the branch sum-pools them (TenSet's set encoding) and
 * has no attention. Dataflow and primitive rows are step sequences
 * zero-padded to a fixed length whose order carries the pattern, so those
 * branches run self-attention over the steps and mean-pool. The PaCM
 * ablations (Table 12) disable a branch: it keeps its weights, so the
 * init order and parameter layout do not move, and feeds zero columns
 * into the head.
 *
 * Scoring runs through the batched inference engine: every branch packs
 * all candidates' rows into one matrix (one symbol extraction per
 * candidate feeds the statement and dataflow branches), each layer is one
 * GEMM over the population, and pooling is segment-aware. Dataflow packs
 * go through appendDataflowBlock, so duplicate blocks alias and padding
 * rows share one pack row. The result is byte-identical to scoring each
 * candidate alone (predictReference).
 *
 * The simulated per-candidate inference cost and per-round training cost
 * differ per model and feed the SimClock.
 */

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "device/device_spec.hpp"
#include "ir/task.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"
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

/** The features a cost-model branch reads; the kind fixes the branch's
 *  attention and pooling (see the file comment). */
enum class FeatureKind
{
    Statement, ///< per-statement rows: embed MLP, sum pool
    Dataflow,  ///< padded dataflow steps: embed MLP, attention, mean pool
    Primitive, ///< padded primitive steps: embed MLP, attention, mean pool
};

/** One feature branch of a CostModel. */
struct BranchSpec
{
    FeatureKind kind = FeatureKind::Statement;
    size_t depth = 1;    ///< linear layers of the 64-wide embed MLP
    bool enabled = true; ///< off: keeps its weights, feeds the head zeros
};

/** The learned cost model (see the file comment). */
class CostModel
{
  public:
    /** Virtual: a std::unique_ptr<CostModel> owns the named subclasses. */
    virtual ~CostModel() = default;
    CostModel(const CostModel&) = default;
    CostModel& operator=(const CostModel&) = default;
    CostModel(CostModel&&) = default;
    CostModel& operator=(CostModel&&) = default;

    /** Model name for reports ("TenSetMLP", "TLP", "PaCM"). */
    const std::string& name() const { return name_; }

    /** Scores for candidate schedules of one task; higher = faster. Const
     *  and reentrant (used concurrently by pool workers inside search
     *  loops). Scores the whole span through the batched inference
     *  engine — one packed GEMM per layer — and the result is
     *  byte-identical to predictReference() at any batch size. */
    std::vector<double> predict(const SubgraphTask& task,
                                std::span<const Schedule> candidates) const;

    /** predict() into a caller-owned buffer: every intermediate comes from
     *  @p ws, so once @p ws and the per-thread extraction scratch are warm
     *  it allocates nothing. @p out must hold candidates.size() doubles. */
    void predictInto(const SubgraphTask& task,
                     std::span<const Schedule> candidates, Workspace& ws,
                     double* out) const;

    /** Per-candidate reference path (the pre-batching implementation),
     *  kept for the identity tests and benches. */
    std::vector<double>
    predictReference(const SubgraphTask& task,
                     std::span<const Schedule> candidates) const;

    /**
     * Train on measured records with LambdaRank; returns the last epoch's
     * mean per-group loss. Every call runs a fresh Adam (lr 1e-3) over
     * the model's parameters. Each epoch shuffles the task groups, then
     * each group, and fits at most 48 records of it (LambdaRank is
     * quadratic in group size) as one segment-packed batch: the caching
     * forward scores the subset, one batched backward fits it, then the
     * global gradient norm is clipped to 5.0 and Adam steps. Records
     * whose dL/dscore is zero ride along with a zero dy row, so all their
     * partials are exactly +0.0. Weights after every epoch are
     * byte-identical to trainReference(); steady-state groups allocate
     * nothing at the loop level.
     */
    double train(const std::vector<MeasuredRecord>& records, int epochs);

    /** The frozen pre-batching trainer, kept as the golden reference the
     *  batched trainer is differentially tested against: the same groups,
     *  shuffles, optimizer and scoring as train(), but a per-record
     *  forward + backward for each nonzero-gradient record, then one step
     *  per group. Consumes the model's RNG exactly like train(), so
     *  compare fresh clones — not chained calls. */
    double trainReference(const std::vector<MeasuredRecord>& records,
                          int epochs);

    /** Simulated seconds of exploration cost per scored candidate. */
    double evalCostPerCandidate() const { return eval_cost_; }

    /** Simulated seconds of training cost per tuning round. */
    double trainCostPerRound() const { return train_cost_; }

    /** Flat parameter snapshot (MoA / pre-train hand-off). */
    std::vector<double> getParams();

    /** Restore a snapshot produced by getParams() of the same model. */
    void setParams(const std::vector<double>& flat);

    /** Deep copy. */
    std::unique_ptr<CostModel> clone() const;

    /** The RNG that train() draws from (group shuffling / subset
     *  sampling). Checkpoint/resume snapshots and restores it so a resumed
     *  run's training stream continues exactly where the original left
     *  off — weights alone don't capture that lineage. */
    Rng* trainingRng() { return &rng_; }

    /** Handles into a bound MetricsRegistry (all null when unbound; writes
     *  go through null-safe helpers). Deterministic channel: inference and
     *  training traffic is a pure function of the tuning trajectory. Each
     *  infer count sums over the enabled branches. */
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
    /** Only the paper models' subclasses pick a branch list.
     *  @param name      report name ("TenSetMLP", "TLP", "PaCM")
     *  @param device    platform whose features/labels this model sees
     *  @param seed      weight-init / training-shuffle seed
     *  @param branches  in head-column order; at least one enabled
     *  @param eval_cost   simulated seconds per scored candidate
     *  @param train_cost  simulated seconds of training per round */
    CostModel(std::string name, const DeviceSpec& device, uint64_t seed,
              const std::vector<BranchSpec>& branches, double eval_cost,
              double train_cost);

  private:
    /** One branch's weights. attn is set for the step-sequence kinds. */
    struct Branch
    {
        BranchSpec spec;
        Mlp embed;
        SelfAttention attn;
    };
    /** One batched forward's per-branch packs plus what the batched
     *  backward reuses (defined in cost_model.cpp). */
    struct Batch;
    /** Every training record's rows per branch, extracted once per train()
     *  call (defined in cost_model.cpp). */
    struct Memo;

    /** Reset @p ws and point @p batch at one empty pack per branch. */
    void beginBatch(Batch& batch, Workspace& ws) const;
    /** Whether an enabled branch reads extracted symbols. */
    bool needsSymbols() const;
    double scoreOne(const SubgraphTask& task, const Schedule& sch) const;
    /** The model's one batched forward over @p batch's packs -> n scores,
     *  behind predictInto and both trainers. With @p record every layer
     *  boundary lands in @p batch for fitBatch; without it the packs may
     *  alias duplicate dataflow blocks and elide padding rows. */
    void scoreBatch(Batch& batch, size_t n, Workspace& ws, bool record,
                    double* out) const;
    /** Extract every record's features once for a whole train() call;
     *  the trajectory is byte-identical to re-extracting per record. */
    Memo memoize(const std::vector<MeasuredRecord>& records) const;
    /** Gather @p subset's memoised rows into fresh packs in @p ws (which
     *  this resets) and score them through scoreBatch. */
    void scoreSubset(const Memo& memo, const std::vector<size_t>& subset,
                     Workspace& ws, Batch& batch, bool record,
                     double* out) const;
    /** Frozen per-record forward+backward of memoised record @p idx (the
     *  pre-batching fit). */
    void fitReference(const Memo& memo, size_t idx, double dscore);
    /** Segment-aware batched backward from scoreBatch's recorded
     *  activations, head first, then each branch: byte-identical gradient
     *  accumulation to calling fitReference per record in pack order. */
    void fitBatch(const std::vector<double>& dscores, Workspace& ws,
                  const Batch& batch);
    /** Per branch its embed, then its attention; the head last. */
    std::vector<ParamRef> paramRefs();

    std::string name_;
    DeviceSpec device_;
    Rng rng_;
    double eval_cost_;
    double train_cost_;
    std::vector<Branch> branches_;
    Mlp head_;
    ModelObsCounters obs_counters_;
};

} // namespace pruner
