#pragma once

/**
 * @file pacm_model.hpp
 * Pruner's Pattern-aware Cost Model (paper Section 4.2, Figure 4).
 *
 * PaCM is a multi-branch "Pattern-aware Transformer":
 *  - statement branch: per-statement features -> 3 linear layers -> sum,
 *  - temporal-dataflow branch: [10, 23] movement rows -> 3 linear layers ->
 *    self-attention -> mean pool,
 *  - concat -> linear head -> normalized score.
 * Trained with LambdaRank on normalized latency, exactly as the paper
 * describes. Either branch can be disabled for the Table 12 ablations
 * (w/o S.F. and w/o T.D.F.).
 *
 * Scoring runs through the batched inference engine: both branches pack
 * every candidate's rows into one matrix (sharing a single symbol
 * extraction per candidate), each layer is one GEMM over the population,
 * and pooling is segment-aware — byte-identical to per-candidate scoring.
 */

#include "cost/cost_model.hpp"
#include "feature/dataflow_features.hpp"
#include "feature/statement_features.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace pruner {

/** Ablation switches for PaCM's two feature branches. */
struct PaCMConfig
{
    bool use_statement_features = true; ///< S.F. branch (Table 12)
    bool use_dataflow_features = true;  ///< T.D.F. branch (Table 12)
};

/** The Pattern-aware Cost Model. */
class PaCMModel : public CostModel
{
  public:
    PaCMModel(const DeviceSpec& device, uint64_t seed, PaCMConfig cfg = {});

    std::string name() const override { return "PaCM"; }
    std::vector<double>
    predict(const SubgraphTask& task,
            std::span<const Schedule> candidates) const override;
    double train(const std::vector<MeasuredRecord>& records,
                 int epochs) override;
    double trainReference(const std::vector<MeasuredRecord>& records,
                          int epochs) override;
    double evalCostPerCandidate() const override;
    double trainCostPerRound() const override;
    std::vector<double> getParams() override;
    void setParams(const std::vector<double>& flat) override;
    std::unique_ptr<CostModel> clone() const override;
    Rng* trainingRng() override { return &rng_; }

    /** Batched scoring into a caller-owned buffer (see CostModel::predict
     *  for the identity contract). Symbols are extracted once per
     *  candidate and shared by both branches; zero heap allocations once
     *  @p ws is warm. @p out must hold candidates.size() doubles. */
    void predictInto(const SubgraphTask& task,
                     std::span<const Schedule> candidates, Workspace& ws,
                     double* out) const;

    /** Per-candidate reference path (the pre-batching implementation),
     *  kept for the identity tests and benches. */
    std::vector<double>
    predictReference(const SubgraphTask& task,
                     std::span<const Schedule> candidates) const;

    const PaCMConfig& config() const { return cfg_; }

  private:
    /** Both branches' features of every training record, from one symbol
     *  extraction per record per train() call. Record i owns statement
     *  rows [stmt_segs.begin(i), +stmt_segs.rows(i)) (zero rows without
     *  the statement branch) and dataflow rows
     *  [i * kDataflowSteps, +kDataflowSteps) (none without the dataflow
     *  branch). */
    struct Memo
    {
        Matrix stmt;
        SegmentTable stmt_segs;
        Matrix flow;
    };

    /** Batched-trainer state carried from scoreBatch to fitBatch (see
     *  MlpCostModel::TrainCaches). */
    struct TrainCaches
    {
        BatchActs stmt_acts, flow_acts, head_acts;
        AttentionBatchCache attn;
        const SegmentTable* stmt_segs = nullptr;
        const SegmentTable* flow_segs = nullptr;
    };

    double scoreOne(const SubgraphTask& task, const Schedule& sch) const;
    /** The model's one batched forward over both branches' packed
     *  features -> n scores, behind predictInto and both trainers. With
     *  @p caches both branches' intermediates land there for fitBatch;
     *  null means inference, where @p flow_segs may alias duplicate
     *  dataflow blocks and a non-empty @p flow_map says which
     *  @p flow_pack row holds each logical dataflow row (padding-row
     *  elision; see appendDataflowBlock). */
    void scoreBatch(const Matrix& stmt_pack, const SegmentTable& stmt_segs,
                    const Matrix& flow_pack, const SegmentTable& flow_segs,
                    std::span<const size_t> flow_map, size_t n,
                    Workspace& ws, TrainCaches* caches, double* out) const;
    /** Extract every record's features once for a whole train() call;
     *  the trajectory is byte-identical to re-extracting per record. */
    Memo memoize(const std::vector<MeasuredRecord>& records) const;
    /** Gather @p subset's memoised rows into fresh contiguous packs in
     *  @p ws (which this resets) and score them through scoreBatch. */
    void scoreSubset(const Memo& memo, const std::vector<size_t>& subset,
                     Workspace& ws, TrainCaches* caches, double* out) const;
    /** Frozen per-record forward+backward of memoised record @p idx (the
     *  pre-batching fit). */
    void fitReference(const Memo& memo, size_t idx, double dscore);
    /** Segment-aware batched backward from scoreBatch's caches:
     *  byte-identical gradient accumulation to calling fitReference per
     *  record in pack order (zero-gradient records' zero dy rows make
     *  exactly-+0 partials — byte-level no-ops, same as the reference
     *  loop's skip). */
    void fitBatch(const std::vector<double>& dscores, Workspace& ws,
                  const TrainCaches& caches);
    std::vector<ParamRef> paramRefs();

    DeviceSpec device_;
    Rng rng_;
    PaCMConfig cfg_;
    Mlp stmt_embed_;       ///< statement branch encoder
    Mlp flow_embed_;       ///< dataflow branch encoder
    SelfAttention attn_;   ///< dataflow context modelling
    Mlp head_;             ///< fused scorer
};

} // namespace pruner
