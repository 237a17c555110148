#pragma once

/**
 * @file mlp_cost_model.hpp
 * The TenSetMLP-style learned cost model (also used as Ansor's online
 * model in this reproduction): per-statement features through a shared
 * MLP, sum-pooled over statements, then a linear head.
 */

#include "cost/cost_model.hpp"
#include "feature/statement_features.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace pruner {

/** Statement-feature MLP cost model (TenSetMLP). */
class MlpCostModel : public CostModel
{
  public:
    /** @param device  platform whose features/labels this model sees
     *  @param seed    weight-init / training-shuffle seed */
    MlpCostModel(const DeviceSpec& device, uint64_t seed);

    std::string name() const override { return "TenSetMLP"; }
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

    /** Batched scoring into a caller-owned buffer: features pack into one
     *  matrix, every layer runs as one GEMM, all intermediates come from
     *  @p ws. Zero heap allocations once @p ws is warm; byte-identical to
     *  predictReference(). @p out must hold candidates.size() doubles. */
    void predictInto(const SubgraphTask& task,
                     std::span<const Schedule> candidates, Workspace& ws,
                     double* out) const;

    /** Per-candidate reference path (the pre-batching implementation),
     *  kept for the identity tests and benches. */
    std::vector<double>
    predictReference(const SubgraphTask& task,
                     std::span<const Schedule> candidates) const;

  private:
    /** Statement features of every training record, extracted once per
     *  train() call: record i owns rows [segs.begin(i), +segs.rows(i)). */
    struct Memo
    {
        Matrix feats;
        SegmentTable segs;
    };

    /** Batched-trainer state carried from scoreBatch to fitBatch: the
     *  activation caches plus the (workspace-owned, pointer-stable)
     *  segment table of the pack the scores came from. */
    struct TrainCaches
    {
        BatchActs embed_acts, head_acts;
        const SegmentTable* segs = nullptr;
    };

    double scoreOne(const SubgraphTask& task, const Schedule& sch) const;
    /** The model's one batched forward: packed statement features ->
     *  pooled -> n scores, behind predictInto and both trainers. With
     *  @p caches every layer boundary lands there so fitBatch can run the
     *  backward without a second forward; null means inference. */
    void scoreBatch(const Matrix& feats, const SegmentTable& segs,
                    Workspace& ws, TrainCaches* caches, double* out) const;
    /** Extract every record's features once for a whole train() call;
     *  the trajectory is byte-identical to re-extracting per record. */
    Memo memoize(const std::vector<MeasuredRecord>& records) const;
    /** Gather @p subset's memoised rows into a fresh pack in @p ws (which
     *  this resets) and score it through scoreBatch. */
    void scoreSubset(const Memo& memo, const std::vector<size_t>& subset,
                     Workspace& ws, TrainCaches* caches, double* out) const;
    /** Frozen per-record forward+backward of memoised record @p idx (the
     *  pre-batching fit). */
    void fitReference(const Memo& memo, size_t idx, double dscore);
    /** One segment-aware batched backward from scoreBatch's caches:
     *  byte-identical gradient accumulation to calling fitReference per
     *  record in pack order. Zero-gradient records stay in the pack with
     *  a zero dy row: every partial they touch is exactly +0.0, so the
     *  adds are byte-level no-ops — the same bytes as the reference
     *  loop's skip. */
    void fitBatch(const std::vector<double>& dscores, Workspace& ws,
                  const TrainCaches& caches);
    std::vector<ParamRef> paramRefs();

    DeviceSpec device_;
    Rng rng_;
    Mlp embed_; ///< per-statement encoder
    Mlp head_;  ///< pooled-vector scorer
};

} // namespace pruner
