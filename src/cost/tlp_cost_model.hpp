#pragma once

/**
 * @file tlp_cost_model.hpp
 * The TLP baseline cost model: a Transformer over the high-level
 * schedule-primitive sequence.
 *
 * TLP avoids heavy feature extraction by encoding schedule primitives as
 * mostly one-hot rows. As the paper stresses, the resulting feature
 * diversity is tiny (only split factors vary between schedules of one
 * task), which makes the model data-hungry and brittle when fine-tuned on
 * small online datasets — behaviour this reproduction inherits naturally
 * from the same encoding. What TLP *is* good at — batching a whole
 * population of candidates into one tensor per forward pass — is exactly
 * what the batched inference engine reproduces here.
 */

#include "cost/cost_model.hpp"
#include "feature/primitive_features.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace pruner {

/** Primitive-sequence Transformer cost model (TLP). */
class TlpCostModel : public CostModel
{
  public:
    TlpCostModel(const DeviceSpec& device, uint64_t seed);

    std::string name() const override { return "TLP"; }
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
     *  for the identity contract). Zero heap allocations once @p ws is
     *  warm. @p out must hold candidates.size() doubles. */
    void predictInto(const SubgraphTask& task,
                     std::span<const Schedule> candidates, Workspace& ws,
                     double* out) const;

    /** Per-candidate reference path (the pre-batching implementation),
     *  kept for the identity tests and benches. */
    std::vector<double>
    predictReference(const SubgraphTask& task,
                     std::span<const Schedule> candidates) const;

  private:
    /** Batched-trainer state carried from scoreBatch to fitBatch (see
     *  MlpCostModel::TrainCaches). */
    struct TrainCaches
    {
        BatchActs embed_acts, head_acts;
        AttentionBatchCache attn;
        const SegmentTable* segs = nullptr;
    };

    double scoreOne(const SubgraphTask& task, const Schedule& sch) const;
    /** The model's one batched forward: packed primitive rows -> embed ->
     *  attention -> mean pool -> n scores, behind predictInto and both
     *  trainers. With @p caches every intermediate lands there for
     *  fitBatch; null means inference. */
    void scoreBatch(const Matrix& feats, const SegmentTable& segs,
                    Workspace& ws, TrainCaches* caches, double* out) const;
    /** Encode every record's primitive sequence once for a whole train()
     *  call: record i owns rows [i * kPrimitiveSteps, +kPrimitiveSteps). */
    Matrix memoize(const std::vector<MeasuredRecord>& records) const;
    /** Gather @p subset's memoised rows into a fresh pack in @p ws (which
     *  this resets) and score it through scoreBatch. */
    void scoreSubset(const Matrix& memo, const std::vector<size_t>& subset,
                     Workspace& ws, TrainCaches* caches, double* out) const;
    /** Frozen per-record forward+backward of memoised record @p idx (the
     *  pre-batching fit). */
    void fitReference(const Matrix& memo, size_t idx, double dscore);
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
    Mlp embed_;
    SelfAttention attn_;
    Mlp head_;
};

} // namespace pruner
