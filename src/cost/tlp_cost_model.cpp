#include "cost/tlp_cost_model.hpp"

#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "support/logging.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

namespace {
constexpr size_t kHidden = 64;
} // namespace

TlpCostModel::TlpCostModel(const DeviceSpec& device, uint64_t seed)
    : device_(device), rng_(seed)
{
    embed_ = Mlp({kPrimitiveFeatureDim, kHidden}, rng_);
    attn_ = SelfAttention(kHidden, rng_);
    head_ = Mlp({kHidden, kHidden, 1}, rng_);
}

double
TlpCostModel::scoreOne(const SubgraphTask& task, const Schedule& sch) const
{
    const Matrix feats = extractPrimitiveFeatures(task, sch);
    const Matrix h = attn_.inferReference(embed_.inferReference(feats));
    return head_.inferReference(h.colMean()).at(0, 0);
}

void
TlpCostModel::forwardBatch(const Matrix& feats, const SegmentTable& segs,
                           Workspace& ws, double* out) const
{
    const Matrix& embedded = embed_.inferBatch(feats, ws);
    const Matrix& ctx = attn_.inferBatch(embedded, segs, ws);
    Matrix& pooled = ws.alloc(segs.count(), kHidden);
    segmentColMean(ctx, segs, pooled);
    const Matrix& scores = head_.inferBatch(pooled, ws);
    for (size_t i = 0; i < segs.count(); ++i) {
        out[i] = scores.at(i, 0);
    }
}

void
TlpCostModel::predictInto(const SubgraphTask& task,
                          std::span<const Schedule> candidates,
                          Workspace& ws, double* out) const
{
    if (candidates.empty()) {
        return;
    }
    ws.reset();
    Matrix& feats = ws.alloc(0, kPrimitiveFeatureDim);
    SegmentTable& segs = ws.allocSegments();
    extractPrimitiveFeaturesBatch(task, candidates, feats, segs);
    forwardBatch(feats, segs, ws, out);
    obs::counterAdd(obs_counters_.infer_batches);
    obs::counterAdd(obs_counters_.infer_candidates, candidates.size());
    obs::counterAdd(obs_counters_.infer_pack_rows, feats.rows());
    obs::counterAdd(obs_counters_.infer_segments, segs.count());
    obs::counterAdd(obs_counters_.infer_alias_segments, segs.aliasCount());
}

std::vector<double>
TlpCostModel::predict(const SubgraphTask& task,
                      std::span<const Schedule> candidates) const
{
    std::vector<double> scores(candidates.size());
    predictInto(task, candidates, threadLocalWorkspace(), scores.data());
    return scores;
}

std::vector<double>
TlpCostModel::predictReference(const SubgraphTask& task,
                               std::span<const Schedule> candidates) const
{
    std::vector<double> scores;
    scores.reserve(candidates.size());
    for (const auto& sch : candidates) {
        scores.push_back(scoreOne(task, sch));
    }
    return scores;
}

void
TlpCostModel::fitReference(const Matrix& feats, double dscore)
{
    const Matrix h = attn_.forward(embed_.forward(feats));
    const Matrix pooled = h.colMean();
    head_.forward(pooled);

    Matrix dy(1, 1);
    dy.at(0, 0) = dscore;
    const Matrix dpooled = head_.backward(dy);
    Matrix dh(h.rows(), h.cols());
    const double inv_t = 1.0 / static_cast<double>(h.rows());
    for (size_t r = 0; r < dh.rows(); ++r) {
        for (size_t c = 0; c < dh.cols(); ++c) {
            dh.at(r, c) = dpooled.at(0, c) * inv_t;
        }
    }
    embed_.backward(attn_.backward(dh));
}

void
TlpCostModel::scoreBatch(const Matrix& feats, const SegmentTable& segs,
                         Workspace& ws, TrainCaches& caches, double* out)
{
    const size_t n = segs.count();
    const Matrix& embedded = embed_.forwardBatch(feats, ws,
                                                 caches.embed_acts);
    const Matrix& ctx = attn_.forwardBatch(embedded, segs, ws, caches.attn);
    Matrix& pooled = ws.alloc(n, kHidden);
    segmentColMean(ctx, segs, pooled);
    SegmentTable& unit = ws.allocSegments();
    for (size_t i = 0; i < n; ++i) {
        unit.append(1); // the head sees one pooled row per record
    }
    const Matrix& scores = head_.forwardBatch(pooled, ws, caches.head_acts);
    for (size_t i = 0; i < n; ++i) {
        out[i] = scores.at(i, 0);
    }
    caches.segs = &segs;
    caches.unit = &unit;
}

void
TlpCostModel::fitBatch(const std::vector<double>& dscores, Workspace& ws,
                       TrainCaches& caches)
{
    const size_t n = dscores.size();
    if (n == 0) {
        return;
    }
    const SegmentTable& segs = *caches.segs;
    PRUNER_CHECK(segs.count() == n);
    // Backward from the scoring pass's activations, in the per-record
    // module order (head, attention, embed).
    Matrix& dy = ws.alloc(n, 1);
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
    }
    Matrix* dpooled = head_.backwardBatch(dy, caches.head_acts,
                                          *caches.unit, ws,
                                          /*need_dx=*/true);
    Matrix& dh = ws.alloc(segs.totalRows(), kHidden);
    segmentBroadcast(*dpooled, 0, kHidden, segs, dh, /*mean=*/true);
    Matrix* dembedded = attn_.backwardBatch(dh, caches.attn, segs, ws,
                                            /*need_dx=*/true);
    embed_.backwardBatch(*dembedded, caches.embed_acts, segs, ws,
                         /*need_dx=*/false);
}

double
TlpCostModel::train(const std::vector<MeasuredRecord>& records, int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    std::vector<ParamRef> params = paramRefs();
    Adam adam(params, 1e-3);
    adam.zeroGrad();

    // Per-record feature memo: one primitive-sequence encoding per record
    // for the whole training run.
    Matrix memo(0, kPrimitiveFeatureDim);
    {
        std::vector<SchedulePrimitive> scratch;
        for (const auto& rec : records) {
            const size_t row0 = memo.rows();
            memo.resize(row0 + kPrimitiveSteps, kPrimitiveFeatureDim);
            writePrimitiveFeatureRows(rec.task, rec.sch, memo, row0,
                                      scratch);
        }
    }
    Workspace ws;
    TrainCaches caches;

    // Scoring runs the caching forward; the fit reuses its activations
    // (the workspace resets only at the next group's scoring pass).
    auto infer_scores = [&](const std::vector<size_t>& subset,
                            std::vector<double>& out) {
        ws.reset();
        Matrix& feats = ws.alloc(0, kPrimitiveFeatureDim);
        SegmentTable& segs = ws.allocSegments();
        for (size_t idx : subset) {
            feats.appendRows(memo, idx * kPrimitiveSteps, kPrimitiveSteps);
            segs.append(kPrimitiveSteps);
        }
        out.resize(subset.size());
        scoreBatch(feats, segs, ws, caches, out.data());
    };
    auto fit_batch = [&](const std::vector<size_t>&,
                         const std::vector<double>& grads) {
        fitBatch(grads, ws, caches);
    };
    auto on_batch_end = [&]() {
        adam.clipGradNorm(5.0);
        adam.step();
        adam.zeroGrad();
    };
    return trainRankingLoop(records, epochs, /*group_cap=*/48, rng_,
                            infer_scores, fit_batch, on_batch_end,
                            obs_counters_);
}

double
TlpCostModel::trainReference(const std::vector<MeasuredRecord>& records,
                             int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    std::vector<ParamRef> params = paramRefs();
    Adam adam(params, 1e-3);
    adam.zeroGrad();

    // Frozen pre-batching path: same memo + batched scoring, per-record
    // fits (exactly the train() of the batched-inference engine era).
    Matrix memo(0, kPrimitiveFeatureDim);
    {
        std::vector<SchedulePrimitive> scratch;
        for (const auto& rec : records) {
            const size_t row0 = memo.rows();
            memo.resize(row0 + kPrimitiveSteps, kPrimitiveFeatureDim);
            writePrimitiveFeatureRows(rec.task, rec.sch, memo, row0,
                                      scratch);
        }
    }
    Workspace ws;

    auto infer_scores = [&](const std::vector<size_t>& subset) {
        ws.reset();
        Matrix& feats = ws.alloc(0, kPrimitiveFeatureDim);
        SegmentTable& segs = ws.allocSegments();
        for (size_t idx : subset) {
            feats.appendRows(memo, idx * kPrimitiveSteps, kPrimitiveSteps);
            segs.append(kPrimitiveSteps);
        }
        std::vector<double> scores(subset.size());
        forwardBatch(feats, segs, ws, scores.data());
        return scores;
    };
    auto fit_one = [&](size_t idx, double dscore) {
        fitReference(
            memo.sliceRows(idx * kPrimitiveSteps, kPrimitiveSteps), dscore);
    };
    auto on_batch_end = [&]() {
        adam.clipGradNorm(5.0);
        adam.step();
        adam.zeroGrad();
    };
    return trainRankingLoopReference(records, epochs, /*group_cap=*/48,
                                     rng_, infer_scores, fit_one,
                                     on_batch_end);
}

double
TlpCostModel::evalCostPerCandidate() const
{
    return CostConstants::defaults().tlp_eval_per_candidate;
}

double
TlpCostModel::trainCostPerRound() const
{
    return CostConstants::defaults().tlp_train_per_round;
}

std::vector<ParamRef>
TlpCostModel::paramRefs()
{
    std::vector<ParamRef> params;
    embed_.collectParams(params);
    attn_.collectParams(params);
    head_.collectParams(params);
    return params;
}

std::vector<double>
TlpCostModel::getParams()
{
    return flattenParams(paramRefs());
}

void
TlpCostModel::setParams(const std::vector<double>& flat)
{
    unflattenParams(paramRefs(), flat);
}

std::unique_ptr<CostModel>
TlpCostModel::clone() const
{
    return std::make_unique<TlpCostModel>(*this);
}

} // namespace pruner
