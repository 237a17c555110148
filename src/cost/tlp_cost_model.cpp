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
TlpCostModel::scoreBatch(const Matrix& feats, const SegmentTable& segs,
                         Workspace& ws, TrainCaches* caches,
                         double* out) const
{
    const Matrix& embedded = embed_.forwardBatch(
        feats, ws, caches != nullptr ? &caches->embed_acts : nullptr);
    const Matrix& ctx = attn_.forwardBatch(
        embedded, segs, ws, caches != nullptr ? &caches->attn : nullptr);
    Matrix& pooled = ws.alloc(segs.count(), kHidden);
    segmentColMean(ctx, segs, pooled);
    const Matrix& scores = head_.forwardBatch(
        pooled, ws, caches != nullptr ? &caches->head_acts : nullptr);
    for (size_t i = 0; i < segs.count(); ++i) {
        out[i] = scores.at(i, 0);
    }
    if (caches != nullptr) {
        caches->segs = &segs;
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
    scoreBatch(feats, segs, ws, nullptr, out);
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

Matrix
TlpCostModel::memoize(const std::vector<MeasuredRecord>& records) const
{
    Matrix memo(0, kPrimitiveFeatureDim);
    std::vector<SchedulePrimitive> scratch;
    for (const auto& rec : records) {
        const size_t row0 = memo.rows();
        memo.resize(row0 + kPrimitiveSteps, kPrimitiveFeatureDim);
        writePrimitiveFeatureRows(rec.task, rec.sch, memo, row0, scratch);
    }
    return memo;
}

void
TlpCostModel::scoreSubset(const Matrix& memo,
                          const std::vector<size_t>& subset, Workspace& ws,
                          TrainCaches* caches, double* out) const
{
    ws.reset();
    Matrix& feats = ws.alloc(0, kPrimitiveFeatureDim);
    SegmentTable& segs = ws.allocSegments();
    for (size_t idx : subset) {
        feats.appendRows(memo, idx * kPrimitiveSteps, kPrimitiveSteps);
        segs.append(kPrimitiveSteps);
    }
    scoreBatch(feats, segs, ws, caches, out);
}

void
TlpCostModel::fitReference(const Matrix& memo, size_t idx, double dscore)
{
    const Matrix h = attn_.forward(embed_.forward(
        memo.sliceRows(idx * kPrimitiveSteps, kPrimitiveSteps)));
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
TlpCostModel::fitBatch(const std::vector<double>& dscores, Workspace& ws,
                       const TrainCaches& caches)
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
    SegmentTable& unit = ws.allocSegments();
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
        unit.append(1); // the head sees one pooled row per record
    }
    Matrix* dpooled = head_.backwardBatch(dy, caches.head_acts, unit, ws,
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
    const Matrix memo = memoize(records);
    Workspace ws;
    TrainCaches caches;
    // Scoring runs the caching forward; the fit reuses its activations
    // (the workspace resets only at the next group's scoring pass).
    return trainRankingLoop(
        records, epochs, paramRefs(), rng_,
        [&](const std::vector<size_t>& subset, double* out) {
            scoreSubset(memo, subset, ws, &caches, out);
        },
        [&](const std::vector<double>& dscores) {
            fitBatch(dscores, ws, caches);
        },
        obs_counters_);
}

double
TlpCostModel::trainReference(const std::vector<MeasuredRecord>& records,
                             int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    const Matrix memo = memoize(records);
    Workspace ws;
    return trainRankingLoopReference(
        records, epochs, paramRefs(), rng_,
        [&](const std::vector<size_t>& subset, double* out) {
            scoreSubset(memo, subset, ws, nullptr, out);
        },
        [&](size_t idx, double dscore) { fitReference(memo, idx, dscore); });
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
