#include "cost/mlp_cost_model.hpp"

#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "support/logging.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

namespace {
constexpr size_t kHidden = 64;
} // namespace

MlpCostModel::MlpCostModel(const DeviceSpec& device, uint64_t seed)
    : device_(device), rng_(seed)
{
    embed_ = Mlp({kStatementFeatureDim, kHidden, kHidden}, rng_);
    head_ = Mlp({kHidden, kHidden, 1}, rng_);
}

double
MlpCostModel::scoreOne(const SubgraphTask& task, const Schedule& sch) const
{
    const Matrix feats = extractStatementFeatures(task, sch, device_);
    const Matrix embedded = embed_.inferReference(feats);
    const Matrix pooled = embedded.colSum();
    return head_.inferReference(pooled).at(0, 0);
}

void
MlpCostModel::scoreBatch(const Matrix& feats, const SegmentTable& segs,
                         Workspace& ws, TrainCaches* caches,
                         double* out) const
{
    const Matrix& embedded = embed_.forwardBatch(
        feats, ws, caches != nullptr ? &caches->embed_acts : nullptr);
    Matrix& pooled = ws.alloc(segs.count(), kHidden);
    segmentColSum(embedded, segs, pooled);
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
MlpCostModel::predictInto(const SubgraphTask& task,
                          std::span<const Schedule> candidates,
                          Workspace& ws, double* out) const
{
    if (candidates.empty()) {
        return;
    }
    ws.reset();
    Matrix& feats = ws.alloc(0, kStatementFeatureDim);
    SegmentTable& segs = ws.allocSegments();
    extractStatementFeaturesBatch(task, candidates, device_, feats, segs);
    scoreBatch(feats, segs, ws, nullptr, out);
    obs::counterAdd(obs_counters_.infer_batches);
    obs::counterAdd(obs_counters_.infer_candidates, candidates.size());
    obs::counterAdd(obs_counters_.infer_pack_rows, feats.rows());
    obs::counterAdd(obs_counters_.infer_segments, segs.count());
    obs::counterAdd(obs_counters_.infer_alias_segments, segs.aliasCount());
}

std::vector<double>
MlpCostModel::predict(const SubgraphTask& task,
                      std::span<const Schedule> candidates) const
{
    std::vector<double> scores(candidates.size());
    predictInto(task, candidates, threadLocalWorkspace(), scores.data());
    return scores;
}

std::vector<double>
MlpCostModel::predictReference(const SubgraphTask& task,
                               std::span<const Schedule> candidates) const
{
    std::vector<double> scores;
    scores.reserve(candidates.size());
    for (const auto& sch : candidates) {
        scores.push_back(scoreOne(task, sch));
    }
    return scores;
}

MlpCostModel::Memo
MlpCostModel::memoize(const std::vector<MeasuredRecord>& records) const
{
    Memo memo{Matrix(0, kStatementFeatureDim), {}};
    SymbolSet sym;
    for (const auto& rec : records) {
        extractSymbolsInto(rec.task, rec.sch, sym);
        const size_t row0 = memo.feats.rows();
        memo.feats.resize(row0 + sym.statements.size(),
                          kStatementFeatureDim);
        writeStatementFeatureRows(sym, rec.task, rec.sch, device_,
                                  memo.feats, row0);
        memo.segs.append(sym.statements.size());
    }
    return memo;
}

void
MlpCostModel::scoreSubset(const Memo& memo,
                          const std::vector<size_t>& subset, Workspace& ws,
                          TrainCaches* caches, double* out) const
{
    ws.reset();
    Matrix& feats = ws.alloc(0, kStatementFeatureDim);
    SegmentTable& segs = ws.allocSegments();
    for (size_t idx : subset) {
        feats.appendRows(memo.feats, memo.segs.begin(idx),
                         memo.segs.rows(idx));
        segs.append(memo.segs.rows(idx));
    }
    scoreBatch(feats, segs, ws, caches, out);
}

void
MlpCostModel::fitReference(const Memo& memo, size_t idx, double dscore)
{
    const Matrix embedded = embed_.forward(
        memo.feats.sliceRows(memo.segs.begin(idx), memo.segs.rows(idx)));
    const Matrix pooled = embedded.colSum();
    head_.forward(pooled);
    Matrix dy(1, 1);
    dy.at(0, 0) = dscore;
    const Matrix dpooled = head_.backward(dy);
    // Sum-pooling backward: broadcast to every statement row.
    Matrix dembedded(embedded.rows(), embedded.cols());
    for (size_t r = 0; r < dembedded.rows(); ++r) {
        for (size_t c = 0; c < dembedded.cols(); ++c) {
            dembedded.at(r, c) = dpooled.at(0, c);
        }
    }
    embed_.backward(dembedded);
}

void
MlpCostModel::fitBatch(const std::vector<double>& dscores, Workspace& ws,
                       const TrainCaches& caches)
{
    const size_t n = dscores.size();
    if (n == 0) {
        return;
    }
    const SegmentTable& segs = *caches.segs;
    PRUNER_CHECK(segs.count() == n);
    // Backward from the scoring pass's activations: one segment-aware
    // pass per module, in the per-record module order (head, then embed).
    Matrix& dy = ws.alloc(n, 1);
    SegmentTable& unit = ws.allocSegments();
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
        unit.append(1); // the head sees one pooled row per record
    }
    Matrix* dpooled = head_.backwardBatch(dy, caches.head_acts, unit, ws,
                                          /*need_dx=*/true);
    Matrix& dembedded = ws.alloc(segs.totalRows(), kHidden);
    segmentBroadcast(*dpooled, 0, kHidden, segs, dembedded, /*mean=*/false);
    embed_.backwardBatch(dembedded, caches.embed_acts, segs, ws,
                         /*need_dx=*/false);
}

double
MlpCostModel::train(const std::vector<MeasuredRecord>& records, int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    const Memo memo = memoize(records);
    Workspace ws;
    TrainCaches caches;
    // The loop scores and fits in pairs per group: scoring runs the
    // caching forward, the fit reuses its activations — the workspace
    // resets only at the next group's scoring pass.
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
MlpCostModel::trainReference(const std::vector<MeasuredRecord>& records,
                             int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    const Memo memo = memoize(records);
    Workspace ws;
    return trainRankingLoopReference(
        records, epochs, paramRefs(), rng_,
        [&](const std::vector<size_t>& subset, double* out) {
            scoreSubset(memo, subset, ws, nullptr, out);
        },
        [&](size_t idx, double dscore) { fitReference(memo, idx, dscore); });
}

double
MlpCostModel::evalCostPerCandidate() const
{
    return CostConstants::defaults().mlp_eval_per_candidate;
}

double
MlpCostModel::trainCostPerRound() const
{
    return CostConstants::defaults().mlp_train_per_round;
}

std::vector<ParamRef>
MlpCostModel::paramRefs()
{
    std::vector<ParamRef> params;
    embed_.collectParams(params);
    head_.collectParams(params);
    return params;
}

std::vector<double>
MlpCostModel::getParams()
{
    return flattenParams(paramRefs());
}

void
MlpCostModel::setParams(const std::vector<double>& flat)
{
    unflattenParams(paramRefs(), flat);
}

std::unique_ptr<CostModel>
MlpCostModel::clone() const
{
    return std::make_unique<MlpCostModel>(*this);
}

} // namespace pruner
