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
MlpCostModel::forwardBatch(const Matrix& feats, const SegmentTable& segs,
                           Workspace& ws, double* out) const
{
    const Matrix& embedded = embed_.inferBatch(feats, ws);
    Matrix& pooled = ws.alloc(segs.count(), kHidden);
    segmentColSum(embedded, segs, pooled);
    const Matrix& scores = head_.inferBatch(pooled, ws);
    for (size_t i = 0; i < segs.count(); ++i) {
        out[i] = scores.at(i, 0);
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
    forwardBatch(feats, segs, ws, out);
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

void
MlpCostModel::fitReference(const Matrix& feats, double dscore)
{
    const Matrix embedded = embed_.forward(feats);
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
MlpCostModel::scoreBatch(const Matrix& feats, const SegmentTable& segs,
                         Workspace& ws, TrainCaches& caches, double* out)
{
    const size_t n = segs.count();
    const Matrix& embedded = embed_.forwardBatch(feats, ws,
                                                 caches.embed_acts);
    Matrix& pooled = ws.alloc(n, kHidden);
    segmentColSum(embedded, segs, pooled);
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
MlpCostModel::fitBatch(const std::vector<double>& dscores, Workspace& ws,
                       TrainCaches& caches)
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
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
    }
    Matrix* dpooled = head_.backwardBatch(dy, caches.head_acts,
                                          *caches.unit, ws,
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
    std::vector<ParamRef> params = paramRefs();
    Adam adam(params, 1e-3);
    adam.zeroGrad();

    // Per-record feature memo: extract once, gather per epoch. The scores
    // (and so the whole training trajectory) are byte-identical to
    // re-extracting and scoring one record at a time.
    Matrix memo(0, kStatementFeatureDim);
    SegmentTable memo_segs;
    {
        SymbolSet sym;
        for (const auto& rec : records) {
            extractSymbolsInto(rec.task, rec.sch, sym);
            const size_t row0 = memo.rows();
            memo.resize(row0 + sym.statements.size(), kStatementFeatureDim);
            writeStatementFeatureRows(sym, rec.task, rec.sch, device_, memo,
                                      row0);
            memo_segs.append(sym.statements.size());
        }
    }
    Workspace ws;
    TrainCaches caches;

    // The loop calls infer_scores/fit_batch in pairs per group: scoring
    // runs the caching forward, the fit reuses its activations — the
    // workspace resets only at the next group's scoring pass.
    auto infer_scores = [&](const std::vector<size_t>& subset,
                            std::vector<double>& out) {
        ws.reset();
        Matrix& feats = ws.alloc(0, kStatementFeatureDim);
        SegmentTable& segs = ws.allocSegments();
        for (size_t idx : subset) {
            feats.appendRows(memo, memo_segs.begin(idx),
                             memo_segs.rows(idx));
            segs.append(memo_segs.rows(idx));
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
MlpCostModel::trainReference(const std::vector<MeasuredRecord>& records,
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
    Matrix memo(0, kStatementFeatureDim);
    SegmentTable memo_segs;
    {
        SymbolSet sym;
        for (const auto& rec : records) {
            extractSymbolsInto(rec.task, rec.sch, sym);
            const size_t row0 = memo.rows();
            memo.resize(row0 + sym.statements.size(), kStatementFeatureDim);
            writeStatementFeatureRows(sym, rec.task, rec.sch, device_, memo,
                                      row0);
            memo_segs.append(sym.statements.size());
        }
    }
    Workspace ws;

    auto infer_scores = [&](const std::vector<size_t>& subset) {
        ws.reset();
        Matrix& feats = ws.alloc(0, kStatementFeatureDim);
        SegmentTable& segs = ws.allocSegments();
        for (size_t idx : subset) {
            feats.appendRows(memo, memo_segs.begin(idx),
                             memo_segs.rows(idx));
            segs.append(memo_segs.rows(idx));
        }
        std::vector<double> scores(subset.size());
        forwardBatch(feats, segs, ws, scores.data());
        return scores;
    };
    auto fit_one = [&](size_t idx, double dscore) {
        fitReference(
            memo.sliceRows(memo_segs.begin(idx), memo_segs.rows(idx)),
            dscore);
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
