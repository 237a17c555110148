#include "cost/pacm_model.hpp"

#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "support/logging.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

namespace {
constexpr size_t kHidden = 64;

/** Copy one branch's pooled [n, kHidden] rows into columns
 *  [col0, col0 + kHidden) of the fused head input. */
void
placeBranch(const Matrix& pooled, size_t col0, Matrix& fused)
{
    for (size_t i = 0; i < pooled.rows(); ++i) {
        const double* p = pooled.row(i);
        double* f = fused.row(i) + col0;
        for (size_t c = 0; c < kHidden; ++c) {
            f[c] = p[c];
        }
    }
}
} // namespace

PaCMModel::PaCMModel(const DeviceSpec& device, uint64_t seed, PaCMConfig cfg)
    : device_(device), rng_(seed), cfg_(cfg)
{
    PRUNER_CHECK_MSG(cfg_.use_statement_features ||
                         cfg_.use_dataflow_features,
                     "PaCM needs at least one feature branch");
    stmt_embed_ = Mlp({kStatementFeatureDim, kHidden, kHidden, kHidden},
                      rng_);
    flow_embed_ = Mlp({kDataflowFeatureDim, kHidden, kHidden, kHidden},
                      rng_);
    attn_ = SelfAttention(kHidden, rng_);
    head_ = Mlp({2 * kHidden, kHidden, 1}, rng_);
}

double
PaCMModel::scoreOne(const SubgraphTask& task, const Schedule& sch) const
{
    Matrix fused(1, 2 * kHidden);
    if (cfg_.use_statement_features) {
        const Matrix stmt_feats =
            extractStatementFeatures(task, sch, device_);
        const Matrix pooled =
            stmt_embed_.inferReference(stmt_feats).colSum();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, c) = pooled.at(0, c);
        }
    }
    if (cfg_.use_dataflow_features) {
        const Matrix flow_feats =
            extractDataflowFeatures(task, sch, device_);
        const Matrix ctx =
            attn_.inferReference(flow_embed_.inferReference(flow_feats));
        const Matrix pooled = ctx.colMean();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, kHidden + c) = pooled.at(0, c);
        }
    }
    return head_.inferReference(fused).at(0, 0);
}

void
PaCMModel::scoreBatch(const Matrix& stmt_pack,
                      const SegmentTable& stmt_segs, const Matrix& flow_pack,
                      const SegmentTable& flow_segs,
                      std::span<const size_t> flow_map, size_t n,
                      Workspace& ws, TrainCaches* caches, double* out) const
{
    Matrix& fused = ws.allocZero(n, 2 * kHidden);
    if (cfg_.use_statement_features) {
        PRUNER_CHECK(stmt_segs.count() == n);
        const Matrix& embedded = stmt_embed_.forwardBatch(
            stmt_pack, ws, caches != nullptr ? &caches->stmt_acts : nullptr);
        Matrix& pooled = ws.alloc(n, kHidden);
        segmentColSum(embedded, stmt_segs, pooled);
        placeBranch(pooled, 0, fused);
    }
    if (cfg_.use_dataflow_features) {
        PRUNER_CHECK(flow_segs.count() == n);
        const Matrix& embedded = flow_embed_.forwardBatch(
            flow_pack, ws, caches != nullptr ? &caches->flow_acts : nullptr);
        const Matrix& ctx = attn_.forwardBatch(
            embedded, flow_segs, ws,
            caches != nullptr ? &caches->attn : nullptr, flow_map);
        Matrix& pooled = ws.alloc(n, kHidden);
        segmentColMean(ctx, flow_segs, pooled);
        placeBranch(pooled, kHidden, fused);
    }
    const Matrix& scores = head_.forwardBatch(
        fused, ws, caches != nullptr ? &caches->head_acts : nullptr);
    for (size_t i = 0; i < n; ++i) {
        out[i] = scores.at(i, 0);
    }
    if (caches != nullptr) {
        caches->stmt_segs = &stmt_segs;
        caches->flow_segs = &flow_segs;
    }
}

void
PaCMModel::predictInto(const SubgraphTask& task,
                       std::span<const Schedule> candidates, Workspace& ws,
                       double* out) const
{
    if (candidates.empty()) {
        return;
    }
    ws.reset();
    Matrix& stmt_pack = ws.alloc(0, kStatementFeatureDim);
    SegmentTable& stmt_segs = ws.allocSegments();
    Matrix& flow_pack = ws.alloc(0, kDataflowFeatureDim);
    SegmentTable& flow_segs = ws.allocSegments();

    // One symbol extraction feeds both branches (scoreOne pays it twice).
    // The dataflow pack holds each distinct block's emitted steps once
    // plus one shared pad row (appendDataflowBlock): duplicate blocks
    // alias, and every padding row maps to the pad row, so the embedding
    // and Q/K/V GEMMs run over distinct rows only. Identical input rows
    // produce identical output rows, so not a single output byte moves.
    static thread_local SymbolSet sym;
    static thread_local DataflowBlockIndex seen_blocks;
    static thread_local DataflowRowMap flow_map;
    seen_blocks.clear();
    flow_map.clear();
    for (const Schedule& sch : candidates) {
        extractSymbolsInto(task, sch, sym);
        if (cfg_.use_statement_features) {
            const size_t row0 = stmt_pack.rows();
            stmt_pack.resize(row0 + sym.statements.size(),
                             kStatementFeatureDim);
            writeStatementFeatureRows(sym, task, sch, device_, stmt_pack,
                                      row0);
            stmt_segs.append(sym.statements.size());
        }
        if (cfg_.use_dataflow_features) {
            appendDataflowBlock(sym, task, sch, device_, flow_pack,
                                flow_segs, seen_blocks, &flow_map);
        }
    }
    scoreBatch(stmt_pack, stmt_segs, flow_pack, flow_segs, flow_map,
               candidates.size(), ws, nullptr, out);
    obs::counterAdd(obs_counters_.infer_batches);
    obs::counterAdd(obs_counters_.infer_candidates, candidates.size());
    obs::counterAdd(obs_counters_.infer_pack_rows,
                    stmt_pack.rows() + flow_segs.totalRows());
    obs::counterAdd(obs_counters_.infer_segments,
                    stmt_segs.count() + flow_segs.count());
    obs::counterAdd(obs_counters_.infer_alias_segments,
                    flow_segs.aliasCount());
}

std::vector<double>
PaCMModel::predict(const SubgraphTask& task,
                   std::span<const Schedule> candidates) const
{
    std::vector<double> scores(candidates.size());
    predictInto(task, candidates, threadLocalWorkspace(), scores.data());
    return scores;
}

std::vector<double>
PaCMModel::predictReference(const SubgraphTask& task,
                            std::span<const Schedule> candidates) const
{
    std::vector<double> scores;
    scores.reserve(candidates.size());
    for (const auto& sch : candidates) {
        scores.push_back(scoreOne(task, sch));
    }
    return scores;
}

PaCMModel::Memo
PaCMModel::memoize(const std::vector<MeasuredRecord>& records) const
{
    Memo memo{Matrix(0, kStatementFeatureDim), {},
              Matrix(0, kDataflowFeatureDim)};
    SymbolSet sym;
    for (const auto& rec : records) {
        extractSymbolsInto(rec.task, rec.sch, sym);
        if (cfg_.use_statement_features) {
            const size_t row0 = memo.stmt.rows();
            memo.stmt.resize(row0 + sym.statements.size(),
                             kStatementFeatureDim);
            writeStatementFeatureRows(sym, rec.task, rec.sch, device_,
                                      memo.stmt, row0);
        }
        memo.stmt_segs.append(
            cfg_.use_statement_features ? sym.statements.size() : 0);
        if (cfg_.use_dataflow_features) {
            const size_t row0 = memo.flow.rows();
            memo.flow.resize(row0 + kDataflowSteps, kDataflowFeatureDim);
            writeDataflowFeatureRows(sym, rec.task, rec.sch, device_,
                                     memo.flow, row0);
        }
    }
    return memo;
}

void
PaCMModel::scoreSubset(const Memo& memo, const std::vector<size_t>& subset,
                       Workspace& ws, TrainCaches* caches,
                       double* out) const
{
    ws.reset();
    Matrix& stmt_pack = ws.alloc(0, kStatementFeatureDim);
    SegmentTable& stmt_segs = ws.allocSegments();
    Matrix& flow_pack = ws.alloc(0, kDataflowFeatureDim);
    SegmentTable& flow_segs = ws.allocSegments();
    for (size_t idx : subset) {
        if (cfg_.use_statement_features) {
            stmt_pack.appendRows(memo.stmt, memo.stmt_segs.begin(idx),
                                 memo.stmt_segs.rows(idx));
            stmt_segs.append(memo.stmt_segs.rows(idx));
        }
        if (cfg_.use_dataflow_features) {
            flow_pack.appendRows(memo.flow, idx * kDataflowSteps,
                                 kDataflowSteps);
            flow_segs.append(kDataflowSteps);
        }
    }
    scoreBatch(stmt_pack, stmt_segs, flow_pack, flow_segs, {},
               subset.size(), ws, caches, out);
}

void
PaCMModel::fitReference(const Memo& memo, size_t idx, double dscore)
{
    Matrix fused(1, 2 * kHidden);
    Matrix stmt_embedded;
    if (cfg_.use_statement_features) {
        stmt_embedded = stmt_embed_.forward(memo.stmt.sliceRows(
            memo.stmt_segs.begin(idx), memo.stmt_segs.rows(idx)));
        const Matrix pooled = stmt_embedded.colSum();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, c) = pooled.at(0, c);
        }
    }
    Matrix flow_ctx;
    if (cfg_.use_dataflow_features) {
        flow_ctx = attn_.forward(flow_embed_.forward(
            memo.flow.sliceRows(idx * kDataflowSteps, kDataflowSteps)));
        const Matrix pooled = flow_ctx.colMean();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, kHidden + c) = pooled.at(0, c);
        }
    }
    head_.forward(fused);

    Matrix dy(1, 1);
    dy.at(0, 0) = dscore;
    const Matrix dfused = head_.backward(dy);
    if (cfg_.use_statement_features) {
        Matrix dembedded(stmt_embedded.rows(), stmt_embedded.cols());
        for (size_t r = 0; r < dembedded.rows(); ++r) {
            for (size_t c = 0; c < kHidden; ++c) {
                dembedded.at(r, c) = dfused.at(0, c);
            }
        }
        stmt_embed_.backward(dembedded);
    }
    if (cfg_.use_dataflow_features) {
        // Mean-pool backward: distribute 1/T to every step row.
        Matrix dctx(flow_ctx.rows(), flow_ctx.cols());
        const double inv_t = 1.0 / static_cast<double>(flow_ctx.rows());
        for (size_t r = 0; r < dctx.rows(); ++r) {
            for (size_t c = 0; c < kHidden; ++c) {
                dctx.at(r, c) = dfused.at(0, kHidden + c) * inv_t;
            }
        }
        const Matrix dflow = attn_.backward(dctx);
        flow_embed_.backward(dflow);
    }
}

void
PaCMModel::fitBatch(const std::vector<double>& dscores, Workspace& ws,
                    const TrainCaches& caches)
{
    const size_t n = dscores.size();
    if (n == 0) {
        return;
    }
    // Backward from the scoring pass's activations, in the per-record
    // module order (head, statement branch, dataflow branch).
    Matrix& dy = ws.alloc(n, 1);
    SegmentTable& unit = ws.allocSegments();
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
        unit.append(1); // the head sees one fused row per record
    }
    Matrix* dfused = head_.backwardBatch(dy, caches.head_acts, unit, ws,
                                         /*need_dx=*/true);
    if (cfg_.use_statement_features) {
        const SegmentTable& stmt_segs = *caches.stmt_segs;
        PRUNER_CHECK(stmt_segs.count() == n);
        Matrix& dembedded = ws.alloc(stmt_segs.totalRows(), kHidden);
        segmentBroadcast(*dfused, 0, kHidden, stmt_segs, dembedded,
                         /*mean=*/false);
        stmt_embed_.backwardBatch(dembedded, caches.stmt_acts, stmt_segs,
                                  ws, /*need_dx=*/false);
    }
    if (cfg_.use_dataflow_features) {
        // Mean-pool backward: distribute 1/T to every step row.
        const SegmentTable& flow_segs = *caches.flow_segs;
        PRUNER_CHECK(flow_segs.count() == n);
        Matrix& dctx = ws.alloc(flow_segs.totalRows(), kHidden);
        segmentBroadcast(*dfused, kHidden, kHidden, flow_segs, dctx,
                         /*mean=*/true);
        Matrix* dflow = attn_.backwardBatch(dctx, caches.attn, flow_segs,
                                            ws, /*need_dx=*/true);
        flow_embed_.backwardBatch(*dflow, caches.flow_acts, flow_segs, ws,
                                  /*need_dx=*/false);
    }
}

double
PaCMModel::train(const std::vector<MeasuredRecord>& records, int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    const Memo memo = memoize(records);
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
PaCMModel::trainReference(const std::vector<MeasuredRecord>& records,
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
PaCMModel::evalCostPerCandidate() const
{
    return CostConstants::defaults().pacm_eval_per_candidate;
}

double
PaCMModel::trainCostPerRound() const
{
    return CostConstants::defaults().pacm_train_per_round;
}

std::vector<ParamRef>
PaCMModel::paramRefs()
{
    std::vector<ParamRef> params;
    stmt_embed_.collectParams(params);
    flow_embed_.collectParams(params);
    attn_.collectParams(params);
    head_.collectParams(params);
    return params;
}

std::vector<double>
PaCMModel::getParams()
{
    return flattenParams(paramRefs());
}

void
PaCMModel::setParams(const std::vector<double>& flat)
{
    unflattenParams(paramRefs(), flat);
}

std::unique_ptr<CostModel>
PaCMModel::clone() const
{
    return std::make_unique<PaCMModel>(*this);
}

} // namespace pruner
