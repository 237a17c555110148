#include "cost/cost_model.hpp"

#include <algorithm>
#include <unordered_map>

#include "feature/dataflow_features.hpp"
#include "feature/primitive_features.hpp"
#include "feature/statement_features.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {

constexpr size_t kHidden = 64;

// The training settings both trainers share (see train()).
constexpr double kLearningRate = 1e-3;
constexpr double kMaxGradNorm = 5.0;
constexpr size_t kGroupCap = 48;

/** Step sequences attend over their steps and mean-pool; statement sets
 *  sum-pool. */
bool
isSequence(FeatureKind kind)
{
    return kind != FeatureKind::Statement;
}

size_t
featureDim(FeatureKind kind)
{
    switch (kind) {
    case FeatureKind::Statement:
        return kStatementFeatureDim;
    case FeatureKind::Dataflow:
        return kDataflowFeatureDim;
    case FeatureKind::Primitive:
        return kPrimitiveFeatureDim;
    }
    PRUNER_CHECK_MSG(false, "unknown feature kind");
    return 0;
}

/** One candidate's @p kind rows through the single-candidate extractor. */
Matrix
extractFeatures(FeatureKind kind, const SubgraphTask& task,
                const Schedule& sch, const DeviceSpec& device)
{
    switch (kind) {
    case FeatureKind::Statement:
        return extractStatementFeatures(task, sch, device);
    case FeatureKind::Dataflow:
        return extractDataflowFeatures(task, sch, device);
    case FeatureKind::Primitive:
        return extractPrimitiveFeatures(task, sch);
    }
    PRUNER_CHECK_MSG(false, "unknown feature kind");
    return {};
}

/** Append one candidate's @p kind rows (statement and dataflow rows from
 *  its already-extracted symbols) to @p rows as the next segment of
 *  @p segs, padding included and never aliased. */
void
appendRows(FeatureKind kind, const SymbolSet& sym, const SubgraphTask& task,
           const Schedule& sch, const DeviceSpec& device, Matrix& rows,
           SegmentTable& segs)
{
    static thread_local std::vector<SchedulePrimitive> primitives;
    switch (kind) {
    case FeatureKind::Statement:
        appendStatementRows(sym, task, sch, device, rows, segs);
        return;
    case FeatureKind::Dataflow:
        appendDataflowRows(sym, task, sch, device, rows, segs);
        return;
    case FeatureKind::Primitive:
        appendPrimitiveRows(task, sch, rows, segs, primitives);
        return;
    }
    PRUNER_CHECK_MSG(false, "unknown feature kind");
}

/** Copy one branch's pooled [n, kHidden] rows into columns
 *  [col0, col0 + kHidden) of the head input. */
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

/** Group record indices by task hash (stable order of first appearance). */
std::vector<std::vector<size_t>>
groupByTask(const std::vector<MeasuredRecord>& records)
{
    std::unordered_map<uint64_t, size_t> index_of;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < records.size(); ++i) {
        const uint64_t key = records[i].task.hash();
        auto [it, inserted] = index_of.try_emplace(key, groups.size());
        if (inserted) {
            groups.emplace_back();
        }
        groups[it->second].push_back(i);
    }
    return groups;
}

/** One optimizer step from the group's accumulated gradients. */
void
stepAndZero(Adam& adam)
{
    adam.clipGradNorm(kMaxGradNorm);
    adam.step();
    adam.zeroGrad();
}

} // namespace

struct CostModel::Batch
{
    /** One branch's share: a workspace-owned pack and segment table (one
     *  segment per candidate), the dataflow dedup scratch of inference,
     *  and the activations a recording forward keeps. */
    struct Pack
    {
        Matrix* rows = nullptr;
        SegmentTable* segs = nullptr;
        DataflowBlockIndex seen;
        /// Logical -> pack row (padding-row elision); empty: identity.
        DataflowRowMap map;
        BatchActs embed_acts;
        AttentionBatchCache attn;
    };
    std::vector<Pack> packs; ///< indexed by branch; may hold spares
    BatchActs head_acts;
};

struct CostModel::Memo
{
    /** Record i owns rows [segs.begin(i), +segs.rows(i)), its last row
     *  repeated segs.repeats(i) times (a dataflow segment's padding);
     *  empty for a disabled branch. */
    struct Rows
    {
        Matrix rows;
        SegmentTable segs;

        /** Record @p idx's logical rows, repeats expanded. */
        Matrix expanded(size_t idx) const
        {
            const size_t b = segs.begin(idx);
            const size_t n = segs.rows(idx);
            Matrix out(segs.logicalRows(idx), rows.cols());
            for (size_t r = 0; r < out.rows(); ++r) {
                std::copy_n(rows.row(b + std::min(r, n - 1)), rows.cols(),
                            out.row(r));
            }
            return out;
        }
    };
    std::vector<Rows> branches;
};

CostModel::CostModel(std::string name, const DeviceSpec& device,
                     uint64_t seed, const std::vector<BranchSpec>& branches,
                     double eval_cost, double train_cost)
    : name_(std::move(name)), device_(device), rng_(seed),
      eval_cost_(eval_cost), train_cost_(train_cost)
{
    PRUNER_CHECK_MSG(std::any_of(branches.begin(), branches.end(),
                                 [](const BranchSpec& b) {
                                     return b.enabled;
                                 }),
                     name_ << " needs at least one feature branch");
    // Weights initialise per branch (embed, then attention), head last:
    // the RNG stream and paramRefs() both follow this order.
    for (const BranchSpec& spec : branches) {
        PRUNER_CHECK(spec.depth >= 1);
        std::vector<size_t> dims(spec.depth + 1, kHidden);
        dims[0] = featureDim(spec.kind);
        Branch branch{spec, Mlp(dims, rng_), {}};
        if (isSequence(spec.kind)) {
            branch.attn = SelfAttention(kHidden, rng_);
        }
        branches_.push_back(std::move(branch));
    }
    head_ = Mlp({kHidden * branches_.size(), kHidden, 1}, rng_);
}

void
CostModel::bindMetrics(obs::MetricsRegistry* metrics)
{
    if (metrics == nullptr) {
        obs_counters_ = {};
        return;
    }
    obs_counters_.infer_batches = metrics->counter("model_infer_batches_total");
    obs_counters_.infer_candidates =
        metrics->counter("model_infer_candidates_total");
    obs_counters_.infer_pack_rows =
        metrics->counter("model_infer_pack_rows_total");
    obs_counters_.infer_segments =
        metrics->counter("model_infer_segments_total");
    obs_counters_.infer_alias_segments =
        metrics->counter("model_infer_alias_segments_total");
    obs_counters_.train_groups = metrics->counter("model_train_groups_total");
    obs_counters_.train_records =
        metrics->counter("model_train_records_total");
    obs_counters_.train_epochs = metrics->counter("model_train_epochs_total");
}

void
CostModel::beginBatch(Batch& batch, Workspace& ws) const
{
    ws.reset();
    // Grow only: a thread alternating between models keeps its spares'
    // capacity instead of reallocating it.
    if (batch.packs.size() < branches_.size()) {
        batch.packs.resize(branches_.size());
    }
    for (size_t b = 0; b < branches_.size(); ++b) {
        Batch::Pack& pack = batch.packs[b];
        pack.rows = &ws.alloc(0, featureDim(branches_[b].spec.kind));
        pack.segs = &ws.allocSegments();
        pack.seen.clear();
        pack.map.clear();
    }
}

bool
CostModel::needsSymbols() const
{
    return std::any_of(branches_.begin(), branches_.end(),
                       [](const Branch& b) {
                           return b.spec.enabled &&
                                  b.spec.kind != FeatureKind::Primitive;
                       });
}

double
CostModel::scoreOne(const SubgraphTask& task, const Schedule& sch) const
{
    Matrix fused(1, kHidden * branches_.size());
    for (size_t b = 0; b < branches_.size(); ++b) {
        const Branch& branch = branches_[b];
        if (!branch.spec.enabled) {
            continue;
        }
        Matrix h = branch.embed.inferReference(
            extractFeatures(branch.spec.kind, task, sch, device_));
        if (isSequence(branch.spec.kind)) {
            h = branch.attn.inferReference(h);
            placeBranch(h.colMean(), b * kHidden, fused);
        } else {
            placeBranch(h.colSum(), b * kHidden, fused);
        }
    }
    return head_.inferReference(fused).at(0, 0);
}

void
CostModel::scoreBatch(Batch& batch, size_t n, Workspace& ws, bool record,
                      double* out) const
{
    // Each branch fills its own columns of the head input; a disabled one
    // leaves its zeros.
    Matrix& fused = ws.allocZero(n, kHidden * branches_.size());
    for (size_t b = 0; b < branches_.size(); ++b) {
        const Branch& branch = branches_[b];
        if (!branch.spec.enabled) {
            continue;
        }
        Batch::Pack& pack = batch.packs[b];
        PRUNER_CHECK(pack.segs->count() == n);
        const Matrix* h = &branch.embed.forwardBatch(
            *pack.rows, ws, record ? &pack.embed_acts : nullptr);
        const bool sequence = isSequence(branch.spec.kind);
        if (sequence) {
            h = &branch.attn.forwardBatch(*h, *pack.segs, ws,
                                          record ? &pack.attn : nullptr,
                                          pack.map);
        }
        Matrix& pooled = ws.alloc(n, kHidden);
        if (sequence) {
            segmentColMean(*h, *pack.segs, pooled);
        } else {
            segmentColSum(*h, *pack.segs, pooled);
        }
        placeBranch(pooled, b * kHidden, fused);
    }
    const Matrix& scores = head_.forwardBatch(
        fused, ws, record ? &batch.head_acts : nullptr);
    for (size_t i = 0; i < n; ++i) {
        out[i] = scores.at(i, 0);
    }
}

void
CostModel::predictInto(const SubgraphTask& task,
                       std::span<const Schedule> candidates, Workspace& ws,
                       double* out) const
{
    if (candidates.empty()) {
        return;
    }
    static thread_local Batch batch;
    static thread_local SymbolSet sym;
    beginBatch(batch, ws);
    // One symbol extraction feeds every branch (scoreOne pays it per
    // branch). The dataflow pack holds each distinct block's emitted
    // steps once plus one shared pad row (appendDataflowBlock): duplicate
    // blocks alias, and every padding row maps to the pad row, so the
    // embedding and Q/K/V GEMMs run over distinct rows only. Identical
    // input rows produce identical output rows, so not a single output
    // byte moves.
    const bool symbols = needsSymbols();
    for (const Schedule& sch : candidates) {
        if (symbols) {
            extractSymbolsInto(task, sch, sym);
        }
        for (size_t b = 0; b < branches_.size(); ++b) {
            const BranchSpec& spec = branches_[b].spec;
            if (!spec.enabled) {
                continue;
            }
            Batch::Pack& pack = batch.packs[b];
            if (spec.kind == FeatureKind::Dataflow) {
                appendDataflowBlock(sym, task, sch, device_, *pack.rows,
                                    *pack.segs, pack.seen, &pack.map);
            } else {
                appendRows(spec.kind, sym, task, sch, device_, *pack.rows,
                           *pack.segs);
            }
        }
    }
    scoreBatch(batch, candidates.size(), ws, /*record=*/false, out);
    size_t rows = 0;
    size_t segments = 0;
    size_t aliases = 0;
    for (size_t b = 0; b < branches_.size(); ++b) {
        const SegmentTable& segs = *batch.packs[b].segs;
        rows += segs.totalRows();
        segments += segs.count();
        aliases += segs.aliasCount();
    }
    obs::counterAdd(obs_counters_.infer_batches);
    obs::counterAdd(obs_counters_.infer_candidates, candidates.size());
    obs::counterAdd(obs_counters_.infer_pack_rows, rows);
    obs::counterAdd(obs_counters_.infer_segments, segments);
    obs::counterAdd(obs_counters_.infer_alias_segments, aliases);
}

std::vector<double>
CostModel::predict(const SubgraphTask& task,
                   std::span<const Schedule> candidates) const
{
    std::vector<double> scores(candidates.size());
    predictInto(task, candidates, threadLocalWorkspace(), scores.data());
    return scores;
}

std::vector<double>
CostModel::predictReference(const SubgraphTask& task,
                            std::span<const Schedule> candidates) const
{
    std::vector<double> scores;
    scores.reserve(candidates.size());
    for (const auto& sch : candidates) {
        scores.push_back(scoreOne(task, sch));
    }
    return scores;
}

CostModel::Memo
CostModel::memoize(const std::vector<MeasuredRecord>& records) const
{
    Memo memo;
    for (const Branch& branch : branches_) {
        memo.branches.push_back({Matrix(0, featureDim(branch.spec.kind)), {}});
    }
    const bool symbols = needsSymbols();
    SymbolSet sym;
    for (const auto& rec : records) {
        if (symbols) {
            extractSymbolsInto(rec.task, rec.sch, sym);
        }
        for (size_t b = 0; b < branches_.size(); ++b) {
            if (branches_[b].spec.enabled) {
                appendRows(branches_[b].spec.kind, sym, rec.task, rec.sch,
                           device_, memo.branches[b].rows,
                           memo.branches[b].segs);
            }
        }
    }
    return memo;
}

void
CostModel::scoreSubset(const Memo& memo, const std::vector<size_t>& subset,
                       Workspace& ws, Batch& batch, bool record,
                       double* out) const
{
    beginBatch(batch, ws);
    for (size_t idx : subset) {
        for (size_t b = 0; b < branches_.size(); ++b) {
            if (!branches_[b].spec.enabled) {
                continue;
            }
            const Memo::Rows& from = memo.branches[b];
            Batch::Pack& pack = batch.packs[b];
            pack.rows->appendRows(from.rows, from.segs.begin(idx),
                                  from.segs.rows(idx));
            pack.segs->append(from.segs.rows(idx), from.segs.repeats(idx));
        }
    }
    scoreBatch(batch, subset.size(), ws, record, out);
}

void
CostModel::fitReference(const Memo& memo, size_t idx, double dscore)
{
    Matrix fused(1, kHidden * branches_.size());
    for (size_t b = 0; b < branches_.size(); ++b) {
        Branch& branch = branches_[b];
        if (!branch.spec.enabled) {
            continue;
        }
        // The per-record oracle runs the expanded rows, padding included.
        Matrix h = branch.embed.forward(memo.branches[b].expanded(idx));
        if (isSequence(branch.spec.kind)) {
            h = branch.attn.forward(h);
            placeBranch(h.colMean(), b * kHidden, fused);
        } else {
            placeBranch(h.colSum(), b * kHidden, fused);
        }
    }
    head_.forward(fused);

    Matrix dy(1, 1);
    dy.at(0, 0) = dscore;
    const Matrix dfused = head_.backward(dy);
    for (size_t b = 0; b < branches_.size(); ++b) {
        Branch& branch = branches_[b];
        if (!branch.spec.enabled) {
            continue;
        }
        // Pooling backward: a sum broadcasts the pooled gradient to every
        // row, a mean distributes 1/T of it.
        const bool mean = isSequence(branch.spec.kind);
        const size_t steps = memo.branches[b].segs.logicalRows(idx);
        const double inv_t = 1.0 / static_cast<double>(steps);
        Matrix dh(steps, kHidden);
        for (size_t r = 0; r < steps; ++r) {
            for (size_t c = 0; c < kHidden; ++c) {
                const double g = dfused.at(0, b * kHidden + c);
                dh.at(r, c) = mean ? g * inv_t : g;
            }
        }
        if (mean) {
            dh = branch.attn.backward(dh);
        }
        branch.embed.backward(dh);
    }
}

void
CostModel::fitBatch(const std::vector<double>& dscores, Workspace& ws,
                    const Batch& batch)
{
    const size_t n = dscores.size();
    if (n == 0) {
        return;
    }
    // Backward from the scoring pass's activations, in the per-record
    // module order: the head, then each branch (attention before embed).
    Matrix& dy = ws.alloc(n, 1);
    SegmentTable& unit = ws.allocSegments();
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
        unit.append(1); // the head sees one fused row per record
    }
    Matrix* dfused = head_.backwardBatch(dy, batch.head_acts, unit, ws,
                                         /*need_dx=*/true);
    for (size_t b = 0; b < branches_.size(); ++b) {
        Branch& branch = branches_[b];
        if (!branch.spec.enabled) {
            continue;
        }
        const Batch::Pack& pack = batch.packs[b];
        const SegmentTable& segs = *pack.segs;
        PRUNER_CHECK(segs.count() == n);
        const bool mean = isSequence(branch.spec.kind);
        Matrix* dh = &ws.alloc(segs.totalRows(), kHidden);
        segmentBroadcast(*dfused, b * kHidden, kHidden, segs, *dh, mean);
        if (mean) {
            dh = branch.attn.backwardBatch(*dh, pack.attn, segs, ws,
                                           /*need_dx=*/true);
        }
        branch.embed.backwardBatch(*dh, pack.embed_acts, segs, ws,
                                   /*need_dx=*/false);
    }
}

double
CostModel::train(const std::vector<MeasuredRecord>& records, int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    const Memo memo = memoize(records);
    Adam adam(paramRefs(), kLearningRate);
    adam.zeroGrad();
    auto groups = groupByTask(records);
    Workspace ws;
    Batch batch;
    // Loop-level buffers, reused across groups and epochs.
    std::vector<size_t> subset;
    std::vector<double> scores, latencies;
    LossResult loss;
    LossScratch scratch;
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng_.shuffle(groups);
        double epoch_loss = 0.0;
        size_t batches = 0;
        for (auto& group : groups) {
            if (group.size() < 2) {
                continue;
            }
            rng_.shuffle(group);
            subset.assign(group.begin(),
                          group.begin() + std::min(group.size(), kGroupCap));
            scores.resize(subset.size());
            // The recording forward; the fit reuses its activations (the
            // workspace resets only at the next group's scoring pass).
            scoreSubset(memo, subset, ws, batch, /*record=*/true,
                        scores.data());
            latencies.clear();
            for (size_t idx : subset) {
                latencies.push_back(records[idx].latency);
            }
            lambdaRankLossInto(scores, latencies, /*sigma=*/1.0, loss,
                               scratch);
            fitBatch(loss.grad, ws, batch);
            stepAndZero(adam);
            epoch_loss += loss.loss;
            ++batches;
            obs::counterAdd(obs_counters_.train_groups);
            obs::counterAdd(obs_counters_.train_records, subset.size());
        }
        last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
        obs::counterAdd(obs_counters_.train_epochs);
    }
    return last_epoch_loss;
}

double
CostModel::trainReference(const std::vector<MeasuredRecord>& records,
                          int epochs)
{
    if (records.size() < 2) {
        return 0.0;
    }
    const Memo memo = memoize(records);
    Adam adam(paramRefs(), kLearningRate);
    adam.zeroGrad();
    auto groups = groupByTask(records);
    Workspace ws;
    Batch batch;
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng_.shuffle(groups);
        double epoch_loss = 0.0;
        size_t batches = 0;
        for (auto& group : groups) {
            if (group.size() < 2) {
                continue;
            }
            rng_.shuffle(group);
            std::vector<size_t> subset(
                group.begin(),
                group.begin() + std::min(group.size(), kGroupCap));
            std::vector<double> scores(subset.size());
            scoreSubset(memo, subset, ws, batch, /*record=*/false,
                        scores.data());
            std::vector<double> latencies;
            latencies.reserve(subset.size());
            for (size_t idx : subset) {
                latencies.push_back(records[idx].latency);
            }
            const LossResult loss = lambdaRankLoss(scores, latencies);
            for (size_t i = 0; i < subset.size(); ++i) {
                if (loss.grad[i] != 0.0) {
                    fitReference(memo, subset[i], loss.grad[i]);
                }
            }
            stepAndZero(adam);
            epoch_loss += loss.loss;
            ++batches;
        }
        last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
    }
    return last_epoch_loss;
}

std::vector<ParamRef>
CostModel::paramRefs()
{
    std::vector<ParamRef> params;
    for (Branch& branch : branches_) {
        branch.embed.collectParams(params);
        if (isSequence(branch.spec.kind)) {
            branch.attn.collectParams(params);
        }
    }
    head_.collectParams(params);
    return params;
}

std::vector<double>
CostModel::getParams()
{
    return flattenParams(paramRefs());
}

void
CostModel::setParams(const std::vector<double>& flat)
{
    unflattenParams(paramRefs(), flat);
}

std::unique_ptr<CostModel>
CostModel::clone() const
{
    return std::make_unique<CostModel>(*this);
}

} // namespace pruner
