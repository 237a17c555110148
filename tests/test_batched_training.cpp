/**
 * Tests for the batched segment-aware training engine:
 *  - after any train() call, batched weights are byte-identical to
 *    trainReference() for every learned model (PaCM incl. ablations,
 *    TenSetMLP, TLP) at 1 / 48 / 512 records, and post-train predictions
 *    agree bitwise with the per-candidate reference scoring,
 *  - from a fresh model, both loops reach loss bits and weight hashes
 *    frozen as constants, for the same five models, and both scoring
 *    paths give frozen score hashes on a fixed probe before and after,
 *  - the nn-level backwardBatch passes (Mlp, SelfAttention) accumulate
 *    bitwise the same parameter gradients as the per-record
 *    forward()+backward() loop, at any segment shape, and reject aliased
 *    (inference-only) segment tables,
 *  - the steady-state batched backward performs zero heap allocations
 *    (asserted through a counting replacement of the global allocator),
 *  - AsyncModelTrainer routed through the batched trainer stays provably
 *    identical to synchronous training at 1 and 4 pool workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "cost/async_trainer.hpp"
#include "cost/mlp_cost_model.hpp"
#include "cost/pacm_model.hpp"
#include "cost/tlp_cost_model.hpp"
#include "feature/dataflow_features.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "replay/session_log.hpp"
#include "sched/sampler.hpp"
#include "sim/gpu_simulator.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

// ---------------------------------------------------------------------------
// Counting-allocator test hook (same pattern as test_batched_inference):
// replacing global operator new/delete in the test binary covers every heap
// path, so "zero steady-state allocations" is asserted against the real
// allocator, not a proxy.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_alloc_events{0};

void*
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_events.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace pruner {
namespace {

/** Records spread over several tasks so the loop sees many LambdaRank
 *  groups per epoch (one group per task). */
std::vector<MeasuredRecord>
makeRecords(size_t n, size_t n_tasks, uint64_t seed)
{
    const DeviceSpec dev = DeviceSpec::a100();
    const GpuSimulator sim(dev);
    std::vector<SubgraphTask> tasks;
    for (size_t t = 0; t < n_tasks; ++t) {
        tasks.push_back(makeGemm("bt" + std::to_string(t), 1,
                                 128 << (t % 3), 128, 128));
    }
    Rng rng(seed);
    std::vector<MeasuredRecord> records;
    size_t t = 0;
    while (records.size() < n) {
        const SubgraphTask& task = tasks[t++ % tasks.size()];
        ScheduleSampler sampler(task, dev);
        const Schedule sch = sampler.sample(rng);
        const double lat = sim.measure(task, sch, rng);
        if (std::isfinite(lat)) {
            records.push_back({task, sch, lat});
        }
    }
    return records;
}

bool
bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/** Batched train() == frozen trainReference(): byte-identical weights and
 *  loss at every batch size, and post-train predictions identical to the
 *  per-candidate reference scoring. */
template <typename Model, typename... Args>
void
expectTrainingIdentity(const Args&... args)
{
    for (const size_t n : {size_t{1}, size_t{48}, size_t{512}}) {
        const auto records = makeRecords(n, /*n_tasks=*/8, /*seed=*/n + 7);
        Model batched(args...);
        Model reference(args...);
        const double batched_loss = batched.train(records, 3);
        const double reference_loss = reference.trainReference(records, 3);
        EXPECT_EQ(batched_loss, reference_loss)
            << batched.name() << " loss diverged at " << n << " records";
        EXPECT_TRUE(bitwiseEqual(batched.getParams(),
                                 reference.getParams()))
            << batched.name() << " weights diverged at " << n << " records";
        // Post-train predictions: batched engine vs per-candidate loop.
        const auto& task = records.front().task;
        // The sampler keeps the device's address: it must outlive it.
        const DeviceSpec device = DeviceSpec::a100();
        ScheduleSampler sampler(task, device);
        Rng rng(n + 11);
        const auto cands = sampler.sampleMany(rng, 32);
        EXPECT_TRUE(bitwiseEqual(batched.predict(task, cands),
                                 reference.predictReference(task, cands)))
            << batched.name() << " post-train predictions diverged at " << n
            << " records";
    }
}

TEST(TrainingIdentity, PaCMBatchedMatchesReference)
{
    expectTrainingIdentity<PaCMModel>(DeviceSpec::a100(), 3);
}

TEST(TrainingIdentity, AblatedPaCMBranchesMatchReference)
{
    expectTrainingIdentity<PaCMModel>(
        DeviceSpec::a100(), 5, PaCMConfig{.use_statement_features = false});
    expectTrainingIdentity<PaCMModel>(
        DeviceSpec::a100(), 7, PaCMConfig{.use_dataflow_features = false});
}

TEST(TrainingIdentity, TenSetMlpBatchedMatchesReference)
{
    expectTrainingIdentity<MlpCostModel>(DeviceSpec::a100(), 9);
}

TEST(TrainingIdentity, TlpBatchedMatchesReference)
{
    expectTrainingIdentity<TlpCostModel>(DeviceSpec::a100(), 11);
}

/** Chained train() calls stay deterministic (the batched loop consumes
 *  the model RNG exactly like the reference loop). */
TEST(TrainingIdentity, ChainedRoundsMatchReference)
{
    const auto records = makeRecords(96, 4, 17);
    PaCMModel batched(DeviceSpec::a100(), 13);
    PaCMModel reference(DeviceSpec::a100(), 13);
    for (int round = 0; round < 3; ++round) {
        batched.train(records, 1);
        reference.trainReference(records, 1);
    }
    EXPECT_TRUE(bitwiseEqual(batched.getParams(), reference.getParams()));
}

/** Frozen training trajectories: the loss bits and weight hash that
 *  train() and trainReference() reach from a fresh model, pinned as
 *  constants, plus the hash of the model's scores on a fixed probe before
 *  and after training (predict() and predictReference() alike). The
 *  identity tests above only compare the two loops, and the two scoring
 *  paths, with each other; these catch an edit that moves both the same
 *  way. Three tasks of ~67 records exercise the per-group subset cap
 *  (48). */
TEST(TrainingGolden, FrozenLossAndWeightHashes)
{
    struct Frozen
    {
        const char* name;
        std::function<std::unique_ptr<CostModel>()> make;
        uint64_t loss_bits;
        uint64_t params_hash;
        uint64_t fresh_scores_hash;   ///< probe scores before training
        uint64_t trained_scores_hash; ///< probe scores after training
    };
    const DeviceSpec dev = DeviceSpec::a100();
    const std::vector<Frozen> cases = {
        {"PaCM", [&] { return std::make_unique<PaCMModel>(dev, 3); },
         0x3f56d3748be608e4, 0x9372f1d60b3c7948, 0x7f4a426c36439e64,
         0x8e138711a236eaa2},
        {"PaCM-no-statement",
         [&] {
             return std::make_unique<PaCMModel>(
                 dev, 5, PaCMConfig{.use_statement_features = false});
         },
         0x3f76455920aa50a8, 0x1e1f0bc2ae057f13, 0x5907b7327a465add,
         0x0e01a63fdb3789ea},
        {"PaCM-no-dataflow",
         [&] {
             return std::make_unique<PaCMModel>(
                 dev, 7, PaCMConfig{.use_dataflow_features = false});
         },
         0x3f546335b7a9380c, 0xf1e94f02dbfb9452, 0xf351c07bdf7d5dc3,
         0xcf82828c29119fc3},
        {"TenSetMLP", [&] { return std::make_unique<MlpCostModel>(dev, 9); },
         0x3f5bfbc08fcd688f, 0x19d04583f748f797, 0xc3640b17d807e2f5,
         0x2a3934a492ad9141},
        {"TLP", [&] { return std::make_unique<TlpCostModel>(dev, 11); },
         0x3f71cb9f02cf5824, 0x5fff22b84c9f2cb7, 0x6e275819815a5150,
         0x6350d3c51d264371},
    };
    const auto records = makeRecords(200, /*n_tasks=*/3, /*seed=*/61);

    // The scoring probe: a GEMM batch and an elementwise batch, each 8
    // candidates repeated 3 times, so PaCM's dataflow block dedup and its
    // padding-row elision both fire.
    const SubgraphTask elementwise = makeElementwise("tg", 1 << 20);
    std::vector<std::pair<const SubgraphTask*, std::vector<Schedule>>> probe;
    for (const SubgraphTask* task : {&records.front().task, &elementwise}) {
        ScheduleSampler sampler(*task, dev);
        Rng rng(71);
        const auto base = sampler.sampleMany(rng, 8);
        std::vector<Schedule> cands;
        for (int rep = 0; rep < 3; ++rep) {
            cands.insert(cands.end(), base.begin(), base.end());
        }
        probe.emplace_back(task, std::move(cands));
    }
    const auto expectScores = [&](const CostModel& model, uint64_t want,
                                  const std::string& when) {
        for (const bool reference : {false, true}) {
            std::vector<double> scores;
            for (const auto& [task, cands] : probe) {
                const auto s = reference
                                   ? model.predictReference(*task, cands)
                                   : model.predict(*task, cands);
                scores.insert(scores.end(), s.begin(), s.end());
            }
            const uint64_t hash = paramsHash(scores);
            EXPECT_EQ(hash, want)
                << when << (reference ? " predictReference" : " predict")
                << " scores hash 0x" << std::hex << hash;
        }
    };

    for (const auto& c : cases) {
        for (const bool reference : {false, true}) {
            auto model = c.make();
            const std::string path = reference ? "trainReference" : "train";
            expectScores(*model, c.fresh_scores_hash,
                         std::string(c.name) + " fresh");
            const double loss = reference ? model->trainReference(records, 2)
                                          : model->train(records, 2);
            const uint64_t loss_bits = std::bit_cast<uint64_t>(loss);
            const uint64_t hash = paramsHash(model->getParams());
            EXPECT_EQ(loss_bits, c.loss_bits)
                << c.name << " " << path << " loss bits 0x" << std::hex
                << loss_bits;
            EXPECT_EQ(hash, c.params_hash)
                << c.name << " " << path << " weight hash 0x" << std::hex
                << hash;
            expectScores(*model, c.trained_scores_hash,
                         std::string(c.name) + " after " + path);
        }
    }
}

// ---------------------------------------------------------------------------
// nn-level: backwardBatch vs the per-record forward()+backward() loop.

/** Flatten every parameter gradient of @p params. */
std::vector<double>
gradSnapshot(const std::vector<ParamRef>& params)
{
    std::vector<double> flat;
    for (const auto& p : params) {
        flat.insert(flat.end(), p.grad->data().begin(),
                    p.grad->data().end());
    }
    return flat;
}

TEST(BatchedBackward, MlpMatchesPerRecordBitwise)
{
    Rng rng(211);
    Mlp mlp({5, 16, 16, 1}, rng);
    std::vector<ParamRef> params;
    mlp.collectParams(params);
    const Matrix pack = Matrix::randn(11, 5, rng, 0.9);
    SegmentTable segs;
    segs.append(3);
    segs.append(1);
    segs.append(5);
    segs.append(2);
    const Matrix dy_pack = Matrix::randn(11, 1, rng, 1.0);

    // Reference: per-record forward + backward over each segment in turn.
    for (auto& p : params) {
        p.grad->zero();
    }
    std::vector<Matrix> ref_dx;
    for (size_t s = 0; s < segs.count(); ++s) {
        const Matrix x = pack.sliceRows(segs.begin(s), segs.rows(s));
        mlp.forward(x);
        const Matrix dy = dy_pack.sliceRows(segs.begin(s), segs.rows(s));
        ref_dx.push_back(mlp.backward(dy));
    }
    const auto ref_grads = gradSnapshot(params);

    // Batched: one segment-aware pass.
    for (auto& p : params) {
        p.grad->zero();
    }
    Workspace ws;
    BatchActs acts;
    const Matrix& out = mlp.forwardBatch(pack, ws, &acts);
    ASSERT_EQ(out.rows(), pack.rows());
    Matrix* dx = mlp.backwardBatch(dy_pack, acts, segs, ws,
                                   /*need_dx=*/true);
    EXPECT_EQ(gradSnapshot(params), ref_grads);
    ASSERT_NE(dx, nullptr);
    for (size_t s = 0; s < segs.count(); ++s) {
        for (size_t r = 0; r < segs.rows(s); ++r) {
            for (size_t c = 0; c < pack.cols(); ++c) {
                EXPECT_EQ(dx->at(segs.begin(s) + r, c),
                          ref_dx[s].at(r, c));
            }
        }
    }
}

TEST(BatchedBackward, AttentionMatchesPerRecordBitwise)
{
    Rng rng(223);
    SelfAttention attn(6, rng);
    std::vector<ParamRef> params;
    attn.collectParams(params);
    const Matrix pack = Matrix::randn(12, 6, rng, 0.7);
    SegmentTable segs;
    segs.append(4);
    segs.append(2);
    segs.append(6);
    const Matrix dy_pack = Matrix::randn(12, 6, rng, 0.8);

    for (auto& p : params) {
        p.grad->zero();
    }
    std::vector<Matrix> ref_dx;
    for (size_t s = 0; s < segs.count(); ++s) {
        const Matrix x = pack.sliceRows(segs.begin(s), segs.rows(s));
        attn.forward(x);
        const Matrix dy = dy_pack.sliceRows(segs.begin(s), segs.rows(s));
        ref_dx.push_back(attn.backward(dy));
    }
    const auto ref_grads = gradSnapshot(params);

    for (auto& p : params) {
        p.grad->zero();
    }
    Workspace ws;
    AttentionBatchCache cache;
    const Matrix& out = attn.forwardBatch(pack, segs, ws, &cache);
    // The cached (training) forward must agree with the uncached
    // (inference) one, which test_nn pins to per-segment inferReference().
    Workspace ws2;
    const Matrix& infer_out = attn.forwardBatch(pack, segs, ws2);
    ASSERT_EQ(out.rows(), infer_out.rows());
    EXPECT_EQ(std::memcmp(out.data().data(), infer_out.data().data(),
                          out.size() * sizeof(double)),
              0);
    Matrix* dx = attn.backwardBatch(dy_pack, cache, segs, ws,
                                    /*need_dx=*/true);
    EXPECT_EQ(gradSnapshot(params), ref_grads);
    ASSERT_NE(dx, nullptr);
    for (size_t s = 0; s < segs.count(); ++s) {
        for (size_t r = 0; r < segs.rows(s); ++r) {
            for (size_t c = 0; c < pack.cols(); ++c) {
                EXPECT_EQ(dx->at(segs.begin(s) + r, c),
                          ref_dx[s].at(r, c));
            }
        }
    }
}

/** A pack with tail repeats next to its expansion: the training memo's
 *  dataflow layout against the full layout it stands for. The segments
 *  mix a full 10-row block (no repeats) with padded ones, and one-row
 *  segments with and without repeats, so Linear's one-row run shortcut
 *  meets a repeated segment in the middle of a run. */
struct RepeatPack
{
    std::vector<size_t> rows = {10, 1, 1, 4, 1, 1, 7, 2};
    std::vector<size_t> reps = {0, 0, 9, 6, 0, 0, 3, 8};
    SegmentTable compact, expanded;

    RepeatPack()
    {
        for (size_t s = 0; s < rows.size(); ++s) {
            compact.append(rows[s], reps[s]);
            expanded.append(rows[s] + reps[s]);
        }
    }

    /** @p m's rows (one per stored row) with every repeat expanded. */
    Matrix expand(const Matrix& m) const
    {
        Matrix out(0, m.cols());
        for (size_t s = 0; s < rows.size(); ++s) {
            out.appendRows(m, compact.begin(s), rows[s]);
            for (size_t k = 0; k < reps[s]; ++k) {
                out.appendRows(m, compact.begin(s) + rows[s] - 1, 1);
            }
        }
        return out;
    }

    /** Whether every stored row of @p c equals its expanded row in @p e. */
    bool storedRowsMatch(const Matrix& c, const Matrix& e) const
    {
        if (c.rows() != compact.totalRows() ||
            e.rows() != expanded.totalRows() || c.cols() != e.cols()) {
            return false;
        }
        for (size_t s = 0; s < rows.size(); ++s) {
            if (std::memcmp(c.row(compact.begin(s)),
                            e.row(expanded.begin(s)),
                            rows[s] * c.cols() * sizeof(double)) != 0) {
                return false;
            }
        }
        return true;
    }
};

TEST(BatchedBackward, MlpRepeatsMatchExpandedPackBitwise)
{
    // Training on a pack with tail repeats is training on its expansion:
    // the forward's stored rows, every dW/db byte of Linear::backwardBatch
    // (through Mlp), and the dX of every stored row.
    Rng rng(251);
    Mlp mlp({6, 16, 16, 8}, rng);
    std::vector<ParamRef> params;
    mlp.collectParams(params);
    const RepeatPack rp;
    const Matrix pack = Matrix::randn(rp.compact.totalRows(), 6, rng, 0.9);
    const Matrix dy = Matrix::randn(rp.compact.totalRows(), 8, rng, 1.0);

    std::vector<std::vector<double>> grads;
    std::vector<const Matrix*> outs, dxs;
    Workspace ws_compact, ws_expanded;
    BatchActs acts_compact, acts_expanded;
    const Matrix pack_full = rp.expand(pack);
    const Matrix dy_full = rp.expand(dy);
    for (const bool compact : {true, false}) {
        for (auto& p : params) {
            p.grad->zero();
        }
        Workspace& ws = compact ? ws_compact : ws_expanded;
        BatchActs& acts = compact ? acts_compact : acts_expanded;
        outs.push_back(
            &mlp.forwardBatch(compact ? pack : pack_full, ws, &acts));
        dxs.push_back(mlp.backwardBatch(
            compact ? dy : dy_full, acts,
            compact ? rp.compact : rp.expanded, ws, /*need_dx=*/true));
        grads.push_back(gradSnapshot(params));
    }
    EXPECT_TRUE(rp.storedRowsMatch(*outs[0], *outs[1]));
    EXPECT_TRUE(bitwiseEqual(grads[0], grads[1]));
    ASSERT_NE(dxs[0], nullptr);
    ASSERT_NE(dxs[1], nullptr);
    EXPECT_TRUE(rp.storedRowsMatch(*dxs[0], *dxs[1]));
}

TEST(BatchedBackward, AttentionRepeatsMatchExpandedPackBitwise)
{
    // SelfAttention over a pack with tail repeats: the cached forward's
    // stored output rows (also against the uncached forward), every
    // parameter gradient and the dX of every stored row equal those over
    // the expanded pack.
    Rng rng(257);
    SelfAttention attn(6, rng);
    std::vector<ParamRef> params;
    attn.collectParams(params);
    const RepeatPack rp;
    const Matrix pack = Matrix::randn(rp.compact.totalRows(), 6, rng, 0.7);
    const Matrix dy = Matrix::randn(rp.compact.totalRows(), 6, rng, 0.8);
    const Matrix pack_full = rp.expand(pack);
    const Matrix dy_full = rp.expand(dy);

    std::vector<std::vector<double>> grads;
    std::vector<const Matrix*> outs, dxs;
    Workspace ws_compact, ws_expanded;
    AttentionBatchCache cache_compact, cache_expanded;
    for (const bool compact : {true, false}) {
        for (auto& p : params) {
            p.grad->zero();
        }
        Workspace& ws = compact ? ws_compact : ws_expanded;
        AttentionBatchCache& cache = compact ? cache_compact : cache_expanded;
        const SegmentTable& segs = compact ? rp.compact : rp.expanded;
        outs.push_back(&attn.forwardBatch(compact ? pack : pack_full, segs,
                                          ws, &cache));
        dxs.push_back(attn.backwardBatch(compact ? dy : dy_full, cache, segs,
                                         ws, /*need_dx=*/true));
        grads.push_back(gradSnapshot(params));
    }
    EXPECT_TRUE(rp.storedRowsMatch(*outs[0], *outs[1]));
    Workspace ws_infer;
    const Matrix& infer_out = attn.forwardBatch(pack, rp.compact, ws_infer);
    ASSERT_EQ(infer_out.rows(), outs[0]->rows());
    EXPECT_EQ(std::memcmp(infer_out.data().data(), outs[0]->data().data(),
                          infer_out.size() * sizeof(double)),
              0);
    EXPECT_TRUE(bitwiseEqual(grads[0], grads[1]));
    ASSERT_NE(dxs[0], nullptr);
    ASSERT_NE(dxs[1], nullptr);
    EXPECT_TRUE(rp.storedRowsMatch(*dxs[0], *dxs[1]));
}

TEST(DataflowTrainingRows, StorePaddingOnceAndExpandToExtractor)
{
    // The training-pack recipe: each candidate's emitted steps plus one
    // zero row repeated over the padding, which expands to exactly the
    // single-candidate extractor's kDataflowSteps rows. Elementwise tasks
    // emit few steps, so long repeats occur alongside GEMM blocks.
    const DeviceSpec dev = DeviceSpec::a100();
    auto records = makeRecords(24, /*n_tasks=*/3, /*seed=*/83);
    const SubgraphTask elementwise = makeElementwise("dr", 1 << 16);
    ScheduleSampler sampler(elementwise, dev);
    Rng rng(89);
    for (const Schedule& sch : sampler.sampleMany(rng, 4)) {
        records.push_back({elementwise, sch, 1.0});
    }
    Matrix rows(0, kDataflowFeatureDim);
    SegmentTable segs;
    SymbolSet sym;
    for (const auto& rec : records) {
        extractSymbolsInto(rec.task, rec.sch, sym);
        appendDataflowRows(sym, rec.task, rec.sch, dev, rows, segs);
    }
    ASSERT_EQ(segs.count(), records.size());
    EXPECT_EQ(rows.rows(), segs.totalRows());
    size_t stored = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(segs.logicalRows(i), kDataflowSteps);
        stored += segs.rows(i);
        const Matrix full =
            extractDataflowFeatures(records[i].task, records[i].sch, dev);
        for (size_t r = 0; r < kDataflowSteps; ++r) {
            const size_t at = segs.begin(i) + std::min(r, segs.rows(i) - 1);
            EXPECT_EQ(std::memcmp(rows.row(at), full.row(r),
                                  kDataflowFeatureDim * sizeof(double)),
                      0)
                << "record " << i << " logical row " << r;
        }
    }
    EXPECT_LT(stored, records.size() * kDataflowSteps);
}

TEST(BatchedBackward, AliasedTablesAreInferenceOnly)
{
    // The cached forward accepts an aliased table (it skips the aliased
    // segment and never writes its softmax block), so the backward's
    // contiguity checks are what stop a gradient pass from reading the
    // unwritten block or double-counting the shared rows.
    Rng rng(241);
    SelfAttention attn(6, rng);
    Mlp mlp({6, 4, 1}, rng);
    const Matrix pack = Matrix::randn(7, 6, rng, 0.7);
    SegmentTable segs;
    segs.append(4);
    segs.append(3);
    segs.appendAlias(0, 4);
    Workspace ws;
    AttentionBatchCache cache;
    const Matrix& out = attn.forwardBatch(pack, segs, ws, &cache);
    ASSERT_EQ(out.rows(), pack.rows());
    const Matrix dy = Matrix::randn(7, 6, rng, 0.5);
    EXPECT_THROW(attn.backwardBatch(dy, cache, segs, ws), InternalError);

    BatchActs acts;
    mlp.forwardBatch(pack, ws, &acts);
    const Matrix dscore = Matrix::randn(7, 1, rng, 0.5);
    EXPECT_THROW(mlp.backwardBatch(dscore, acts, segs, ws), InternalError);

    const Matrix pooled = Matrix::randn(3, 6, rng, 1.0);
    Matrix broadcast;
    EXPECT_THROW(segmentBroadcast(pooled, 0, 6, segs, broadcast,
                                  /*mean=*/true),
                 InternalError);
}

TEST(BatchedBackward, LinearSkipsDxWhenNotNeeded)
{
    Rng rng(227);
    Linear lin(4, 3, rng);
    const Matrix x = Matrix::randn(5, 4, rng, 1.0);
    const Matrix dy = Matrix::randn(5, 3, rng, 1.0);
    SegmentTable segs;
    segs.append(5);
    Workspace ws;
    EXPECT_EQ(lin.backwardBatch(x, dy, segs, ws, /*need_dx=*/false),
              nullptr);
    Matrix* dx = lin.backwardBatch(x, dy, segs, ws, /*need_dx=*/true);
    ASSERT_NE(dx, nullptr);
    EXPECT_EQ(dx->rows(), 5u);
    EXPECT_EQ(dx->cols(), 4u);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state of the batched backward.

TEST(ZeroAlloc, MlpBackwardSteadyState)
{
    Rng rng(229);
    Mlp mlp({8, 32, 32, 1}, rng);
    std::vector<ParamRef> params;
    mlp.collectParams(params);
    const Matrix pack = Matrix::randn(48, 8, rng, 1.0);
    SegmentTable segs;
    for (size_t i = 0; i < 12; ++i) {
        segs.append(4);
    }
    const Matrix dy = Matrix::randn(48, 1, rng, 1.0);
    Workspace ws;
    BatchActs acts;
    auto pass = [&]() {
        for (auto& p : params) {
            p.grad->zero();
        }
        ws.reset();
        mlp.forwardBatch(pack, ws, &acts);
        mlp.backwardBatch(dy, acts, segs, ws, /*need_dx=*/false);
    };
    pass();
    pass(); // warm to the high-water capacities
    g_alloc_events.store(0);
    g_counting.store(true);
    pass();
    g_counting.store(false);
    EXPECT_EQ(g_alloc_events.load(), 0u)
        << "steady-state batched MLP backward touched the heap";
}

TEST(ZeroAlloc, AttentionBackwardSteadyState)
{
    Rng rng(233);
    SelfAttention attn(16, rng);
    std::vector<ParamRef> params;
    attn.collectParams(params);
    const Matrix pack = Matrix::randn(40, 16, rng, 0.6);
    SegmentTable segs;
    for (size_t i = 0; i < 4; ++i) {
        segs.append(10);
    }
    const Matrix dy = Matrix::randn(40, 16, rng, 0.5);
    Workspace ws;
    AttentionBatchCache cache;
    auto pass = [&]() {
        for (auto& p : params) {
            p.grad->zero();
        }
        ws.reset();
        attn.forwardBatch(pack, segs, ws, &cache);
        attn.backwardBatch(dy, cache, segs, ws, /*need_dx=*/true);
    };
    pass();
    pass();
    g_alloc_events.store(0);
    g_counting.store(true);
    pass();
    g_counting.store(false);
    EXPECT_EQ(g_alloc_events.load(), 0u)
        << "steady-state batched attention backward touched the heap";
}

TEST(ZeroAlloc, AttentionRepeatsBackwardSteadyState)
{
    // The expanded K and V blocks of segments with repeats are workspace
    // scratch too.
    Rng rng(263);
    SelfAttention attn(16, rng);
    std::vector<ParamRef> params;
    attn.collectParams(params);
    SegmentTable segs;
    size_t rows = 0;
    for (size_t i = 0; i < 6; ++i) {
        segs.append(1 + i, 9 - i);
        rows += 1 + i;
    }
    const Matrix pack = Matrix::randn(rows, 16, rng, 0.6);
    const Matrix dy = Matrix::randn(rows, 16, rng, 0.5);
    Workspace ws;
    AttentionBatchCache cache;
    auto pass = [&]() {
        for (auto& p : params) {
            p.grad->zero();
        }
        ws.reset();
        attn.forwardBatch(pack, segs, ws, &cache);
        attn.backwardBatch(dy, cache, segs, ws, /*need_dx=*/true);
    };
    pass();
    pass();
    g_alloc_events.store(0);
    g_counting.store(true);
    pass();
    g_counting.store(false);
    EXPECT_EQ(g_alloc_events.load(), 0u)
        << "steady-state attention backward with repeats touched the heap";
}

TEST(ZeroAlloc, PooledLossSteadyState)
{
    // The training loop's per-group loss path: lambdaRankLossInto over
    // one group's scores and latencies at a time (an epoch's groups laid
    // end to end here), into a reused result + scratch. Once the
    // capacities are warm, an epoch's worth of loss evaluations must not
    // touch the heap.
    Rng rng(239);
    std::vector<double> scores(48), latencies(48);
    for (size_t i = 0; i < scores.size(); ++i) {
        scores[i] = rng.normal();
        latencies[i] = 1.0 + std::abs(rng.normal());
    }
    const std::vector<size_t> group_sizes = {12, 4, 20, 12};
    LossResult loss;
    LossScratch scratch;
    auto pass = [&]() {
        size_t off = 0;
        for (const size_t take : group_sizes) {
            lambdaRankLossInto(
                std::span<const double>(scores).subspan(off, take),
                std::span<const double>(latencies).subspan(off, take),
                /*sigma=*/1.0, loss, scratch);
            off += take;
        }
    };
    pass();
    pass();
    g_alloc_events.store(0);
    g_counting.store(true);
    pass();
    g_counting.store(false);
    EXPECT_EQ(g_alloc_events.load(), 0u)
        << "steady-state per-group loss touched the heap";
}

// ---------------------------------------------------------------------------
// Async trainer through the batched train() path.

TEST(AsyncBatchedTraining, MatchesSyncAtAnyWorkerCount)
{
    const auto records = makeRecords(64, 4, 41);
    for (const size_t workers : {size_t{1}, size_t{4}}) {
        PaCMModel async_model(DeviceSpec::a100(), 19);
        PaCMModel sync_model(DeviceSpec::a100(), 19);
        ThreadPool pool(workers);
        AsyncModelTrainer trainer(async_model, pool);
        for (int round = 0; round < 3; ++round) {
            trainer.beginUpdate(records, 1);
            trainer.install();
            sync_model.train(records, 1);
        }
        EXPECT_TRUE(bitwiseEqual(async_model.getParams(),
                                 sync_model.getParams()))
            << "async batched training diverged at " << workers
            << " workers";
        EXPECT_EQ(trainer.updatesLaunched(), 3u);
    }
}

/** And the async result equals the frozen per-record reference too: the
 *  full chain (reference -> batched -> async batched) is one identity. */
TEST(AsyncBatchedTraining, MatchesPerRecordReference)
{
    const auto records = makeRecords(48, 4, 43);
    PaCMModel async_model(DeviceSpec::a100(), 23);
    PaCMModel reference(DeviceSpec::a100(), 23);
    ThreadPool pool(2);
    AsyncModelTrainer trainer(async_model, pool);
    trainer.beginUpdate(records, 2);
    trainer.install();
    reference.trainReference(records, 2);
    EXPECT_TRUE(bitwiseEqual(async_model.getParams(),
                             reference.getParams()));
}

} // namespace
} // namespace pruner
