/**
 * Tests for the batched segmented cost-model inference engine:
 *  - batched predict() is byte-identical to the per-candidate reference
 *    path for all three learned models (empty / single / 512-candidate
 *    batches, 1 and 4 scoring workers), and for PaCM across dataflow
 *    padding depths (elementwise, conv2d, reduction tasks),
 *  - identity survives training (trained weights, not just fresh init),
 *  - segment pooling is consistent with the per-candidate broadcast
 *    gradients (numeric gradient check through the batched forward),
 *  - the Workspace arena is reused across calls, and the steady-state
 *    batched forward performs zero heap allocations — asserted through a
 *    counting replacement of the global allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

#include "cost/mlp_cost_model.hpp"
#include "cost/pacm_model.hpp"
#include "cost/tlp_cost_model.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"
#include "sched/sampler.hpp"
#include "search/evolution.hpp"
#include "sim/gpu_simulator.hpp"
#include "support/thread_pool.hpp"

// ---------------------------------------------------------------------------
// Counting-allocator test hook: global operator new/delete replacements that
// count allocation events while armed. Replacing these in the test binary
// covers every heap path (std::vector growth included), so "zero steady-state
// allocations" is asserted against the real allocator, not a proxy.

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

const SubgraphTask&
testTask()
{
    static const SubgraphTask task = makeGemm("bi", 1, 512, 512, 512);
    return task;
}

/** One task per dataflow shape beyond testTask()'s GEMM (4 padding
 *  rows): an elementwise chain (at least 6), a conv2d with a fused tail,
 *  and a reduction. */
const std::vector<SubgraphTask>&
paddingTasks()
{
    static const std::vector<SubgraphTask> tasks{
        makeElementwise("pe", 1 << 20),
        makeConv2d("pc", 1, 28, 28, 64, 64, 3, 1, DType::Fp32,
                   /*fused_tail=*/true),
        makeReductionOp("pr", 4096, 768),
    };
    return tasks;
}

std::vector<Schedule>
sampleSchedules(size_t n, uint64_t seed = 91,
                const SubgraphTask& task = testTask())
{
    // The sampler keeps the device's address: it must outlive the sampler.
    const DeviceSpec device = DeviceSpec::a100();
    ScheduleSampler sampler(task, device);
    Rng rng(seed);
    return sampler.sampleMany(rng, n);
}

/** Steps the full extraction emitted: the rows before the first all-zero
 *  one (an emitted row is never all zero). */
size_t
emittedSteps(const Matrix& block)
{
    size_t steps = 0;
    while (steps < block.rows() &&
           std::any_of(block.row(steps),
                       block.row(steps) + block.cols(),
                       [](double v) { return v != 0.0; })) {
        ++steps;
    }
    return steps;
}

bool
bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/** Batched == reference at every batch size and worker count. */
template <typename Model>
void
expectBatchedIdentity(const Model& model,
                      const SubgraphTask& task = testTask(),
                      std::initializer_list<size_t> sizes = {0, 1, 512})
{
    for (const size_t n : sizes) {
        const auto cands = sampleSchedules(n, 91, task);
        const auto ref = model.predictReference(task, cands);
        const auto batched = model.predict(task, cands);
        EXPECT_TRUE(bitwiseEqual(batched, ref))
            << model.name() << " diverged on " << task.key
            << " at batch size " << n;
        for (const size_t workers : {size_t{1}, size_t{4}}) {
            ThreadPool pool(workers);
            const auto chunked = scoreChunked(
                [&](std::span<const Schedule> slice) {
                    return model.predict(task, slice);
                },
                cands, &pool, 64);
            EXPECT_TRUE(bitwiseEqual(chunked, ref))
                << model.name() << " diverged on " << task.key
                << " at batch size " << n << " with " << workers
                << " workers";
        }
    }
}

TEST(BatchedIdentity, PaCMMatchesReference)
{
    expectBatchedIdentity(PaCMModel(DeviceSpec::a100(), 3));
}

/** Padding-row elision across padding depths: every task at several
 *  batch sizes and worker counts (duplicate candidates: see
 *  DataflowDedup.PredictionsWithDuplicatesMatchReference). */
TEST(BatchedIdentity, PaCMAcrossPaddingDepths)
{
    const PaCMModel model(DeviceSpec::a100(), 73);
    for (const SubgraphTask& task : paddingTasks()) {
        expectBatchedIdentity(model, task, {1, 64, 512});
    }
}

TEST(BatchedIdentity, TenSetMlpMatchesReference)
{
    expectBatchedIdentity(MlpCostModel(DeviceSpec::a100(), 5));
}

TEST(BatchedIdentity, TlpMatchesReference)
{
    expectBatchedIdentity(TlpCostModel(DeviceSpec::a100(), 7));
}

TEST(BatchedIdentity, AblatedPaCMBranchesMatchReference)
{
    expectBatchedIdentity(PaCMModel(DeviceSpec::a100(), 9,
                                    {.use_statement_features = false}));
    expectBatchedIdentity(PaCMModel(DeviceSpec::a100(), 11,
                                    {.use_dataflow_features = false}));
}

/** Train on simulator data, then re-check identity: the batched engine
 *  must track the reference through arbitrary trained weights, and the
 *  memoised training path must leave both in agreement. */
TEST(BatchedIdentity, SurvivesTraining)
{
    const auto& task = testTask();
    const auto dev = DeviceSpec::a100();
    const GpuSimulator sim(dev);
    ScheduleSampler sampler(task, dev);
    Rng rng(13);
    std::vector<MeasuredRecord> records;
    while (records.size() < 96) {
        const Schedule sch = sampler.sample(rng);
        const double lat = sim.measure(task, sch, rng);
        if (std::isfinite(lat)) {
            records.push_back({task, sch, lat});
        }
    }
    PaCMModel pacm(dev, 17);
    MlpCostModel mlp(dev, 19);
    TlpCostModel tlp(dev, 23);
    pacm.train(records, 4);
    mlp.train(records, 4);
    tlp.train(records, 4);
    expectBatchedIdentity(pacm);
    expectBatchedIdentity(mlp);
    expectBatchedIdentity(tlp);
}

/** Training is deterministic with the memoised batched scoring path. */
TEST(BatchedTraining, DeterministicAcrossRuns)
{
    const auto& task = testTask();
    const auto dev = DeviceSpec::a100();
    const GpuSimulator sim(dev);
    ScheduleSampler sampler(task, dev);
    Rng rng(29);
    std::vector<MeasuredRecord> records;
    while (records.size() < 48) {
        const Schedule sch = sampler.sample(rng);
        const double lat = sim.measure(task, sch, rng);
        if (std::isfinite(lat)) {
            records.push_back({task, sch, lat});
        }
    }
    MlpCostModel a(dev, 31);
    MlpCostModel b(dev, 31);
    const double loss_a = a.train(records, 3);
    const double loss_b = b.train(records, 3);
    EXPECT_DOUBLE_EQ(loss_a, loss_b);
    EXPECT_EQ(a.getParams(), b.getParams());
}

// ---------------------------------------------------------------------------
// Segment pooling: the batched forward must be consistent with the
// per-candidate broadcast gradients the models' fitOne paths use.

TEST(SegmentPooling, SumAndMeanMatchPerCandidate)
{
    Rng rng(37);
    const Matrix pack = Matrix::randn(9, 5, rng, 1.0);
    SegmentTable segs;
    segs.append(2);
    segs.append(0);
    segs.append(3);
    segs.append(4);
    Matrix sum, mean;
    segmentColSum(pack, segs, sum);
    segmentColMean(pack, segs, mean);
    ASSERT_EQ(sum.rows(), 4u);
    ASSERT_EQ(mean.rows(), 4u);
    for (size_t s = 0; s < segs.count(); ++s) {
        const Matrix seg = pack.sliceRows(segs.begin(s), segs.rows(s));
        const Matrix ref_sum = seg.colSum();
        const Matrix ref_mean = seg.colMean();
        for (size_t c = 0; c < pack.cols(); ++c) {
            EXPECT_DOUBLE_EQ(sum.at(s, c), ref_sum.at(0, c));
            EXPECT_DOUBLE_EQ(mean.at(s, c), ref_mean.at(0, c));
        }
    }
}

/**
 * Numeric gradient check through the batched forward: the analytic
 * gradients come from the per-candidate forward/backward with the
 * sum-pooling broadcast (exactly what MlpCostModel::train does); the
 * numeric gradients differentiate the *batched* forwardBatch +
 * segmentColSum scoring. Agreement proves batching changed neither the
 * forward nor the effective pooling gradients.
 */
TEST(SegmentPooling, BatchedForwardMatchesBroadcastGradients)
{
    Rng rng(41);
    Mlp embed({4, 6, 6}, rng);
    Mlp head({6, 1}, rng);
    const Matrix pack = Matrix::randn(7, 4, rng, 0.8);
    SegmentTable segs;
    segs.append(3);
    segs.append(1);
    segs.append(3);

    Workspace ws;
    auto batched_loss = [&]() {
        ws.reset();
        const Matrix& embedded = embed.forwardBatch(pack, ws);
        Matrix& pooled = ws.alloc(segs.count(), 6);
        segmentColSum(embedded, segs, pooled);
        const Matrix& scores = head.forwardBatch(pooled, ws);
        double loss = 0.0;
        for (size_t i = 0; i < scores.rows(); ++i) {
            loss += scores.at(i, 0);
        }
        return loss;
    };

    // Analytic gradients via the per-candidate broadcast backward.
    std::vector<ParamRef> params;
    embed.collectParams(params);
    head.collectParams(params);
    for (auto& p : params) {
        p.grad->zero();
    }
    for (size_t s = 0; s < segs.count(); ++s) {
        const Matrix feats = pack.sliceRows(segs.begin(s), segs.rows(s));
        const Matrix embedded = embed.forward(feats);
        head.forward(embedded.colSum());
        Matrix dy(1, 1, 1.0);
        const Matrix dpooled = head.backward(dy);
        Matrix dembedded(embedded.rows(), embedded.cols());
        for (size_t r = 0; r < dembedded.rows(); ++r) {
            for (size_t c = 0; c < dembedded.cols(); ++c) {
                dembedded.at(r, c) = dpooled.at(0, c);
            }
        }
        embed.backward(dembedded);
    }

    for (auto& p : params) {
        for (size_t i = 0; i < std::min<size_t>(p.value->size(), 5); ++i) {
            const double eps = 1e-6;
            const double orig = p.value->data()[i];
            p.value->data()[i] = orig + eps;
            const double plus = batched_loss();
            p.value->data()[i] = orig - eps;
            const double minus = batched_loss();
            p.value->data()[i] = orig;
            EXPECT_NEAR(p.grad->data()[i], (plus - minus) / (2 * eps), 1e-4);
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace reuse and the zero-allocation steady state.

TEST(Workspace, BuffersAreReusedAcrossCalls)
{
    const auto& task = testTask();
    const auto cands = sampleSchedules(32);
    PaCMModel model(DeviceSpec::a100(), 43);
    Workspace ws;
    std::vector<double> out(cands.size());
    model.predictInto(task, cands, ws, out.data());
    const size_t mats = ws.matrixBuffers();
    const size_t segs = ws.segmentBuffers();
    const size_t reserved = ws.doublesReserved();
    EXPECT_GT(mats, 0u);
    for (int pass = 0; pass < 3; ++pass) {
        model.predictInto(task, cands, ws, out.data());
        EXPECT_EQ(ws.matrixBuffers(), mats);
        EXPECT_EQ(ws.segmentBuffers(), segs);
        EXPECT_EQ(ws.doublesReserved(), reserved);
    }
}

template <typename Model>
void
expectZeroSteadyStateAllocations(const Model& model, const char* name)
{
    const auto& task = testTask();
    const auto cands = sampleSchedules(64);
    Workspace ws;
    std::vector<double> out(cands.size());
    // Warm the workspace, the per-thread extraction scratch, and every
    // vector to its high-water capacity.
    model.predictInto(task, cands, ws, out.data());
    model.predictInto(task, cands, ws, out.data());

    g_alloc_events.store(0);
    g_counting.store(true);
    model.predictInto(task, cands, ws, out.data());
    g_counting.store(false);
    EXPECT_EQ(g_alloc_events.load(), 0u)
        << name << ": steady-state batched forward touched the heap";
}

TEST(Workspace, ZeroSteadyStateAllocationsPaCM)
{
    expectZeroSteadyStateAllocations(PaCMModel(DeviceSpec::a100(), 47),
                                     "PaCM");
}

TEST(Workspace, ZeroSteadyStateAllocationsTenSetMlp)
{
    expectZeroSteadyStateAllocations(MlpCostModel(DeviceSpec::a100(), 53),
                                     "TenSetMLP");
}

TEST(Workspace, ZeroSteadyStateAllocationsTlp)
{
    expectZeroSteadyStateAllocations(TlpCostModel(DeviceSpec::a100(), 59),
                                     "TLP");
}

TEST(Workspace, AllocZeroClearsStaleContents)
{
    Workspace ws;
    Matrix& a = ws.alloc(4, 4);
    a.data().assign(16, 7.0);
    ws.reset();
    Matrix& b = ws.allocZero(2, 3);
    EXPECT_EQ(&a, &b); // same buffer, recycled
    for (double v : b.data()) {
        EXPECT_DOUBLE_EQ(v, 0.0);
    }
}

TEST(Workspace, EmptyBatchPredictIsEmpty)
{
    const std::vector<Schedule> none;
    PaCMModel model(DeviceSpec::a100(), 61);
    EXPECT_TRUE(model.predict(testTask(), none).empty());
}

// ---------------------------------------------------------------------------
// Dataflow-block dedup: bitwise-identical blocks pack once and alias.

TEST(DataflowDedup, DuplicateCandidatesPackOneBlock)
{
    const auto& task = testTask();
    const auto base = sampleSchedules(4);
    // Duplicates interleaved with distinct candidates.
    std::vector<Schedule> cands{base[0], base[1], base[0], base[2],
                                base[1], base[3], base[0]};
    Matrix pack;
    SegmentTable segs;
    extractDataflowFeaturesBatch(task, cands, DeviceSpec::a100(), pack,
                                 segs);
    ASSERT_EQ(segs.count(), cands.size());
    // Only the 4 distinct blocks occupy pack rows; duplicates alias.
    EXPECT_EQ(pack.rows(), 4 * kDataflowSteps);
    EXPECT_EQ(segs.totalRows(), pack.rows());
    EXPECT_EQ(segs.begin(2), segs.begin(0)); // base[0] again
    EXPECT_EQ(segs.begin(4), segs.begin(1)); // base[1] again
    EXPECT_EQ(segs.begin(6), segs.begin(0)); // base[0] a third time
    // Aliased segments read the same bytes the full extraction produces.
    for (size_t i = 0; i < cands.size(); ++i) {
        const Matrix one =
            extractDataflowFeatures(task, cands[i], DeviceSpec::a100());
        for (size_t r = 0; r < kDataflowSteps; ++r) {
            for (size_t c = 0; c < kDataflowFeatureDim; ++c) {
                EXPECT_EQ(pack.at(segs.begin(i) + r, c), one.at(r, c));
            }
        }
    }
}

/** The padding-elided packer: an elementwise batch packs each distinct
 *  block's emitted rows plus one shared all-zero pad row, and every
 *  padding row maps to that row. */
TEST(DataflowDedup, ElidedPackKeepsEmittedRowsPlusOnePadRow)
{
    const SubgraphTask& task = paddingTasks()[0];
    const DeviceSpec dev = DeviceSpec::a100();
    const auto base = sampleSchedules(24, 83, task);
    std::vector<Schedule> cands = base;
    cands.insert(cands.end(), base.begin(), base.begin() + 8);
    Matrix pack(0, kDataflowFeatureDim);
    SegmentTable segs;
    DataflowRowMap map;
    SymbolSet sym;
    DataflowBlockIndex seen;
    for (const Schedule& sch : cands) {
        extractSymbolsInto(task, sch, sym);
        appendDataflowBlock(sym, task, sch, dev, pack, segs, seen, &map);
    }
    ASSERT_EQ(segs.count(), cands.size());
    ASSERT_EQ(map.size(), segs.totalRows());
    EXPECT_GE(segs.aliasCount(), 8u);
    size_t emitted = 0;
    size_t done = 0; // logical rows of distinct blocks seen so far
    for (size_t i = 0; i < cands.size(); ++i) {
        const Matrix full = extractDataflowFeatures(task, cands[i], dev);
        const size_t steps = emittedSteps(full);
        EXPECT_LE(steps + 6, kDataflowSteps) << "candidate " << i;
        const size_t b = segs.begin(i);
        for (size_t r = 0; r < kDataflowSteps; ++r) {
            const size_t row = map[b + r];
            if (r < steps) {
                EXPECT_NE(row, 0u);
            } else {
                EXPECT_EQ(row, 0u) << "padding row " << r << " of " << i;
            }
            EXPECT_EQ(std::memcmp(pack.row(row), full.row(r),
                                  kDataflowFeatureDim * sizeof(double)),
                      0);
        }
        if (b + kDataflowSteps > done) {
            emitted += steps;
            done = b + kDataflowSteps;
        }
    }
    EXPECT_EQ(pack.rows(), emitted + 1);
}

/** Duplicate candidates on every padding depth, so block aliasing and
 *  the shared pad row meet in one pack. */
TEST(DataflowDedup, PredictionsWithDuplicatesMatchReference)
{
    const PaCMModel model(DeviceSpec::a100(), 71);
    std::vector<const SubgraphTask*> tasks{&testTask()};
    for (const SubgraphTask& task : paddingTasks()) {
        tasks.push_back(&task);
    }
    for (const SubgraphTask* task : tasks) {
        const auto base = sampleSchedules(8, 67, *task);
        std::vector<Schedule> cands;
        for (int rep = 0; rep < 3; ++rep) {
            cands.insert(cands.end(), base.begin(), base.end());
        }
        EXPECT_TRUE(bitwiseEqual(model.predict(*task, cands),
                                 model.predictReference(*task, cands)))
            << "PaCM diverged on " << task->key;
    }
}

} // namespace
} // namespace pruner
