/**
 * Tests for the batched segment-aware training engine:
 *  - after any train() call, batched weights are byte-identical to
 *    trainReference() for every learned model (PaCM incl. ablations,
 *    TenSetMLP, TLP) at 1 / 48 / 512 records, and post-train predictions
 *    agree bitwise with the per-candidate reference scoring,
 *  - the nn-level backwardBatch passes (Mlp, SelfAttention) accumulate
 *    bitwise the same parameter gradients as the per-record
 *    forward()+backward() loop, at any segment shape,
 *  - the steady-state batched backward performs zero heap allocations
 *    (asserted through a counting replacement of the global allocator),
 *  - AsyncModelTrainer routed through the batched trainer stays provably
 *    identical to synchronous training at 1 and 4 pool workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "cost/async_trainer.hpp"
#include "cost/mlp_cost_model.hpp"
#include "cost/pacm_model.hpp"
#include "cost/tlp_cost_model.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "sched/sampler.hpp"
#include "sim/gpu_simulator.hpp"
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

// ---------------------------------------------------------------------------
// Cross-group task batching: train() pools task_batch groups into one
// forward/backward with one deferred optimizer step, and must stay
// byte-identical to trainReference at the same knob.

TEST(TaskBatchIdentity, PacmPooledTrainMatchesReferenceAtEveryBatchSize)
{
    const auto records = makeRecords(96, 6, 53);
    for (const size_t tb : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
        PaCMModel batched(DeviceSpec::a100(), 29);
        PaCMModel reference(DeviceSpec::a100(), 29);
        batched.setTrainTaskBatch(tb);
        reference.setTrainTaskBatch(tb);
        const double batched_loss = batched.train(records, 2);
        const double reference_loss = reference.trainReference(records, 2);
        EXPECT_EQ(batched_loss, reference_loss)
            << "loss diverged at task_batch=" << tb;
        EXPECT_TRUE(bitwiseEqual(batched.getParams(),
                                 reference.getParams()))
            << "weights diverged at task_batch=" << tb;
    }
}

TEST(TaskBatchIdentity, TlpPooledTrainMatchesReference)
{
    const auto records = makeRecords(72, 5, 57);
    for (const size_t tb : {size_t{1}, size_t{3}, size_t{8}}) {
        TlpCostModel batched(DeviceSpec::a100(), 33);
        TlpCostModel reference(DeviceSpec::a100(), 33);
        batched.setTrainTaskBatch(tb);
        reference.setTrainTaskBatch(tb);
        batched.train(records, 2);
        reference.trainReference(records, 2);
        EXPECT_TRUE(bitwiseEqual(batched.getParams(),
                                 reference.getParams()))
            << "TLP weights diverged at task_batch=" << tb;
    }
}

TEST(AsyncBatchedTraining, CarriesTaskBatchKnobThroughDoubleBuffer)
{
    // The async trainer clones the front model (knob included) into its
    // back buffer; an overlapped update at any worker count must land the
    // same bytes as the per-record reference at the same knob.
    const auto records = makeRecords(64, 4, 59);
    for (const size_t workers : {size_t{1}, size_t{4}}) {
        PaCMModel front(DeviceSpec::a100(), 31);
        PaCMModel reference(DeviceSpec::a100(), 31);
        front.setTrainTaskBatch(4);
        reference.setTrainTaskBatch(4);
        ThreadPool pool(workers);
        AsyncModelTrainer trainer(front, pool);
        trainer.beginUpdate(records, 2);
        trainer.install();
        reference.trainReference(records, 2);
        EXPECT_TRUE(bitwiseEqual(front.getParams(), reference.getParams()))
            << "task-batched async training diverged at " << workers
            << " workers";
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
    const Matrix& out = mlp.forwardBatch(pack, ws, acts);
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
    const Matrix& out = attn.forwardBatch(pack, segs, ws, cache);
    // The training forward must agree with the inference batch (and so,
    // transitively, with per-segment infer()).
    Workspace ws2;
    const Matrix& infer_out = attn.inferBatch(pack, segs, ws2);
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
        mlp.forwardBatch(pack, ws, acts);
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
        attn.forwardBatch(pack, segs, ws, cache);
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

TEST(ZeroAlloc, PooledLossSteadyState)
{
    // The training loop's per-group loss path: lambdaRankLossInto over
    // each group slice of a pooled sub-pack, into a reused result +
    // scratch. Once the capacities are warm, an epoch's worth of loss
    // evaluations must not touch the heap.
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
        << "steady-state pooled loss touched the heap";
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
