#include "feature/dataflow_features.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/penalty.hpp"
#include "core/symbols.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace pruner {

namespace {

double
log1pSafe(double v)
{
    return std::log1p(std::max(v, 0.0));
}

/** Flow directions across the hierarchy. */
enum Flow : size_t {
    kInit = 0,    ///< accumulator initialization in registers
    kL2toL1 = 1,  ///< global -> shared staging
    kL1toL0 = 2,  ///< shared -> register compute
    kL0toL2 = 3,  ///< register -> global write-back
    kL2toL0 = 4,  ///< global -> register direct load (no staging)
    kL0toL0 = 5,  ///< register-resident epilogue
};

/** Access types. */
enum Access : size_t { kRead = 0, kWrite = 1, kReadWrite = 2 };

struct StepWriter
{
    Matrix* m;
    size_t row0 = 0; ///< this candidate's first row in the packed matrix
    size_t step = 0;

    /** Emit one 23-dim row. */
    void
    emit(double compute_density, Flow flow, double bytes, double reuse,
         double contiguity, double vec, double unroll, double trans_dim,
         double stride, Access access, double l0_alloc, double l1_alloc,
         double l2_foot, double threads, double blocks, double alloc_size)
    {
        if (step >= kDataflowSteps) {
            return; // truncate overly deep movement chains
        }
        double* f = m->row(row0 + step++);
        size_t k = 0;
        f[k++] = compute_density;              // [0] compute
        f[k + static_cast<size_t>(flow)] = 1.0; // [1..6] flow one-hot
        k += 6;
        f[k++] = log1pSafe(bytes);             // [7]
        f[k++] = reuse;                        // [8]
        f[k++] = contiguity;                   // [9]
        f[k++] = vec;                          // [10]
        f[k++] = log1pSafe(unroll);            // [11]
        f[k++] = log1pSafe(trans_dim);         // [12]
        f[k++] = stride;                       // [13]
        f[k + static_cast<size_t>(access)] = 1.0; // [14..16]
        k += 3;
        f[k++] = log1pSafe(l0_alloc);          // [17]
        f[k++] = log1pSafe(l1_alloc);          // [18]
        f[k++] = log1pSafe(l2_foot);           // [19]
        f[k++] = log1pSafe(threads);           // [20]
        f[k++] = log1pSafe(blocks);            // [21]
        f[k++] = log1pSafe(alloc_size);        // [22] alloc size
        PRUNER_CHECK(k == kDataflowFeatureDim);
    }
};

/** Write one candidate's dataflow rows (from its already-extracted
 *  symbols) into @p out at rows [row0, row0 + kDataflowSteps), which must
 *  exist and be zero-filled. Returns the number of steps it emitted (at
 *  most kDataflowSteps): the rows past them stay zero, the padding. Every
 *  emitted row carries a one-hot flow direction, so it is never all
 *  zero. */
size_t
writeDataflowFeatureRows(const SymbolSet& sym, const SubgraphTask& task,
                         const Schedule& sch, const DeviceSpec& device,
                         Matrix& out, size_t row0)
{
    PRUNER_CHECK(out.cols() == kDataflowFeatureDim);
    PRUNER_CHECK(row0 + kDataflowSteps <= out.rows());
    StepWriter w{&out, row0};

    const double bytes_per_elem = dtypeBytes(task.dtype);
    const double threads = sym.s4_threads;
    const double blocks = sym.s6_blocks;
    const double vec = sch.vectorLen();
    const double unroll = sch.unroll();
    const double out_reg_tile = static_cast<double>(sch.regTilePoints());

    // Step 1: accumulator init (C.local = 0).
    w.emit(/*compute_density=*/0.0, kInit, /*bytes=*/0.0, /*reuse=*/1.0,
           /*contiguity=*/1.0, vec, unroll, /*trans_dim=*/1.0,
           /*stride=*/1.0, kWrite, out_reg_tile, sym.s3_l1_alloc,
           /*l2_foot=*/0.0, threads, blocks, out_reg_tile);

    // One step per global->shared (or global->register) input movement.
    for (const auto& stmt : sym.statements) {
        if (stmt.kind != StatementSymbols::Kind::SharedLoad) {
            continue;
        }
        const auto& tensor = task.tensors[stmt.tensor];
        const double unique =
            static_cast<double>(tensor.numElements(task)) *
            tensor.footprint_scale;
        const double reuse =
            unique > 0.0 ? stmt.s5_traffic / unique : 1.0;
        const double contiguity = statementP2m(stmt, device);
        w.emit(/*compute_density=*/0.0,
               sch.cacheShared() ? kL2toL1 : kL2toL0,
               stmt.s5_traffic * bytes_per_elem, reuse, contiguity, vec,
               unroll, stmt.s7_trans_dim,
               static_cast<double>(task.conv_stride), kRead,
               sym.s1_l0_alloc, sym.s3_l1_alloc,
               unique * bytes_per_elem, threads, blocks, sym.s3_l1_alloc);
    }

    // Compute step: shared -> registers, FMA chain.
    for (const auto& stmt : sym.statements) {
        if (stmt.kind != StatementSymbols::Kind::Compute) {
            continue;
        }
        const double density =
            stmt.s8_flops / std::max(sym.s3_l1_alloc * blocks, 1.0);
        w.emit(log1pSafe(density), kL1toL0, /*bytes=*/0.0,
               /*reuse=*/out_reg_tile, /*contiguity=*/1.0, vec, unroll,
               /*trans_dim=*/1.0, /*stride=*/1.0, kReadWrite,
               sym.s1_l0_alloc, sym.s3_l1_alloc, /*l2_foot=*/0.0, threads,
               blocks, sym.s1_l0_alloc);
    }

    // Fused epilogue (register resident), if any.
    if (task.has_elementwise_tail) {
        w.emit(log1pSafe(task.tail_flops_per_output), kL0toL0,
               /*bytes=*/0.0, /*reuse=*/1.0, /*contiguity=*/1.0, vec,
               unroll, /*trans_dim=*/1.0, /*stride=*/1.0, kReadWrite,
               out_reg_tile, 0.0, 0.0, threads, blocks, out_reg_tile);
    }

    // Output write-back: registers -> global.
    for (const auto& stmt : sym.statements) {
        if (stmt.kind != StatementSymbols::Kind::OutputStore) {
            continue;
        }
        w.emit(/*compute_density=*/0.0, kL0toL2,
               stmt.s5_traffic * bytes_per_elem, /*reuse=*/1.0,
               statementP2m(stmt, device), vec, unroll, stmt.s7_trans_dim,
               /*stride=*/1.0, kWrite, sym.s1_l0_alloc, 0.0,
               stmt.s5_traffic * bytes_per_elem, threads, blocks,
               stmt.s5_traffic);
    }

    // Remaining rows stay zero (the paper's zero-padding for element-wise
    // operators and short movement chains).
    return w.step;
}

} // namespace

Matrix
extractDataflowFeatures(const SubgraphTask& task, const Schedule& sch,
                        const DeviceSpec& device)
{
    Matrix feat(kDataflowSteps, kDataflowFeatureDim);
    const SymbolSet sym = extractSymbols(task, sch);
    writeDataflowFeatureRows(sym, task, sch, device, feat, 0);
    return feat;
}

void
appendDataflowRows(const SymbolSet& sym, const SubgraphTask& task,
                   const Schedule& sch, const DeviceSpec& device, Matrix& out,
                   SegmentTable& segs)
{
    const size_t row0 = out.rows();
    out.resize(row0 + kDataflowSteps, kDataflowFeatureDim);
    const size_t steps =
        writeDataflowFeatureRows(sym, task, sch, device, out, row0);
    // The padding is a zero suffix and no emitted row is all zero, so the
    // first zero row stands for every padding row.
    const size_t stored = std::min(steps + 1, kDataflowSteps);
    out.resize(row0 + stored, kDataflowFeatureDim);
    segs.append(stored, kDataflowSteps - stored);
}

void
appendDataflowBlock(const SymbolSet& sym, const SubgraphTask& task,
                    const Schedule& sch, const DeviceSpec& device,
                    Matrix& out, SegmentTable& segs,
                    DataflowBlockIndex& seen, DataflowRowMap* map)
{
    if (map != nullptr && segs.count() == 0) {
        out.resize(1, kDataflowFeatureDim);
        out.zero(); // the shared pad row
    }
    const size_t row0 = out.rows();
    out.resize(row0 + kDataflowSteps, kDataflowFeatureDim);
    const size_t steps =
        writeDataflowFeatureRows(sym, task, sch, device, out, row0);
    const size_t n = steps * kDataflowFeatureDim;
    const double* block = out.row(row0);
    // Bit-pattern hash (memcmp semantics: -0.0 != +0.0, NaNs compare by
    // payload — exactly the equality aliasing is sound under).
    uint64_t h = hashCombine(0x9E3779B97F4A7C15ull, steps);
    for (size_t e = 0; e < n; ++e) {
        uint64_t bits;
        std::memcpy(&bits, &block[e], sizeof(bits));
        h = hashCombine(h, bits);
    }
    for (const DataflowBlockKey& key : seen) {
        if (key.hash == h && key.steps == steps &&
            std::memcmp(out.row(key.row), block, n * sizeof(double)) == 0) {
            out.resize(row0, kDataflowFeatureDim);
            segs.appendAlias(key.begin, kDataflowSteps);
            return;
        }
    }
    seen.push_back({h, segs.totalRows(), row0, steps});
    if (map != nullptr) {
        out.resize(row0 + steps, kDataflowFeatureDim);
        for (size_t r = 0; r < kDataflowSteps; ++r) {
            map->push_back(r < steps ? row0 + r : 0);
        }
    }
    segs.append(kDataflowSteps);
}

void
extractDataflowFeaturesBatch(const SubgraphTask& task,
                             std::span<const Schedule> candidates,
                             const DeviceSpec& device, Matrix& out,
                             SegmentTable& segs)
{
    static thread_local SymbolSet sym;
    static thread_local DataflowBlockIndex seen;
    out.resize(0, kDataflowFeatureDim);
    segs.reset();
    seen.clear();
    for (const Schedule& sch : candidates) {
        extractSymbolsInto(task, sch, sym);
        appendDataflowBlock(sym, task, sch, device, out, segs, seen);
    }
}

} // namespace pruner
