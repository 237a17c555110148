#include "feature/statement_features.hpp"

#include <cmath>

#include "core/penalty.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {

double
log1pSafe(double v)
{
    return std::log1p(std::max(v, 0.0));
}

/** Write one candidate's statement rows (from its already-extracted
 *  symbols) into @p out at rows [row0, row0 + sym.statements.size()),
 *  which must exist and be zero-filled. */
void
writeStatementFeatureRows(const SymbolSet& sym, const SubgraphTask& task,
                          const Schedule& sch, const DeviceSpec& device,
                          Matrix& out, size_t row0)
{
    PRUNER_CHECK(out.cols() == kStatementFeatureDim);
    PRUNER_CHECK(row0 + sym.statements.size() <= out.rows());
    const PenaltySet pen = computePenalties(sym, device);

    // Whole-program context shared by every row.
    const double threads = sym.s4_threads;
    const double blocks = sym.s6_blocks;
    const double smem_ratio =
        sym.s3_l1_alloc /
        static_cast<double>(device.smem_per_block_floats);
    const double reg_ratio =
        sym.s1_l0_alloc / static_cast<double>(device.regs_per_thread);
    const double waste = sch.paddingWaste(task);

    for (size_t i = 0; i < sym.statements.size(); ++i) {
        const auto& stmt = sym.statements[i];
        double* f = out.row(row0 + i);
        size_t k = 0;
        // Statement kind one-hot.
        f[k + static_cast<size_t>(stmt.kind)] = 1.0;
        k += 3;
        // Statement-level quantities.
        f[k++] = log1pSafe(stmt.s5_traffic);
        f[k++] = log1pSafe(stmt.s7_trans_dim);
        f[k++] = log1pSafe(stmt.s8_flops);
        f[k++] = statementP2m(stmt, device);
        f[k++] = stmt.s5_traffic > 0.0
                     ? stmt.s8_flops / (stmt.s5_traffic + 1.0)
                     : 0.0; // statement arithmetic intensity
        // Program-level resource symbols (log-scaled).
        f[k++] = log1pSafe(sym.s1_l0_alloc);
        f[k++] = log1pSafe(sym.s2_l0_comp);
        f[k++] = log1pSafe(sym.s3_l1_alloc);
        f[k++] = log1pSafe(threads);
        f[k++] = log1pSafe(blocks);
        f[k++] = log1pSafe(static_cast<double>(sch.numVThreads()));
        f[k++] = log1pSafe(static_cast<double>(sch.regTilePoints()));
        f[k++] = log1pSafe(static_cast<double>(sch.reductionInner()));
        // Budget pressure.
        f[k++] = std::min(smem_ratio, 4.0);
        f[k++] = std::min(reg_ratio, 4.0);
        f[k++] = waste;
        // Penalty terms the analytic model uses (useful priors).
        f[k++] = pen.p_l1_c;
        f[k++] = pen.alpha_l1;
        f[k++] = pen.p_l2_c;
        f[k++] = pen.p_l0_m;
        f[k++] = pen.p_l1_m;
        // Annotations.
        for (int u : unrollChoices()) {
            f[k++] = sch.unroll() == u ? 1.0 : 0.0;
        }
        for (int v : vectorChoices()) {
            f[k++] = sch.vectorLen() == v ? 1.0 : 0.0;
        }
        f[k++] = sch.cacheShared() ? 1.0 : 0.0;
        // Task-level context.
        f[k++] = task.dtype == DType::Fp16Tc ? 1.0 : 0.0;
        f[k++] = sym.tc_alignment;
        f[k++] = static_cast<double>(task.conv_stride);
        f[k++] = log1pSafe(static_cast<double>(task.reductionSize()));
        f[k++] = log1pSafe(static_cast<double>(task.outputPoints()));
        PRUNER_CHECK(k <= kStatementFeatureDim);
    }
}

} // namespace

Matrix
extractStatementFeatures(const SubgraphTask& task, const Schedule& sch,
                         const DeviceSpec& device)
{
    const SymbolSet sym = extractSymbols(task, sch);
    Matrix feat(sym.statements.size(), kStatementFeatureDim);
    writeStatementFeatureRows(sym, task, sch, device, feat, 0);
    return feat;
}

void
appendStatementRows(const SymbolSet& sym, const SubgraphTask& task,
                    const Schedule& sch, const DeviceSpec& device, Matrix& out,
                    SegmentTable& segs)
{
    const size_t row0 = out.rows();
    // Appended rows are value-initialized to zero (vector semantics),
    // which the one-hot writers rely on.
    out.resize(row0 + sym.statements.size(), kStatementFeatureDim);
    writeStatementFeatureRows(sym, task, sch, device, out, row0);
    segs.append(sym.statements.size());
}

void
extractStatementFeaturesBatch(const SubgraphTask& task,
                              std::span<const Schedule> candidates,
                              const DeviceSpec& device, Matrix& out,
                              SegmentTable& segs)
{
    static thread_local SymbolSet sym;
    out.resize(0, kStatementFeatureDim);
    segs.reset();
    for (const Schedule& sch : candidates) {
        extractSymbolsInto(task, sch, sym);
        appendStatementRows(sym, task, sch, device, out, segs);
    }
}

} // namespace pruner
