#include "core/penalty.hpp"

#include <cmath>

#include "support/logging.hpp"

namespace pruner {

double
PenaltySet::memoryProduct() const
{
    return p_l0_m * p_l1_m;
}

PenaltySet
computePenalties(const SymbolSet& sym, const DeviceSpec& device)
{
    PenaltySet p;

    // L0 (registers).
    const double m_l0 = static_cast<double>(device.regs_per_thread);
    if (sym.s1_l0_alloc > 0.0) {
        p.p_l0_m = std::min(m_l0 / sym.s1_l0_alloc, 1.0);
        p.p_l0_c = 1.0 + sym.s2_l0_comp / sym.s1_l0_alloc;
    }

    // L1 (shared memory / warp scheduling).
    const double m_l1 = static_cast<double>(device.smem_per_block_floats);
    if (sym.s3_l1_alloc > 0.0) {
        p.p_l1_m = std::min(m_l1 / sym.s3_l1_alloc, 1.0);
    }
    const double n_l1 = static_cast<double>(device.warp_size);
    const double pu_l1 = static_cast<double>(device.warp_schedulers);
    if (sym.s4_threads > 0.0) {
        const double sch = std::ceil(sym.s4_threads / n_l1);
        p.p_l1_c = sch / (std::ceil(sch / pu_l1) * pu_l1);
        p.alpha_l1 = sym.s4_threads / (sch * n_l1);
    }

    // L2 (SM waves).
    const double pu_l2 = static_cast<double>(device.num_sms);
    if (sym.s6_blocks > 0.0) {
        p.p_l2_c = sym.s6_blocks /
                   (std::ceil(sym.s6_blocks / pu_l2) * pu_l2);
    }

    PRUNER_CHECK(p.p_l0_m > 0.0 && p.p_l0_m <= 1.0);
    PRUNER_CHECK(p.p_l1_m > 0.0 && p.p_l1_m <= 1.0);
    PRUNER_CHECK(p.p_l1_c > 0.0 && p.p_l1_c <= 1.0);
    PRUNER_CHECK(p.alpha_l1 > 0.0 && p.alpha_l1 <= 1.0);
    PRUNER_CHECK(p.p_l2_c > 0.0 && p.p_l2_c <= 1.0);
    return p;
}

double
statementP2m(const StatementSymbols& stmt, const DeviceSpec& device)
{
    const double n_l2 = static_cast<double>(device.mem_transaction_floats);
    const double s7 = std::max(stmt.s7_trans_dim, 1.0);
    return s7 / (std::ceil(s7 / n_l2) * n_l2);
}

} // namespace pruner
