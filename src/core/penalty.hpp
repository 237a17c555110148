#pragma once

/**
 * @file penalty.hpp
 * Hardware-aware penalty terms (paper Section 4.1, "Hardware-aware
 * Penalty").
 *
 * The penalties translate the extracted symbols into utilization factors of
 * the device's theoretical peaks:
 *
 *   P_l0,m = min(m_l0 / S1, 1)              register-pressure penalty
 *   P_l0,c = 1 + S2 / S1                    compute-to-memory ratio
 *   P_l1,m = min(m_l1 / S3, 1)              shared-memory pressure
 *   P_l1,c = sch / (ceil(sch/pu_l1)*pu_l1)  warp-scheduler utilization,
 *            sch = ceil(S4 / n_l1)
 *   alpha_l1 = S4 / (sch * n_l1)            intra-warp occupancy waste
 *   P_l2,c = S6 / (ceil(S6/pu_l2)*pu_l2)    SM wave quantization
 *   P_l2,m = S7 / (ceil(S7/n_l2)*n_l2)      transaction utilization
 *            (per statement, from its S7)
 *
 * Note P_l0,c is deliberately > 1 as defined in the paper — the analyzer
 * only ever compares schedules of the same task, so only relative scale
 * matters.
 */

#include "core/symbols.hpp"
#include "device/device_spec.hpp"

namespace pruner {

/** Whole-program penalty terms for one (task, schedule) pair. */
struct PenaltySet
{
    double p_l0_m = 1.0;
    double p_l0_c = 1.0;
    double p_l1_m = 1.0;
    double p_l1_c = 1.0;
    double alpha_l1 = 1.0;
    double p_l2_c = 1.0;

    /** Product of the program-level memory penalties (P_l2,m is applied
     *  per statement, see statementP2m). */
    double memoryProduct() const;
};

/** Compute the whole-program penalties for @p sym on @p device. */
PenaltySet computePenalties(const SymbolSet& sym, const DeviceSpec& device);

/** Per-statement transaction penalty P_l2,m from the statement's S7. */
double statementP2m(const StatementSymbols& stmt, const DeviceSpec& device);

} // namespace pruner
