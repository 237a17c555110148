#pragma once

/**
 * @file fault_plan.hpp
 * Deterministic measurement-fault injection for the verify stage.
 *
 * Production tuning fleets see three failure shapes the simulator's
 * resource-limit launch failures cannot model: device-side timeouts,
 * transiently flaky latencies (thermal noise, co-tenant interference), and
 * hosts whose compiled kernels fail to launch for reasons unrelated to the
 * schedule. A FaultPlan injects all three into a Measurer as a pure
 * function of (plan seed, task hash, schedule hash, attempt), so the fault
 * stream is bit-identical at any worker count, independent of batch
 * composition, and fully replayable from a recorded session log
 * (src/replay).
 *
 * Fault semantics:
 *  - LaunchFailure: permanent for a (task, schedule) pair — derived
 *    without the attempt index, mirroring a schedule the target toolchain
 *    cannot build. Returns +inf and may be cached like a natural launch
 *    failure.
 *  - Timeout: transient — derived per attempt. Returns +inf, charges
 *    timeout_extra_s of extra simulated measurement time, and must never
 *    enter the MeasureCache (a revisit re-measures and may succeed).
 *  - FlakyLatency: transient — the finite measurement is scaled by a
 *    lognormal factor drawn per attempt. Never cached, so a revisit
 *    re-measures clean.
 */

#include <cstdint>

namespace pruner {

/** Outcome class of one simulated measurement attempt. */
enum class FaultKind : uint8_t {
    None = 0,          ///< no fault injected (natural outcome)
    LaunchFailure = 1, ///< injected permanent launch failure (+inf)
    Timeout = 2,       ///< injected transient timeout (+inf)
    FlakyLatency = 3,  ///< injected transient latency perturbation
};

/** Deterministic per-candidate fault-injection plan for a Measurer. */
struct FaultPlan
{
    /** Probability a (task, schedule) pair permanently fails to launch. */
    double launch_failure_rate = 0.0;
    /** Per-attempt probability of a measurement timeout. */
    double timeout_rate = 0.0;
    /** Per-attempt probability of a flaky (perturbed) latency. */
    double flaky_rate = 0.0;
    /** Lognormal sigma of the flaky perturbation factor. */
    double flaky_sigma = 0.25;
    /** Extra simulated seconds a timed-out trial blocks the device for. */
    double timeout_extra_s = 10.0;
    /** Root of the fault stream; independent of the measurement seed. */
    uint64_t seed = 0;

    /** True when any fault can fire. */
    bool enabled() const
    {
        return launch_failure_rate > 0.0 || timeout_rate > 0.0 ||
               flaky_rate > 0.0;
    }

    /**
     * Draw the fault for one simulated attempt. Pure: depends only on the
     * plan and the arguments, so the result is identical for any worker
     * count and any batch composition. @p attempt counts prior simulated
     * attempts of the same (task, schedule) pair on this measurer (cache
     * hits and in-batch duplicates do not advance it). When the result is
     * FlakyLatency, @p flaky_scale receives the multiplicative factor.
     */
    FaultKind draw(uint64_t task_hash, uint64_t sched_hash, uint32_t attempt,
                   double* flaky_scale) const;
};

} // namespace pruner
