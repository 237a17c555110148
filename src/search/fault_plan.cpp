#include "search/fault_plan.hpp"

#include <cmath>

#include "support/rng.hpp"

namespace pruner {

namespace {
/** Domain separators so the permanent and transient streams never
 *  correlate with each other or with the measurement-noise streams. */
constexpr uint64_t kLaunchSalt = 0xFA17'1A0C'4ED5'0001ull;
constexpr uint64_t kTransientSalt = 0xFA17'71AE'0007'0002ull;
} // namespace

FaultKind
FaultPlan::draw(uint64_t task_hash, uint64_t sched_hash, uint32_t attempt,
                double* flaky_scale) const
{
    const uint64_t pair =
        hashCombine(hashCombine(seed, task_hash), sched_hash);
    if (launch_failure_rate > 0.0) {
        // Attempt-independent: a pair that cannot launch never launches.
        Rng launch_rng(hashCombine(pair, kLaunchSalt));
        if (launch_rng.bernoulli(launch_failure_rate)) {
            return FaultKind::LaunchFailure;
        }
    }
    if (timeout_rate > 0.0 || flaky_rate > 0.0) {
        Rng transient_rng(hashCombine(hashCombine(pair, kTransientSalt),
                                      static_cast<uint64_t>(attempt)));
        const double u = transient_rng.uniform();
        if (u < timeout_rate) {
            return FaultKind::Timeout;
        }
        if (u < timeout_rate + flaky_rate) {
            if (flaky_scale != nullptr) {
                *flaky_scale =
                    std::exp(transient_rng.normal(0.0, flaky_sigma));
            }
            return FaultKind::FlakyLatency;
        }
    }
    return FaultKind::None;
}

} // namespace pruner
