#pragma once

/**
 * @file sim_clock.hpp
 * Simulated wall-clock used for search-time accounting.
 *
 * The paper reports tuning time broken into exploration / training /
 * measurement (Table 1) plus candidate compilation overhead (implied by the
 * end-to-end totals of Table 7). Our substrate executes in milliseconds of
 * real time, so each search action instead charges a calibrated simulated
 * cost to a SimClock; tuning curves and time tables are plotted against the
 * simulated clock. The constants below are calibrated so that Ansor with
 * 2,000 trials reproduces the paper's Table 1 split on Jetson Orin
 * (exploration ~35 min, training ~5.4 min, measurement ~44.4 min) and the
 * Table 7 end-to-end totals on Titan V.
 */

#include <array>
#include <cstddef>
#include <string>

namespace pruner {

/** Cost categories matching the paper's tuning-cost breakdown. */
enum class CostCategory : int {
    Exploration = 0, ///< feature extraction + cost-model / SA inference
    Training = 1,    ///< online cost-model training
    Measurement = 2, ///< on-device program measurement
    Compile = 3,     ///< candidate compilation before measurement
    Other = 4,
};

/** Number of cost categories. */
constexpr int kNumCostCategories = 5;

/**
 * Calibrated per-action simulated costs, in seconds.
 *
 * Derivation from the paper (Ansor, 2,000 trials = 200 rounds x 10):
 *  - measurement 44.4 min / 2000 trials  -> ~1.33 s per trial
 *  - exploration 35 min / 200 rounds with ~4096 learned-model candidate
 *    evaluations per round -> ~2.56 ms per candidate (features + inference)
 *  - training 5.4 min / 200 rounds -> ~1.62 s per round for the MLP
 *  - Table 7 totals imply ~1.2 s per-trial compilation overhead
 */
struct CostConstants
{
    double mlp_eval_per_candidate = 4.1e-3;
    double pacm_eval_per_candidate = 4.9e-3;
    double tlp_eval_per_candidate = 8.0e-3;
    double sa_eval_per_candidate = 5.0e-5;
    double mlp_train_per_round = 1.62;
    double pacm_train_per_round = 4.5;
    double tlp_train_per_round = 11.0;
    double measure_per_trial = 1.7;
    double compile_per_trial = 0.8;
    double task_switch_overhead = 0.05;

    /** Shared defaults used by every experiment (server-class hosts:
     *  calibrated to the Table 7 Titan V end-to-end totals). */
    static const CostConstants& defaults();

    /** Per-platform constants: Jetson Orin's measurement loop matches the
     *  paper's Table 1 split (44.4 min of measurement for 2,000 trials). */
    static CostConstants forDevice(const std::string& device_name);
};

/** Accumulating simulated clock with per-category totals. */
class SimClock
{
  public:
    SimClock() { reset(); }

    /** Charge @p seconds to category @p c. Requires seconds >= 0. */
    void charge(CostCategory c, double seconds);

    /** Total simulated time across all categories, in seconds. */
    double now() const;

    /** Simulated time charged to one category, in seconds. */
    double total(CostCategory c) const;

    /** Zero all counters. */
    void reset();

  private:
    std::array<double, kNumCostCategories> totals_;
};

} // namespace pruner
