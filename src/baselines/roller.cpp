#include "baselines/roller.hpp"

#include <algorithm>
#include <cmath>

#include "core/symbol_analyzer.hpp"
#include "db/artifact_session.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"

namespace pruner {
namespace baselines {

namespace {

/** Enumerate warp/bank-aligned rTile schedules for one task. */
std::vector<Schedule>
enumerateRTiles(const SubgraphTask& task, const DeviceSpec& device)
{
    std::vector<Schedule> out;
    const size_t n_sp = task.spatial.size();
    const size_t n_rd = task.reduction.size();

    // Aligned building blocks only: Roller never leaves the aligned grid.
    const std::vector<int64_t> thread_opts{32, 64, 128, 256};
    const std::vector<int64_t> reg_opts{1, 2, 4, 8};
    const std::vector<int64_t> k_opts{8, 16, 32};

    for (int64_t threads : thread_opts) {
        for (int64_t reg : reg_opts) {
            for (int64_t k1 : k_opts) {
                std::vector<SpatialSplit> spatial(n_sp);
                // Distribute threads over axes: the last axis (innermost in
                // memory for most operands) gets the contiguous share.
                int64_t remaining = threads;
                for (size_t a = 0; a < n_sp; ++a) {
                    const bool last = a + 1 == n_sp;
                    int64_t t = last ? remaining
                                     : std::max<int64_t>(
                                           1, static_cast<int64_t>(std::sqrt(
                                                  (double)remaining)));
                    // Round to a power of two for alignment.
                    int64_t p = 1;
                    while (p * 2 <= t) {
                        p *= 2;
                    }
                    t = p;
                    remaining = std::max<int64_t>(remaining / t, 1);
                    spatial[a].f[kThread] = t;
                    spatial[a].f[kVThread] = 1;
                    spatial[a].f[kInnerA] = reg;
                    spatial[a].f[kInnerB] = 1;
                }
                std::vector<ReductionSplit> reduction(n_rd);
                for (size_t r = 0; r < n_rd; ++r) {
                    reduction[r].f[1] = k1;
                    reduction[r].f[2] = 1;
                }
                Schedule sch(std::move(spatial), std::move(reduction),
                             /*unroll=*/64, /*vec=*/4,
                             /*cache_shared=*/n_rd > 0);
                sch.repairOuter(task);
                if (sch.valid(task, device.max_threads_per_block)) {
                    out.push_back(std::move(sch));
                }
            }
        }
    }
    return out;
}

/** The Roller policy: enumerate, rank with the micro perf model, measure
 *  the top candidates, keep the best. */
class RollerPolicy : public SearchPolicy
{
  public:
    RollerPolicy(const DeviceSpec& device, uint64_t seed, int trials)
        : device_(device), seed_(seed), trials_(trials), analyzer_(device)
    {
    }

    std::string name() const override { return "Roller"; }

    TuneResult
    tune(const Workload& workload, const TuneOptions& opts) override
    {
        TuneResult result;
        result.policy = name();
        SimClock clock;
        Rng rng(hashCombine(opts.seed, seed_));
        Measurer measurer(device_, &clock, hashCombine(seed_, 0x2011),
                          opts.constants);
        MeasureEnv env(measurer, opts.measure_workers, opts.measure_cache);
        TuningRecordDb db;

        // Roller has no learned model; only records and the measure cache
        // flow through the artifact store.
        ArtifactSession artifacts(opts.artifact_db, opts.artifact_db_path);
        if (artifacts.enabled()) {
            const WarmStartStats warm = artifacts.warmStart(
                workload, opts.warm_start_records ? &db : nullptr,
                opts.measure_cache && opts.reuse_measure_cache
                    ? env.cacheMut()
                    : nullptr,
                nullptr);
            result.warm_records = warm.records_replayed;
        }

        for (const auto& inst : workload.tasks) {
            const SubgraphTask& task = inst.task;
            auto candidates = enumerateRTiles(task, device_);
            // Rank with the empirical micro-model (analog of Roller's
            // rProgram performance estimation).
            std::vector<ScoredSchedule> ranked;
            ranked.reserve(candidates.size());
            for (auto& sch : candidates) {
                ranked.push_back({sch, analyzer_.score(task, sch)});
            }
            clock.charge(CostCategory::Exploration,
                         static_cast<double>(ranked.size()) *
                             opts.constants.sa_eval_per_candidate);
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto& a, const auto& b) {
                          return greaterNanLast(a.score, b.score);
                      });
            ScheduleSampler sampler(task, device_);
            const auto to_measure = selectForMeasurement(
                ranked, task, db, sampler,
                static_cast<size_t>(trials_), /*eps=*/0.0, rng);
            const auto latencies = measurer.measureBatch(task, to_measure);
            for (size_t i = 0; i < to_measure.size(); ++i) {
                if (std::isfinite(latencies[i])) {
                    db.add({task, to_measure[i], latencies[i]});
                }
            }
            artifacts.onMeasured(task, to_measure, latencies);
            const double e2e = workloadBest(workload, db);
            if (std::isfinite(e2e)) {
                result.curve.push_back({clock.now(), e2e});
            }
        }

        result.best_per_task.reserve(workload.tasks.size());
        for (const auto& inst : workload.tasks) {
            result.best_per_task.push_back(db.bestLatency(inst.task));
        }
        result.final_latency = workloadBest(workload, db);
        result.total_time_s = clock.now();
        result.exploration_s = clock.total(CostCategory::Exploration);
        result.measurement_s = clock.total(CostCategory::Measurement);
        result.compile_s = clock.total(CostCategory::Compile);
        result.trials = measurer.totalTrials();
        result.failed_trials = measurer.failedTrials();
        result.cache_hits = measurer.cacheHits();
        result.simulated_trials = measurer.simulatedTrials();
        artifacts.finish(opts.measure_cache ? &env.cache() : nullptr,
                         nullptr);
        return result;
    }

  private:
    DeviceSpec device_;
    uint64_t seed_;
    int trials_;
    SymbolAnalyzer analyzer_;
};

} // namespace

std::unique_ptr<SearchPolicy>
makeRoller(const DeviceSpec& device, uint64_t seed, int trials_per_task)
{
    return std::make_unique<RollerPolicy>(device, seed, trials_per_task);
}

} // namespace baselines
} // namespace pruner
