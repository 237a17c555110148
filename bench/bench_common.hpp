#pragma once

/**
 * @file bench_common.hpp
 * Shared helpers for the per-table/per-figure bench binaries.
 *
 * Every bench reproduces one table or figure of the paper at a reduced
 * trial budget (the simulated clock still charges the full calibrated
 * per-action costs, so reported times are paper-scale). Set
 * PRUNER_BENCH_SCALE=<float> to scale tuning rounds up toward the paper's
 * 200-round budget.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/tenset_mlp.hpp"
#include "cost/mlp_cost_model.hpp"
#include "cost/pacm_model.hpp"
#include "cost/tlp_cost_model.hpp"
#include "dataset/dataset.hpp"
#include "db/artifact_db.hpp"
#include "ir/workload_registry.hpp"
#include "sched/sampler.hpp"
#include "search/search_policy.hpp"
#include "sim/gpu_simulator.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace pruner {
namespace bench {

/** Monotonic wall-clock in seconds (shared bench timer). */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-@p reps wall-clock of @p fn, in seconds (single-shot timing is
 *  too noisy on shared hosts). */
template <typename Fn>
inline double
bestOfSeconds(const Fn& fn, int reps = 5)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const double start = nowSeconds();
        fn();
        best = std::min(best, nowSeconds() - start);
    }
    return best;
}

/** Median of a sample (sorts a copy; upper median, 0 when empty) — the
 *  one estimator every bench's repeated-wall-clock sections share. */
inline double
median(std::vector<double> xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

/** Median-of-@p reps wall-clock of @p fn, in seconds. */
template <typename Fn>
inline double
medianOfSeconds(const Fn& fn, int reps = 5)
{
    std::vector<double> walls;
    walls.reserve(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const double start = nowSeconds();
        fn();
        walls.push_back(nowSeconds() - start);
    }
    return median(std::move(walls));
}

/** Run @p fn repeatedly for >= @p min_time_s (and >= 10 iterations);
 *  returns nanoseconds per call. */
inline double
timePerCall(const std::function<void()>& fn, double min_time_s = 0.1)
{
    // Warm-up.
    fn();
    size_t iters = 0;
    const double start = nowSeconds();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 10; ++i) {
            fn();
        }
        iters += 10;
        elapsed = nowSeconds() - start;
    } while (elapsed < min_time_s);
    return elapsed / static_cast<double>(iters) * 1e9;
}

/**
 * Machine-readable bench record (BENCH_PR*.json): an ordered map of
 * sections, each an object of metric -> number. Written only when the
 * binary is invoked with --json <path>; CI uploads the file as the
 * perf-trajectory artifact later perf PRs diff against. Numbers render
 * with %.17g, so reading the file back reproduces the doubles exactly.
 */
class BenchJson
{
  public:
    void
    set(const std::string& section, const std::string& key, double value)
    {
        for (auto& [name, metrics] : sections_) {
            if (name == section) {
                metrics.emplace_back(key, value);
                return;
            }
        }
        sections_.push_back({section, {{key, value}}});
    }

    bool
    writeTo(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        std::fprintf(f, "{\n");
        for (size_t s = 0; s < sections_.size(); ++s) {
            std::fprintf(f, "  \"%s\": {\n", sections_[s].first.c_str());
            const auto& metrics = sections_[s].second;
            for (size_t m = 0; m < metrics.size(); ++m) {
                std::fprintf(f, "    \"%s\": %.17g%s\n",
                             metrics[m].first.c_str(), metrics[m].second,
                             m + 1 < metrics.size() ? "," : "");
            }
            std::fprintf(f, "  }%s\n",
                         s + 1 < sections_.size() ? "," : "");
        }
        std::fprintf(f, "}\n");
        std::fclose(f);
        return true;
    }

  private:
    std::vector<
        std::pair<std::string, std::vector<std::pair<std::string, double>>>>
        sections_;
};

/** Rounds for one tuning run, honouring PRUNER_BENCH_SCALE. */
inline int
scaledRounds(int base)
{
    double scale = 1.0;
    if (const char* env = std::getenv("PRUNER_BENCH_SCALE")) {
        scale = std::max(std::atof(env), 0.1);
    }
    return std::max(static_cast<int>(base * scale), 4);
}

/** Keep only the `max_tasks` most compute-significant tasks (weight x
 *  FLOPs) of a workload — the scaled-down stand-in for full-graph tuning. */
inline Workload
capTasks(Workload w, size_t max_tasks)
{
    if (w.tasks.size() <= max_tasks) {
        return w;
    }
    std::sort(w.tasks.begin(), w.tasks.end(),
              [](const TaskInstance& a, const TaskInstance& b) {
                  return a.weight * a.task.totalFlops() >
                         b.weight * b.task.totalFlops();
              });
    w.tasks.resize(max_tasks);
    return w;
}

/** One worker pool shared by a bench binary's tuning runs. Defaults to 2
 *  workers (the reference bench hosts have few cores); hosts with more
 *  cores can raise it with PRUNER_BENCH_WORKERS=<n>. Values change only
 *  wall-clock, never results. */
inline ThreadPool&
benchPool()
{
    static ThreadPool pool([]() -> size_t {
        if (const char* env = std::getenv("PRUNER_BENCH_WORKERS")) {
            const int workers = std::atoi(env);
            if (workers > 0) {
                return static_cast<size_t>(workers);
            }
        }
        return 2;
    }());
    return pool;
}

/** Run independent jobs on the shared bench pool. */
inline void
runParallel(std::vector<std::function<void()>> jobs)
{
    ThreadPool& pool = benchPool();
    std::vector<std::future<void>> inflight;
    inflight.reserve(jobs.size());
    for (auto& job : jobs) {
        inflight.push_back(pool.submit(std::move(job)));
    }
    for (auto& f : inflight) {
        f.get();
    }
}

/**
 * Bench-wide shared artifact store, opt-in via PRUNER_ARTIFACT_DB=<dir>.
 * Every tuning run of the binary reads/writes the same store, so a second
 * run of a fig/table reproduction replays all previously simulated
 * (task, schedule) pairs from the persisted measure cache instead of
 * paying for them again. Returns nullptr when the variable is unset.
 */
inline ArtifactDb*
benchArtifactDb()
{
    static const std::shared_ptr<ArtifactDb> db =
        []() -> std::shared_ptr<ArtifactDb> {
        const char* env = std::getenv("PRUNER_ARTIFACT_DB");
        if (env == nullptr || *env == '\0') {
            return nullptr;
        }
        return std::make_shared<ArtifactDb>(env);
    }();
    return db.get();
}

/** Standard tuning options for benches. */
inline TuneOptions
benchOptions(const DeviceSpec& device, int rounds, uint64_t seed)
{
    TuneOptions opts;
    opts.rounds = scaledRounds(rounds);
    opts.seed = seed;
    opts.constants = CostConstants::forDevice(device.name);
    opts.artifact_db = benchArtifactDb();
    return opts;
}

/** Pre-train a PaCM on a simulated dataset; returns flat weights. */
inline std::vector<double>
pretrainPaCM(const DeviceSpec& data_device, const DeviceSpec& model_device,
             const std::vector<Workload>& workloads, size_t per_task,
             int epochs, uint64_t seed)
{
    DatasetConfig config;
    config.schedules_per_task = per_task;
    config.seed = seed;
    const auto data = generateDataset(workloads, data_device, config);
    PaCMModel model(model_device, seed);
    return baselines::pretrainCostModel(model, data, epochs);
}

/** Pre-train the TenSet MLP; returns flat weights. */
inline std::vector<double>
pretrainMlp(const DeviceSpec& device, const std::vector<Workload>& workloads,
            size_t per_task, int epochs, uint64_t seed)
{
    DatasetConfig config;
    config.schedules_per_task = per_task;
    config.seed = seed;
    const auto data = generateDataset(workloads, device, config);
    MlpCostModel model(device, seed);
    return baselines::pretrainCostModel(model, data, epochs);
}

/** Pre-train the TLP model; returns flat weights. */
inline std::vector<double>
pretrainTlp(const DeviceSpec& device, const std::vector<Workload>& workloads,
            size_t per_task, int epochs, uint64_t seed)
{
    DatasetConfig config;
    config.schedules_per_task = per_task;
    config.seed = seed;
    const auto data = generateDataset(workloads, device, config);
    TlpCostModel model(device, seed);
    return baselines::pretrainCostModel(model, data, epochs);
}

/**
 * Measured records spread round-robin over @p n_tasks GEMM tasks (one
 * LambdaRank group per task) — the shared training window of the
 * batched-training benches (micro_overhead, table1). Keeping one recipe
 * means every training-identity gate exercises the same data shape.
 */
inline std::vector<MeasuredRecord>
makeTrainingRecords(const DeviceSpec& device, size_t n_records,
                    size_t n_tasks, uint64_t seed)
{
    const GpuSimulator sim(device);
    std::vector<SubgraphTask> tasks;
    for (size_t t = 0; t < n_tasks; ++t) {
        tasks.push_back(makeGemm("train_t" + std::to_string(t), 1,
                                 128 << (t % 3), 128, 128));
    }
    Rng rng(seed);
    std::vector<MeasuredRecord> records;
    size_t t = 0;
    while (records.size() < n_records) {
        const SubgraphTask& task = tasks[t++ % tasks.size()];
        ScheduleSampler sampler(task, device);
        const Schedule sch = sampler.sample(rng);
        const double lat = sim.measure(task, sch, rng);
        if (std::isfinite(lat)) {
            records.push_back({task, sch, lat});
        }
    }
    return records;
}

/**
 * One search-time speedup cell (Fig 7, Table 9): the baseline's whole
 * simulated budget over the time Pruner's curve first reaches the
 * baseline's final latency. Two outcomes are not measurements, print as
 * such and stay out of every geomean:
 *  - Pruner's first curve point already beats the baseline, so the ratio
 *    is only a lower bound set by the budget ("≥ 2.81x");
 *  - Pruner never reaches it within its budget ("not reached").
 */
struct SearchSpeedup
{
    enum class Kind { Measured, AtFirstPoint, NotReached };
    Kind kind = Kind::NotReached;
    double ratio = 0.0; ///< budget / time-to-reach (not when NotReached)

    static SearchSpeedup
    of(const TuneResult& baseline, const TuneResult& ours)
    {
        const double t = ours.timeToReach(baseline.final_latency);
        if (!std::isfinite(t)) {
            return {};
        }
        const bool first = ours.curve.front().latency_s <=
                           baseline.final_latency;
        return {first ? Kind::AtFirstPoint : Kind::Measured,
                baseline.total_time_s / t};
    }

    std::string
    str() const
    {
        switch (kind) {
        case Kind::Measured:
            return Table::fmtSpeedup(ratio);
        case Kind::AtFirstPoint:
            return "≥ " + Table::fmtSpeedup(ratio);
        case Kind::NotReached:
            break;
        }
        return "not reached";
    }
};

/** Geomean of the measured cells with its count, e.g. "1.77x over 5 of
 *  7", or "n/a over 0 of 7" when no cell is measured. */
inline std::string
measuredGeomean(const std::vector<SearchSpeedup>& cells)
{
    std::vector<double> measured;
    for (const SearchSpeedup& c : cells) {
        if (c.kind == SearchSpeedup::Kind::Measured) {
            measured.push_back(c.ratio);
        }
    }
    std::string out =
        measured.empty() ? "n/a" : Table::fmtSpeedup(geomean(measured));
    out += " over " + std::to_string(measured.size()) + " of " +
           std::to_string(cells.size());
    return out;
}

/** Print the standard scaling disclaimer. */
inline void
printScalingNote(int rounds, const char* paper_setup)
{
    std::printf(
        "note: scaled reproduction — %d tuning rounds x 10 trials here vs "
        "%s in the paper;\n      simulated-clock times use the full "
        "calibrated per-action costs (see DESIGN.md).\n\n",
        scaledRounds(rounds), paper_setup);
}

} // namespace bench
} // namespace pruner
