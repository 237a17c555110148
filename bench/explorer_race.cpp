/**
 * Explorer race: the evidence for keeping the gbt explorer next to the
 * default evolution explorer. For each tuning loop (Pruner and the
 * Ansor-style baseline) it tunes three suites — ResNet-50, BERT-tiny and
 * MobileNet-V2, two tasks each — for seeds 1-10, once per explorer, and
 * compares the final best latency of gbt with evolution's at the same
 * seed. It prints wins, losses and the median gbt/evolution ratio per
 * loop, and exits non-zero unless gbt beats evolution on at least 24 of
 * the 30 Ansor-loop pairs: gbt's surrogate pays off while the Ansor
 * loop's own learned model is still cold.
 *
 *   ./explorer_race
 *
 * Everything runs on the simulated clock with fixed seeds, so the table
 * is byte-stable across hosts and worker counts; the tunes run
 * concurrently on up to four threads only to save wall time.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/ansor.hpp"
#include "bench_common.hpp"
#include "core/pruner_tuner.hpp"
#include "ir/workload_registry.hpp"
#include "support/thread_pool.hpp"

using namespace pruner;
using namespace pruner::bench;

namespace {

enum class Loop
{
    Pruner,
    Ansor,
};

/** gbt's surrogate needs 20 measurements before it drafts, so it takes
 *  over from round 2 of the 6-round budget. */
constexpr const char* kGbtConfig = "min_records=20";
constexpr int kRounds = 6;
constexpr uint64_t kSeeds = 10;
/** gbt must beat evolution on at least this many of the 30 Ansor-loop
 *  pairs. */
constexpr size_t kAnsorWinFloor = 24;

struct Pair
{
    Loop loop;
    size_t suite;
    uint64_t seed;
    double evolution = 0.0; ///< final best latency, seconds
    double gbt = 0.0;
};

/** Final best latency of one tune; +inf when the run failed. */
double
finalLatency(Loop loop, const Workload& w, uint64_t seed,
             const std::string& explorer, const std::string& config)
{
    const auto dev = DeviceSpec::a100();
    TuneOptions opts = benchOptions(dev, kRounds, seed);
    // Concurrent tunes must not warm-start from each other's records.
    opts.artifact_db = nullptr;
    opts.tasks_per_round = 2;
    opts.explorer = explorer;
    opts.explorer_config = config;
    TuneResult result;
    if (loop == Loop::Pruner) {
        PrunerConfig pruner;
        pruner.lse.spec_size = 64;
        result = PrunerPolicy(dev, pruner).tune(w, opts);
    } else {
        // Model seed 3, as in most other Ansor benches. Only the tuning
        // seed varies: the size of gbt's win depends on the cold model it
        // starts from (docs/EXPLORERS.md).
        result = baselines::makeAnsor(dev, 3)->tune(w, opts);
    }
    return result.failed ? INFINITY : result.final_latency;
}

const char*
loopName(Loop loop)
{
    return loop == Loop::Pruner ? "pruner" : "ansor";
}

} // namespace

int
main()
{
    printScalingNote(kRounds, "200 rounds per task");

    const std::vector<std::pair<const char*, Workload>> suites = {
        {"resnet50", capTasks(workloads::resnet50(), 2)},
        {"bert-tiny", capTasks(workloads::bertTiny(), 2)},
        {"mobilenet-v2", capTasks(workloads::mobilenetV2(), 2)},
    };
    std::vector<Pair> pairs;
    for (const Loop loop : {Loop::Pruner, Loop::Ansor}) {
        for (size_t s = 0; s < suites.size(); ++s) {
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                pairs.push_back({loop, s, seed});
            }
        }
    }

    // Two tunes per pair, one per explorer; each writes only its own slot.
    const size_t workers = std::clamp<size_t>(
        std::thread::hardware_concurrency(), 1, 4);
    ThreadPool pool(workers);
    pool.parallelFor(2 * pairs.size(), [&](size_t job) {
        Pair& p = pairs[job / 2];
        const Workload& w = suites[p.suite].second;
        if (job % 2 == 0) {
            p.evolution = finalLatency(p.loop, w, p.seed, "evolution", "");
        } else {
            p.gbt = finalLatency(p.loop, w, p.seed, "gbt", kGbtConfig);
        }
    });

    std::printf("%-7s %-13s %4s %14s %14s %8s\n", "loop", "suite", "seed",
                "evolution_ms", "gbt_ms", "ratio");
    bool all_finite = true;
    size_t ansor_wins = 0;
    for (const Loop loop : {Loop::Pruner, Loop::Ansor}) {
        size_t wins = 0;
        size_t losses = 0;
        std::vector<double> ratios;
        for (const Pair& p : pairs) {
            if (p.loop != loop) {
                continue;
            }
            all_finite = all_finite && std::isfinite(p.evolution) &&
                         std::isfinite(p.gbt);
            const double ratio = p.gbt / p.evolution;
            ratios.push_back(ratio);
            wins += p.gbt < p.evolution ? 1 : 0;
            losses += p.gbt > p.evolution ? 1 : 0;
            std::printf("%-7s %-13s %4llu %14.6g %14.6g %8.3f\n",
                        loopName(loop), suites[p.suite].first,
                        static_cast<unsigned long long>(p.seed),
                        p.evolution * 1e3, p.gbt * 1e3, ratio);
        }
        std::printf("%s: gbt beats evolution %zu/%zu, loses %zu, median "
                    "gbt/evolution %.2f\n\n",
                    loopName(loop), wins, ratios.size(), losses,
                    median(ratios));
        if (loop == Loop::Ansor) {
            ansor_wins = wins;
        }
    }

    if (!all_finite) {
        std::printf("explorer_race: FAIL — a tune failed (see inf rows)\n");
        return 1;
    }
    if (ansor_wins < kAnsorWinFloor) {
        std::printf("explorer_race: FAIL — gbt beats evolution on only "
                    "%zu Ansor-loop pairs (need >= %zu)\n",
                    ansor_wins, kAnsorWinFloor);
        return 1;
    }
    std::printf("explorer_race: gbt beats evolution on %zu Ansor-loop "
                "pairs (need >= %zu)\n",
                ansor_wins, kAnsorWinFloor);
    return 0;
}
