#include "dataset/metrics.hpp"

#include <algorithm>
#include <numeric>

#include "support/logging.hpp"
#include "support/stats.hpp"

namespace pruner {

double
topKScore(const std::vector<TopKGroup>& groups, int k)
{
    PRUNER_CHECK(k >= 1);
    PRUNER_CHECK(!groups.empty());
    double numerator = 0.0;
    double denominator = 0.0;
    for (const auto& g : groups) {
        PRUNER_CHECK(!g.latencies.empty());
        PRUNER_CHECK(g.latencies.size() == g.scores.size());
        const double optimal =
            *std::min_element(g.latencies.begin(), g.latencies.end());
        // Candidates ordered by model score, best first.
        std::vector<size_t> order(g.latencies.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return greaterNanLast(g.scores[a], g.scores[b]);
        });
        double best_of_topk = g.latencies[order[0]];
        const size_t limit =
            std::min<size_t>(static_cast<size_t>(k), order.size());
        for (size_t j = 1; j < limit; ++j) {
            best_of_topk = std::min(best_of_topk, g.latencies[order[j]]);
        }
        numerator += optimal * g.weight;
        denominator += best_of_topk * g.weight;
    }
    PRUNER_CHECK(denominator > 0.0);
    return numerator / denominator;
}

double
bestKScore(const std::vector<BestKGroup>& groups, int k)
{
    PRUNER_CHECK(k >= 1);
    PRUNER_CHECK(!groups.empty());
    double numerator = 0.0;
    double denominator = 0.0;
    for (const auto& g : groups) {
        PRUNER_CHECK(!g.subset_latencies.empty());
        PRUNER_CHECK(g.optimal_latency > 0.0);
        std::vector<double> sorted = g.subset_latencies;
        std::sort(sorted.begin(), sorted.end());
        const size_t pos = std::min<size_t>(static_cast<size_t>(k) - 1,
                                            sorted.size() - 1);
        numerator += g.optimal_latency * g.weight;
        denominator += sorted[pos] * g.weight;
    }
    PRUNER_CHECK(denominator > 0.0);
    return numerator / denominator;
}

} // namespace pruner
