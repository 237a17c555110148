#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/logging.hpp"
#include "support/stats.hpp"

namespace pruner {

void
latencyToRelevanceInto(std::span<const double> latencies,
                       std::vector<double>& out)
{
    PRUNER_CHECK(!latencies.empty());
    double best = latencies[0];
    for (double l : latencies) {
        PRUNER_CHECK_MSG(l > 0.0, "latency must be positive");
        best = std::min(best, l);
    }
    out.resize(latencies.size());
    for (size_t i = 0; i < latencies.size(); ++i) {
        out[i] = best / latencies[i];
    }
}

LossResult
lambdaRankLoss(const std::vector<double>& scores,
               const std::vector<double>& latencies, double sigma)
{
    LossResult out;
    LossScratch scratch;
    lambdaRankLossInto(scores, latencies, sigma, out, scratch);
    return out;
}

void
lambdaRankLossInto(std::span<const double> scores,
                   std::span<const double> latencies, double sigma,
                   LossResult& out, LossScratch& scratch)
{
    PRUNER_CHECK(scores.size() == latencies.size());
    const size_t n = scores.size();
    out.loss = 0.0;
    out.grad.assign(n, 0.0);
    if (n < 2) {
        return;
    }
    std::vector<double>& rel = scratch.rel;
    latencyToRelevanceInto(latencies, rel);

    // Rank positions by current score (descending) for the NDCG discount.
    std::vector<size_t>& order = scratch.order;
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return greaterNanLast(scores[a], scores[b]);
    });
    std::vector<double>& rank = scratch.rank;
    rank.resize(n);
    for (size_t pos = 0; pos < n; ++pos) {
        rank[order[pos]] = static_cast<double>(pos);
    }
    auto discount = [](double pos) { return 1.0 / std::log2(pos + 2.0); };

    // Ideal DCG for normalization (sorted by relevance).
    std::vector<double>& by_rel = scratch.by_rel;
    by_rel.assign(rel.begin(), rel.end());
    std::sort(by_rel.rbegin(), by_rel.rend());
    double idcg = 0.0;
    for (size_t pos = 0; pos < n; ++pos) {
        idcg += (std::pow(2.0, by_rel[pos]) - 1.0) *
                discount(static_cast<double>(pos));
    }
    idcg = std::max(idcg, 1e-12);

    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            if (rel[i] <= rel[j]) {
                continue; // only pairs where i truly outranks j
            }
            const double delta_ndcg =
                std::abs((std::pow(2.0, rel[i]) - std::pow(2.0, rel[j])) *
                         (discount(rank[i]) - discount(rank[j]))) /
                idcg;
            const double diff = sigma * (scores[i] - scores[j]);
            // RankNet: loss = log(1 + exp(-diff)), weighted by |dNDCG|.
            const double loss_ij =
                diff > 30.0 ? 0.0 : std::log1p(std::exp(-diff));
            const double lambda =
                -sigma / (1.0 + std::exp(std::min(diff, 30.0)));
            out.loss += delta_ndcg * loss_ij;
            out.grad[i] += delta_ndcg * lambda;
            out.grad[j] -= delta_ndcg * lambda;
        }
    }
    // Normalize by pair count so group size does not change the scale.
    const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
    out.loss /= pairs;
    for (double& g : out.grad) {
        g /= pairs;
    }
}

} // namespace pruner
