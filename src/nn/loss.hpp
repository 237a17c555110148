#pragma once

/**
 * @file loss.hpp
 * Ranking losses for cost-model training.
 *
 * The paper trains PaCM with normalized latency labels and the LambdaRank
 * objective (Section 4.2). LambdaRank is pairwise: for every pair where
 * candidate i truly outranks candidate j, a RankNet-style lambda weighted
 * by the pair's |delta NDCG| is pushed through the scores.
 */

#include <cstddef>
#include <span>
#include <vector>

namespace pruner {

/** Result of one loss evaluation over a group of candidates. */
struct LossResult
{
    double loss = 0.0;
    /** dL/dscore per candidate (same order as the inputs). */
    std::vector<double> grad;
};

/** Reusable workspace for lambdaRankLossInto: once warm (capacities at
 *  the high-water group size), a loss evaluation allocates nothing. */
struct LossScratch
{
    std::vector<double> rel, rank, by_rel;
    std::vector<size_t> order;
};

/**
 * LambdaRank over one task's candidate group.
 *
 * @param scores     model scores, higher = predicted faster
 * @param latencies  measured latencies, lower = truly faster
 * @param sigma      RankNet temperature
 */
LossResult lambdaRankLoss(const std::vector<double>& scores,
                          const std::vector<double>& latencies,
                          double sigma = 1.0);

/** lambdaRankLoss into a reused result + scratch: byte-identical values
 *  (lambdaRankLoss delegates here), zero heap allocations once warm —
 *  the batched training loop's per-group loss path. */
void lambdaRankLossInto(std::span<const double> scores,
                        std::span<const double> latencies, double sigma,
                        LossResult& out, LossScratch& scratch);

/** Relevance labels used by lambdaRankLoss, into a reused buffer: best
 *  latency -> 1, others proportional to best/latency (the single source
 *  of the relevance mapping; both loss entry points go through it). */
void latencyToRelevanceInto(std::span<const double> latencies,
                            std::vector<double>& out);

} // namespace pruner
