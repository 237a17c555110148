#include "search/evolution.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"

namespace pruner {

std::vector<double>
scoreChunked(const ScoreFn& score, std::span<const Schedule> candidates,
             ThreadPool* pool, size_t chunk)
{
    if (chunk == 0 || candidates.size() <= chunk) {
        return score(candidates);
    }
    const size_t n_chunks = (candidates.size() + chunk - 1) / chunk;
    if (pool == nullptr) {
        // Serial, but still chunk-capped: the cap bounds the memory of a
        // batched cost-model pass, which matters most in serial runs.
        // Slices concatenate in order, so values are identical.
        std::vector<double> out;
        out.reserve(candidates.size());
        for (size_t c = 0; c < n_chunks; ++c) {
            const size_t begin = c * chunk;
            const size_t len = std::min(chunk, candidates.size() - begin);
            const auto slice = score(candidates.subspan(begin, len));
            out.insert(out.end(), slice.begin(), slice.end());
        }
        return out;
    }
    std::vector<std::vector<double>> slices(n_chunks);
    pool->parallelFor(n_chunks, [&](size_t c) {
        const size_t begin = c * chunk;
        const size_t len =
            std::min(chunk, candidates.size() - begin);
        slices[c] = score(candidates.subspan(begin, len));
    });
    std::vector<double> out;
    out.reserve(candidates.size());
    for (auto& slice : slices) {
        out.insert(out.end(), slice.begin(), slice.end());
    }
    return out;
}

EvolutionarySearch::EvolutionarySearch(const SubgraphTask& task,
                                       const DeviceSpec& device)
    : task_(&task),
      device_(&device),
      sampler_(task, device),
      mutator_(task, device)
{
}

std::vector<ScoredSchedule>
EvolutionarySearch::run(const EvolutionConfig& config, const ScoreFn& score,
                        const std::vector<Schedule>& seeds, Rng& rng,
                        size_t* n_evaluated) const
{
    size_t evals = 0;
    size_t mutations = 0;
    size_t crossovers = 0;

    // Initial generation: seeds + random samples.
    std::vector<Schedule> population;
    population.reserve(config.population);
    for (const auto& seed : seeds) {
        if (population.size() >= config.population) {
            break;
        }
        Schedule copy = seed;
        if (sampler_.repair(copy)) {
            population.push_back(std::move(copy));
        }
    }
    const auto random_init =
        sampler_.sampleMany(rng, config.population - population.size());
    population.insert(population.end(), random_init.begin(),
                      random_init.end());

    // All-time best set, deduplicated by schedule hash.
    std::unordered_map<uint64_t, ScoredSchedule> best_set;
    auto record = [&](const Schedule& sch, double s) {
        auto [it, inserted] = best_set.try_emplace(sch.hash());
        if (inserted || s > it->second.score) {
            it->second = {sch, s};
        }
    };

    std::vector<double> scores;
    for (int iter = 0; iter <= config.iterations; ++iter) {
        scores = scoreChunked(score, population, config.score_pool,
                              config.score_chunk);
        PRUNER_CHECK(scores.size() == population.size());
        evals += population.size();
        for (size_t i = 0; i < population.size(); ++i) {
            record(population[i], scores[i]);
        }
        if (iter == config.iterations) {
            break;
        }

        // Selection weights: softmax over scores (temperature by spread).
        std::vector<size_t> order(population.size());
        for (size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return greaterNanLast(scores[a], scores[b]);
        });
        double mx = scores[order.front()];
        double mn = scores[order.back()];
        const double spread = std::max(mx - mn, 1e-12);
        std::vector<double> weights(population.size());
        for (size_t i = 0; i < population.size(); ++i) {
            weights[i] = std::exp(2.0 * (scores[i] - mx) / spread);
        }

        std::vector<Schedule> next;
        next.reserve(config.population);
        const size_t n_elite = std::max<size_t>(
            1, static_cast<size_t>(config.elite_frac *
                                   static_cast<double>(config.population)));
        for (size_t e = 0; e < n_elite && e < order.size(); ++e) {
            next.push_back(population[order[e]]);
        }
        while (next.size() < config.population) {
            const size_t a = rng.weightedIndex(weights);
            if (rng.bernoulli(config.mutation_prob)) {
                next.push_back(mutator_.mutate(population[a], rng));
                ++mutations;
            } else {
                const size_t b = rng.weightedIndex(weights);
                next.push_back(
                    mutator_.crossover(population[a], population[b], rng));
                ++crossovers;
            }
        }
        population = std::move(next);
    }

    std::vector<ScoredSchedule> out;
    out.reserve(best_set.size());
    for (auto& [hash, scored] : best_set) {
        out.push_back(std::move(scored));
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return greaterNanLast(a.score, b.score);
    });
    if (out.size() > config.out_size) {
        out.resize(config.out_size);
    }
    if (n_evaluated != nullptr) {
        *n_evaluated = evals;
    }
    if (config.metrics != nullptr) {
        config.metrics->counter("evo_runs_total")->add();
        config.metrics->counter("evo_generations_total")
            ->add(static_cast<uint64_t>(config.iterations) + 1);
        config.metrics->counter("evo_evaluations_total")->add(evals);
        config.metrics->counter("evo_mutations_total")->add(mutations);
        config.metrics->counter("evo_crossovers_total")->add(crossovers);
    }
    return out;
}

} // namespace pruner
