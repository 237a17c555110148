#include "cost/cost_model.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "support/logging.hpp"

namespace pruner {

void
CostModel::bindMetrics(obs::MetricsRegistry* metrics)
{
    if (metrics == nullptr) {
        obs_counters_ = {};
        return;
    }
    obs_counters_.infer_batches = metrics->counter("model_infer_batches_total");
    obs_counters_.infer_candidates =
        metrics->counter("model_infer_candidates_total");
    obs_counters_.infer_pack_rows =
        metrics->counter("model_infer_pack_rows_total");
    obs_counters_.infer_segments =
        metrics->counter("model_infer_segments_total");
    obs_counters_.infer_alias_segments =
        metrics->counter("model_infer_alias_segments_total");
    obs_counters_.train_groups = metrics->counter("model_train_groups_total");
    obs_counters_.train_records =
        metrics->counter("model_train_records_total");
    obs_counters_.train_epochs = metrics->counter("model_train_epochs_total");
}

namespace detail {

std::vector<std::vector<size_t>>
groupByTask(const std::vector<MeasuredRecord>& records)
{
    std::unordered_map<uint64_t, size_t> index_of;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < records.size(); ++i) {
        const uint64_t key = records[i].task.hash();
        auto [it, inserted] = index_of.try_emplace(key, groups.size());
        if (inserted) {
            groups.emplace_back();
        }
        groups[it->second].push_back(i);
    }
    return groups;
}

} // namespace detail

namespace {

// The training settings every learned model shares (see
// trainRankingLoop's contract).
constexpr double kLearningRate = 1e-3;
constexpr double kMaxGradNorm = 5.0;
constexpr size_t kGroupCap = 48;

/** One optimizer step from the group's accumulated gradients. */
void
stepAndZero(Adam& adam)
{
    adam.clipGradNorm(kMaxGradNorm);
    adam.step();
    adam.zeroGrad();
}

} // namespace

double
trainRankingLoop(
    const std::vector<MeasuredRecord>& records, int epochs,
    std::vector<ParamRef> params, Rng& rng, const SubsetScoreFn& score,
    const std::function<void(const std::vector<double>&)>& fit_batch,
    const CostModel::ModelObsCounters& counters)
{
    Adam adam(std::move(params), kLearningRate);
    adam.zeroGrad();
    auto groups = detail::groupByTask(records);
    double last_epoch_loss = 0.0;
    // Loop-level buffers, reused across groups and epochs.
    std::vector<size_t> subset;
    std::vector<double> scores, latencies;
    LossResult loss;
    LossScratch scratch;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng.shuffle(groups);
        double epoch_loss = 0.0;
        size_t batches = 0;
        for (auto& group : groups) {
            if (group.size() < 2) {
                continue;
            }
            rng.shuffle(group);
            subset.assign(group.begin(),
                          group.begin() + std::min(group.size(), kGroupCap));
            scores.resize(subset.size());
            score(subset, scores.data());
            latencies.clear();
            for (size_t idx : subset) {
                latencies.push_back(records[idx].latency);
            }
            lambdaRankLossInto(scores, latencies, /*sigma=*/1.0, loss,
                               scratch);
            fit_batch(loss.grad);
            stepAndZero(adam);
            epoch_loss += loss.loss;
            ++batches;
            obs::counterAdd(counters.train_groups);
            obs::counterAdd(counters.train_records, subset.size());
        }
        last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
        obs::counterAdd(counters.train_epochs);
    }
    return last_epoch_loss;
}

double
trainRankingLoopReference(
    const std::vector<MeasuredRecord>& records, int epochs,
    std::vector<ParamRef> params, Rng& rng, const SubsetScoreFn& score,
    const std::function<void(size_t, double)>& fit_one)
{
    Adam adam(std::move(params), kLearningRate);
    adam.zeroGrad();
    auto groups = detail::groupByTask(records);
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng.shuffle(groups);
        double epoch_loss = 0.0;
        size_t batches = 0;
        for (auto& group : groups) {
            if (group.size() < 2) {
                continue;
            }
            rng.shuffle(group);
            std::vector<size_t> subset(
                group.begin(),
                group.begin() + std::min(group.size(), kGroupCap));
            std::vector<double> scores(subset.size());
            score(subset, scores.data());
            std::vector<double> latencies;
            latencies.reserve(subset.size());
            for (size_t idx : subset) {
                latencies.push_back(records[idx].latency);
            }
            const LossResult loss = lambdaRankLoss(scores, latencies);
            for (size_t i = 0; i < subset.size(); ++i) {
                if (loss.grad[i] != 0.0) {
                    fit_one(subset[i], loss.grad[i]);
                }
            }
            stepAndZero(adam);
            epoch_loss += loss.loss;
            ++batches;
        }
        last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
    }
    return last_epoch_loss;
}

} // namespace pruner
