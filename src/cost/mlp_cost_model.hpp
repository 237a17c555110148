#pragma once

/**
 * @file mlp_cost_model.hpp
 * The TenSetMLP-style learned cost model (also used as Ansor's online
 * model in this reproduction): per-statement features through a shared
 * MLP, sum-pooled over statements, then a linear head — one statement
 * branch of depth 2 (see cost_model.hpp).
 */

#include "cost/cost_model.hpp"
#include "feature/statement_features.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

/** Statement-feature MLP cost model (TenSetMLP). */
class MlpCostModel : public CostModel
{
  public:
    /** @param device  platform whose features/labels this model sees
     *  @param seed    weight-init / training-shuffle seed */
    MlpCostModel(const DeviceSpec& device, uint64_t seed)
        : CostModel("TenSetMLP", device, seed,
                    {{FeatureKind::Statement, 2}},
                    CostConstants::defaults().mlp_eval_per_candidate,
                    CostConstants::defaults().mlp_train_per_round)
    {
    }
};

} // namespace pruner
