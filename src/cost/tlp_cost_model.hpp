#pragma once

/**
 * @file tlp_cost_model.hpp
 * The TLP baseline cost model: a Transformer over the high-level
 * schedule-primitive sequence — one primitive branch of depth 1 (see
 * cost_model.hpp).
 *
 * TLP avoids heavy feature extraction by encoding schedule primitives as
 * mostly one-hot rows. As the paper stresses, the resulting feature
 * diversity is tiny (only split factors vary between schedules of one
 * task), which makes the model data-hungry and brittle when fine-tuned on
 * small online datasets — behaviour this reproduction inherits naturally
 * from the same encoding. What TLP *is* good at — batching a whole
 * population of candidates into one tensor per forward pass — is exactly
 * what the batched inference engine reproduces here.
 */

#include "cost/cost_model.hpp"
#include "feature/primitive_features.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

/** Primitive-sequence Transformer cost model (TLP). */
class TlpCostModel : public CostModel
{
  public:
    TlpCostModel(const DeviceSpec& device, uint64_t seed)
        : CostModel("TLP", device, seed, {{FeatureKind::Primitive, 1}},
                    CostConstants::defaults().tlp_eval_per_candidate,
                    CostConstants::defaults().tlp_train_per_round)
    {
    }
};

} // namespace pruner
