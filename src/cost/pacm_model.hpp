#pragma once

/**
 * @file pacm_model.hpp
 * Pruner's Pattern-aware Cost Model (paper Section 4.2, Figure 4).
 *
 * PaCM is a multi-branch "Pattern-aware Transformer":
 *  - statement branch: per-statement features -> 3 linear layers -> sum,
 *  - temporal-dataflow branch: [10, 23] movement rows -> 3 linear layers ->
 *    self-attention -> mean pool,
 *  - concat -> linear head -> normalized score.
 * Trained with LambdaRank on normalized latency, exactly as the paper
 * describes. Either branch can be disabled for the Table 12 ablations
 * (w/o S.F. and w/o T.D.F.). The branches and the batched engine are
 * CostModel's (see cost_model.hpp).
 */

#include "cost/cost_model.hpp"
#include "feature/dataflow_features.hpp"
#include "feature/statement_features.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

/** Ablation switches for PaCM's two feature branches. */
struct PaCMConfig
{
    bool use_statement_features = true; ///< S.F. branch (Table 12)
    bool use_dataflow_features = true;  ///< T.D.F. branch (Table 12)
};

/** The Pattern-aware Cost Model. */
class PaCMModel : public CostModel
{
  public:
    PaCMModel(const DeviceSpec& device, uint64_t seed, PaCMConfig cfg = {})
        : CostModel("PaCM", device, seed,
                    {{FeatureKind::Statement, 3, cfg.use_statement_features},
                     {FeatureKind::Dataflow, 3, cfg.use_dataflow_features}},
                    CostConstants::defaults().pacm_eval_per_candidate,
                    CostConstants::defaults().pacm_train_per_round)
    {
    }
};

} // namespace pruner
