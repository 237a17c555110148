#pragma once

/**
 * @file optimizer.hpp
 * Adam optimizer, gradient clipping, and the momentum (EMA) parameter
 * update used by the MoA Siamese strategy.
 */

#include <vector>

#include "nn/layers.hpp"

namespace pruner {

/** Adam over a set of registered parameters. */
class Adam
{
  public:
    explicit Adam(std::vector<ParamRef> params, double lr = 1e-3,
                  double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    /** Zero every registered gradient. */
    void zeroGrad();

    /** Scale gradients so their global L2 norm is at most @p max_norm. */
    void clipGradNorm(double max_norm);

    /** One Adam step from the accumulated gradients. */
    void step();

    double lr() const { return lr_; }

  private:
    std::vector<ParamRef> params_;
    std::vector<Matrix> m_, v_;
    double lr_, beta1_, beta2_, eps_;
    int64_t t_ = 0;
};

/** Flatten all parameter values into a single vector (MoA bookkeeping). */
std::vector<double> flattenParams(const std::vector<ParamRef>& params);

/** Write a flat vector back into the parameters (sizes must match). */
void unflattenParams(const std::vector<ParamRef>& params,
                     const std::vector<double>& flat);

/**
 * Momentum (EMA) update: siamese <- m * siamese + (1 - m) * target.
 * This is the MoCo-style update MoA applies to the Siamese cost model
 * after each online fine-tune of the target model (paper Section 4.3,
 * m = 0.99).
 */
void momentumUpdate(std::vector<double>& siamese,
                    const std::vector<double>& target, double m);

} // namespace pruner
