#pragma once

/**
 * @file stats.hpp
 * Small statistics helpers used across the library and the benches.
 */

#include <cmath>
#include <cstddef>
#include <vector>

namespace pruner {

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double>& v);

/** Sample standard deviation (n-1 denominator); 0 for fewer than 2 items. */
double stdev(const std::vector<double>& v);

/** Geometric mean; requires strictly positive values. */
double geomean(const std::vector<double>& v);

/** Linear-interpolated percentile, p in [0, 100]. */
double percentile(std::vector<double> v, double p);

/** Pearson correlation coefficient; 0 if either side is constant. */
double pearson(const std::vector<double>& a, const std::vector<double>& b);

/**
 * Spearman rank correlation; the standard sanity metric for cost models
 * (how well predicted scores order true latencies).
 */
double spearman(const std::vector<double>& a, const std::vector<double>& b);

/** Ranks with ties broken by average rank (1-based), used by spearman(). */
std::vector<double> rankWithTies(const std::vector<double>& v);

/**
 * Descending comparator for model scores that stays a strict weak order
 * when a diverged model emits NaN (a bare `a > b` does not, which is
 * undefined behaviour in std::sort): NaN ranks after every number, and
 * between two numbers the result is exactly `a > b`, so a NaN-free sort
 * makes the same comparisons and gives the same permutation.
 */
inline bool
greaterNanLast(double a, double b)
{
    if (std::isnan(a)) {
        return false;
    }
    return std::isnan(b) || a > b;
}

/** Exponential moving average accumulator. */
class Ema
{
  public:
    explicit Ema(double alpha) : alpha_(alpha) {}

    /** Feed one observation; returns the updated average. */
    double
    update(double x)
    {
        if (!initialized_) {
            value_ = x;
            initialized_ = true;
        } else {
            value_ = alpha_ * value_ + (1.0 - alpha_) * x;
        }
        return value_;
    }

    double value() const { return value_; }
    bool initialized() const { return initialized_; }

  private:
    double alpha_;
    double value_ = 0.0;
    bool initialized_ = false;
};

/** Running min tracker with the step at which the min was found. */
class BestTracker
{
  public:
    /** Feed one observation at a given time; returns true if it improved. */
    bool
    update(double value, double time)
    {
        if (!initialized_ || value < best_) {
            best_ = value;
            best_time_ = time;
            initialized_ = true;
            return true;
        }
        return false;
    }

    bool initialized() const { return initialized_; }
    double best() const { return best_; }
    double bestTime() const { return best_time_; }

  private:
    bool initialized_ = false;
    double best_ = 0.0;
    double best_time_ = 0.0;
};

} // namespace pruner
