#pragma once

/**
 * @file rng.hpp
 * Deterministic random number generation.
 *
 * All stochastic components of the library (schedule sampling, GA mutation,
 * simulator noise, NN initialization) draw from pruner::Rng so that every
 * experiment is reproducible from a single seed. The generator is
 * xoshiro256**, seeded through SplitMix64.
 */

#include <cstdint>
#include <vector>

#include "support/logging.hpp"

namespace pruner {

/** SplitMix64 step; also used as a cheap stateless hash. */
uint64_t splitmix64(uint64_t x);

/** Combine two hash values (boost-style). */
uint64_t hashCombine(uint64_t seed, uint64_t value);

/** Complete serializable Rng state (for checkpoint/resume). */
struct RngState
{
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_normal = false;
    double cached_normal = 0.0;
};

/** Deterministic xoshiro256** generator with convenience distributions. */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Raw 64-bit draw (UniformRandomBitGenerator interface). */
    uint64_t operator()();

    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~0ull; }

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Uniform real in [0, 1). */
    double uniform();

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with given mean/stdev. */
    double normal(double mean, double stdev);

    /** True with probability p. */
    bool bernoulli(double p);

    /** Pick an index in [0, n) uniformly. Requires n > 0. */
    size_t index(size_t n);

    /**
     * Sample an index proportional to the given non-negative weights.
     * Falls back to uniform if all weights are zero.
     */
    size_t weightedIndex(const std::vector<double>& weights);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[index(i)]);
        }
    }

    /** Spawn an independent child generator (for parallel determinism). */
    Rng split();

    /** Snapshot the full generator state (bit-exact). */
    RngState state() const;

    /** Restore a state captured with state(); the stream continues
     *  exactly where the snapshot left off. */
    void setState(const RngState& state);

  private:
    uint64_t s_[4];
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

} // namespace pruner
