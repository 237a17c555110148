#pragma once

/**
 * @file measurer.hpp
 * On-device measurement stage: compiles and runs candidate programs on the
 * (simulated) target and charges the SimClock for compilation and
 * measurement, following the cost split of the paper's Tables 1 and 7.
 *
 * measureBatch() is the parallel hot path shared by every search policy:
 * candidates fan out across a ThreadPool with one derived Rng stream per
 * candidate, so results are bit-identical for any worker count, and an LRU
 * MeasureCache makes re-visited (task, schedule) pairs free.
 */

#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/fault_plan.hpp"
#include "search/measure_cache.hpp"
#include "sim/gpu_simulator.hpp"
#include "support/sim_clock.hpp"
#include "support/thread_pool.hpp"

namespace pruner {

class SessionRecorder; // session event sink (src/replay/session_recorder.hpp)

/** One task's slice of a sharded multi-task measurement round (borrowed
 *  views; both pointers must outlive the measureRound call). */
struct RoundBatch
{
    const SubgraphTask* task = nullptr;
    const std::vector<Schedule>* candidates = nullptr;
};

/** Serializable mutable Measurer state (for checkpoint/resume): the
 *  measureAdaptive noise stream, the per-batch seed cursor, and the fault
 *  plan's per-pair attempt counts. Everything else the Measurer holds is
 *  construction-fixed or borrowed wiring. */
struct MeasurerState
{
    RngState rng;
    uint64_t batch_index = 0;
    /** (pair key, attempts), sorted by key for a canonical encoding. */
    std::vector<std::pair<uint64_t, uint32_t>> fault_attempts;
};

/** Measurement executor for one device. */
class Measurer
{
  public:
    /** @param device     target platform
     *  @param clock      simulated clock to charge (may be nullptr)
     *  @param seed       measurement-noise stream seed
     *  @param constants  calibrated per-trial costs */
    Measurer(const DeviceSpec& device, SimClock* clock, uint64_t seed,
             const CostConstants& constants = CostConstants::defaults());

    /** Attach a worker pool for measureBatch (borrowed, may be nullptr =
     *  serial). Changing the pool never changes measured values. */
    void setThreadPool(ThreadPool* pool) { pool_ = pool; }

    /** Attach a measurement cache (borrowed, may be nullptr = uncached). */
    void setCache(MeasureCache* cache) { cache_ = cache; }

    /** Install a deterministic fault-injection plan (copied). The fault
     *  stream is a pure function of (plan seed, task hash, schedule hash,
     *  attempt) — identical at any worker count — and every injected
     *  outcome is recorded through the attached SessionRecorder. Injected
     *  transients (timeouts, flaky latencies) never enter the cache. */
    void setFaultPlan(const FaultPlan& plan) { fault_plan_ = plan; }

    /** Attach a session recorder (borrowed, may be nullptr): every
     *  candidate outcome is emitted in deterministic order, after the
     *  worker phase, on the calling thread. */
    void setRecorder(SessionRecorder* recorder) { recorder_ = recorder; }

    /** Pin the worker count the simulated compile-overlap divisor uses
     *  (0, the default, follows the attached pool's size). Session replay
     *  pins this to the recorded worker count so the simulated clock is
     *  identical no matter how many real threads re-execute the log. */
    void setClockLanes(size_t lanes) { clock_lanes_ = lanes; }

    /** Emulate the device round-trip a real measurement blocks on: each
     *  simulated trial additionally sleeps this long on its worker thread.
     *  Used by benches to demonstrate measurement overlap; zero (the
     *  default) everywhere else. */
    void setTrialLatency(std::chrono::microseconds us) { trial_latency_ = us; }

    /** Rebind the trial counters (measure_*_total, fault_injected_*_total)
     *  to @p metrics — the canonical registration the tuning loops use so
     *  TuneResult and /metrics read the same numbers. nullptr rebinds to
     *  the measurer's private fallback registry (standalone use). Counts
     *  accrued before the rebind stay in the previous registry; bind
     *  before the first measurement. */
    void setMetrics(obs::MetricsRegistry* metrics);

    /** Attach a tracer (borrowed, may be nullptr): measureRound emits one
     *  "measure_round" span per call, stamped with simulated time. */
    void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }

    /**
     * Batched measurement: the parallel verify stage of the
     * draft-then-verify loop.
     *
     * Semantics (independent of pool presence and worker count):
     *  - candidate i draws noise from an Rng seeded by (per-batch seed,
     *    i, schedule hash) — bit-identical results serial vs parallel;
     *  - duplicate candidates within a batch share one simulation;
     *  - cache hits return the previously measured latency and charge
     *    nothing (re-visits are free).
     *
     * Clock model: compilation parallelizes across the host workers
     * (ceil(misses / workers) x compile_per_trial) while the device runs
     * measurements exclusively (misses x measure_per_trial).
     */
    std::vector<double> measureBatch(const SubgraphTask& task,
                                     const std::vector<Schedule>& candidates);

    /**
     * Sharded multi-task round: measure every task's batch through one
     * worker-pool pass, so the pool never drains at task boundaries.
     *
     * Values are bit-identical to calling measureBatch() once per entry in
     * the same order (each sub-batch consumes one per-batch seed and keeps
     * its own in-batch dedup), and — like measureBatch — independent of
     * pool presence and worker count. What changes is the accounting and
     * the wall-clock: host-side compilation overlaps across *all* the
     * round's cache misses (ceil(total_misses / workers) x
     * compile_per_trial, instead of one ceil per task), which is the
     * amortization a single-task round loop cannot get.
     *
     * Tasks in one round are expected to be distinct (TaskScheduler::
     * nextTasks guarantees it); duplicates across sub-batches are not
     * deduplicated within the round, only through the cache.
     */
    std::vector<std::vector<double>>
    measureRound(const std::vector<RoundBatch>& round);

    /** Adaptive variant (the Adatune baseline): early-terminated
     *  measurements cost @p time_scale of a full trial but carry
     *  @p extra_noise additional relative error. */
    std::vector<double> measureAdaptive(
        const SubgraphTask& task, const std::vector<Schedule>& candidates,
        double time_scale, double extra_noise);

    const GpuSimulator& simulator() const { return simulator_; }
    // The trial counters live in the bound MetricsRegistry (see
    // setMetrics); these getters read the current counter values, so they
    // keep working no matter which registry is bound.
    size_t totalTrials() const { return counters_.trials->value(); }
    /** Trials that returned +inf — natural launch failures plus injected
     *  launch failures and timeouts. */
    size_t failedTrials() const { return counters_.failed->value(); }
    /** Trials measureBatch answered from the cache. */
    size_t cacheHits() const { return counters_.cache_hits->value(); }
    /** Trials measureBatch actually simulated (cache misses). */
    size_t simulatedTrials() const { return counters_.simulated->value(); }
    /** Simulated attempts the fault plan turned into launch failures. */
    size_t injectedLaunchFailures() const
    {
        return counters_.injected_launch->value();
    }
    /** Simulated attempts the fault plan timed out. */
    size_t injectedTimeouts() const
    {
        return counters_.injected_timeout->value();
    }
    /** Simulated attempts the fault plan perturbed (flaky latency). */
    size_t injectedFlaky() const { return counters_.injected_flaky->value(); }
    /** All injected faults (launch + timeout + flaky). */
    size_t injectedFaults() const
    {
        return injectedLaunchFailures() + injectedTimeouts() +
               injectedFlaky();
    }
    /** Snapshot the mutable measurement state for a checkpoint. */
    MeasurerState exportState() const;

    /** Restore a state captured by a measurer constructed with the same
     *  (device, seed, constants); subsequent batches draw the exact same
     *  noise and fault streams as the original. */
    void restoreState(const MeasurerState& state);

    size_t workers() const { return pool_ != nullptr ? pool_->size() : 1; }
    /** Divisor of the simulated compile overlap (see setClockLanes). */
    size_t clockLanes() const
    {
        return clock_lanes_ != 0 ? clock_lanes_ : workers();
    }

  private:
    /** Handles into the bound registry (never null once bound). */
    struct MeasureCounters
    {
        obs::Counter* trials = nullptr;
        obs::Counter* failed = nullptr;
        obs::Counter* cache_hits = nullptr;
        obs::Counter* simulated = nullptr;
        obs::Counter* injected_launch = nullptr;
        obs::Counter* injected_timeout = nullptr;
        obs::Counter* injected_flaky = nullptr;
    };

    /** Fault draw for one simulated attempt of a pair: advances the
     *  per-pair attempt counter (sequential pre-pass only). */
    uint32_t nextAttempt(uint64_t task_hash, uint64_t sched_hash);

    /** Record one injected-fault outcome on the bound counters. */
    void countFault(FaultKind kind);

    GpuSimulator simulator_;
    SimClock* clock_;
    Rng rng_;
    CostConstants constants_;
    ThreadPool* pool_ = nullptr;
    MeasureCache* cache_ = nullptr;
    SessionRecorder* recorder_ = nullptr;
    obs::Tracer* tracer_ = nullptr;
    FaultPlan fault_plan_;
    /** Per-(task, schedule) simulated-attempt counts feeding the
     *  transient fault stream; only maintained while a plan is enabled. */
    std::unordered_map<uint64_t, uint32_t> fault_attempts_;
    std::chrono::microseconds trial_latency_{0};
    /** Base of the per-batch seed derivation, fixed at construction so
     *  measureBatch values never depend on interleaved measureAdaptive()
     *  calls. */
    uint64_t batch_seed_base_;
    uint64_t batch_index_ = 0;
    size_t clock_lanes_ = 0;
    /** Fallback registry the counters live in until setMetrics rebinds
     *  them (standalone measurers in tests and benches). */
    obs::MetricsRegistry own_metrics_;
    MeasureCounters counters_;
};

/**
 * Per-tuning-run parallel-verify machinery: owns the optional worker pool
 * and the measurement cache, and attaches both to a Measurer. Every
 * policy's tune() loop builds one from TuneOptions so the wiring stays in
 * one place.
 */
class MeasureEnv
{
  public:
    /** @param measurer   the run's measurer to configure
     *  @param workers    TuneOptions::measure_workers (1 = serial)
     *  @param use_cache  TuneOptions::measure_cache */
    MeasureEnv(Measurer& measurer, int workers, bool use_cache);

    /** Detaches pool and cache from the measurer (they die with the env,
     *  so the measurer must not keep the borrowed pointers). */
    ~MeasureEnv();

    MeasureEnv(const MeasureEnv&) = delete;
    MeasureEnv& operator=(const MeasureEnv&) = delete;

    /** Worker pool for chunked scoring; nullptr when serial. */
    ThreadPool* pool() const { return pool_.get(); }
    const MeasureCache& cache() const { return cache_; }
    /** Mutable cache handle, for warm-starting it from a persisted
     *  snapshot (db/artifact_db) before the first measured batch. */
    MeasureCache* cacheMut() { return &cache_; }

  private:
    Measurer* measurer_;
    std::unique_ptr<ThreadPool> pool_;
    MeasureCache cache_;
};

} // namespace pruner
