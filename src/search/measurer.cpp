#include "search/measurer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>

#include "replay/session_recorder.hpp"

namespace pruner {

namespace {
/** alias[] marker: candidate is unique in its batch (not a duplicate). */
constexpr size_t kNotAliased = static_cast<size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

Measurer::Measurer(const DeviceSpec& device, SimClock* clock, uint64_t seed,
                   const CostConstants& constants)
    : simulator_(device), clock_(clock), rng_(seed), constants_(constants),
      batch_seed_base_(splitmix64(seed ^ 0xBA7C4ED5EEDull))
{
    setMetrics(nullptr);
}

void
Measurer::setMetrics(obs::MetricsRegistry* metrics)
{
    obs::MetricsRegistry& r = metrics != nullptr ? *metrics : own_metrics_;
    counters_.trials = r.counter("measure_trials_total");
    counters_.failed = r.counter("measure_failed_trials_total");
    counters_.cache_hits = r.counter("measure_cache_hits_total");
    counters_.simulated = r.counter("measure_simulated_trials_total");
    counters_.injected_launch = r.counter("fault_injected_launch_total");
    counters_.injected_timeout = r.counter("fault_injected_timeout_total");
    counters_.injected_flaky = r.counter("fault_injected_flaky_total");
}

void
Measurer::countFault(FaultKind kind)
{
    switch (kind) {
    case FaultKind::LaunchFailure: counters_.injected_launch->add(); break;
    case FaultKind::Timeout: counters_.injected_timeout->add(); break;
    case FaultKind::FlakyLatency: counters_.injected_flaky->add(); break;
    case FaultKind::None: break;
    }
}

uint32_t
Measurer::nextAttempt(uint64_t task_hash, uint64_t sched_hash)
{
    if (!fault_plan_.enabled()) {
        return 0;
    }
    return fault_attempts_[hashCombine(task_hash, sched_hash)]++;
}

MeasurerState
Measurer::exportState() const
{
    MeasurerState state;
    state.rng = rng_.state();
    state.batch_index = batch_index_;
    state.fault_attempts.assign(fault_attempts_.begin(),
                                fault_attempts_.end());
    std::sort(state.fault_attempts.begin(), state.fault_attempts.end());
    return state;
}

void
Measurer::restoreState(const MeasurerState& state)
{
    rng_.setState(state.rng);
    batch_index_ = state.batch_index;
    fault_attempts_.clear();
    fault_attempts_.insert(state.fault_attempts.begin(),
                           state.fault_attempts.end());
}

std::vector<double>
Measurer::measureBatch(const SubgraphTask& task,
                       const std::vector<Schedule>& candidates)
{
    // A single-task round: one code path guarantees the serial loop and
    // the sharded pipeline stay value-identical.
    return std::move(measureRound({RoundBatch{&task, &candidates}}).front());
}

std::vector<std::vector<double>>
Measurer::measureRound(const std::vector<RoundBatch>& round)
{
    // One deterministic span per round: begin/end stamps bracket the
    // round's clock charges (inert without a tracer and a clock).
    obs::ScopedSpan span(tracer_, obs::TraceTrack::Main, clock_,
                         "measure_round", "measure");
    const size_t n_batches = round.size();
    std::vector<std::vector<double>> out(n_batches);
    std::vector<uint64_t> batch_seeds(n_batches);
    std::vector<uint64_t> task_hashes(n_batches);
    std::vector<std::vector<uint64_t>> sched_hashes(n_batches);
    std::vector<std::vector<size_t>> alias(n_batches);
    std::vector<std::vector<FaultKind>> kinds(n_batches);

    // Sequential pre-pass, one sub-batch at a time: draw the per-batch
    // seed, hash every candidate once (the noise seeding and cache insert
    // key off the same hash), resolve cache hits and in-batch duplicates,
    // and assign each simulated attempt its fault-stream ordinal. Done on
    // the calling thread, so seed/attempt consumption and hit/miss
    // accounting are deterministic and identical to sequential
    // measureBatch calls.
    struct Job
    {
        size_t batch;
        size_t index;
        uint32_t attempt;
    };
    std::vector<Job> jobs;
    size_t n_total = 0;
    size_t hits = 0;
    for (size_t b = 0; b < n_batches; ++b) {
        const auto& candidates = *round[b].candidates;
        const size_t n = candidates.size();
        batch_seeds[b] = hashCombine(batch_seed_base_, batch_index_++);
        task_hashes[b] = round[b].task->hash();
        out[b].assign(n, 0.0);
        sched_hashes[b].resize(n);
        alias[b].assign(n, kNotAliased);
        kinds[b].assign(n, FaultKind::None);
        n_total += n;
        std::unordered_map<uint64_t, size_t> first_seen;
        for (size_t i = 0; i < n; ++i) {
            sched_hashes[b][i] = candidates[i].hash();
            double cached = 0.0;
            if (cache_ != nullptr &&
                cache_->lookup(task_hashes[b], sched_hashes[b][i],
                               &cached)) {
                out[b][i] = cached;
                ++hits;
                continue;
            }
            const auto [it, inserted] = first_seen.emplace(
                hashCombine(task_hashes[b], sched_hashes[b][i]), i);
            if (!inserted) {
                alias[b][i] = it->second;
                continue;
            }
            jobs.push_back(
                {b, i, nextAttempt(task_hashes[b], sched_hashes[b][i])});
        }
    }

    // Worker phase: every task's misses fan out through one pool pass, so
    // the pool never drains at task boundaries. Each candidate's noise
    // stream is derived from its sub-batch seed, its index, and its
    // content hash — never from the shared rng_ — and its fault draw from
    // (plan seed, content hashes, attempt) — so values and injected
    // faults are identical for any worker count.
    const auto run_one = [&](size_t job) {
        const auto [b, i, attempt] = jobs[job];
        double scale = 1.0;
        FaultKind kind = fault_plan_.enabled()
                             ? fault_plan_.draw(task_hashes[b],
                                                sched_hashes[b][i], attempt,
                                                &scale)
                             : FaultKind::None;
        if (kind == FaultKind::LaunchFailure || kind == FaultKind::Timeout) {
            out[b][i] = kInf;
        } else {
            Rng trial_rng(hashCombine(hashCombine(batch_seeds[b], i),
                                      sched_hashes[b][i]));
            out[b][i] = simulator_.measure(*round[b].task,
                                           (*round[b].candidates)[i],
                                           trial_rng);
            if (kind == FaultKind::FlakyLatency) {
                if (std::isfinite(out[b][i])) {
                    out[b][i] *= scale;
                } else {
                    kind = FaultKind::None; // natural failure, no perturbation
                }
            }
            if (trial_latency_.count() > 0) {
                std::this_thread::sleep_for(trial_latency_);
            }
        }
        kinds[b][i] = kind;
    };
    if (pool_ != nullptr && jobs.size() > 1) {
        pool_->parallelFor(jobs.size(), run_one);
    } else {
        for (size_t job = 0; job < jobs.size(); ++job) {
            run_one(job);
        }
    }

    size_t timeouts_this_round = 0;
    for (const auto& [b, i, attempt] : jobs) {
        (void)attempt;
        countFault(kinds[b][i]);
        if (kinds[b][i] == FaultKind::Timeout) {
            ++timeouts_this_round;
        }
        // Injected transients never enter the cache: a timeout or a flaky
        // latency is a property of the attempt, not of the (task,
        // schedule) pair, so a revisit must re-measure. Launch failures
        // (natural or injected) are permanent, and their +inf entries make
        // re-visits of unlaunchable schedules free.
        if (cache_ != nullptr && kinds[b][i] != FaultKind::Timeout &&
            kinds[b][i] != FaultKind::FlakyLatency) {
            cache_->insert(task_hashes[b], sched_hashes[b][i], out[b][i]);
        }
    }
    size_t failed_this_round = 0;
    for (size_t b = 0; b < n_batches; ++b) {
        for (size_t i = 0; i < out[b].size(); ++i) {
            if (alias[b][i] != kNotAliased) {
                out[b][i] = out[b][alias[b][i]];
                kinds[b][i] = kinds[b][alias[b][i]];
            }
            if (!std::isfinite(out[b][i])) {
                ++failed_this_round;
            }
        }
    }
    counters_.failed->add(failed_this_round);
    counters_.trials->add(n_total);
    counters_.cache_hits->add(hits);
    counters_.simulated->add(jobs.size());
    span.argU64("batches", n_batches);
    span.argU64("candidates", n_total);
    span.argU64("hits", hits);
    span.argU64("misses", jobs.size());
    span.argU64("timeouts", timeouts_this_round);

    if (clock_ != nullptr && !jobs.empty()) {
        // Compilation is host work and overlaps across workers — across
        // *all* the round's tasks at once, which is where a sharded round
        // beats per-task batches (one ceil instead of one per task). The
        // device itself runs one measurement at a time, and a timed-out
        // trial holds it for its full timeout window on top of the normal
        // per-trial cost. Cache hits charge nothing. The overlap divisor
        // is clockLanes(), not the live pool size, so a replayed session
        // can pin the recorded worker count and reproduce the clock with
        // any real thread count.
        const auto misses = static_cast<double>(jobs.size());
        const auto lanes = static_cast<double>(clockLanes());
        clock_->charge(CostCategory::Compile,
                       std::ceil(misses / lanes) *
                           constants_.compile_per_trial);
        clock_->charge(CostCategory::Measurement,
                       misses * constants_.measure_per_trial +
                           static_cast<double>(timeouts_this_round) *
                               fault_plan_.timeout_extra_s);
    }

    // Session events go out after all accounting, on the calling thread,
    // in (batch, candidate) order — cache hits and aliases included — so
    // the log is identical for any worker count.
    if (recorder_ != nullptr) {
        for (size_t b = 0; b < n_batches; ++b) {
            for (size_t i = 0; i < out[b].size(); ++i) {
                recorder_->onMeasurement(task_hashes[b], sched_hashes[b][i],
                                         out[b][i], kinds[b][i]);
            }
        }
    }
    return out;
}

std::vector<double>
Measurer::measureAdaptive(const SubgraphTask& task,
                          const std::vector<Schedule>& candidates,
                          double time_scale, double extra_noise)
{
    // Same obs surface as measureRound: a deterministic span bracketing
    // the batch's clock charges plus the trial/fault counters. Adaptive
    // measurement bypasses the cache and pool by design, so there are no
    // hits and every trial is simulated.
    obs::ScopedSpan span(tracer_, obs::TraceTrack::Main, clock_,
                         "measure_adaptive", "measure");
    size_t timeouts_this_batch = 0;
    std::vector<double> out;
    out.reserve(candidates.size());
    const uint64_t task_hash = task.hash();
    for (const auto& sch : candidates) {
        const uint64_t sched_hash = sch.hash();
        const uint32_t attempt = nextAttempt(task_hash, sched_hash);
        double scale = 1.0;
        FaultKind kind =
            fault_plan_.enabled()
                ? fault_plan_.draw(task_hash, sched_hash, attempt, &scale)
                : FaultKind::None;
        double latency;
        if (kind == FaultKind::LaunchFailure || kind == FaultKind::Timeout) {
            latency = kInf;
            counters_.failed->add();
        } else {
            latency = simulator_.measure(task, sch, rng_);
            if (std::isfinite(latency)) {
                latency *= std::exp(rng_.normal(0.0, extra_noise));
                if (kind == FaultKind::FlakyLatency) {
                    latency *= scale;
                }
            } else {
                if (kind == FaultKind::FlakyLatency) {
                    kind = FaultKind::None;
                }
                counters_.failed->add();
            }
        }
        countFault(kind);
        if (kind == FaultKind::Timeout) {
            ++timeouts_this_batch;
        }
        out.push_back(latency);
        counters_.trials->add();
        counters_.simulated->add();
        if (clock_ != nullptr) {
            clock_->charge(CostCategory::Compile,
                           constants_.compile_per_trial);
            double measure_s = constants_.measure_per_trial * time_scale;
            if (kind == FaultKind::Timeout) {
                measure_s += fault_plan_.timeout_extra_s;
            }
            clock_->charge(CostCategory::Measurement, measure_s);
        }
        if (recorder_ != nullptr) {
            recorder_->onMeasurement(task_hash, sched_hash, latency, kind);
        }
    }
    span.argU64("candidates", candidates.size());
    span.argU64("timeouts", timeouts_this_batch);
    return out;
}

MeasureEnv::MeasureEnv(Measurer& measurer, int workers, bool use_cache)
    : measurer_(&measurer),
      cache_(use_cache ? MeasureCache::kDefaultCapacity : 0)
{
    if (workers > 1) {
        pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(workers));
        measurer.setThreadPool(pool_.get());
    }
    measurer.setCache(&cache_);
}

MeasureEnv::~MeasureEnv()
{
    measurer_->setThreadPool(nullptr);
    measurer_->setCache(nullptr);
}

} // namespace pruner
