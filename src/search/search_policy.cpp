#include "search/search_policy.hpp"

#include <cmath>
#include <limits>
#include <unordered_set>

#include "obs/trace.hpp"
#include "search/explorer.hpp"
#include "search/tuning_session.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

double
TuneResult::timeToReach(double latency) const
{
    for (const auto& point : curve) {
        if (point.latency_s <= latency) {
            return point.time_s;
        }
    }
    return kInf;
}

double
workloadBest(const Workload& workload, const TuningRecordDb& db)
{
    double total = 0.0;
    for (const auto& inst : workload.tasks) {
        const double best = db.bestLatency(inst.task);
        if (!std::isfinite(best)) {
            return kInf;
        }
        total += inst.weight * best;
    }
    return total;
}

std::vector<Schedule>
selectForMeasurement(const std::vector<ScoredSchedule>& ranked,
                     const SubgraphTask& task, const TuningRecordDb& db,
                     const ScheduleSampler& sampler, size_t n, double eps,
                     Rng& rng)
{
    std::vector<Schedule> out;
    std::unordered_set<uint64_t> chosen;
    auto try_add = [&](const Schedule& sch) {
        if (out.size() >= n) {
            return;
        }
        if (db.measured(task, sch) || !chosen.insert(sch.hash()).second) {
            return;
        }
        out.push_back(sch);
    };
    // Epsilon share comes from fresh random samples (exploration).
    const size_t n_random =
        static_cast<size_t>(std::ceil(eps * static_cast<double>(n)));
    for (const auto& scored : ranked) {
        if (out.size() + n_random >= n) {
            break;
        }
        try_add(scored.sch);
    }
    size_t guard = 0;
    while (out.size() < n && guard++ < n * 30) {
        try_add(sampler.sample(rng));
    }
    return out;
}

EvoCostModelPolicy::EvoCostModelPolicy(std::string name,
                                       const DeviceSpec& device,
                                       std::unique_ptr<CostModel> model,
                                       EvoPolicyConfig config)
    : name_(std::move(name)),
      device_(device),
      model_(std::move(model)),
      config_(config)
{
    PRUNER_CHECK(model_ != nullptr);
}

bool
EvoCostModelPolicy::supportsTask(const SubgraphTask&) const
{
    return true;
}

TuneResult
EvoCostModelPolicy::tune(const Workload& workload, const TuneOptions& opts)
{
    // Operator-coverage check (Figure 8: unsupported operators abort the
    // whole workload for Adatune / Felix / TLM).
    for (const auto& inst : workload.tasks) {
        if (!supportsTask(inst.task)) {
            TuneResult result;
            result.policy = name_;
            result.failed = true;
            result.failure_reason =
                "unsupported operator: " + inst.task.key;
            result.final_latency = kInf;
            return result;
        }
    }

    TuningSession session(
        *this, device_, *model_, workload, opts,
        {.measurer_salt = 0x3EA5,
         .online_training = config_.online_training,
         .adaptive_measurement = config_.adaptive_measurement,
         .adaptive_time_scale = config_.adaptive_time_scale,
         .adaptive_extra_noise = config_.adaptive_extra_noise});
    EvolutionConfig evo = config_.evolution;
    evo.metrics = &session.metrics;
    // The draft step: the explorer scores its population with the model
    // inline (the evolution's fitness slices fan out across the shared
    // pool), and each task's batch is selected right after its draft. The
    // whole exploration delta is the draft stage; there is no separate
    // verify pass to observe (round_verify_time_us stays empty here).
    return session.run([&](int round, const std::vector<size_t>& picked) {
        // Round-boundary weight swap, before the round's first predict.
        session.syncModel(round);
        std::vector<RoundSlot> slots;
        slots.reserve(picked.size());
        const double draft_begin_s =
            session.clock.total(CostCategory::Exploration);
        for (const size_t idx : picked) {
            const SubgraphTask& task = session.workload.tasks[idx].task;
            obs::ScopedSpan draft_span(session.tracer, obs::TraceTrack::Main,
                                       &session.clock, "draft", "explore");
            draft_span.argU64("task", idx);
            draft_span.argStr("explorer", session.explorer->key());
            size_t evals = 0;
            const auto ranked = session.proposeScored(task, evo, evals);
            draft_span.argU64("evals", evals);
            draft_span.argU64("ranked", ranked.size());
            draft_span.close();
            session.round_stats.addDrafted(ranked.size());
            slots.push_back({idx, &task,
                             session.select(ranked, task,
                                            ScheduleSampler(task, device_))});
        }
        session.stage_hists.observeDraft(
            session.clock.total(CostCategory::Exploration) - draft_begin_s);
        return slots;
    });
}

} // namespace pruner
