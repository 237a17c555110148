#include "core/pruner_tuner.hpp"

#include <algorithm>
#include <sstream>

#include "obs/trace.hpp"
#include "replay/session_log.hpp"
#include "search/explorer.hpp"
#include "search/tuning_session.hpp"
#include "support/stats.hpp"

namespace pruner {

PrunerPolicy::PrunerPolicy(const DeviceSpec& device, PrunerConfig config,
                           uint64_t model_seed)
    : device_(device),
      config_(std::move(config)),
      model_seed_(model_seed),
      model_(std::make_unique<PaCMModel>(device, model_seed, config_.pacm)),
      explorer_(device, config_.sa)
{
    if (!config_.pretrained.empty()) {
        model_->setParams(config_.pretrained);
    }
}

std::string
PrunerPolicy::name() const
{
    return config_.use_moa ? "MoA-Pruner" : "Pruner";
}

std::string
PrunerPolicy::replayConfig() const
{
    std::ostringstream out;
    out << "model_seed=" << hexU64(model_seed_)
        << "\tlse=" << (config_.use_lse ? 1 : 0)
        << "\tmoa=" << (config_.use_moa ? 1 : 0)
        << "\tfinetune=" << (config_.online_finetune ? 1 : 0)
        << "\trinit=" << config_.random_init
        << "\tmutants=" << config_.incumbent_mutants
        << "\tmoa_every=" << config_.moa_train_every
        << "\tmoa_m=" << doubleBits(config_.moa_momentum)
        << "\tpop=" << config_.lse.population
        << "\tsteps=" << config_.lse.n_steps
        << "\tspec=" << config_.lse.spec_size
        << "\tsa_c=" << (config_.sa.use_compute_penalties ? 1 : 0)
        << "\tsa_m=" << (config_.sa.use_memory_penalties ? 1 : 0)
        << "\tpacm_s=" << (config_.pacm.use_statement_features ? 1 : 0)
        << "\tpacm_d=" << (config_.pacm.use_dataflow_features ? 1 : 0)
        << "\tpretrained=" << (config_.pretrained.empty() ? 0 : 1);
    return out.str();
}

TuneResult
PrunerPolicy::tune(const Workload& workload, const TuneOptions& opts)
{
    // MoA's Siamese copy starts from the weights the run starts with.
    std::unique_ptr<MoAAdapter> moa;
    if (config_.use_moa) {
        moa = std::make_unique<MoAAdapter>(model_.get(),
                                           config_.moa_momentum);
        if (!config_.pretrained.empty()) {
            moa->initializeFromPretrained(config_.pretrained);
        }
    }
    TuningSession session(*this, device_, *model_, workload, opts,
                          {.measurer_salt = 0x9EA5,
                           .online_training = config_.online_finetune,
                           .moa = moa.get(),
                           .moa_train_every = config_.moa_train_every});
    LseConfig lse_config = config_.lse;
    lse_config.score_pool = session.pool();
    lse_config.metrics = &session.metrics;
    lse_config.explorer = session.explorer.get();
    // The draft step (Algorithm 1's draft and verify): LSE drafts every
    // picked task first, then PaCM verifies each draft and its batch is
    // selected.
    return session.run([&](int round, const std::vector<size_t>& picked) {
        SimClock& clock = session.clock;
        Rng& rng = session.rng;

        struct Drafted
        {
            size_t task_index;
            const SubgraphTask* task;
            ScheduleSampler sampler;
            std::vector<Schedule> draft;
        };
        std::vector<Drafted> drafted;
        drafted.reserve(picked.size());

        // --- Draft ------------------------------------------------------
        // All of the round's tasks draft back to back on the main thread (the
        // SA fitness fan-out inside explore() uses the shared pool); in async
        // mode the previous round's model update trains concurrently on that
        // same pool.
        const double draft_begin_s = clock.total(CostCategory::Exploration);
        for (const size_t idx : picked) {
            const SubgraphTask& task = session.workload.tasks[idx].task;
            Drafted d{idx, &task, ScheduleSampler(task, device_), {}};
            obs::ScopedSpan draft_span(session.tracer, obs::TraceTrack::Main,
                                       &clock, "draft", "explore");
            draft_span.argU64("task", idx);
            draft_span.argStr("explorer", session.explorer->key());
            std::vector<Schedule>& draft = d.draft;
            if (config_.use_lse) {
                std::vector<Schedule> seeds;
                if (const Schedule* best = session.db.bestSchedule(task)) {
                    seeds.push_back(*best);
                }
                size_t sa_evals = 0;
                const auto spec =
                    explorer_.explore(task, lse_config, seeds, rng, &sa_evals);
                clock.charge(CostCategory::Exploration,
                             static_cast<double>(sa_evals) *
                                 session.opts.constants.sa_eval_per_candidate);
                draft.reserve(spec.size() + config_.random_init);
                for (const auto& scored : spec) {
                    draft.push_back(scored.sch);
                }
                // Algorithm 1, line 10: union with random-init schedules to
                // keep exploration randomness.
                const auto random_part =
                    d.sampler.sampleMany(rng, config_.random_init);
                draft.insert(draft.end(), random_part.begin(),
                             random_part.end());
                // Mutation neighbourhood of the incumbent: judged by PaCM, so
                // hill-climbing is not capped by the draft model's biases.
                if (!seeds.empty() && config_.incumbent_mutants > 0) {
                    ScheduleMutator mutator(task, device_);
                    for (size_t m = 0; m < config_.incumbent_mutants; ++m) {
                        draft.push_back(mutator.mutate(seeds.front(), rng));
                    }
                }
            } else {
                // Ablation "w/o LSE": the learned model must score the entire
                // evolutionary population, exactly like the Ansor-style loop.
                // The model is stable during the run: async updates install
                // before this point.
                session.installPendingUpdate();
                EvolutionConfig evo_config;
                evo_config.out_size = config_.lse.spec_size;
                size_t evals = 0;
                const auto ranked =
                    session.proposeScored(task, evo_config, evals);
                draft.reserve(ranked.size());
                for (const auto& scored : ranked) {
                    draft.push_back(scored.sch);
                }
            }
            draft_span.argU64("drafted", draft.size());
            draft_span.close();
            session.round_stats.addDrafted(draft.size());
            drafted.push_back(std::move(d));
        }
        session.stage_hists.observeDraft(
            clock.total(CostCategory::Exploration) - draft_begin_s);

        // --- Verify -----------------------------------------------------
        // Swap in the weights trained during the draft stage: PaCM must be
        // stable for the whole verify pass (never torn mid-round).
        session.syncModel(round);
        // PaCM scores only the drafted candidates; predict_batch-sized
        // sub-spans fan out across the pool, each one batched GEMM pass
        // (identical values to one serial predict call).
        obs::ScopedSpan verify_span(session.tracer, obs::TraceTrack::Main,
                                    &clock, "verify", "explore");
        const double verify_begin_s = clock.total(CostCategory::Exploration);
        std::vector<RoundSlot> slots;
        slots.reserve(drafted.size());
        for (const Drafted& d : drafted) {
            const std::vector<double> scores = scoreChunked(
                [&](std::span<const Schedule> cands) {
                    return model_->predict(*d.task, cands);
                },
                d.draft, session.pool(),
                static_cast<size_t>(std::max(session.opts.predict_batch, 1)));
            clock.charge(CostCategory::Exploration,
                         static_cast<double>(d.draft.size()) *
                             model_->evalCostPerCandidate());
            std::vector<ScoredSchedule> ranked;
            ranked.reserve(d.draft.size());
            for (size_t i = 0; i < d.draft.size(); ++i) {
                ranked.push_back({d.draft[i], scores[i]});
            }
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto& a, const auto& b) {
                          return greaterNanLast(a.score, b.score);
                      });
            slots.push_back({d.task_index, d.task,
                             session.select(ranked, *d.task, d.sampler)});
        }
        verify_span.close();
        session.stage_hists.observeVerify(
            clock.total(CostCategory::Exploration) - verify_begin_s);
        return slots;
    });
}

} // namespace pruner
