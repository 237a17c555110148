#include "replay/session_replayer.hpp"

#include <algorithm>

#include "baselines/ansor.hpp"
#include "baselines/metaschedule.hpp"
#include "baselines/tenset_mlp.hpp"
#include "baselines/tlp.hpp"
#include "core/pruner_tuner.hpp"
#include "device/device_spec.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {

/** The recorded header event of kind @p kind, or FatalError. */
EventFields
headerFields(const SessionLog& log, const std::string& kind)
{
    const SessionEvent* event = log.find(kind);
    if (event == nullptr) {
        PRUNER_FATAL("session replay: log has no '" << kind << "' event");
    }
    return EventFields(event->line);
}

/** Refuse a session whose policy started from pretrained weights: they
 *  are not stored in the log. */
void
refusePretrained(const EventFields& cfg)
{
    if (cfg.getInt("pretrained") != 0) {
        PRUNER_FATAL("session replay: session used pretrained weights, "
                     "which are not stored in the log");
    }
}

std::unique_ptr<SearchPolicy>
makePrunerFromConfig(const DeviceSpec& device, const EventFields& cfg)
{
    refusePretrained(cfg);
    PrunerConfig config;
    config.use_lse = cfg.getInt("lse") != 0;
    config.use_moa = cfg.getInt("moa") != 0;
    config.online_finetune = cfg.getInt("finetune") != 0;
    config.random_init = static_cast<size_t>(cfg.getInt("rinit"));
    config.incumbent_mutants = static_cast<size_t>(cfg.getInt("mutants"));
    config.moa_train_every = static_cast<int>(cfg.getInt("moa_every"));
    config.moa_momentum = cfg.getDoubleBits("moa_m");
    config.lse.population = static_cast<size_t>(cfg.getInt("pop"));
    config.lse.n_steps = static_cast<int>(cfg.getInt("steps"));
    config.lse.spec_size = static_cast<size_t>(cfg.getInt("spec"));
    config.sa.use_compute_penalties = cfg.getInt("sa_c") != 0;
    config.sa.use_memory_penalties = cfg.getInt("sa_m") != 0;
    config.pacm.use_statement_features = cfg.getInt("pacm_s") != 0;
    config.pacm.use_dataflow_features = cfg.getInt("pacm_d") != 0;
    return std::make_unique<PrunerPolicy>(device, config,
                                          cfg.getU64("model_seed"));
}

/** The built-in policy recorded under @p factory, rebuilt from its
 *  construction parameters; FatalError for any other key. */
std::unique_ptr<SearchPolicy>
makeReplayPolicy(const std::string& factory, const DeviceSpec& device,
                 const EventFields& cfg)
{
    if (factory == "Pruner" || factory == "MoA-Pruner") {
        return makePrunerFromConfig(device, cfg);
    }
    if (factory == "Ansor") {
        return baselines::makeAnsor(device, cfg.getU64("model_seed"));
    }
    if (factory == "MetaSchedule") {
        return baselines::makeMetaSchedule(device, cfg.getU64("model_seed"));
    }
    if (factory == "TenSetMLP") {
        refusePretrained(cfg);
        return baselines::makeTenSetMlp(device, cfg.getU64("model_seed"), {},
                                        cfg.getInt("online") != 0);
    }
    if (factory == "TLP") {
        refusePretrained(cfg);
        return baselines::makeTlp(device, cfg.getU64("model_seed"), {},
                                  cfg.getInt("online") != 0);
    }
    PRUNER_FATAL("session replay: no factory registered for '" << factory
                                                                << "'");
}

/** The registry workload whose display name matches @p name, truncated to
 *  @p tasks tasks; FatalError when nothing matches. */
Workload
workloadByDisplayName(const std::string& name, size_t tasks)
{
    for (const std::string& key : workloads::allNames()) {
        Workload candidate = workloads::byName(key);
        if (candidate.name != name) {
            continue;
        }
        if (candidate.tasks.size() < tasks) {
            PRUNER_FATAL("session replay: workload '"
                         << name << "' has " << candidate.tasks.size()
                         << " tasks, session recorded " << tasks);
        }
        candidate.tasks.resize(tasks);
        return candidate;
    }
    PRUNER_FATAL("session replay: workload '"
                 << name
                 << "' is not in the registry — pass it via ReplayEnv");
}

} // namespace

ReplayResult
SessionReplayer::replay(const SessionLog& recorded,
                        const ReplayEnv& env) const
{
    PRUNER_CHECK_MSG(recorded.complete(),
                     "session replay: incomplete log (no 'end' event)");
    const EventFields session = headerFields(recorded, "session");
    const EventFields options = headerFields(recorded, "options");
    const EventFields constants = headerFields(recorded, "constants");
    const EventFields faults = headerFields(recorded, "faults");
    const EventFields policycfg = headerFields(recorded, "policycfg");

    if (session.getInt("db") != 0) {
        PRUNER_FATAL(
            "session replay: session was recorded with an ArtifactDb "
            "attached; its warm-start state is outside the log");
    }

    // --- Device and policy ----------------------------------------------
    const DeviceSpec device = env.device != nullptr
                                  ? *env.device
                                  : DeviceSpec::byName(session.get("device"));
    std::unique_ptr<SearchPolicy> policy =
        makeReplayPolicy(session.get("factory"), device, policycfg);

    // --- Workload -------------------------------------------------------
    const size_t tasks = static_cast<size_t>(session.getInt("tasks"));
    Workload workload;
    if (env.workload != nullptr) {
        PRUNER_CHECK_MSG(env.workload->tasks.size() == tasks,
                         "session replay: ReplayEnv workload task count "
                         "does not match the recorded session");
        workload = *env.workload;
    } else {
        workload = workloadByDisplayName(session.get("workload"), tasks);
    }

    // --- Options --------------------------------------------------------
    TuneOptions opts;
    opts.seed = options.getU64("seed");
    opts.rounds = static_cast<int>(options.getInt("rounds"));
    opts.measures_per_round = static_cast<int>(options.getInt("mpr"));
    opts.online_training = options.getInt("online") != 0;
    opts.train_epochs = static_cast<int>(options.getInt("epochs"));
    opts.eps_greedy = options.getDoubleBits("eps");
    opts.measure_cache = options.getInt("cache") != 0;
    opts.predict_batch = static_cast<int>(options.getInt("pb"));
    opts.tasks_per_round = static_cast<int>(options.getInt("tpr"));
    opts.async_training = options.getInt("async") != 0;
    // Any real thread count reproduces the session: measured values use
    // per-candidate derived streams, and the recorded lane count pins the
    // simulated compile overlap. Default to one worker per recorded lane
    // (the recorded run's parallelism).
    opts.clock_lanes = static_cast<int>(options.getInt("lanes"));
    opts.measure_workers =
        env.workers > 0 ? env.workers : opts.clock_lanes;

    CostConstants& c = opts.constants;
    c.mlp_eval_per_candidate = constants.getDoubleBits("mlp_eval");
    c.pacm_eval_per_candidate = constants.getDoubleBits("pacm_eval");
    c.tlp_eval_per_candidate = constants.getDoubleBits("tlp_eval");
    c.sa_eval_per_candidate = constants.getDoubleBits("sa_eval");
    c.mlp_train_per_round = constants.getDoubleBits("mlp_train");
    c.pacm_train_per_round = constants.getDoubleBits("pacm_train");
    c.tlp_train_per_round = constants.getDoubleBits("tlp_train");
    c.measure_per_trial = constants.getDoubleBits("measure");
    c.compile_per_trial = constants.getDoubleBits("compile");
    c.task_switch_overhead = constants.getDoubleBits("switch");

    FaultPlan& plan = opts.fault_plan;
    plan.seed = faults.getU64("seed");
    plan.launch_failure_rate = faults.getDoubleBits("launch");
    plan.timeout_rate = faults.getDoubleBits("timeout");
    plan.flaky_rate = faults.getDoubleBits("flaky");
    plan.flaky_sigma = faults.getDoubleBits("sigma");
    plan.timeout_extra_s = faults.getDoubleBits("extra");

    // Draft-stage explorer: part of the trajectory, recorded by every
    // session ("-" stands for an empty config).
    opts.explorer = policycfg.get("explorer");
    const std::string& explorer_cfg = policycfg.get("explorercfg");
    opts.explorer_config = explorer_cfg == "-" ? "" : explorer_cfg;

    // Observability pass-through: pure outputs, never part of the
    // recorded log or the replay diff.
    opts.metrics = env.metrics;
    opts.tracer = env.tracer;
    opts.collect_round_stats = env.collect_round_stats;

    // --- Re-execute and diff --------------------------------------------
    SessionRecorder recorder;
    opts.recorder = &recorder;
    ReplayResult out;
    out.result = policy->tune(workload, opts);
    PRUNER_CHECK_MSG(recorder.finished(),
                     "session replay: re-execution recorded no session");
    out.log = recorder.log();
    out.diff = replayDiff(recorded, out.log);
    return out;
}

ReplayResult
SessionReplayer::replayFile(const std::string& path,
                            const ReplayEnv& env) const
{
    return replay(SessionLog::load(path), env);
}

} // namespace pruner
