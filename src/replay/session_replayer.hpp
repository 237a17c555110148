#pragma once

/**
 * @file session_replayer.hpp
 * Re-executes a recorded tuning session from its SessionLog alone.
 *
 * The log's header events name the policy factory and its construction
 * parameters, the device, the workload, the TuneOptions, the calibrated
 * cost constants, and the fault plan — everything a fresh, identical run
 * needs. The replayer rebuilds all of it, runs tune() with a fresh
 * recorder attached, and diffs the new log against the recorded one: a
 * faithful replay is byte-identical event for event (same measured
 * values, same injected faults, same simulated clock, same model-weight
 * hashes), no matter how many worker threads re-execute it (the recorded
 * clock-lane count pins the simulated compile overlap).
 *
 * Limitations (refused with FatalError):
 *  - sessions recorded with an ArtifactDb attached (warm-start state is
 *    outside the log),
 *  - policies outside the six built-in factory keys (Pruner, MoA-Pruner,
 *    Ansor, TenSetMLP, TLP, MetaSchedule),
 *  - policies built around pretrained weights (not in the log).
 */

#include <string>

#include "replay/session_log.hpp"
#include "replay/session_recorder.hpp"
#include "search/search_policy.hpp"

namespace pruner {

/** Optional overrides for state the log cannot carry by value. */
struct ReplayEnv
{
    /** Real worker threads for the re-execution (0 = the recorded
     *  measure_workers). Any value reproduces the session bit-exactly:
     *  the recorded clock lanes pin the simulated compile overlap. */
    int workers = 0;
    /** Workload override for sessions whose workload is not in the
     *  registry (e.g. synthetic test workloads). Must match the recorded
     *  task count. Borrowed. */
    const Workload* workload = nullptr;
    /** Device override for sessions on custom DeviceSpecs. Borrowed. */
    const DeviceSpec* device = nullptr;
    /** Observability sinks forwarded to the re-executed tune() (borrowed,
     *  may be nullptr). Because the replayed trajectory is byte-identical
     *  to the recorded one, the regenerated deterministic trace and
     *  metrics are byte-identical to the live run's — a session log is
     *  enough to reconstruct the full pipeline trace post mortem. */
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    /** Forwarded to TuneOptions::collect_round_stats. */
    bool collect_round_stats = false;
};

/** Outcome of one replay. */
struct ReplayResult
{
    TuneResult result;  ///< the re-executed tune() result
    SessionLog log;     ///< the re-recorded session log
    ReplayDiff diff;    ///< first divergence vs the recorded log
};

/** Rebuilds and re-runs recorded sessions. */
class SessionReplayer
{
  public:
    /** Re-execute @p recorded and diff against it. */
    ReplayResult replay(const SessionLog& recorded,
                        const ReplayEnv& env = {}) const;

    /** Convenience: load a saved log and replay it. */
    ReplayResult replayFile(const std::string& path,
                            const ReplayEnv& env = {}) const;
};

} // namespace pruner
