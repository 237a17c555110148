/**
 * Chaos harness for the replay subsystem: record a fleet of tuning
 * sessions under an active fault plan (launch failures, timeouts, flaky
 * latencies), then replay all of them concurrently on a shared thread
 * pool, at worker counts the sessions were never recorded with, and
 * hard-assert that every replay is byte-identical to its recording.
 *
 *   ./chaos_replay [n_sessions] [repeats] [explorer]
 *   ./chaos_replay --golden <path>   # regenerate the checked-in fixture
 *
 * With N sessions and R repeats the harness runs N x 2 x R replays (each
 * session at 1 and 4 workers, R times) across a pool of at least 4
 * workers, so at least 4 replays are always in flight together — replay
 * must hold under concurrent re-execution, not just in isolation.
 *
 * The optional [explorer] argument records every session with that
 * draft-stage explorer ("evolution" or "gbt", see makeExplorer), so the
 * fleet exercises replay of non-default explorer trajectories too.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/ansor.hpp"
#include "core/pruner_tuner.hpp"
#include "ir/workload_registry.hpp"
#include "replay/session_replayer.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

using namespace pruner;

namespace {

/** Explorer key every recorded session tunes with ("" = default). */
std::string g_explorer; // NOLINT(cert-err58-cpp)

/** One recorded session of either tuner, under faults, with async
 *  training and sharded rounds. */
SessionLog
recordSession(size_t index)
{
    const auto dev = DeviceSpec::a100();
    Workload w = index % 2 == 0 ? workloads::resnet50()
                                : workloads::bertTiny();
    w.tasks.resize(2);

    TuneOptions opts;
    opts.rounds = 4;
    opts.seed = 100 + index;
    opts.tasks_per_round = 2;
    opts.measure_workers = 2;
    opts.async_training = true;
    opts.fault_plan.seed = 1000 + index;
    opts.fault_plan.launch_failure_rate = 0.04 + 0.02 * (index % 3);
    opts.fault_plan.timeout_rate = 0.04;
    opts.fault_plan.flaky_rate = 0.12;
    opts.explorer = g_explorer;

    SessionRecorder recorder;
    opts.recorder = &recorder;
    if (index % 2 == 0) {
        PrunerConfig config;
        config.lse.spec_size = 64;
        PrunerPolicy policy(dev, config);
        policy.tune(w, opts);
    } else {
        auto policy = baselines::makeAnsor(dev, 9 + index);
        policy->tune(w, opts);
    }
    PRUNER_CHECK_MSG(recorder.finished(), "recording did not finish");
    return recorder.log();
}

int
runChaos(size_t n_sessions, size_t repeats)
{
    std::printf("chaos_replay: recording %zu sessions under faults...\n",
                n_sessions);
    std::vector<SessionLog> recorded;
    recorded.reserve(n_sessions);
    for (size_t i = 0; i < n_sessions; ++i) {
        recorded.push_back(recordSession(i));
        std::printf("  session %zu: %zu events\n", i, recorded.back().size());
    }

    struct ReplayJob
    {
        size_t session;
        int workers;
    };
    std::vector<ReplayJob> jobs;
    for (size_t r = 0; r < repeats; ++r) {
        for (size_t i = 0; i < n_sessions; ++i) {
            for (const int workers : {1, 4}) {
                jobs.push_back({i, workers});
            }
        }
    }

    // At least 4 replays in flight at once; each replay additionally
    // spins up its own measure pool, so the harness also exercises pool
    // creation under concurrency.
    const size_t pool_size = jobs.size() < 4 ? jobs.size() : 4;
    std::printf("chaos_replay: replaying %zu jobs on %zu workers...\n",
                jobs.size(), pool_size);
    const SessionReplayer replayer;
    std::mutex failures_mutex;
    std::vector<std::string> failures;
    const auto start = std::chrono::steady_clock::now();
    ThreadPool pool(pool_size);
    pool.parallelFor(jobs.size(), [&](size_t j) {
        ReplayEnv env;
        env.workers = jobs[j].workers;
        try {
            const ReplayResult replayed =
                replayer.replay(recorded[jobs[j].session], env);
            if (!replayed.diff.identical) {
                std::lock_guard<std::mutex> lock(failures_mutex);
                failures.push_back(
                    "session " + std::to_string(jobs[j].session) + " @ " +
                    std::to_string(jobs[j].workers) + " workers: " +
                    replayed.diff.describe());
            }
        } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(failures_mutex);
            failures.push_back("session " +
                               std::to_string(jobs[j].session) + " @ " +
                               std::to_string(jobs[j].workers) +
                               " workers: exception: " + e.what());
        }
    });
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    if (!failures.empty()) {
        std::printf("chaos_replay: %zu/%zu replays DIVERGED\n",
                    failures.size(), jobs.size());
        for (const std::string& failure : failures) {
            std::printf("  %s\n", failure.c_str());
        }
        return 1;
    }
    std::printf("chaos_replay: %zu/%zu replays byte-identical (%.1f s)\n",
                jobs.size(), jobs.size(), elapsed);
    return 0;
}

/** Regenerate the checked-in golden fixture (tests/data). */
int
writeGolden(const std::string& path)
{
    const SessionLog log = recordSession(0);
    // Sanity: the fixture must replay before it is worth checking in.
    const SessionReplayer replayer;
    const ReplayResult replayed = replayer.replay(log);
    if (!replayed.diff.identical) {
        std::printf("golden session does not replay: %s\n",
                    replayed.diff.describe().c_str());
        return 1;
    }
    log.save(path);
    std::printf("wrote golden session (%zu events) to %s\n", log.size(),
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--golden") == 0) {
        return writeGolden(argv[2]);
    }
    size_t n_sessions = 4;
    size_t repeats = 1;
    if (argc > 1) {
        n_sessions = static_cast<size_t>(std::atoi(argv[1]));
    }
    if (argc > 2) {
        repeats = static_cast<size_t>(std::atoi(argv[2]));
    }
    if (argc > 3) {
        g_explorer = argv[3];
        std::printf("chaos_replay: recording with explorer '%s'\n",
                    g_explorer.c_str());
    }
    if (n_sessions == 0 || repeats == 0) {
        std::printf(
            "usage: %s [n_sessions] [repeats] [explorer] | --golden <path>\n",
            argv[0]);
        return 2;
    }
    return runChaos(n_sessions, repeats);
}
