/** Deterministic session replay: a recorded tune() session must re-execute
 *  byte-identically from its event log alone — same measured values, same
 *  injected faults, same simulated clock, same model-weight hashes — at
 *  any worker count, and replayDiff must pinpoint the first divergence
 *  when the log and the re-execution disagree. */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "baselines/ansor.hpp"
#include "baselines/tenset_mlp.hpp"
#include "core/pruner_tuner.hpp"
#include "cost/pacm_model.hpp"
#include "ir/workload_registry.hpp"
#include "replay/session_replayer.hpp"
#include "support/logging.hpp"

namespace pruner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

FaultPlan
testFaultPlan()
{
    FaultPlan plan;
    plan.seed = 42;
    plan.launch_failure_rate = 0.05;
    plan.timeout_rate = 0.05;
    plan.flaky_rate = 0.15;
    return plan;
}

/** The chaos options every identity test records under: sharded rounds,
 *  parallel measurement, async training, and an active fault plan. */
TuneOptions
chaosOptions()
{
    TuneOptions opts;
    opts.rounds = 5;
    opts.seed = 11;
    opts.tasks_per_round = 2;
    opts.measure_workers = 2;
    opts.async_training = true;
    opts.fault_plan = testFaultPlan();
    return opts;
}

PrunerConfig
smallPrunerConfig()
{
    PrunerConfig config;
    config.lse.spec_size = 64;
    return config;
}

/** Record one session of @p policy and return its log. */
SessionLog
record(SearchPolicy& policy, const Workload& w, TuneOptions opts,
       TuneResult* result_out = nullptr)
{
    SessionRecorder recorder;
    opts.recorder = &recorder;
    const TuneResult result = policy.tune(w, opts);
    EXPECT_TRUE(recorder.finished());
    if (result_out != nullptr) {
        *result_out = result;
    }
    return recorder.log();
}

void
expectBitIdentical(const TuneResult& a, const TuneResult& b)
{
    EXPECT_EQ(doubleBits(a.final_latency), doubleBits(b.final_latency));
    EXPECT_EQ(doubleBits(a.total_time_s), doubleBits(b.total_time_s));
    EXPECT_EQ(doubleBits(a.measurement_s), doubleBits(b.measurement_s));
    EXPECT_EQ(doubleBits(a.compile_s), doubleBits(b.compile_s));
    EXPECT_EQ(doubleBits(a.training_s), doubleBits(b.training_s));
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failed_trials, b.failed_trials);
    EXPECT_EQ(a.injected_faults, b.injected_faults);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_EQ(doubleBits(a.curve[i].time_s),
                  doubleBits(b.curve[i].time_s));
        EXPECT_EQ(doubleBits(a.curve[i].latency_s),
                  doubleBits(b.curve[i].latency_s));
    }
    ASSERT_EQ(a.best_per_task.size(), b.best_per_task.size());
    for (size_t i = 0; i < a.best_per_task.size(); ++i) {
        EXPECT_EQ(doubleBits(a.best_per_task[i]),
                  doubleBits(b.best_per_task[i]));
    }
}

TEST(Replay, PrunerIdentityAtAnyWorkerCount)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(2);

    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneResult recorded_result;
    const SessionLog recorded =
        record(policy, w, chaosOptions(), &recorded_result);
    EXPECT_GT(recorded_result.injected_faults, 0u);
    EXPECT_GT(recorded_result.failed_trials, 0u);

    SessionReplayer replayer;
    // The recorded worker count, serial, and more workers than recorded:
    // every re-execution must be byte-identical, measured values AND
    // simulated clock (the recorded clock lanes pin the compile overlap).
    for (const int workers : {0, 1, 4}) {
        ReplayEnv env;
        env.workers = workers;
        const ReplayResult replayed = replayer.replay(recorded, env);
        EXPECT_TRUE(replayed.diff.identical) << replayed.diff.describe();
        expectBitIdentical(recorded_result, replayed.result);
    }
}

TEST(Replay, AnsorBaselineIdentity)
{
    // The shared Ansor-style loop must replay too — async online training
    // and multi-task rounds included.
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::bertTiny();
    w.tasks.resize(2);

    auto policy = baselines::makeAnsor(dev, 9);
    TuneResult recorded_result;
    TuneOptions opts = chaosOptions();
    opts.rounds = 4;
    const SessionLog recorded = record(*policy, w, opts, &recorded_result);

    SessionReplayer replayer;
    for (const int workers : {1, 4}) {
        ReplayEnv env;
        env.workers = workers;
        const ReplayResult replayed = replayer.replay(recorded, env);
        EXPECT_TRUE(replayed.diff.identical) << replayed.diff.describe();
        expectBitIdentical(recorded_result, replayed.result);
    }
}

TEST(Replay, DiffPinpointsCorruptedEvent)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneOptions opts = chaosOptions();
    opts.rounds = 3;
    opts.tasks_per_round = 1;
    const SessionLog recorded = record(policy, w, opts);

    // Corrupt the latency bits of the first measurement event.
    size_t corrupt_index = recorded.size();
    SessionLog corrupted;
    for (size_t i = 0; i < recorded.events().size(); ++i) {
        std::string line = recorded.events()[i].line;
        if (corrupt_index == recorded.size() &&
            recorded.events()[i].kind == "measure") {
            corrupt_index = i;
            const size_t last_tab = line.rfind('\t');
            const size_t bits_tab = line.rfind('\t', last_tab - 1);
            line = line.substr(0, bits_tab + 1) + doubleBits(1.0) +
                   line.substr(last_tab);
        }
        corrupted.append(std::move(line));
    }
    ASSERT_LT(corrupt_index, recorded.size());

    const ReplayDiff diff = replayDiff(corrupted, recorded);
    ASSERT_FALSE(diff.identical);
    ASSERT_TRUE(diff.divergence.has_value());
    EXPECT_EQ(diff.divergence->event_index, corrupt_index);

    // A replay of the corrupted log re-executes the true session, so the
    // diff points at exactly the corrupted event.
    SessionReplayer replayer;
    const ReplayResult replayed = replayer.replay(corrupted);
    ASSERT_FALSE(replayed.diff.identical);
    EXPECT_EQ(replayed.diff.divergence->event_index, corrupt_index);
}

TEST(Replay, TruncatedAndMalformedLogsAreRejected)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneOptions opts = chaosOptions();
    opts.rounds = 2;
    opts.tasks_per_round = 1;
    const std::string text = record(policy, w, opts).serialize();

    // Truncation: drop the trailing 'end' event.
    const std::string truncated =
        text.substr(0, text.rfind("end\t"));
    EXPECT_THROW(SessionLog::parse(truncated), FatalError);

    // Version skew: a future format version must be refused, not
    // misparsed.
    std::string wrong_version = text;
    wrong_version.replace(wrong_version.find("v1"), 2, "v99");
    EXPECT_THROW(SessionLog::parse(wrong_version), FatalError);

    // Corruption: blank event lines never occur in a valid log.
    std::string blank_line = text;
    blank_line.insert(blank_line.find('\n') + 1, "\n");
    EXPECT_THROW(SessionLog::parse(blank_line), FatalError);

    EXPECT_THROW(SessionLog::parse(""), FatalError);
    EXPECT_THROW(SessionLog::load("/tmp/definitely_missing_session.log"),
                 FatalError);

    // Round-trip sanity: the untouched text parses and matches.
    const SessionLog reparsed = SessionLog::parse(text);
    EXPECT_TRUE(replayDiff(reparsed, SessionLog::parse(text)).identical);
}

TEST(Replay, TokenReaderRejectsDecimalOverflow)
{
    TokenReader in("18446744073709551615 18446744073709551616");
    EXPECT_EQ(in.dec(), UINT64_MAX);
    EXPECT_THROW(in.dec(), FatalError);
    TokenReader s("-9223372036854775808 9223372036854775807 "
                  "9223372036854775808");
    EXPECT_EQ(s.sdec(), INT64_MIN);
    EXPECT_EQ(s.sdec(), INT64_MAX);
    EXPECT_THROW(s.sdec(), FatalError);
}

TEST(Replay, SaveLoadRoundTrip)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneOptions opts = chaosOptions();
    opts.rounds = 2;
    opts.tasks_per_round = 1;
    const SessionLog recorded = record(policy, w, opts);

    const std::string path = "/tmp/pruner_test_session.log";
    std::filesystem::remove(path);
    recorded.save(path);
    const SessionLog loaded = SessionLog::load(path);
    EXPECT_TRUE(replayDiff(recorded, loaded).identical);
    std::filesystem::remove(path);
}

TEST(Replay, TornFinalLineIsIgnoredOnLoad)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneOptions opts = chaosOptions();
    opts.rounds = 2;
    opts.tasks_per_round = 1;
    const SessionLog recorded = record(policy, w, opts);

    const std::string path = "/tmp/pruner_test_torn_session.log";
    std::filesystem::remove(path);
    recorded.save(path);
    // Emulate a crash while appending trailing bytes after the session
    // completed: an unterminated fragment after the end event. Load must
    // drop it and still yield the recorded session.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "measure\ttask=123\tsched=45"; // no newline
    }
    const SessionLog loaded = SessionLog::load(path);
    EXPECT_TRUE(replayDiff(recorded, loaded).identical);
    std::filesystem::remove(path);
}

TEST(Replay, CrcMismatchTruncatesLogAtCorruption)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneOptions opts = chaosOptions();
    opts.rounds = 2;
    opts.tasks_per_round = 1;
    const SessionLog recorded = record(policy, w, opts);

    const std::string path = "/tmp/pruner_test_corrupt_session.log";
    // Break the final (end) line two ways: a flipped payload byte under an
    // intact suffix, and a broken suffix. Either way the line has no valid
    // CRC, the loader truncates there, and parse correctly rejects the
    // now-incomplete session instead of replaying corrupt data.
    for (const bool break_suffix : {false, true}) {
        SCOPED_TRACE(break_suffix ? "crc= -> cRc=" : "end -> eNd");
        std::filesystem::remove(path);
        recorded.save(path);
        {
            std::fstream file(
                path, std::ios::in | std::ios::out | std::ios::binary);
            std::string bytes((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
            const size_t end_pos = bytes.rfind("\nend\t");
            ASSERT_NE(end_pos, std::string::npos);
            const size_t at = break_suffix
                                  ? bytes.find("\tcrc=", end_pos) + 2
                                  : end_pos + 2;
            file.seekp(static_cast<std::streamoff>(at));
            file.put(break_suffix ? 'R' : 'N');
        }
        EXPECT_THROW(SessionLog::load(path), FatalError);
    }
    std::filesystem::remove(path);
}

TEST(Replay, CustomWorkloadNeedsEnvOverride)
{
    const auto dev = DeviceSpec::a100();
    Workload w;
    w.name = "synthetic-gemm";
    w.tasks.push_back({makeGemm("g", 1, 256, 256, 256), 1.0});
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneOptions opts = chaosOptions();
    opts.rounds = 3;
    opts.tasks_per_round = 1;
    TuneResult recorded_result;
    const SessionLog recorded = record(policy, w, opts, &recorded_result);

    SessionReplayer replayer;
    // Not in the registry: the replayer must refuse, not guess.
    EXPECT_THROW(replayer.replay(recorded), FatalError);

    ReplayEnv env;
    env.workload = &w;
    const ReplayResult replayed = replayer.replay(recorded, env);
    EXPECT_TRUE(replayed.diff.identical) << replayed.diff.describe();
    expectBitIdentical(recorded_result, replayed.result);
}

TEST(Replay, ArtifactDbSessionsAreRefused)
{
    // Warm-start state lives outside the log, so such sessions cannot be
    // replayed "from the log alone" — refuse instead of diverging.
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    const std::string db_root = "/tmp/pruner_test_replay_db";
    std::filesystem::remove_all(db_root);
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneOptions opts = chaosOptions();
    opts.rounds = 2;
    opts.tasks_per_round = 1;
    opts.artifact_db_path = db_root;
    const SessionLog recorded = record(policy, w, opts);
    std::filesystem::remove_all(db_root);

    SessionReplayer replayer;
    EXPECT_THROW(replayer.replay(recorded), FatalError);
}

/** The other two refusals: a factory key no built-in policy answers to,
 *  and a session whose policy started from pretrained weights (those are
 *  not in the log). */
TEST(Replay, UnknownFactoryAndPretrainedSessionsAreRefused)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(1);
    TuneOptions opts = chaosOptions();
    opts.rounds = 2;
    opts.tasks_per_round = 1;
    SessionReplayer replayer;
    const auto expectRefused = [&](const SessionLog& log,
                                   const std::string& message) {
        try {
            (void)replayer.replay(log);
            ADD_FAILURE() << "replayed a log that must be refused ("
                          << message << ")";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
                << e.what();
        }
    };

    /** @p text with its one occurrence of @p field replaced. */
    const auto edited = [](std::string text, const std::string& field,
                           const std::string& replacement) {
        const size_t at = text.find(field);
        EXPECT_NE(at, std::string::npos) << field;
        if (at != std::string::npos) {
            text.replace(at, field.size(), replacement);
        }
        return SessionLog::parse(text);
    };

    PrunerPolicy policy(dev, smallPrunerConfig());
    const std::string text = record(policy, w, opts).serialize();
    expectRefused(edited(text, "\tfactory=Pruner\t", "\tfactory=Roller\t"),
                  "no factory registered for 'Roller'");
    // Every recorder writes the explorer fields and Pruner, TenSetMLP and
    // TLP write pretrained=, so a policycfg without them is refused
    // rather than replayed under a guessed default.
    expectRefused(edited(text, "\texplorer=evolution\texplorercfg=-", ""),
                  "missing field 'explorer'");
    // A malformed explorer option is refused like any other bad field.
    expectRefused(edited(text, "\texplorer=evolution\texplorercfg=-",
                         "\texplorer=gbt\texplorercfg=trees=abc"),
                  "option 'trees=abc' is not an integer");
    auto mlp = baselines::makeTenSetMlp(dev, 5, {}, true);
    expectRefused(
        edited(record(*mlp, w, opts).serialize(), "\tpretrained=0", ""),
        "missing field 'pretrained'");

    PrunerConfig config = smallPrunerConfig();
    config.pretrained = PaCMModel(dev, 1).getParams();
    PrunerPolicy pretrained(dev, config);
    expectRefused(record(pretrained, w, opts), "pretrained weights");
}

TEST(Replay, FaultEventsCarryConsistentOutcomes)
{
    const auto dev = DeviceSpec::a100();
    Workload w = workloads::resnet50();
    w.tasks.resize(2);
    PrunerPolicy policy(dev, smallPrunerConfig());
    TuneResult result;
    const SessionLog recorded = record(policy, w, chaosOptions(), &result);

    size_t fault_events = 0;
    for (const auto& event : recorded.events()) {
        if (event.kind != "measure") {
            continue;
        }
        // measure\t<task>\t<sched>\t<latency bits>\t<fault kind>
        const size_t last_tab = event.line.rfind('\t');
        const size_t bits_tab = event.line.rfind('\t', last_tab - 1);
        const double latency = bitsToDouble(event.line.substr(
            bits_tab + 1, last_tab - bits_tab - 1));
        const int kind = std::stoi(event.line.substr(last_tab + 1));
        if (kind != 0) {
            ++fault_events;
        }
        if (kind == 1 || kind == 2) {
            // Launch failures and timeouts are exactly +inf — positive
            // sign included, never a negative or NaN sentinel.
            EXPECT_EQ(latency, kInf);
        } else if (kind == 3) {
            // Flaky latencies stay finite (the perturbation multiplies a
            // successful measurement).
            EXPECT_TRUE(std::isfinite(latency));
            EXPECT_GT(latency, 0.0);
        }
    }
    // Injected counters count simulated attempts; the log records every
    // candidate (aliases repeat their source's outcome), so the event
    // count can only be larger.
    EXPECT_GT(result.injected_faults, 0u);
    EXPECT_GE(fault_events, result.injected_faults);
}

TEST(Replay, GoldenSessionRegression)
{
    // A session recorded once and checked in: today's build must still
    // re-execute it byte-identically. Regenerate with:
    //   ./build/chaos_replay --golden tests/data/golden_session.log
    const std::string path =
        std::string(PRUNER_TEST_DATA_DIR) + "/golden_session.log";
    SessionReplayer replayer;
    for (const int workers : {1, 4}) {
        ReplayEnv env;
        env.workers = workers;
        const ReplayResult replayed = replayer.replayFile(path, env);
        EXPECT_TRUE(replayed.diff.identical) << replayed.diff.describe();
        EXPECT_FALSE(replayed.result.failed);
        EXPECT_TRUE(std::isfinite(replayed.result.final_latency));
    }
}

} // namespace
} // namespace pruner
