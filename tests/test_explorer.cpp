/** Draft-stage explorers: the default "evolution" explorer must reproduce
 *  the pre-interface draft loop byte for byte (frozen golden end-lines
 *  across Pruner / MoA-Pruner / Ansor at 1 and 4 workers, plus the Pruner
 *  ablations, Adatune and a sharded MoA run), the gbt explorer must keep
 *  its own frozen end-lines, be deterministic at any worker count and
 *  replay byte-identically from its session log, and makeExplorer must
 *  fail loudly on unknown keys. */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "baselines/adatune.hpp"
#include "baselines/ansor.hpp"
#include "core/pruner_tuner.hpp"
#include "cost/gbt_model.hpp"
#include "ir/workload_registry.hpp"
#include "replay/session_replayer.hpp"
#include "search/explorer.hpp"
#include "support/logging.hpp"

namespace pruner {
namespace {

/** Frozen pre-refactor golden end-lines, captured from commit 2cb97d6
 *  (before the Explorer interface existed): resnet50 truncated to two
 *  tasks on a100, rounds=6, seed=42, lse.spec_size=64, default model
 *  seed, Ansor and Adatune model seed 7. Any byte of drift in the draft
 *  stage moves the curve/per_task/model hashes. */
enum class Kind
{
    Pruner,
    MoA,
    Ansor,
    PrunerNoLse,   ///< Table 12 "w/o LSE": PaCM scores the whole GA
    PrunerOffline, ///< online_finetune=false: PaCM never updates
    Adatune,       ///< adaptive (early-terminated) measurement
    /** tasks_per_round=2 with async_training requested: MoA's Siamese
     *  update must stay synchronous anyway. */
    MoASharded,
};

struct GoldenCase
{
    const char* name;
    int workers;
    Kind kind;
    const char* end_line;
};

const GoldenCase kGolden[] = {
    {"pruner_w1", 1, Kind::Pruner,
     "end\tfinal=3f087dbd09e30ea5\ttotal=406614816f0068dc\texpl="
     "4010902de00d1b71\ttrain=4036800000000000\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=4e554c770fb12e11\tper_task="
     "5c1f2fd32d078bda\tmodel=352d6d3cb87996dd\tok=1"},
    {"pruner_w4", 4, Kind::Pruner,
     "end\tfinal=3f087dbd09e30ea5\ttotal=4061e14e3bcd35a9\texpl="
     "4010902de00d1b71\ttrain=4036800000000000\tmeas=4059800000000000\t"
     "compile=402cccccccccccce\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=a7dcf883387db433\tper_task="
     "5c1f2fd32d078bda\tmodel=352d6d3cb87996dd\tok=1"},
    {"moa_w1", 1, Kind::MoA,
     "end\tfinal=3f08ca4af5b36c4e\ttotal=406464816f0068dc\texpl="
     "4010902de00d1b71\ttrain=4022000000000000\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=6b15fffff66c0eb8\tper_task="
     "de68aca246d424e0\tmodel=116b996adb012396\tok=1"},
    {"moa_w4", 4, Kind::MoA,
     "end\tfinal=3f08ca4af5b36c4e\ttotal=4060314e3bcd35a8\texpl="
     "4010902de00d1b71\ttrain=4022000000000000\tmeas=4059800000000000\t"
     "compile=402cccccccccccce\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=a735e10bb0648041\tper_task="
     "de68aca246d424e0\tmodel=116b996adb012396\tok=1"},
    {"ansor_w1", 1, Kind::Ansor,
     "end\tfinal=3f0a3733b8bb7146\ttotal=406ba26e978d4fe0\texpl="
     "404f7ced916872b1\ttrain=4020333333333334\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=6784cd2fa65f2417\tper_task="
     "9e3aefbb0104f6de\tmodel=631f2e64a834c0d5\tok=1"},
    {"ansor_w4", 4, Kind::Ansor,
     "end\tfinal=3f0a3733b8bb7146\ttotal=40676f3b645a1cad\texpl="
     "404f7ced916872b1\ttrain=4020333333333334\tmeas=4059800000000000\t"
     "compile=402cccccccccccce\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=dcd05b672d7aa569\tper_task="
     "9e3aefbb0104f6de\tmodel=631f2e64a834c0d5\tok=1"},
    // Captured at commit c9b0000, the last one with a hand-written tune()
    // loop per policy, so the shared TuningSession must reproduce them.
    {"pruner_nolse_w1", 1, Kind::PrunerNoLse,
     "end\tfinal=3f09d996a8a4ea59\ttotal=406a806f69446738\texpl="
     "4043c1bda5119ce1\ttrain=4036800000000000\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=71b371354d45ed1b\tper_task="
     "b2f663d6bd209373\tmodel=d3ad3c7c97af6173\tok=1"},
    {"pruner_offline_w1", 1, Kind::PrunerOffline,
     "end\tfinal=3f090e74d3c7d0aa\ttotal=406344816f0068dc\texpl="
     "4010902de00d1b71\ttrain=0000000000000000\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=7b5f88abb225c1d4\tper_task="
     "dbb62ab7fbfcd919\tmodel=818fd66413f5aa3f\tok=1"},
    {"adatune_w1", 1, Kind::Adatune,
     "end\tfinal=3f0b3204e217437e\ttotal=405f32e48e8a71df\texpl="
     "402930be0ded288d\ttrain=4020333333333334\tmeas=404c0cccccccccd3\t"
     "compile=4047fffffffffffa\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=6faedc30c9cef432\tper_task="
     "0f5ee12a38025613\tmodel=110d825b31e9a88c\tok=1"},
    {"moa_sharded_w2", 2, Kind::MoASharded,
     "end\tfinal=3f05c57726367f0e\ttotal=40712652bd3c3611\texpl="
     "402130be0ded288d\ttrain=402b000000000000\tmeas=4069800000000000\t"
     "compile=4048000000000000\ttrials=120\tfailed=0\thits=0\tsim=120\t"
     "injected=0\twarm=0\tcurve_n=6\tcurve=daaab9f13e3b0c0e\tper_task="
     "012eaed924b400a1\tmodel=45a3da32cfaf9918\tok=1"},
};

Workload
goldenWorkload()
{
    Workload w = workloads::resnet50();
    w.tasks.resize(2);
    return w;
}

TuneOptions
goldenOptions(int workers)
{
    TuneOptions opts;
    opts.rounds = 6;
    opts.seed = 42;
    opts.measure_workers = workers;
    return opts;
}

SessionLog
runGoldenCase(const GoldenCase& c, const std::string& explorer,
              const std::string& explorer_config = "", int clock_lanes = 0)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = goldenWorkload();
    TuneOptions opts = goldenOptions(c.workers);
    opts.explorer = explorer;
    opts.explorer_config = explorer_config;
    opts.clock_lanes = clock_lanes;
    SessionRecorder recorder;
    opts.recorder = &recorder;
    if (c.kind == Kind::Ansor) {
        baselines::makeAnsor(dev, 7)->tune(w, opts);
    } else if (c.kind == Kind::Adatune) {
        baselines::makeAdatune(dev, 7)->tune(w, opts);
    } else {
        PrunerConfig config;
        config.lse.spec_size = 64;
        config.use_moa = c.kind == Kind::MoA || c.kind == Kind::MoASharded;
        config.use_lse = c.kind != Kind::PrunerNoLse;
        config.online_finetune = c.kind != Kind::PrunerOffline;
        if (c.kind == Kind::MoASharded) {
            opts.tasks_per_round = 2;
            opts.async_training = true;
        }
        PrunerPolicy policy(dev, config);
        policy.tune(w, opts);
    }
    EXPECT_TRUE(recorder.finished());
    return recorder.log();
}

TEST(Explorer, EvolutionByteIdenticalToPreRefactorGoldens)
{
    for (const GoldenCase& c : kGolden) {
        SCOPED_TRACE(c.name);
        const SessionLog log = runGoldenCase(c, "");
        const SessionEvent* end = log.find("end");
        ASSERT_NE(end, nullptr);
        EXPECT_EQ(end->line, c.end_line);
    }
}

/** The gbt explorer's end-lines on the golden setup, captured at commit
 *  5ff1a24 (before the bayes and portfolio explorers were deleted). With
 *  min_records=20 the surrogate drafts from round 3 of 6, so the lines pin
 *  its fitted trees as well as the cold-start fallback. */
const GoldenCase kGbtGolden[] = {
    {"gbt_pruner_w1", 1, Kind::Pruner,
     "end\tfinal=3f06f0e3662a571e\ttotal=406614816f0068dc\texpl="
     "4010902de00d1b71\ttrain=4036800000000000\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=47778b17a9aeced5\tper_task="
     "40263b6e63da6c17\tmodel=884b5643687a0e70\tok=1"},
    {"gbt_ansor_w1", 1, Kind::Ansor,
     "end\tfinal=3f1413a9ca34a97d\ttotal=406ba26e978d4fe0\texpl="
     "404f7ced916872b1\ttrain=4020333333333334\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=f2ecea16acd925a3\tper_task="
     "985844c72037df00\tmodel=04d115efedde26db\tok=1"},
};
constexpr const char* kGbtGoldenConfig = "min_records=20,trees=16";

TEST(Explorer, GbtByteIdenticalToGoldens)
{
    for (const GoldenCase& c : kGbtGolden) {
        SCOPED_TRACE(c.name);
        const SessionLog log = runGoldenCase(c, "gbt", kGbtGoldenConfig);
        const SessionEvent* end = log.find("end");
        ASSERT_NE(end, nullptr);
        EXPECT_EQ(end->line, c.end_line);
    }
}

TEST(Explorer, ExplicitEvolutionKeyMatchesDefault)
{
    const SessionLog a = runGoldenCase(kGolden[0], "");
    const SessionLog b = runGoldenCase(kGolden[0], "evolution");
    ASSERT_NE(a.find("end"), nullptr);
    ASSERT_NE(b.find("end"), nullptr);
    EXPECT_EQ(a.find("end")->line, b.find("end")->line);
}

/** The gbt explorer must be worker-count invariant: the whole recorded
 *  event stream (measurements, model hashes, simulated clock) identical at
 *  1 and 4 workers, for both tuning loops. */
TEST(Explorer, GbtWorkerCountInvariant)
{
    for (const Kind kind : {Kind::Pruner, Kind::Ansor}) {
        SCOPED_TRACE(kind == Kind::Pruner ? "pruner" : "ansor");
        // Pin the clock lanes so the whole event stream — not just the
        // measured values — must match across worker counts.
        const GoldenCase w1{"", 1, kind, ""};
        const GoldenCase w4{"", 4, kind, ""};
        const SessionLog a = runGoldenCase(w1, "gbt", kGbtGoldenConfig, 1);
        const SessionLog b = runGoldenCase(w4, "gbt", kGbtGoldenConfig, 1);
        const ReplayDiff diff = replayDiff(a, b);
        EXPECT_TRUE(diff.identical) << diff.describe();
    }
}

/** A session recorded under a non-default explorer must carry it on the
 *  policycfg line and re-execute byte-identically from the log alone. */
TEST(Explorer, RecordedGbtSessionReplaysIdentically)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = goldenWorkload();
    TuneOptions opts = goldenOptions(2);
    opts.explorer = "gbt";
    opts.explorer_config = "min_records=20";
    opts.tasks_per_round = 2;
    opts.async_training = true;
    opts.fault_plan.seed = 7;
    opts.fault_plan.launch_failure_rate = 0.05;
    opts.fault_plan.flaky_rate = 0.1;
    SessionRecorder recorder;
    opts.recorder = &recorder;
    PrunerConfig config;
    config.lse.spec_size = 64;
    PrunerPolicy policy(dev, config);
    policy.tune(w, opts);
    ASSERT_TRUE(recorder.finished());

    const SessionEvent* policycfg = recorder.log().find("policycfg");
    ASSERT_NE(policycfg, nullptr);
    const EventFields fields(policycfg->line);
    EXPECT_EQ(fields.get("explorer"), "gbt");
    EXPECT_EQ(fields.get("explorercfg"), opts.explorer_config);

    SessionReplayer replayer;
    for (const int workers : {1, 4}) {
        SCOPED_TRACE(workers);
        ReplayEnv env;
        env.workers = workers;
        const ReplayResult replayed = replayer.replay(recorder.log(), env);
        EXPECT_TRUE(replayed.diff.identical) << replayed.diff.describe();
    }

    // The same log naming the deleted bayes explorer is refused.
    std::string text = recorder.log().serialize();
    const size_t at = text.find("\texplorer=gbt\t");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 14, "\texplorer=bayes\t");
    try {
        (void)replayer.replay(SessionLog::parse(text));
        ADD_FAILURE() << "replayed a log naming bayes";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown explorer 'bayes'"),
                  std::string::npos)
            << e.what();
    }
}

/** Only evolution and gbt exist. Any other key — including the deleted
 *  bayes and portfolio explorers, which an old session log or an old
 *  run's options may still name — is a FatalError that names both valid
 *  keys. */
TEST(Explorer, MakeExplorerRejectsUnknownKeys)
{
    for (const char* key : {"simulated-annealing", "bayes", "portfolio"}) {
        SCOPED_TRACE(key);
        try {
            (void)makeExplorer(key);
            ADD_FAILURE() << "makeExplorer accepted '" << key << "'";
        } catch (const FatalError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("evolution"), std::string::npos) << what;
            EXPECT_NE(what.find("gbt"), std::string::npos) << what;
        }
    }
}

TEST(Explorer, MakeExplorerBuildsEvolutionAndGbt)
{
    // "" resolves to the default.
    EXPECT_EQ(makeExplorer("")->key(), "evolution");
    EXPECT_EQ(makeExplorer("evolution")->key(), "evolution");
    const auto gbt = makeExplorer("gbt", kGbtGoldenConfig);
    EXPECT_EQ(gbt->key(), "gbt");
    EXPECT_EQ(gbt->spec().config(), kGbtGoldenConfig);
}

/** A gbt state blob round-trips; a truncated or foreign blob is a
 *  FatalError, as a truncated checkpoint line is. */
TEST(Explorer, GbtStateBlobRoundTripsAndRejectsTruncation)
{
    std::string blob = "gbt1";
    const auto put = [&blob](const std::string& token) {
        blob += ' ';
        blob += token;
    };
    put(hexU64(1));
    put(doubleBits(1e-4));
    for (size_t c = 0; c < kGbtFeatureDim; ++c) {
        put(doubleBits(0.25 * static_cast<double>(c)));
    }
    const auto gbt = makeExplorer("gbt", kGbtGoldenConfig);
    gbt->restoreState(blob);
    EXPECT_EQ(gbt->serializeState(), blob);
    EXPECT_THROW(gbt->restoreState(blob.substr(0, blob.rfind(' '))),
                 FatalError);
    EXPECT_THROW(gbt->restoreState("gbt1"), FatalError);
    EXPECT_THROW(gbt->restoreState("gbt2 0000000000000000"), FatalError);
    // A count the blob cannot hold is truncation too, not an allocation.
    EXPECT_THROW(gbt->restoreState("gbt1 0000010000000000"), FatalError);
}

TEST(Explorer, SpecParsesTypedValuesAndRejectsMalformedPairs)
{
    const ExplorerSpec spec("gbt", "trees=16,min_records=20,lr=0.5,"
                                   "trees=32");
    EXPECT_EQ(spec.get("min_records", ""), "20");
    // Last occurrence wins.
    EXPECT_EQ(spec.getInt("trees", 0), 32);
    EXPECT_EQ(spec.getDouble("lr", 0.0), 0.5);
    EXPECT_EQ(spec.getInt("missing", 17), 17);
    EXPECT_FALSE(spec.has("missing"));
    EXPECT_THROW(ExplorerSpec("gbt", "novalue"), FatalError);
    EXPECT_THROW(ExplorerSpec("gbt", "a=1\tb=2"), FatalError);
    // The gbt explorer parses each value whole and range-checks it; every
    // refusal is a FatalError that names the option.
    const std::vector<std::pair<std::string, std::string>> refused = {
        {"novalue", "novalue"},
        {"min_records=-3", "min_records"},
        {"trees=abc", "trees"},
        {"trees=12abc", "trees"},
        {"trees=0", "trees"},
        {"depth=3000000000", "depth"},
        {"lr=x", "lr"},
        {"lr=-0.5", "lr"},
        {"lr=inf", "lr"},
        {"lr=nan", "lr"},
        {"window=99999999999999999999", "window"},
        {"window=16,min_records=20", "window"},
    };
    for (const auto& [config, option] : refused) {
        try {
            (void)makeExplorer("gbt", config);
            ADD_FAILURE() << "accepted explorer config '" << config << "'";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
                << e.what();
        }
    }
}

/** The GBT surrogate must be a deterministic pure function of its
 *  training set: same records, same trees, bitwise-equal predictions. */
TEST(Explorer, GbtModelFitsDeterministicallyAndRanks)
{
    GbtConfig config;
    config.n_trees = 24;
    config.min_leaf = 2;
    const size_t n = 64;
    Matrix x(n, 3);
    std::vector<double> y(n);
    Rng rng(123);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < 3; ++j) {
            x.at(i, j) = static_cast<double>(rng.index(16));
        }
        // Piecewise target a depth-4 tree ensemble can represent.
        y[i] = (x.at(i, 0) > 8.0 ? 4.0 : 0.0) + 0.25 * x.at(i, 1);
    }
    GbtModel a(config);
    GbtModel b(config);
    a.fit(x, y);
    b.fit(x, y);
    ASSERT_TRUE(a.trained());
    EXPECT_GT(a.numTrees(), 0u);
    EXPECT_EQ(a.numTrees(), b.numTrees());
    double sq_err = 0.0;
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(doubleBits(a.predict(x.row(i))),
                  doubleBits(b.predict(x.row(i))));
        const double d = a.predict(x.row(i)) - y[i];
        sq_err += d * d;
    }
    // The ensemble must actually learn the piecewise structure.
    EXPECT_LT(sq_err / static_cast<double>(n), 0.5);
}

} // namespace
} // namespace pruner
