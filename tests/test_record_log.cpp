/** Tests for src/search/record_log (the record line codec) and the
 *  top-level API facade. Record files are ArtifactDb shards; their
 *  file-level handling (CRC framing, torn tails, quarantine) is tested in
 *  test_artifact_db. */

#include <gtest/gtest.h>

#include <cmath>
#include <locale>

#include "pruner.hpp"
#include "sched/sampler.hpp"
#include "support/logging.hpp"

namespace pruner {
namespace {

class RecordLogTest : public ::testing::Test
{
  protected:
    /** @p record encoded to one line and decoded back. */
    MeasuredRecord
    roundTrip(const MeasuredRecord& record) const
    {
        MeasuredRecord out;
        EXPECT_TRUE(lineToRecord(recordToLine(record), {task_}, &out));
        return out;
    }

    SubgraphTask task_ = makeGemm("log", 1, 128, 128, 128);
    DeviceSpec dev_ = DeviceSpec::a100();
};

TEST_F(RecordLogTest, RoundTripPreservesRecords)
{
    ScheduleSampler sampler(task_, dev_);
    Rng rng(3);
    for (int i = 0; i < 12; ++i) {
        const MeasuredRecord record{task_, sampler.sample(rng),
                                    1e-4 + i * 1e-6};
        const MeasuredRecord loaded = roundTrip(record);
        EXPECT_EQ(loaded.task.hash(), record.task.hash());
        EXPECT_EQ(loaded.sch, record.sch);
        EXPECT_DOUBLE_EQ(loaded.latency, record.latency);
    }
}

TEST_F(RecordLogTest, UnknownTasksAreSkipped)
{
    ScheduleSampler sampler(task_, dev_);
    Rng rng(7);
    const std::string line = recordToLine({task_, sampler.sample(rng), 1e-4});
    const auto other = makeGemm("other", 1, 64, 64, 64);
    MeasuredRecord out;
    EXPECT_FALSE(lineToRecord(line, {other}, &out));
    EXPECT_TRUE(lineToRecord(line, {other, task_}, &out));
}

TEST_F(RecordLogTest, MalformedLinesAreSkipped)
{
    ScheduleSampler sampler(task_, dev_);
    Rng rng(9);
    MeasuredRecord out;
    EXPECT_TRUE(lineToRecord(
        recordToLine({task_, sampler.sample(rng), 1e-4}), {task_}, &out));
    EXPECT_FALSE(lineToRecord("garbage line without tabs", {task_}, &out));
    // Right arity, wrong content.
    EXPECT_FALSE(lineToRecord("a\tb\tc\td", {task_}, &out));
}

/** Mutation fuzz: every truncation of a valid line, byte-flipped copies
 *  and plain garbage must decode cleanly or be rejected — never crash —
 *  and decoding them must not disturb the valid lines decoded after. */
TEST_F(RecordLogTest, FuzzTruncatedAndMutatedLines)
{
    ScheduleSampler sampler(task_, dev_);
    Rng rng(15);
    std::vector<MeasuredRecord> records;
    for (int i = 0; i < 8; ++i) {
        records.push_back({task_, sampler.sample(rng), 1e-4 + i * 1e-6});
    }
    const std::string valid_line = recordToLine(records[0]);

    std::vector<std::string> garbage;
    for (size_t cut = 0; cut <= valid_line.size(); ++cut) {
        garbage.push_back(valid_line.substr(0, cut));
    }
    for (size_t pos = 0; pos < valid_line.size(); pos += 7) {
        std::string corrupted = valid_line;
        corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x15);
        garbage.push_back(corrupted);
    }
    garbage.push_back("\t\t\t");
    garbage.push_back(std::string(512, 'x'));

    // Some mutants still decode (e.g. a flipped latency digit); the rest
    // are rejected. Either way the next valid line decodes exactly.
    MeasuredRecord out;
    for (size_t g = 0; g < garbage.size(); ++g) {
        EXPECT_NO_THROW(lineToRecord(garbage[g], {task_}, &out));
        const MeasuredRecord& record = records[g % records.size()];
        ASSERT_TRUE(lineToRecord(recordToLine(record), {task_}, &out));
        EXPECT_EQ(out.sch, record.sch);
        EXPECT_DOUBLE_EQ(out.latency, record.latency);
    }
}

/** The codec must produce and parse classic-locale numbers regardless of
 *  the global locale (a comma-decimal locale must not corrupt logs). */
TEST_F(RecordLogTest, LocaleIndependentDoubleFormatting)
{
    ScheduleSampler sampler(task_, dev_);
    Rng rng(17);
    const std::vector<double> latencies{1e-30, 1.2345678901234567e-4,
                                        9.87e+12, 3.0000000000000004e-7};
    std::vector<MeasuredRecord> records;
    for (double latency : latencies) {
        records.push_back({task_, sampler.sample(rng), latency});
    }

    // Try a comma-decimal locale; environments without it still exercise
    // the classic-locale round trip below.
    const std::locale old_locale = std::locale();
    bool switched = false;
    for (const char* name : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8"}) {
        try {
            std::locale::global(std::locale(name));
            switched = true;
            break;
        } catch (const std::exception&) {
        }
    }

    std::vector<MeasuredRecord> loaded;
    for (const auto& record : records) {
        loaded.push_back(roundTrip(record));
    }
    std::locale::global(old_locale);
    (void)switched;

    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_DOUBLE_EQ(loaded[i].latency, records[i].latency);
    }
    // The latency field must use '.'-decimals, never locale separators
    // (the schedule field uses commas as factor separators by design).
    const std::string line = recordToLine(records[0]);
    const std::string latency_field = line.substr(line.rfind('\t') + 1);
    EXPECT_EQ(latency_field.find(','), std::string::npos);
    EXPECT_NE(latency_field.find('.'), std::string::npos);
}

/** Large random round trip: serialize/parse many sampled schedules with
 *  17-digit latencies and verify bit-exact recovery. */
TEST_F(RecordLogTest, RoundTripFuzzManySchedules)
{
    ScheduleSampler sampler(task_, dev_);
    Rng rng(19);
    for (int i = 0; i < 200; ++i) {
        const MeasuredRecord record{task_, sampler.sample(rng),
                                    std::exp(rng.uniformReal(-20.0, 5.0))};
        const MeasuredRecord loaded = roundTrip(record);
        EXPECT_EQ(loaded.sch, record.sch);
        EXPECT_DOUBLE_EQ(loaded.latency, record.latency);
    }
}

TEST(ApiFacade, MethodNames)
{
    EXPECT_STREQ(api::methodName(api::Method::Pruner), "Pruner");
    EXPECT_STREQ(api::methodName(api::Method::MoAPruner), "MoA-Pruner");
    EXPECT_STREQ(api::methodName(api::Method::Roller), "Roller");
}

TEST(ApiFacade, TuneSingleTaskWorkload)
{
    Workload w;
    w.name = "api";
    w.tasks.push_back({makeGemm("api", 1, 256, 256, 256), 1.0});
    api::TuneConfig config;
    config.rounds = 6;
    config.pretrain_platform = ""; // skip pre-training for speed
    const TuneResult r =
        api::tune(w, DeviceSpec::a100(), api::Method::Pruner, config);
    EXPECT_FALSE(r.failed);
    EXPECT_TRUE(std::isfinite(r.final_latency));
    EXPECT_EQ(r.policy, "Pruner");
}

TEST(ApiFacade, TuneRejectsEmptyWorkload)
{
    Workload w;
    w.name = "empty";
    EXPECT_THROW(api::tune(w, DeviceSpec::a100()), InternalError);
}

TEST(ApiFacade, RollerMethodRuns)
{
    Workload w;
    w.name = "api";
    w.tasks.push_back({makeGemm("api", 1, 256, 256, 256), 1.0});
    api::TuneConfig config;
    config.rounds = 4;
    const TuneResult r =
        api::tune(w, DeviceSpec::t4(), api::Method::Roller, config);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.policy, "Roller");
}

} // namespace
} // namespace pruner
