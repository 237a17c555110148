/** Tests for src/support: logging, rng, stats, table, crc32, sim clock. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "support/io.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/sim_clock.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace pruner {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(PRUNER_FATAL("bad config " << 42), FatalError);
}

TEST(Logging, CheckThrowsInternalError)
{
    EXPECT_THROW(PRUNER_CHECK(1 == 2), InternalError);
    EXPECT_NO_THROW(PRUNER_CHECK(1 == 1));
}

TEST(Logging, CheckMsgIncludesContext)
{
    try {
        PRUNER_CHECK_MSG(false, "value was " << 7);
        FAIL() << "expected throw";
    } catch (const InternalError& e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a() == b();
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(7);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        seen.insert(rng.uniformInt(0, 4));
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMomentsRoughlyStandard)
{
    Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(rng.normal());
    }
    EXPECT_NEAR(mean(xs), 0.0, 0.03);
    EXPECT_NEAR(stdev(xs), 1.0, 0.03);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(17);
    std::vector<double> w{0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 12000; ++i) {
        ++counts[rng.weightedIndex(w)];
    }
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform)
{
    Rng rng(19);
    std::vector<double> w{0.0, 0.0, 0.0};
    std::set<size_t> seen;
    for (int i = 0; i < 200; ++i) {
        seen.insert(rng.weightedIndex(w));
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(5);
    Rng c = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a() == c();
    }
    EXPECT_LT(same, 4);
}

TEST(Stats, MeanAndStdev)
{
    std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_NEAR(stdev(v), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, GeomeanOfPowers)
{
    std::vector<double> v{1.0, 4.0, 16.0};
    EXPECT_NEAR(geomean(v), 4.0, 1e-9);
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    EXPECT_THROW(geomean({1.0, 0.0}), InternalError);
}

TEST(Stats, PercentileEndpoints)
{
    std::vector<double> v{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> a{1, 2, 3, 4};
    std::vector<double> b{2, 4, 6, 8};
    EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
}

TEST(Stats, SpearmanMonotonicIsOne)
{
    std::vector<double> a{1, 2, 3, 4, 5};
    std::vector<double> b{1, 8, 27, 64, 125}; // monotone, nonlinear
    EXPECT_NEAR(spearman(a, b), 1.0, 1e-12);
    std::vector<double> c{125, 64, 27, 8, 1};
    EXPECT_NEAR(spearman(a, c), -1.0, 1e-12);
}

TEST(Stats, RankWithTiesAveragesGroups)
{
    std::vector<double> v{10.0, 20.0, 20.0, 30.0};
    const auto r = rankWithTies(v);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    EXPECT_DOUBLE_EQ(r[1], 2.5);
    EXPECT_DOUBLE_EQ(r[2], 2.5);
    EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, EmptySeriesEdgeCases)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stdev({}), 0.0);
    EXPECT_THROW(geomean({}), InternalError);
    EXPECT_THROW(percentile({}, 50.0), InternalError);
    EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
    EXPECT_DOUBLE_EQ(spearman({}, {}), 0.0);
    EXPECT_TRUE(rankWithTies({}).empty());
}

TEST(Stats, SingleSampleEdgeCases)
{
    EXPECT_DOUBLE_EQ(mean({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(stdev({7.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({7.0}), 7.0);
    // Every percentile of one sample is that sample.
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 50.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
    EXPECT_DOUBLE_EQ(pearson({7.0}, {3.0}), 0.0);
    const auto r = rankWithTies({7.0});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(Stats, PercentileRejectsOutOfRange)
{
    EXPECT_THROW(percentile({1.0, 2.0}, -1.0), InternalError);
    EXPECT_THROW(percentile({1.0, 2.0}, 100.5), InternalError);
}

TEST(Stats, PearsonRejectsLengthMismatch)
{
    EXPECT_THROW(pearson({1.0, 2.0}, {1.0}), InternalError);
}

TEST(Stats, ConstantSeriesCorrelationIsZero)
{
    std::vector<double> flat{2.0, 2.0, 2.0, 2.0};
    std::vector<double> ramp{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(pearson(flat, ramp), 0.0);
    EXPECT_DOUBLE_EQ(spearman(flat, ramp), 0.0);
}

TEST(Stats, NanPropagatesThroughMoments)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(mean({1.0, nan})));
    EXPECT_TRUE(std::isnan(stdev({1.0, nan, 3.0})));
    EXPECT_TRUE(std::isnan(pearson({1.0, nan, 3.0}, {1.0, 2.0, 3.0})));
}

TEST(Stats, InfinityEdgeCases)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DOUBLE_EQ(mean({1.0, inf}), inf);
    // (inf - inf) inside the sum of squares is NaN, not inf.
    EXPECT_TRUE(std::isnan(stdev({1.0, inf, 3.0})));
    // Sorting keeps +inf at the top; the endpoints stay exact.
    EXPECT_DOUBLE_EQ(percentile({inf, 1.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({inf, 1.0}, 100.0), inf);
    // Ranks are finite even when values are not — spearman still orders.
    EXPECT_NEAR(spearman({1.0, 2.0, inf}, {10.0, 20.0, 30.0}), 1.0,
                1e-12);
}

TEST(Stats, GreaterNanLastOrdersNanAfterEveryNumber)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> mixed{1.0, nan, -inf, 3.0, nan, inf, -2.0, 3.0, nan};
    std::sort(mixed.begin(), mixed.end(), greaterNanLast);
    const std::vector<double> numbers{inf, 3.0, 3.0, 1.0, -2.0, -inf};
    for (size_t i = 0; i < numbers.size(); ++i) {
        EXPECT_EQ(mixed[i], numbers[i]) << "position " << i;
    }
    for (size_t i = numbers.size(); i < mixed.size(); ++i) {
        EXPECT_TRUE(std::isnan(mixed[i])) << "position " << i;
    }
}

TEST(Stats, GreaterNanLastKeepsTheNanFreePermutation)
{
    // Many ties, so an unstable sort exposes any comparison that differs
    // from a bare `>`: the index permutations must be identical.
    Rng rng(5);
    std::vector<double> scores(600);
    for (double& s : scores) {
        s = static_cast<double>(rng.index(40)) - 20.0;
    }
    std::vector<size_t> bare(scores.size());
    std::iota(bare.begin(), bare.end(), 0);
    std::vector<size_t> safe = bare;
    std::sort(bare.begin(), bare.end(), [&](size_t a, size_t b) {
        return scores[a] > scores[b];
    });
    std::sort(safe.begin(), safe.end(), [&](size_t a, size_t b) {
        return greaterNanLast(scores[a], scores[b]);
    });
    EXPECT_TRUE(safe == bare);
}

TEST(Logging, ParseLogLevelAcceptsNumbersAndNames)
{
    EXPECT_EQ(parseLogLevel(nullptr), 0);
    EXPECT_EQ(parseLogLevel(""), 0);
    EXPECT_EQ(parseLogLevel("2"), 2);
    EXPECT_EQ(parseLogLevel("0"), 0);
    EXPECT_EQ(parseLogLevel("silent"), 0);
    EXPECT_EQ(parseLogLevel("off"), 0);
    EXPECT_EQ(parseLogLevel("info"), 1);
    EXPECT_EQ(parseLogLevel("debug"), 2);
    EXPECT_EQ(parseLogLevel("bogus", 1), 1);
}

TEST(Logging, SetLogLevelOverridesEnvironment)
{
    const int prev = setLogLevel(2);
    EXPECT_EQ(logLevel(), 2);
    setLogLevel(prev);
    EXPECT_EQ(logLevel(), prev);
}

TEST(Stats, EmaConvergesTowardsInput)
{
    Ema ema(0.9);
    ema.update(0.0);
    for (int i = 0; i < 200; ++i) {
        ema.update(10.0);
    }
    EXPECT_NEAR(ema.value(), 10.0, 1e-6);
}

TEST(Stats, BestTrackerKeepsMinimum)
{
    BestTracker t;
    EXPECT_TRUE(t.update(5.0, 1.0));
    EXPECT_FALSE(t.update(6.0, 2.0));
    EXPECT_TRUE(t.update(4.0, 3.0));
    EXPECT_DOUBLE_EQ(t.best(), 4.0);
    EXPECT_DOUBLE_EQ(t.bestTime(), 3.0);
}

TEST(Table, AsciiAndCsvRendering)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", Table::fmt(1.2345, 2)});
    t.addRow({"b", Table::fmtSpeedup(2.5)});
    const std::string ascii = t.str();
    EXPECT_NE(ascii.find("demo"), std::string::npos);
    EXPECT_NE(ascii.find("1.23"), std::string::npos);
    EXPECT_NE(ascii.find("2.50x"), std::string::npos);
    const std::string csv = t.csv();
    EXPECT_NE(csv.find("name,value"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

/** Bit-serial reflected CRC-32: the definition, with no tables. */
uint32_t
crc32Bitwise(const unsigned char* bytes, size_t size)
{
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i) {
        crc ^= bytes[i];
        for (int k = 0; k < 8; ++k) {
            crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        }
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers)
{
    EXPECT_EQ(io::crc32(std::string("123456789")), 0xcbf43926u);
    EXPECT_EQ(io::crc32(std::string()), 0u);
    EXPECT_EQ(io::crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseAtEveryLengthAndAlignment)
{
    // Lengths 0..257 cover the empty input, pure tails (< 8 bytes), whole
    // 8-byte blocks and blocks plus tails; offsets 0..7 start the input at
    // every alignment.
    alignas(8) unsigned char buf[8 + 257];
    Rng rng(0xC4C);
    for (unsigned char& b : buf) {
        b = static_cast<unsigned char>(rng() & 0xFFu);
    }
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t len = 0; len <= 257; ++len) {
            ASSERT_EQ(io::crc32(buf + offset, len),
                      crc32Bitwise(buf + offset, len))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(SimClock, ChargesPerCategory)
{
    SimClock clock;
    clock.charge(CostCategory::Measurement, 2.0);
    clock.charge(CostCategory::Exploration, 1.0);
    clock.charge(CostCategory::Measurement, 0.5);
    EXPECT_DOUBLE_EQ(clock.total(CostCategory::Measurement), 2.5);
    EXPECT_DOUBLE_EQ(clock.total(CostCategory::Exploration), 1.0);
    EXPECT_DOUBLE_EQ(clock.now(), 3.5);
    clock.reset();
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(SimClock, RejectsNegativeCharge)
{
    SimClock clock;
    EXPECT_THROW(clock.charge(CostCategory::Other, -1.0), InternalError);
}

TEST(SimClock, CalibrationMatchesPaperTable1)
{
    // Ansor, 2,000 trials = 200 rounds x 10 programs, 2,560 learned-model
    // candidate evaluations per round (population 512 x 5 scoring passes):
    // the constants must land near the paper's Table 1 split
    // (35 / 5.4 / 44.4 minutes on Orin).
    const CostConstants c = CostConstants::forDevice("Orin-AGX");
    const double exploration_min = 200 * 2560 * c.mlp_eval_per_candidate /
                                   60.0;
    const double training_min = 200 * c.mlp_train_per_round / 60.0;
    const double measurement_min = 2000 * c.measure_per_trial / 60.0;
    EXPECT_NEAR(exploration_min, 35.0, 5.0);
    EXPECT_NEAR(training_min, 5.4, 1.0);
    EXPECT_NEAR(measurement_min, 44.4, 2.0);

    // Titan V end-to-end (Table 7): exploration + training + trials at the
    // default per-trial cost should land near Ansor's 124.63 minutes.
    const auto& d = CostConstants::defaults();
    const double total_min =
        exploration_min + training_min +
        2000 * (d.measure_per_trial + d.compile_per_trial) / 60.0;
    EXPECT_NEAR(total_min, 124.63, 10.0);
}

} // namespace
} // namespace pruner
