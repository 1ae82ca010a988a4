/**
 * @file
 * Unit tests for the common library: statistics helpers, RNG
 * determinism, table rendering, the hardware configuration, and the
 * memo cache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/memo.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace gpumech
{
namespace
{

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_EQ(mean({}), 0.0);
}

TEST(Stats, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, PercentileInterpolates)
{
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 100.0), 10.0);
}

TEST(Stats, RelativeError)
{
    EXPECT_NEAR(relativeError(1.1, 1.0), 0.1, 1e-12);
    EXPECT_NEAR(relativeError(0.9, 1.0), 0.1, 1e-12);
    EXPECT_DOUBLE_EQ(relativeError(0.0, 0.0), 0.0);
    EXPECT_TRUE(std::isinf(relativeError(1.0, 0.0)));
}

TEST(Stats, FractionBelow)
{
    EXPECT_DOUBLE_EQ(fractionBelow({0.1, 0.3, 0.5, 0.7}, 0.4), 0.5);
    EXPECT_DOUBLE_EQ(fractionBelow({}, 0.4), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, FromStringDiffersByName)
{
    Rng a = Rng::fromString("kernel_a");
    Rng b = Rng::fromString("kernel_b");
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.132, 1), "13.2%");
    EXPECT_EQ(fmtShortest(96.4), "96.4");
    EXPECT_EQ(fmtShortest(96.0), "96");
    EXPECT_EQ(fmtShortest(1e6), "1000000");
    EXPECT_EQ(fmtShortest(0.1 + 0.2), "0.30000000000000004");
    EXPECT_EQ(fmtShortest(1e300), "1e+300");
}

TEST(Logging, MsgConcatenatesPieces)
{
    EXPECT_EQ(msg("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(msg(), "");
}

TEST(Config, BaselineMatchesTableI)
{
    HardwareConfig c = HardwareConfig::baseline();
    EXPECT_EQ(c.numCores, 16u);
    EXPECT_EQ(c.warpsPerCore, 32u);
    EXPECT_EQ(c.warpSize, 32u);
    EXPECT_EQ(c.l1SizeBytes, 32u * 1024);
    EXPECT_EQ(c.numMshrs, 32u);
    EXPECT_EQ(c.l2SizeBytes, 768u * 1024);
    EXPECT_EQ(c.l1HitLatency, 25u);
    EXPECT_EQ(c.l2HitLatency, 120u);
    EXPECT_EQ(c.dramAccessLatency, 300u);
    EXPECT_DOUBLE_EQ(c.dramBandwidthGBs, 192.0);
    EXPECT_EQ(c.latency.fpAlu, 25u);
}

TEST(Config, DerivedLatencies)
{
    HardwareConfig c = HardwareConfig::baseline();
    EXPECT_EQ(c.l2MissLatency(), 420u);
    EXPECT_NEAR(c.dramServiceCycles(), 128.0 / 192.0, 1e-12);
}

TEST(Config, DramServiceScalesWithBandwidth)
{
    HardwareConfig c = HardwareConfig::baseline();
    double base = c.dramServiceCycles();
    c.dramBandwidthGBs = 96.0;
    EXPECT_NEAR(c.dramServiceCycles(), base * 2.0, 1e-12);
}

TEST(Config, PolicyNames)
{
    EXPECT_EQ(toString(SchedulingPolicy::RoundRobin), "RR");
    EXPECT_EQ(toString(SchedulingPolicy::GreedyThenOldest), "GTO");
}

TEST(Config, SummaryMentionsKeyParameters)
{
    std::string s = HardwareConfig::baseline().summary();
    EXPECT_NE(s.find("16 cores"), std::string::npos);
    EXPECT_NE(s.find("192"), std::string::npos);
}

TEST(MemoCache, ComputeThatThrowsLeavesNoEntry)
{
    MemoCache<int> cache;
    EXPECT_THROW(cache.getOrCompute(
                     "k", []() -> int { throw std::runtime_error("x"); }),
                 std::runtime_error);
    EXPECT_FALSE(cache.contains("k"));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    // The retry is a second miss that computes; the hit comes after.
    int computes = 0;
    auto compute = [&computes] { return ++computes * 7; };
    EXPECT_EQ(*cache.getOrCompute("k", compute), 7);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_TRUE(cache.contains("k"));
    EXPECT_EQ(*cache.getOrCompute("k", compute), 7);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

} // namespace
} // namespace gpumech
