/**
 * @file
 * Tests for HardwareConfig::validate(): every out-of-range field is
 * rejected with InvalidArgument and a message that names the offending
 * field, and every shipped/derived configuration passes.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/config.hh"

namespace gpumech
{
namespace
{

/** Expect rejection whose message names @p field. */
void
expectRejects(const HardwareConfig &config, const std::string &field)
{
    Status s = config.validate();
    ASSERT_FALSE(s.ok()) << "config unexpectedly valid (" << field
                         << ")";
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument) << s.toString();
    EXPECT_NE(s.message().find(field), std::string::npos)
        << "message does not name '" << field << "': " << s.toString();
}

TEST(ConfigValidate, BaselineIsValid)
{
    Status s = HardwareConfig::baseline().validate();
    EXPECT_TRUE(s.ok()) << s.toString();
}

TEST(ConfigValidate, WithIssueWidthStaysValid)
{
    for (std::uint32_t w : {1u, 2u, 4u}) {
        Status s =
            HardwareConfig::baseline().withIssueWidth(w).validate();
        EXPECT_TRUE(s.ok()) << s.toString();
    }
}

TEST(ConfigValidate, RejectsZeroCounts)
{
    struct Case
    {
        const char *field;
        void (*corrupt)(HardwareConfig &);
    };
    const Case cases[] = {
        {"numCores", [](HardwareConfig &c) { c.numCores = 0; }},
        {"simtWidth", [](HardwareConfig &c) { c.simtWidth = 0; }},
        {"warpSize", [](HardwareConfig &c) { c.warpSize = 0; }},
        {"warpsPerCore",
         [](HardwareConfig &c) { c.warpsPerCore = 0; }},
        {"issueWidth", [](HardwareConfig &c) { c.issueWidth = 0; }},
        {"sfuLanes", [](HardwareConfig &c) { c.sfuLanes = 0; }},
        {"numMshrs", [](HardwareConfig &c) { c.numMshrs = 0; }},
    };
    for (const Case &tc : cases) {
        HardwareConfig config = HardwareConfig::baseline();
        tc.corrupt(config);
        expectRejects(config, tc.field);
    }
}

TEST(ConfigValidate, RejectsNonPositiveRates)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.coreFreqGhz = 0.0;
    expectRejects(config, "coreFreqGhz");

    config = HardwareConfig::baseline();
    config.issueRate = -1.0;
    expectRejects(config, "issueRate");

    config = HardwareConfig::baseline();
    config.dramBandwidthGBs = 0.0;
    expectRejects(config, "dramBandwidthGBs");

    // +inf is "> 0" but no bandwidth; it used to be served as
    // "DRAM inf GB/s".
    config = HardwareConfig::baseline();
    config.dramBandwidthGBs = std::numeric_limits<double>::infinity();
    expectRejects(config, "dramBandwidthGBs");
}

TEST(ConfigValidate, RejectsZeroLatencies)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.latency.sfu = 0;
    expectRejects(config, "latency.sfu");

    config = HardwareConfig::baseline();
    config.l1HitLatency = 0;
    expectRejects(config, "l1HitLatency");

    config = HardwareConfig::baseline();
    config.l2HitLatency = 0;
    expectRejects(config, "l2HitLatency");
}

TEST(ConfigValidate, RejectsBadCacheGeometry)
{
    // Non-power-of-two line size.
    HardwareConfig config = HardwareConfig::baseline();
    config.l1LineBytes = 96;
    expectRejects(config, "l1LineBytes");

    // Zero associativity.
    config = HardwareConfig::baseline();
    config.l2Assoc = 0;
    expectRejects(config, "l2Assoc");

    // Size not a multiple of line * assoc.
    config = HardwareConfig::baseline();
    config.l1SizeBytes = config.l1LineBytes * config.l1Assoc + 1;
    expectRejects(config, "l1SizeBytes");

    config = HardwareConfig::baseline();
    config.l2SizeBytes = 0;
    expectRejects(config, "l2SizeBytes");
}

TEST(ConfigValidate, AcceptsNonPowerOfTwoSetCounts)
{
    // Table I's L2: 768KB / 128B line / 8-way = 768 sets. The cache
    // model indexes by modulo, so this must stay valid.
    HardwareConfig config = HardwareConfig::baseline();
    Status s = config.validate();
    EXPECT_TRUE(s.ok()) << s.toString();
    EXPECT_EQ(config.l2SizeBytes /
                  (config.l2LineBytes * config.l2Assoc),
              768u);
}

TEST(ConfigValidate, RejectsUnknownReplacementPolicy)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.replacementPolicy = 4; // 0-3 are LRU/FIFO/random/ARC
    expectRejects(config, "replacementPolicy");
}

} // namespace
} // namespace gpumech
