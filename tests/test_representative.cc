/**
 * @file
 * Tests for representative-warp selection (Section III-C): the Eq. 6
 * feature vectors and the MAX/MIN/Clustering selectors of Figure 7.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/representative.hh"

namespace gpumech
{
namespace
{

/** A profile with one interval of the given shape. */
IntervalProfile
makeProfile(std::uint32_t warp_id, std::uint64_t insts, double stalls)
{
    IntervalProfile p;
    p.warpId = warp_id;
    p.intervals.push_back(
        Interval{insts, stalls, StallCause::Compute, 0, 0, 0, 0});
    return p;
}

/** Each profile's Eq. 6 inputs, as the features pass computes them. */
std::vector<WarpFeatures>
featuresOf(const std::vector<IntervalProfile> &profiles,
           const HardwareConfig &config)
{
    std::vector<WarpFeatures> features;
    for (const IntervalProfile &p : profiles)
        features.push_back(p.features(config.issueRate));
    return features;
}

TEST(Representative, FeatureVectorsNormalizedByAverages)
{
    HardwareConfig config = HardwareConfig::baseline();
    std::vector<IntervalProfile> profiles = {
        makeProfile(0, 10, 10.0), // perf 0.5
        makeProfile(1, 10, 30.0), // perf 0.25
    };
    auto features = warpFeatures(featuresOf(profiles, config));
    ASSERT_EQ(features.size(), 2u);
    // Average perf 0.375, average insts 10.
    EXPECT_NEAR(features[0][0], 0.5 / 0.375, 1e-12);
    EXPECT_NEAR(features[1][0], 0.25 / 0.375, 1e-12);
    EXPECT_DOUBLE_EQ(features[0][1], 1.0);
    EXPECT_DOUBLE_EQ(features[1][1], 1.0);
}

TEST(Representative, MaxAndMinSelectors)
{
    HardwareConfig config = HardwareConfig::baseline();
    std::vector<IntervalProfile> profiles = {
        makeProfile(0, 10, 10.0), // perf 0.50
        makeProfile(1, 10, 90.0), // perf 0.10
        makeProfile(2, 10, 40.0), // perf 0.20
    };
    EXPECT_EQ(selectRepresentative(featuresOf(profiles, config),
                                   RepSelection::MaxPerf),
              0u);
    EXPECT_EQ(selectRepresentative(featuresOf(profiles, config),
                                   RepSelection::MinPerf),
              1u);
}

TEST(Representative, ClusteringPicksFromMajorityGroup)
{
    HardwareConfig config = HardwareConfig::baseline();
    // Five near-identical warps and two outliers: the representative
    // must come from the majority.
    std::vector<IntervalProfile> profiles;
    for (std::uint32_t w = 0; w < 5; ++w)
        profiles.push_back(makeProfile(w, 100, 100.0 + w));
    profiles.push_back(makeProfile(5, 10, 900.0));
    profiles.push_back(makeProfile(6, 12, 880.0));

    std::uint32_t rep = selectRepresentative(
        featuresOf(profiles, config), RepSelection::Clustering);
    EXPECT_LT(rep, 5u);
}

TEST(Representative, SingleWarpTrivial)
{
    HardwareConfig config = HardwareConfig::baseline();
    std::vector<IntervalProfile> profiles = {makeProfile(0, 10, 5.0)};
    for (auto sel : {RepSelection::Clustering, RepSelection::MaxPerf,
                     RepSelection::MinPerf}) {
        EXPECT_EQ(
            selectRepresentative(featuresOf(profiles, config), sel),
            0u);
    }
}

TEST(Representative, HomogeneousWarpsAnyChoiceIsFine)
{
    HardwareConfig config = HardwareConfig::baseline();
    std::vector<IntervalProfile> profiles;
    for (std::uint32_t w = 0; w < 8; ++w)
        profiles.push_back(makeProfile(w, 50, 25.0));
    std::uint32_t rep =
        selectRepresentative(featuresOf(profiles, config));
    EXPECT_LT(rep, 8u);
    // All profiles identical: the selected one has the common perf.
    EXPECT_DOUBLE_EQ(profiles[rep].warpPerf(config.issueRate),
                     profiles[0].warpPerf(config.issueRate));
}

TEST(Representative, InstructionCountDisambiguates)
{
    // Warps with equal performance but different lengths (the paper's
    // motivation for the second feature dimension): the majority
    // (short) group must win.
    HardwareConfig config = HardwareConfig::baseline();
    std::vector<IntervalProfile> profiles;
    for (std::uint32_t w = 0; w < 6; ++w)
        profiles.push_back(makeProfile(w, 100, 100.0)); // perf 0.5
    for (std::uint32_t w = 6; w < 9; ++w)
        profiles.push_back(makeProfile(w, 400, 400.0)); // perf 0.5
    std::uint32_t rep =
        selectRepresentative(featuresOf(profiles, config));
    EXPECT_LT(rep, 6u);
}

TEST(Representative, SelectionNames)
{
    EXPECT_EQ(toString(RepSelection::Clustering), "Clustering");
    EXPECT_EQ(toString(RepSelection::MaxPerf), "MAX");
    EXPECT_EQ(toString(RepSelection::MinPerf), "MIN");
}

} // namespace
} // namespace gpumech
