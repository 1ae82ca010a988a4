/**
 * @file
 * Tests for the interval algorithm (Section III-B, Eq. 4) and the
 * interval-profile accessors, including a replica of the paper's
 * Figure 6 worked example.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/interval_builder.hh"
#include "trace/trace_builder.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

HardwareConfig
oneCore()
{
    HardwareConfig c = HardwareConfig::baseline();
    c.numCores = 1;
    c.warpsPerCore = 4;
    return c;
}

/** Build a profile for a single hand-made warp. */
IntervalProfile
profileOf(const KernelTrace &kernel, const HardwareConfig &config)
{
    CollectorResult inputs = collectInputs(kernel, config);
    return buildIntervalProfile(kernel.warp(0), inputs, config);
}

TEST(Interval, NoStallsIsOneInterval)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    for (int i = 0; i < 8; ++i)
        b.compute(pc);
    b.finish();

    IntervalProfile p = profileOf(kernel, config);
    ASSERT_EQ(p.intervals.size(), 1u);
    EXPECT_EQ(p.intervals[0].numInsts, 8u);
    EXPECT_DOUBLE_EQ(p.intervals[0].stallCycles, 0.0);
    EXPECT_EQ(p.intervals[0].cause, StallCause::None);
    EXPECT_EQ(p.totalInsts(), 8u);
}

TEST(Interval, ComputeDependenceStall)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu); // latency 20
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.compute(pc);
    b.compute(pc, {r});
    b.finish();

    IntervalProfile p = profileOf(kernel, config);
    ASSERT_EQ(p.intervals.size(), 2u);
    EXPECT_EQ(p.intervals[0].numInsts, 1u);
    // inst0: issue 0, done 20; inst1 issues at 21 instead of 1:
    // 20 stall cycles.
    EXPECT_DOUBLE_EQ(p.intervals[0].stallCycles, 20.0);
    EXPECT_EQ(p.intervals[0].cause, StallCause::Compute);
    EXPECT_EQ(p.intervals[1].numInsts, 1u);
    EXPECT_DOUBLE_EQ(p.intervals[1].stallCycles, 0.0);
}

TEST(Interval, MemoryDependenceStallUsesAmat)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.globalLoad(pc_ld, {0x10000}); // cold: AMAT 420
    b.compute(pc_add, {r});
    b.finish();

    IntervalProfile p = profileOf(kernel, config);
    ASSERT_EQ(p.intervals.size(), 2u);
    // load: issue 0, done 420; add issues at 421 -> 420 stalls.
    EXPECT_DOUBLE_EQ(p.intervals[0].stallCycles, 420.0);
    EXPECT_EQ(p.intervals[0].cause, StallCause::Memory);
    EXPECT_EQ(p.intervals[0].causePc, pc_ld);
}

TEST(Interval, IndependentInstructionsDoNotStall)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    b.globalLoad(pc_ld, {0x10000});
    b.compute(pc_add); // no dep: issues the next cycle
    b.compute(pc_add);
    b.finish();

    IntervalProfile p = profileOf(kernel, config);
    ASSERT_EQ(p.intervals.size(), 1u);
    EXPECT_EQ(p.intervals[0].numInsts, 3u);
}

TEST(Interval, Figure6StyleExample)
{
    // A 6-instruction warp shaped like the paper's Figure 6: the
    // first interval's stall is caused by a dependence on its last
    // load; later instructions run stall-free.
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_c = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    b.compute(pc_c);                         // i1
    b.compute(pc_c);                         // i2
    Reg x = b.globalLoad(pc_ld, {0x10000});  // i3 (420-cycle AMAT)
    b.compute(pc_c);                         // i4
    Reg y = b.compute(pc_c, {x});            // i5 depends on i3
    b.compute(pc_c, {y});                    // i6 depends on i5
    b.finish();

    IntervalProfile p = profileOf(kernel, config);
    ASSERT_EQ(p.intervals.size(), 3u);
    // Interval 1: i1..i4 (4 insts), stall until the load completes:
    // load issues at 2, done at 422; i5 issues at 423 instead of 4.
    EXPECT_EQ(p.intervals[0].numInsts, 4u);
    EXPECT_DOUBLE_EQ(p.intervals[0].stallCycles, 419.0);
    EXPECT_EQ(p.intervals[0].cause, StallCause::Memory);
    // Interval 2: i5, stalling 20 cycles for the IntAlu chain.
    EXPECT_EQ(p.intervals[1].numInsts, 1u);
    EXPECT_DOUBLE_EQ(p.intervals[1].stallCycles, 20.0);
    EXPECT_EQ(p.intervals[1].cause, StallCause::Compute);
    // Interval 3: i6, end of trace.
    EXPECT_EQ(p.intervals[2].numInsts, 1u);
    EXPECT_EQ(p.intervals[2].cause, StallCause::None);
}

TEST(Interval, AnnotationCountsMemoryWork)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_st = kernel.addStatic(Opcode::GlobalStore);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.globalLoad(pc_ld, {0x10000, 0x20000}); // 2 cold misses
    b.globalStore(pc_st, {0x30000, 0x40000, 0x50000});
    b.compute(pc_add, {r});
    b.finish();

    IntervalProfile p = profileOf(kernel, config);
    ASSERT_GE(p.intervals.size(), 1u);
    const Interval &iv = p.intervals[0];
    // Loads: 2 requests, all L1 misses and L2 misses.
    EXPECT_DOUBLE_EQ(iv.mshrReqs, 2.0);
    // DRAM-bound: 2 load misses + 3 store requests.
    EXPECT_DOUBLE_EQ(iv.dramReqs, 5.0);
    // One L1-missing load instruction.
    EXPECT_DOUBLE_EQ(iv.memInsts, 1.0);
}

TEST(Interval, ProfileAccessors)
{
    IntervalProfile p;
    p.intervals.push_back(Interval{4, 10.0, StallCause::Compute, 0,
                                   0.0, 0.0, 0.0});
    p.intervals.push_back(Interval{6, 30.0, StallCause::Memory, 1,
                                   0.0, 0.0, 0.0});
    EXPECT_EQ(p.totalInsts(), 10u);
    EXPECT_DOUBLE_EQ(p.totalStallCycles(), 40.0);
    EXPECT_DOUBLE_EQ(p.totalCycles(1.0), 50.0);
    EXPECT_DOUBLE_EQ(p.warpPerf(1.0), 0.2); // Eq. 5
    EXPECT_DOUBLE_EQ(p.avgIntervalInsts(), 5.0); // Eq. 13
}

TEST(Interval, EmptyProfileIsSafe)
{
    IntervalProfile p;
    EXPECT_EQ(p.totalInsts(), 0u);
    EXPECT_DOUBLE_EQ(p.warpPerf(1.0), 0.0);
    EXPECT_DOUBLE_EQ(p.avgIntervalInsts(), 0.0);
}

TEST(Interval, EveryInstructionBelongsToExactlyOneInterval)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    KernelTrace kernel =
        workloadByName("micro_divergent8").generate(config);
    CollectorResult inputs = collectInputs(kernel, config);
    auto profiles = buildAllProfiles(kernel, inputs, config);
    ASSERT_EQ(profiles.size(), kernel.numWarps());
    for (std::uint32_t w = 0; w < profiles.size(); ++w) {
        EXPECT_EQ(profiles[w].totalInsts(), kernel.warp(w).numInsts());
        EXPECT_EQ(profiles[w].warpId, kernel.warp(w).warpId());
    }
}

TEST(Interval, ParallelProfilingMatchesSerial)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 8;
    KernelTrace kernel =
        workloadByName("micro_control_divergent").generate(config);
    CollectorResult inputs = collectInputs(kernel, config);
    auto serial = buildAllProfiles(kernel, inputs, config);
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        auto features = buildAllFeatures(kernel, inputs, config, threads);
        ASSERT_EQ(features.size(), serial.size());
        for (std::size_t w = 0; w < serial.size(); ++w) {
            WarpFeatures want = serial[w].features(config.issueRate);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(features[w].perf),
                      std::bit_cast<std::uint64_t>(want.perf))
                << "threads=" << threads << " warp=" << w;
            EXPECT_EQ(features[w].insts, want.insts)
                << "threads=" << threads << " warp=" << w;
        }
    }
}

TEST(Interval, WarpPerfEqualsSingleWarpTimingIpc)
{
    // The interval algorithm is the analytic twin of the timing
    // simulator for one warp alone: their cycle counts must agree
    // closely on a compute-only kernel (exactly, modulo the final
    // instruction's latency accounting).
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.compute(pc);
    for (int i = 0; i < 19; ++i)
        r = b.compute(pc, {r});
    b.finish();

    IntervalProfile p = profileOf(kernel, config);
    // Serial chain of 20: issue at k*21; total cycles ~ 20 insts +
    // 19*20 stall = 400.
    EXPECT_DOUBLE_EQ(p.totalCycles(1.0), 400.0);
}

} // namespace
} // namespace gpumech
