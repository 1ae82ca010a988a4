/**
 * @file
 * Tests for the detailed timing simulator, including exact
 * cycle-count checks on hand-built traces (latencies from Table I:
 * IntAlu 20, L1 hit 25, L2 hit 120, L2 miss 420, DRAM service 2/3
 * cycle per line).
 */

#include <gtest/gtest.h>

#include "timing/gpu_timing.hh"
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

TimingStats
run(const KernelTrace &kernel, const HardwareConfig &config,
    SchedulingPolicy policy = SchedulingPolicy::RoundRobin)
{
    GpuTiming sim(kernel, config, policy);
    return sim.run();
}

TEST(Timing, IndependentComputeIssuesEveryCycle)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    for (int i = 0; i < 10; ++i)
        b.compute(pc);
    b.finish();

    TimingStats s = run(kernel, config);
    // Last instruction issues at cycle 9, completes at 9 + 20.
    EXPECT_EQ(s.totalCycles, 29u);
    EXPECT_EQ(s.totalInsts, 10u);
}

TEST(Timing, SerialChainWaitsFullLatency)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.compute(pc);
    for (int i = 0; i < 4; ++i)
        r = b.compute(pc, {r});
    b.finish();

    TimingStats s = run(kernel, config);
    // inst k issues at k*(20+1); inst 4 completes at 84 + 20.
    EXPECT_EQ(s.totalCycles, 104u);
}

TEST(Timing, FpLatencyDiffersFromInt)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::FpAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.compute(pc);
    r = b.compute(pc, {r});
    b.finish();
    TimingStats s = run(kernel, config);
    // issue 0 -> done 25; issue 26 -> done 51.
    EXPECT_EQ(s.totalCycles, 51u);
}

TEST(Timing, ColdLoadMissesToDram)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::GlobalLoad);
    TraceBuilder b(kernel, 0, 0, config);
    b.globalLoad(pc, {0x10000});
    b.finish();

    TimingStats s = run(kernel, config);
    // Request reaches DRAM at 120, service 2/3, +300 access:
    // fill at ceil(420.67) = 421.
    EXPECT_EQ(s.totalCycles, 421u);
    EXPECT_EQ(s.l1Accesses, 1u);
    EXPECT_EQ(s.l1Hits, 0u);
    EXPECT_EQ(s.l2Accesses, 1u);
    EXPECT_EQ(s.l2Hits, 0u);
    EXPECT_EQ(s.dramReads, 1u);
    EXPECT_EQ(s.mshrAllocs, 1u);
}

TEST(Timing, DependentComputeWaitsForFill)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.globalLoad(pc_ld, {0x10000});
    b.compute(pc_add, {r});
    b.finish();

    TimingStats s = run(kernel, config);
    // Load fills at 421; compute issues at 422, completes at 442.
    EXPECT_EQ(s.totalCycles, 442u);
}

TEST(Timing, ReloadAfterFillHitsL1)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.globalLoad(pc_ld, {0x10000});
    Reg c = b.compute(pc_add, {r}); // serializes past the fill
    b.globalLoad(pc_ld, {0x10000}, {c});
    b.finish();

    TimingStats s = run(kernel, config);
    // compute done 442; reload issues 443, L1 hit: done 443 + 25.
    EXPECT_EQ(s.totalCycles, 468u);
    EXPECT_EQ(s.l1Hits, 1u);
}

TEST(Timing, ConcurrentSameLineLoadsMergeInMshr)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    TraceBuilder b(kernel, 0, 0, config);
    b.globalLoad(pc_ld, {0x10000});
    b.globalLoad(pc_ld, {0x10000}); // merges, no second DRAM read
    b.finish();

    TimingStats s = run(kernel, config);
    EXPECT_EQ(s.dramReads, 1u);
    EXPECT_EQ(s.mshrAllocs, 1u);
    EXPECT_EQ(s.mshrMerges, 1u);
    // Both complete at the single fill (421).
    EXPECT_EQ(s.totalCycles, 421u);
}

TEST(Timing, SecondCoreHitsSharedL2)
{
    HardwareConfig config = oneCore();
    config.numCores = 2;
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    {
        TraceBuilder b(kernel, 0, 0, config); // block 0 -> core 0
        b.globalLoad(pc_ld, {0x10000});
        b.finish();
    }
    {
        TraceBuilder b(kernel, 1, 1, config); // block 1 -> core 1
        b.globalLoad(pc_ld, {0x10000});
        b.finish();
    }
    TimingStats s = run(kernel, config);
    // Core 0 misses to DRAM; core 1 (same cycle) hits L2 tags and
    // fills at 120.
    EXPECT_EQ(s.l2Hits, 1u);
    EXPECT_EQ(s.dramReads, 1u);
    EXPECT_EQ(s.totalCycles, 421u);
}

TEST(Timing, StoresAreFireAndForget)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_st = kernel.addStatic(Opcode::GlobalStore);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    b.globalStore(pc_st, {0x10000});
    b.compute(pc_add);
    b.finish();

    TimingStats s = run(kernel, config);
    // Store occupies cycle 0 only; compute issues at 1, done 21.
    EXPECT_EQ(s.totalCycles, 21u);
    EXPECT_EQ(s.dramWrites, 1u);
    EXPECT_EQ(s.mshrAllocs, 0u);
}

TEST(Timing, DivergentStoreConsumesBandwidthPerLine)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_st = kernel.addStatic(Opcode::GlobalStore);
    TraceBuilder b(kernel, 0, 0, config);
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 32; ++t)
        addrs.push_back(0x10000 + static_cast<Addr>(t) * 128);
    b.globalStore(pc_st, addrs);
    b.finish();

    TimingStats s = run(kernel, config);
    EXPECT_EQ(s.dramWrites, 32u);
}

TEST(Timing, WriteBurstDelaysSubsequentLoad)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc_st = kernel.addStatic(Opcode::GlobalStore);
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    TraceBuilder b(kernel, 0, 0, config);
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 32; ++t)
        addrs.push_back(0x10000 + static_cast<Addr>(t) * 128);
    b.globalStore(pc_st, addrs); // 32 writes arrive at cycle 120
    b.globalLoad(pc_ld, {0x90000});
    b.finish();

    TimingStats s = run(kernel, config);
    // Load (issue 1, arrival 121) queues behind 32 writes:
    // service starts at 120 + 32*(2/3) = 141.33, fill at
    // ceil(141.33 + 0.67 + 300) = 442.
    EXPECT_EQ(s.totalCycles, 442u);
    EXPECT_GT(s.avgDramQueueDelay, 0.0);
}

TEST(Timing, MshrExhaustionBlocksNextLoad)
{
    HardwareConfig config = oneCore();
    config.numMshrs = 1;
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    TraceBuilder b(kernel, 0, 0, config);
    b.globalLoad(pc_ld, {0x10000});
    b.globalLoad(pc_ld, {0x90000}); // distinct line, needs the MSHR
    b.finish();

    TimingStats s = run(kernel, config);
    // Load B can only issue after A's fill frees the entry at 421:
    // B issues at 422, fill at ceil(422+120+0.67+300) = 843.
    EXPECT_EQ(s.totalCycles, 843u);
    EXPECT_EQ(s.mshrPeak, 1u);
}

TEST(Timing, DivergentLoadDispatchesInWavesWhenMshrsShort)
{
    HardwareConfig config = oneCore();
    config.numMshrs = 2;
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    TraceBuilder b(kernel, 0, 0, config);
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 4; ++t)
        addrs.push_back(0x10000 + static_cast<Addr>(t) * 128);
    b.globalLoad(pc_ld, addrs); // 4 lines, 2 MSHRs
    b.finish();

    TimingStats s = run(kernel, config);
    // Wave 1 (cycle 0): lines 0,1 -> fills 421, 422.
    // Wave 2 (cycle 422): lines 2,3 -> arrivals 542, service
    // 542+0.67, 542.67+0.67 -> fills 843, 844.
    EXPECT_EQ(s.totalCycles, 844u);
    EXPECT_EQ(s.mshrAllocs, 4u);
    EXPECT_EQ(s.mshrPeak, 2u);
    // The replayed instruction is still one instruction.
    EXPECT_EQ(s.totalInsts, 1u);
}

TEST(Timing, DivergentLoadWiderThanMshrFileCompletes)
{
    HardwareConfig config = oneCore();
    config.numMshrs = 4;
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 32; ++t)
        addrs.push_back(0x10000 + static_cast<Addr>(t) * 128);
    Reg r = b.globalLoad(pc_ld, addrs); // 32 lines, 4 MSHRs
    b.compute(pc_add, {r});
    b.finish();

    TimingStats s = run(kernel, config); // must not deadlock
    EXPECT_EQ(s.mshrAllocs, 32u);
    EXPECT_EQ(s.totalInsts, 2u);
    EXPECT_GT(s.totalCycles, 421u * 2);
}

TEST(Timing, LoadWiderThan255LinesCompletes)
{
    // Traces allow far more lines per load than a warp has lanes; the
    // per-load count of outstanding fills must not wrap at 256.
    HardwareConfig config = oneCore();
    config.warpsPerCore = 1;
    config.numMshrs = 512;
    KernelTrace kernel("t");
    WarpInst ld;
    ld.pc = kernel.addStatic(Opcode::GlobalLoad);
    ld.op = Opcode::GlobalLoad;
    ld.activeThreads = 32;
    std::vector<Addr> lines;
    for (Addr i = 0; i < 300; ++i)
        lines.push_back(0x10000 + i * 128);
    WarpTrace warp;
    std::int32_t ld_idx = warp.addMemInst(ld, lines.data(), 300);
    WarpInst add;
    add.pc = kernel.addStatic(Opcode::IntAlu);
    add.op = Opcode::IntAlu;
    add.activeThreads = 32;
    add.deps = {ld_idx, noDep, noDep};
    warp.addInst(add);
    kernel.addWarp(warp);
    ASSERT_TRUE(kernel.validate());

    TimingStats s = run(kernel, config); // must not deadlock
    EXPECT_EQ(s.totalInsts, 2u);
    EXPECT_EQ(s.dramReads, 300u);
}

TEST(Timing, RoundRobinInterleavesWarps)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    for (std::uint32_t w = 0; w < 2; ++w) {
        TraceBuilder b(kernel, w, 0, config);
        for (int i = 0; i < 4; ++i)
            b.compute(pc);
        b.finish();
    }
    TimingStats s = run(kernel, config);
    // 8 independent instructions, one per cycle: last at 7, done 27.
    EXPECT_EQ(s.totalCycles, 27u);
    EXPECT_EQ(s.totalInsts, 8u);
}

TEST(Timing, GtoMatchesRrOnSymmetricComputeKernel)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    for (std::uint32_t w = 0; w < 2; ++w) {
        TraceBuilder b(kernel, w, 0, config);
        for (int i = 0; i < 4; ++i)
            b.compute(pc);
        b.finish();
    }
    TimingStats rr = run(kernel, config, SchedulingPolicy::RoundRobin);
    TimingStats gto =
        run(kernel, config, SchedulingPolicy::GreedyThenOldest);
    EXPECT_EQ(rr.totalCycles, gto.totalCycles);
}

TEST(Timing, MultithreadingHidesStalls)
{
    HardwareConfig config = oneCore();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    // Each warp alone: 5 chained ops = 104 cycles. Four warps can
    // interleave: issue slots are free during stalls.
    for (std::uint32_t w = 0; w < 4; ++w) {
        TraceBuilder b(kernel, w, 0, config);
        Reg r = b.compute(pc);
        for (int i = 0; i < 4; ++i)
            r = b.compute(pc, {r});
        b.finish();
    }
    TimingStats s = run(kernel, config);
    // All four chains proceed concurrently: still ~104 cycles, not
    // 4x.
    EXPECT_LE(s.totalCycles, 110u);
    EXPECT_GE(s.totalCycles, 104u);
}

TEST(Timing, CpiNeverBelowIssueBound)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 8;
    for (const auto &workload : microWorkloads()) {
        KernelTrace kernel = workload.generate(config);
        TimingStats s = run(kernel, config);
        EXPECT_GE(s.cpi(), 1.0) << workload.name;
    }
}

TEST(Timing, Deterministic)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    KernelTrace kernel =
        workloadByName("micro_divergent8").generate(config);
    TimingStats a = run(kernel, config);
    TimingStats b = run(kernel, config);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.mshrAllocs, b.mshrAllocs);
}

TEST(Timing, PerCoreCpiDefinition)
{
    HardwareConfig config = oneCore();
    config.numCores = 2;
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    for (std::uint32_t w = 0; w < 2; ++w) {
        TraceBuilder b(kernel, w, w, config); // one warp per core
        for (int i = 0; i < 10; ++i)
            b.compute(pc);
        b.finish();
    }
    TimingStats s = run(kernel, config);
    EXPECT_EQ(s.coresUsed, 2u);
    EXPECT_EQ(s.totalCycles, 29u);
    // 10 instructions per core over 29 cycles.
    EXPECT_NEAR(s.cpi(), 2.9, 1e-9);
}

class DivergenceSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(DivergenceSweep, MoreDivergenceNeverFaster)
{
    // Property: a kernel identical except for higher memory
    // divergence cannot finish sooner.
    HardwareConfig config = oneCore();
    config.warpsPerCore = 8;
    auto build = [&](std::uint32_t degree) {
        KernelTrace kernel("deg" + std::to_string(degree));
        auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
        auto pc_add = kernel.addStatic(Opcode::IntAlu);
        for (std::uint32_t w = 0; w < 8; ++w) {
            TraceBuilder b(kernel, w, 0, config);
            Addr base = 0x1000000ULL * (w + 1);
            for (int it = 0; it < 20; ++it) {
                std::vector<Addr> addrs;
                for (std::uint32_t t = 0; t < 32; ++t) {
                    addrs.push_back(base + (t % degree) * 128ull);
                }
                base += degree * 128ull;
                Reg r = b.globalLoad(pc_ld, addrs);
                b.compute(pc_add, {r});
            }
            b.finish();
        }
        return kernel;
    };

    std::uint32_t degree = GetParam();
    if (degree == 1)
        return; // nothing to compare against
    KernelTrace lo = build(degree / 2);
    KernelTrace hi = build(degree);
    // Allow a small tolerance: at low degrees the two kernels touch
    // different address streams and can differ by cache-indexing
    // noise; real contention effects are far larger than 5%.
    EXPECT_GE(static_cast<double>(run(hi, config).totalCycles),
              0.95 * static_cast<double>(run(lo, config).totalCycles));
}

INSTANTIATE_TEST_SUITE_P(Degrees, DivergenceSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

class PolicySweep
    : public ::testing::TestWithParam<SchedulingPolicy>
{
};

TEST_P(PolicySweep, AllMicroKernelsComplete)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 8;
    for (const auto &workload : microWorkloads()) {
        KernelTrace kernel = workload.generate(config);
        TimingStats s = run(kernel, config, GetParam());
        EXPECT_EQ(s.totalInsts, kernel.totalInsts()) << workload.name;
        EXPECT_GT(s.totalCycles, 0u) << workload.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweep,
    ::testing::Values(SchedulingPolicy::RoundRobin,
                      SchedulingPolicy::GreedyThenOldest));

} // namespace
} // namespace gpumech
