/**
 * @file
 * Unit tests for the trace library: ISA classification, coalescer,
 * warp/kernel trace invariants, the register-dataflow builder, and
 * serialization round-trips.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "trace/coalescer.hh"
#include "trace/kernel_trace.hh"
#include "trace/trace_builder.hh"
#include "trace/trace_io.hh"

namespace gpumech
{
namespace
{

HardwareConfig
smallConfig()
{
    HardwareConfig c = HardwareConfig::baseline();
    c.numCores = 2;
    c.warpsPerCore = 4;
    return c;
}

TEST(Isa, Classification)
{
    EXPECT_TRUE(isMemory(Opcode::GlobalLoad));
    EXPECT_TRUE(isMemory(Opcode::SharedStore));
    EXPECT_FALSE(isMemory(Opcode::FpAlu));
    EXPECT_TRUE(isGlobalMemory(Opcode::GlobalStore));
    EXPECT_FALSE(isGlobalMemory(Opcode::SharedLoad));
    EXPECT_TRUE(isLoad(Opcode::GlobalLoad));
    EXPECT_TRUE(isStore(Opcode::SharedStore));
    EXPECT_FALSE(isLoad(Opcode::GlobalStore));
}

TEST(Isa, FixedLatenciesFollowTable)
{
    LatencyTable t;
    EXPECT_EQ(fixedLatency(Opcode::FpAlu, t), t.fpAlu);
    EXPECT_EQ(fixedLatency(Opcode::IntAlu, t), t.intAlu);
    EXPECT_EQ(fixedLatency(Opcode::Sfu, t), t.sfu);
    EXPECT_EQ(fixedLatency(Opcode::SharedLoad, t), t.sharedMem);
    EXPECT_EQ(fixedLatency(Opcode::Branch, t), t.branch);
}

TEST(Isa, MnemonicRoundTrip)
{
    for (std::uint32_t i = 0; i < numOpcodes; ++i) {
        auto op = static_cast<Opcode>(i);
        Opcode parsed{};
        ASSERT_TRUE(tryOpcodeFromString(toString(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    Opcode unknown{};
    EXPECT_FALSE(tryOpcodeFromString("no.such.op", unknown));
}

TEST(Coalescer, FullyCoalescedWarpIsOneLine)
{
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 32; ++t)
        addrs.push_back(0x1000 + t * 4);
    EXPECT_EQ(coalescedCount(addrs, 128), 1u);
}

TEST(Coalescer, StraddlingTwoLines)
{
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 32; ++t)
        addrs.push_back(0x1040 + t * 4); // 64B offset, 128B span
    EXPECT_EQ(coalescedCount(addrs, 128), 2u);
}

TEST(Coalescer, FullyDivergent)
{
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 32; ++t)
        addrs.push_back(0x1000 + static_cast<Addr>(t) * 128);
    EXPECT_EQ(coalescedCount(addrs, 128), 32u);
}

TEST(Coalescer, ReturnsSortedUniqueLineAddresses)
{
    std::vector<Addr> addrs = {0x300, 0x100, 0x180, 0x310};
    auto lines = coalesce(addrs, 128);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], 0x100u);
    EXPECT_EQ(lines[1], 0x180u);
    EXPECT_EQ(lines[2], 0x300u);
}

TEST(Coalescer, MatchesSortUniqueOnAnyOrder)
{
    // The ordered fast path must equal masking, sorting and dropping
    // repeats, whatever the order the threads' lines come in.
    auto reference = [](std::vector<Addr> addrs, std::uint32_t line) {
        for (Addr &a : addrs)
            a &= ~static_cast<Addr>(line - 1);
        std::sort(addrs.begin(), addrs.end());
        addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
        return addrs;
    };
    std::vector<std::vector<Addr>> inputs;
    std::vector<Addr> sorted, duplicated;
    for (Addr t = 0; t < 32; ++t) {
        sorted.push_back(0x4000 + t * 200);
        duplicated.push_back(0x4000 + (t / 4) * 128 + t % 4);
    }
    inputs.push_back(sorted);
    inputs.push_back({sorted.rbegin(), sorted.rend()});
    inputs.push_back(duplicated);
    inputs.push_back({duplicated.rbegin(), duplicated.rend()});
    inputs.push_back({0x80, 0x80, 0x0, 0x80});
    inputs.push_back({0x1000});
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        std::vector<Addr> random(rng.nextRange(1, 32));
        for (Addr &a : random)
            a = rng.nextBelow(i % 2 ? 4096 : 1 << 20);
        inputs.push_back(random);
    }
    std::vector<Addr> out;
    for (std::uint32_t line : {32u, 128u}) {
        for (const std::vector<Addr> &addrs : inputs) {
            coalesce(addrs, line, out);
            EXPECT_EQ(out, reference(addrs, line));
        }
    }
}

TEST(TraceBuilder, ResolvesRegisterDependencies)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_add = kernel.addStatic(Opcode::FpAlu);
    auto pc_st = kernel.addStatic(Opcode::GlobalStore);

    TraceBuilder b(kernel, 0, 0, config);
    std::vector<Addr> addrs{0x1000};
    Reg x = b.globalLoad(pc_ld, addrs);
    Reg y = b.compute(pc_add, {x});
    b.globalStore(pc_st, addrs, {y});
    b.finish();

    WarpView warp = kernel.warp(0);
    ASSERT_EQ(warp.numInsts(), 3u);
    EXPECT_EQ(warp.deps(0)[0], noDep);
    EXPECT_EQ(warp.deps(1)[0], 0);
    EXPECT_EQ(warp.deps(2)[0], 1);
    EXPECT_TRUE(kernel.validate());
}

TEST(TraceBuilder, KeepsYoungestProducersWhenOverflowing)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    auto pc_many = kernel.addStatic(Opcode::FpAlu);

    TraceBuilder b(kernel, 0, 0, config);
    Reg r0 = b.compute(pc);
    Reg r1 = b.compute(pc);
    Reg r2 = b.compute(pc);
    Reg r3 = b.compute(pc);
    b.compute(pc_many, {r0, r1, r2, r3});
    b.finish();

    const DepArray &deps = kernel.warp(0).deps(4);
    // The three youngest producers (indices 3, 2, 1) are kept.
    EXPECT_EQ(deps[0], 3);
    EXPECT_EQ(deps[1], 2);
    EXPECT_EQ(deps[2], 1);
}

TEST(TraceBuilder, DeduplicatesSameProducer)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    Reg r = b.compute(pc);
    b.compute(pc, {r, r, r});
    b.finish();
    const DepArray &deps = kernel.warp(0).deps(1);
    EXPECT_EQ(deps[0], 0);
    EXPECT_EQ(deps[1], noDep);
}

TEST(TraceBuilder, CoalescesLoadAddresses)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    TraceBuilder b(kernel, 0, 0, config);
    std::vector<Addr> addrs;
    for (std::uint32_t t = 0; t < 32; ++t)
        addrs.push_back(0x4000 + t * 4);
    b.globalLoad(pc_ld, addrs);
    b.finish();
    EXPECT_EQ(kernel.warp(0).numRequests(0), 1u);
    EXPECT_EQ(kernel.warp(0).activeThreads(0), 32u);
}

TEST(WarpTrace, ValidateCatchesForwardDeps)
{
    WarpTrace warp;
    WarpInst inst;
    inst.op = Opcode::IntAlu;
    inst.activeThreads = 32;
    inst.deps[0] = 5; // forward reference
    warp.addInst(inst);
    EXPECT_FALSE(warp.validate());
}

TEST(WarpTrace, ValidateCatchesMemInstWithoutLines)
{
    WarpTrace warp;
    WarpInst inst;
    inst.op = Opcode::GlobalLoad;
    inst.activeThreads = 32;
    warp.addInst(inst); // memory instruction with an empty line slice
    EXPECT_FALSE(warp.validate());
}

TEST(WarpTrace, CountsMemoryWork)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("t");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
    auto pc_add = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    std::vector<Addr> addrs{0x0, 0x80, 0x100};
    Reg r = b.globalLoad(pc_ld, addrs);
    b.compute(pc_add, {r});
    b.finish();
    EXPECT_EQ(kernel.warp(0).numGlobalMemInsts(), 1u);
    EXPECT_EQ(kernel.warp(0).numGlobalMemRequests(), 3u);
}

TEST(KernelTrace, BlockToCoreAssignmentRoundRobin)
{
    HardwareConfig config = smallConfig(); // 2 cores
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    for (std::uint32_t w = 0; w < 8; ++w) {
        TraceBuilder b(kernel, w, w / 2, config); // blocks of 2 warps
        b.compute(pc);
        b.finish();
    }
    auto core0 = kernel.warpsOnCore(0, config);
    auto core1 = kernel.warpsOnCore(1, config);
    EXPECT_EQ(core0.size(), 4u);
    EXPECT_EQ(core1.size(), 4u);
    // Block 0 (warps 0,1) on core 0; block 1 (warps 2,3) on core 1.
    EXPECT_EQ(core0[0], 0u);
    EXPECT_EQ(core0[1], 1u);
    EXPECT_EQ(core1[0], 2u);
}

TEST(KernelTrace, ValidateChecksPcOpcodeConsistency)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    TraceBuilder b(kernel, 0, 0, config);
    b.compute(pc);
    b.finish();
    EXPECT_TRUE(kernel.validate());
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("roundtrip");
    auto pc_ld = kernel.addStatic(Opcode::GlobalLoad, "in");
    auto pc_add = kernel.addStatic(Opcode::FpAlu);
    auto pc_st = kernel.addStatic(Opcode::GlobalStore, "out");

    for (std::uint32_t w = 0; w < 4; ++w) {
        TraceBuilder b(kernel, w, w / 2, config);
        std::vector<Addr> addrs{0x1000 + w * 128ull, 0x2000 + w * 128ull};
        Reg x = b.globalLoad(pc_ld, addrs);
        Reg y = b.compute(pc_add, {x});
        b.globalStore(pc_st, addrs, {y});
        b.finish();
    }

    KernelTrace copy = traceFromString(traceToString(kernel));
    EXPECT_EQ(copy.name(), kernel.name());
    ASSERT_EQ(copy.numWarps(), kernel.numWarps());
    ASSERT_EQ(copy.numStaticInsts(), kernel.numStaticInsts());
    EXPECT_EQ(copy.staticInsts()[0].label, "in");
    for (std::uint32_t w = 0; w < copy.numWarps(); ++w) {
        WarpView a = kernel.warp(w);
        WarpView b2 = copy.warp(w);
        ASSERT_EQ(a.numInsts(), b2.numInsts());
        EXPECT_EQ(a.warpId(), b2.warpId());
        EXPECT_EQ(a.blockId(), b2.blockId());
        for (std::size_t i = 0; i < a.numInsts(); ++i) {
            EXPECT_EQ(a.pc(i), b2.pc(i));
            EXPECT_EQ(a.deps(i), b2.deps(i));
            EXPECT_TRUE(a.lines(i) == b2.lines(i));
            EXPECT_EQ(a.activeThreads(i), b2.activeThreads(i));
        }
    }
    EXPECT_TRUE(copy.validate());
}

TEST(KernelTrace, TotalInstsSumsWarps)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel("t");
    auto pc = kernel.addStatic(Opcode::IntAlu);
    for (std::uint32_t w = 0; w < 3; ++w) {
        TraceBuilder b(kernel, w, w, config);
        for (int i = 0; i < 5; ++i)
            b.compute(pc);
        b.finish();
    }
    EXPECT_EQ(kernel.totalInsts(), 15u);
    EXPECT_EQ(kernel.numBlocks(), 3u);
}

} // namespace
} // namespace gpumech
