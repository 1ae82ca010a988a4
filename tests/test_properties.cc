/**
 * @file
 * Property-based and fuzz tests across module boundaries: randomized
 * coalescer inputs, workload generation across configuration sweeps,
 * and end-to-end invariants that must hold for every kernel and
 * configuration.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/gpumech.hh"
#include "timing/gpu_timing.hh"
#include "trace/coalescer.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

TEST(Properties, CoalescerFuzz)
{
    Rng rng(123);
    for (int iter = 0; iter < 500; ++iter) {
        std::uint32_t threads =
            static_cast<std::uint32_t>(rng.nextRange(1, 32));
        std::uint32_t line = 1u << rng.nextRange(5, 9); // 32..512
        std::vector<Addr> addrs;
        for (std::uint32_t t = 0; t < threads; ++t)
            addrs.push_back(rng.nextBelow(1 << 20));

        auto lines = coalesce(addrs, line);
        // Count bounded by thread count, at least one.
        EXPECT_GE(lines.size(), 1u);
        EXPECT_LE(lines.size(), threads);
        // Sorted, unique, aligned.
        EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
        EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()),
                  lines.end());
        for (Addr a : lines)
            EXPECT_EQ(a % line, 0u);
        // Every thread address falls inside one returned line.
        for (Addr a : addrs) {
            Addr base = a - a % line;
            EXPECT_TRUE(std::binary_search(lines.begin(), lines.end(),
                                           base));
        }
    }
}

class SuiteByWarpCount
    : public ::testing::TestWithParam<
          std::tuple<const char *, std::uint32_t>>
{
};

TEST_P(SuiteByWarpCount, EveryKernelGeneratesAndValidates)
{
    auto [suite, warps] = GetParam();
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = warps;
    for (const auto &w : workloadsBySuite(suite)) {
        KernelTrace kernel = w.generate(config);
        EXPECT_TRUE(kernel.validate()) << w.name;
        EXPECT_EQ(kernel.numWarps(), 2 * warps) << w.name;
        // Traces must be long enough for meaningful profiles.
        EXPECT_GT(kernel.totalInsts() / kernel.numWarps(), 50u)
            << w.name;
    }
}

std::string
suiteByWarpCountName(
    const ::testing::TestParamInfo<SuiteByWarpCount::ParamType> &info)
{
    return std::string(std::get<0>(info.param)) + "_w" +
           std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuiteByWarpCount,
    ::testing::Combine(::testing::Values("rodinia", "parboil", "sdk"),
                       ::testing::Values(8u, 16u, 48u)),
    suiteByWarpCountName);

TEST(Properties, ModelFiniteAndPositiveForAllEvaluationKernels)
{
    // Cheap smoke over all 40 kernels at a small configuration: the
    // model must produce a finite positive CPI and a stack that sums
    // to it.
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 8;
    for (const auto &w : evaluationWorkloads()) {
        KernelTrace kernel = w.generate(config);
        GpuMechResult r = runGpuMech(kernel, config, GpuMechOptions{});
        EXPECT_TRUE(std::isfinite(r.cpi)) << w.name;
        EXPECT_GE(r.cpi, 1.0 - 1e-9) << w.name;
        EXPECT_NEAR(r.stack.total(), r.cpi, 1e-6) << w.name;
    }
}

TEST(Properties, OracleConservesInstructionCounts)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 8;
    for (const char *name :
         {"srad_kernel1", "bfs_kernel1", "transpose_naive",
          "stress_two_phase"}) {
        KernelTrace kernel = workloadByName(name).generate(config);
        GpuTiming sim(kernel, config, SchedulingPolicy::RoundRobin);
        TimingStats s = sim.run();
        EXPECT_EQ(s.totalInsts, kernel.totalInsts()) << name;
    }
}

TEST(Properties, SimdEfficiencyFullForUniformKernels)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    KernelTrace kernel =
        workloadByName("vectorAdd").generate(config);
    GpuTiming sim(kernel, config, SchedulingPolicy::RoundRobin);
    EXPECT_DOUBLE_EQ(sim.run().simdEfficiency(), 1.0);
}

TEST(Properties, SimdEfficiencyDropsWithShrinkingMasks)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    KernelTrace kernel =
        workloadByName("reduction_kernel").generate(config);
    GpuTiming sim(kernel, config, SchedulingPolicy::RoundRobin);
    double eff = sim.run().simdEfficiency();
    EXPECT_LT(eff, 1.0);
    EXPECT_GT(eff, 0.5);
}

TEST(Properties, FasterMemoryNeverHurtsOracle)
{
    // Doubling bandwidth and MSHRs must not slow the oracle down.
    for (const char *name :
         {"micro_divergent32", "micro_write_burst"}) {
        HardwareConfig base = HardwareConfig::baseline();
        base.numCores = 2;
        base.warpsPerCore = 8;
        KernelTrace kernel = workloadByName(name).generate(base);
        GpuTiming slow(kernel, base, SchedulingPolicy::RoundRobin);
        HardwareConfig fast = base;
        fast.dramBandwidthGBs *= 2.0;
        fast.numMshrs *= 2;
        GpuTiming quick(kernel, fast, SchedulingPolicy::RoundRobin);
        EXPECT_LE(quick.run().totalCycles, slow.run().totalCycles)
            << name;
    }
}

TEST(Properties, ModelRespondsToMemoryUpgradesLikeOracle)
{
    HardwareConfig base = HardwareConfig::baseline();
    base.numCores = 2;
    base.warpsPerCore = 8;
    KernelTrace kernel =
        workloadByName("micro_divergent32").generate(base);
    GpuMechProfiler profiler(kernel, base);
    double base_cpi =
        profiler.evaluate(SchedulingPolicy::RoundRobin).cpi;

    HardwareConfig fast = base;
    fast.dramBandwidthGBs *= 4.0;
    fast.numMshrs *= 4;
    double fast_cpi =
        profiler.evaluateAt(fast, SchedulingPolicy::RoundRobin).cpi;
    EXPECT_LT(fast_cpi, base_cpi);

    GpuTiming slow_sim(kernel, base, SchedulingPolicy::RoundRobin);
    GpuTiming fast_sim(kernel, fast, SchedulingPolicy::RoundRobin);
    EXPECT_LT(fast_sim.run().cpi(), slow_sim.run().cpi());
}

TEST(Properties, PolicyChoiceFlowsThroughWholePipeline)
{
    // RR and GTO model predictions must differ for a kernel with
    // multi-instruction intervals (their non-overlap formulas
    // differ), and both must stay within physical bounds.
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 8;
    KernelTrace kernel =
        workloadByName("micro_stream").generate(config);
    GpuMechProfiler profiler(kernel, config);
    double rr = profiler.evaluate(SchedulingPolicy::RoundRobin,
                                  ModelLevel::MT).cpi;
    double gto = profiler.evaluate(SchedulingPolicy::GreedyThenOldest,
                                   ModelLevel::MT).cpi;
    EXPECT_NE(rr, gto);
    EXPECT_GE(rr, 1.0 - 1e-9);
    EXPECT_GE(gto, 1.0 - 1e-9);
}

} // namespace
} // namespace gpumech
