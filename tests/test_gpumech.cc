/**
 * @file
 * End-to-end tests for the GPUMech pipeline: model-level ordering,
 * determinism, the profiler's configuration-reuse path, and accuracy
 * envelopes against the detailed timing simulator on the micro suite.
 */

#include <gtest/gtest.h>

#include "core/gpumech.hh"
#include "timing/gpu_timing.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

HardwareConfig
smallConfig()
{
    HardwareConfig c = HardwareConfig::baseline();
    c.numCores = 2;
    c.warpsPerCore = 8;
    return c;
}

TEST(GpuMech, ModelLevelNames)
{
    EXPECT_EQ(toString(ModelLevel::MT), "MT");
    EXPECT_EQ(toString(ModelLevel::MT_MSHR), "MT_MSHR");
    EXPECT_EQ(toString(ModelLevel::MT_MSHR_BAND), "MT_MSHR_BAND");
}

TEST(GpuMech, CpiIsSumOfParts)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_divergent8").generate(config);
    GpuMechResult r = runGpuMech(kernel, config, GpuMechOptions{});
    EXPECT_NEAR(r.cpi, r.cpiMultithreading + r.cpiContention, 1e-12);
    EXPECT_NEAR(r.ipc * r.cpi, 1.0, 1e-9);
}

TEST(GpuMech, ModelLevelsOnlyAddCpi)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_divergent32").generate(config);
    GpuMechProfiler profiler(kernel, config);
    double mt =
        profiler.evaluate(SchedulingPolicy::RoundRobin, ModelLevel::MT)
            .cpi;
    double mshr = profiler
                      .evaluate(SchedulingPolicy::RoundRobin,
                                ModelLevel::MT_MSHR)
                      .cpi;
    double band = profiler
                      .evaluate(SchedulingPolicy::RoundRobin,
                                ModelLevel::MT_MSHR_BAND)
                      .cpi;
    EXPECT_LE(mt, mshr + 1e-12);
    EXPECT_LE(mshr, band + 1e-12);
}

TEST(GpuMech, Deterministic)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_divergent8").generate(config);
    GpuMechResult a = runGpuMech(kernel, config, GpuMechOptions{});
    GpuMechResult b = runGpuMech(kernel, config, GpuMechOptions{});
    EXPECT_DOUBLE_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.repWarpIndex, b.repWarpIndex);
}

TEST(GpuMech, ProfilerEvaluateMatchesRunGpuMech)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_stream").generate(config);
    GpuMechResult direct = runGpuMech(kernel, config, GpuMechOptions{});
    GpuMechProfiler profiler(kernel, config);
    GpuMechResult via =
        profiler.evaluate(SchedulingPolicy::RoundRobin);
    EXPECT_DOUBLE_EQ(direct.cpi, via.cpi);
    EXPECT_EQ(direct.repWarpIndex, via.repWarpIndex);
}

TEST(GpuMech, EvaluateAtSameConfigMatchesEvaluate)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_divergent8").generate(config);
    GpuMechProfiler profiler(kernel, config);
    GpuMechResult a = profiler.evaluate(SchedulingPolicy::RoundRobin);
    GpuMechResult b =
        profiler.evaluateAt(config, SchedulingPolicy::RoundRobin);
    EXPECT_NEAR(a.cpi, b.cpi, 1e-12);
}

TEST(GpuMech, EvaluateAtRespondsToHardwareChanges)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_divergent32").generate(config);
    GpuMechProfiler profiler(kernel, config);
    double base =
        profiler.evaluate(SchedulingPolicy::RoundRobin).cpi;

    HardwareConfig more_mshrs = config;
    more_mshrs.numMshrs = 256;
    double relaxed =
        profiler.evaluateAt(more_mshrs, SchedulingPolicy::RoundRobin)
            .cpi;
    EXPECT_LE(relaxed, base + 1e-9);

    HardwareConfig slow_dram = config;
    slow_dram.dramBandwidthGBs = 24.0;
    double squeezed =
        profiler.evaluateAt(slow_dram, SchedulingPolicy::RoundRobin)
            .cpi;
    EXPECT_GE(squeezed, base - 1e-9);
}

TEST(GpuMech, ComputeKernelHasNoContention)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_compute_chain").generate(config);
    GpuMechResult r = runGpuMech(kernel, config, GpuMechOptions{});
    EXPECT_DOUBLE_EQ(r.cpiContention, 0.0);
}

TEST(GpuMech, PredictionWithinPhysicalBounds)
{
    HardwareConfig config = smallConfig();
    for (const auto &workload : microWorkloads()) {
        KernelTrace kernel = workload.generate(config);
        GpuMechResult r = runGpuMech(kernel, config, GpuMechOptions{});
        EXPECT_GE(r.cpi, 1.0 / config.issueRate - 1e-9)
            << workload.name;
        EXPECT_LT(r.cpi, 1e5) << workload.name;
    }
}

class MicroAccuracy
    : public ::testing::TestWithParam<
          std::tuple<const char *, SchedulingPolicy>>
{
};

TEST_P(MicroAccuracy, TracksOracleWithinFiftyPercent)
{
    // Accuracy envelope on the well-behaved micro kernels: the
    // model's headline claim is ~13-20% average error; 50% per-kernel
    // is a loose regression guard.
    auto [name, policy] = GetParam();
    HardwareConfig config = smallConfig();
    KernelTrace kernel = workloadByName(name).generate(config);

    GpuMechOptions options;
    options.policy = policy;
    GpuMechResult model = runGpuMech(kernel, config, options);
    GpuTiming oracle(kernel, config, policy);
    double oracle_ipc = 1.0 / oracle.run().cpi();
    double error = std::abs(model.ipc - oracle_ipc) / oracle_ipc;
    EXPECT_LT(error, 0.5) << name << " " << toString(policy);
}

std::string
microAccuracyName(const ::testing::TestParamInfo<MicroAccuracy::ParamType> &info)
{
    return std::string(std::get<0>(info.param)) + '_' +
           toString(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, MicroAccuracy,
    ::testing::Combine(
        ::testing::Values("micro_compute_chain", "micro_stream",
                          "micro_divergent8", "micro_divergent32",
                          "micro_l1_resident", "micro_write_burst"),
        ::testing::Values(SchedulingPolicy::RoundRobin,
                          SchedulingPolicy::GreedyThenOldest)),
    microAccuracyName);

TEST(GpuMech, RepresentativeWarpRecorded)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel =
        workloadByName("micro_control_divergent").generate(config);
    GpuMechResult r = runGpuMech(kernel, config, GpuMechOptions{});
    EXPECT_LT(r.repWarpIndex, kernel.numWarps());
    EXPECT_GT(r.repNumIntervals, 0u);
    EXPECT_GT(r.repWarpPerf, 0.0);
    EXPECT_LE(r.repWarpPerf, config.issueRate);
}

} // namespace
} // namespace gpumech
