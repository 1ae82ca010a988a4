/**
 * @file
 * Tests for the experiment harness: model enumeration, per-kernel
 * evaluation structure, error aggregation and the sweep table.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"
#include "harness/sweep.hh"

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

TEST(Harness, TableIIModelNames)
{
    EXPECT_EQ(toString(ModelKind::NaiveInterval), "Naive_Interval");
    EXPECT_EQ(toString(ModelKind::MarkovChain), "Markov_Chain");
    EXPECT_EQ(toString(ModelKind::MT), "MT");
    EXPECT_EQ(toString(ModelKind::MT_MSHR), "MT_MSHR");
    EXPECT_EQ(toString(ModelKind::MT_MSHR_BAND), "MT_MSHR_BAND");
}

TEST(Harness, AllModelsInTableIIOrder)
{
    const auto &models = allModels();
    ASSERT_EQ(models.size(), 5u);
    EXPECT_EQ(models.front(), ModelKind::NaiveInterval);
    EXPECT_EQ(models.back(), ModelKind::MT_MSHR_BAND);
}

TEST(Harness, EvaluateKernelFillsEveryModel)
{
    HardwareConfig config = smallConfig();
    KernelEvaluation eval =
        evaluateKernel(workloadByName("micro_stream"), config,
                       SchedulingPolicy::RoundRobin);
    EXPECT_EQ(eval.kernel, "micro_stream");
    EXPECT_GT(eval.oracleCpi, 0.0);
    EXPECT_GT(eval.oracleIpc, 0.0);
    for (ModelKind kind : allModels()) {
        EXPECT_TRUE(eval.predictedIpc.count(kind));
        EXPECT_GE(eval.error(kind), 0.0);
    }
}

TEST(Harness, SubsetOfModelsRunsOnlyThose)
{
    HardwareConfig config = smallConfig();
    KernelEvaluation eval = evaluateKernel(
        workloadByName("micro_stream"), config,
        SchedulingPolicy::RoundRobin, {ModelKind::MT_MSHR_BAND});
    EXPECT_EQ(eval.predictedIpc.size(), 1u);
}

TEST(Harness, AverageErrorAggregates)
{
    HardwareConfig config = smallConfig();
    std::vector<Workload> kernels = {
        workloadByName("micro_stream"),
        workloadByName("micro_compute_chain")};
    auto evals = evaluateSuite(kernels, config,
                               SchedulingPolicy::RoundRobin);
    ASSERT_EQ(evals.size(), 2u);
    double avg = averageError(evals, ModelKind::MT_MSHR_BAND);
    double manual = (evals[0].error(ModelKind::MT_MSHR_BAND) +
                     evals[1].error(ModelKind::MT_MSHR_BAND)) /
                    2.0;
    EXPECT_DOUBLE_EQ(avg, manual);
}

TEST(Harness, FractionWithinThreshold)
{
    HardwareConfig config = smallConfig();
    std::vector<Workload> kernels = {
        workloadByName("micro_compute_chain")};
    auto evals = evaluateSuite(kernels, config,
                               SchedulingPolicy::RoundRobin);
    ASSERT_EQ(countFailures(evals), 0u);
    // Compute-chain is modeled almost exactly: well within 50%, counted
    // as bench/accuracy counts the kernels under a threshold.
    EXPECT_DOUBLE_EQ(
        fractionBelow({evals[0].error(ModelKind::MT_MSHR_BAND)}, 0.5),
        1.0);
}

TEST(Harness, GpuMechBeatsNaiveOnDivergentKernel)
{
    // The headline qualitative claim, as a regression test.
    HardwareConfig config = smallConfig();
    config.warpsPerCore = 8;
    KernelEvaluation eval =
        evaluateKernel(workloadByName("micro_divergent32"), config,
                       SchedulingPolicy::RoundRobin);
    EXPECT_LT(eval.error(ModelKind::MT_MSHR_BAND),
              eval.error(ModelKind::NaiveInterval));
    EXPECT_LT(eval.error(ModelKind::MT_MSHR_BAND),
              eval.error(ModelKind::MarkovChain));
}

TEST(Harness, SweepShapesAndLabels)
{
    SweepResult result;
    result.labels = {"4w", "8w"};
    for (ModelKind kind : allModels())
        result.averages[kind] = {0.1, 0.25};

    std::ostringstream os;
    printSweep(os, result);
    EXPECT_NE(os.str().find("MT_MSHR_BAND"), std::string::npos);
    EXPECT_NE(os.str().find("4w"), std::string::npos);
    EXPECT_NE(os.str().find("25.0%"), std::string::npos);
}

} // namespace
} // namespace gpumech
