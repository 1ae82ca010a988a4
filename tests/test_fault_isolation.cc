/**
 * @file
 * Fault-isolation tests: the per-kernel containment boundary, the
 * deterministic fault-injection harness, and the deadline watchdog.
 *
 * The load-bearing properties pinned here:
 *  - a fault injected at any pipeline site fails exactly the targeted
 *    kernel with the injected site's code, and the suite completes;
 *  - surviving kernels' results are bit-identical to a clean run, at
 *    1, 2 and 8 threads;
 *  - a stalled kernel under a deadline degrades to DeadlineExceeded
 *    instead of hanging the suite;
 *  - a failing cell of a configuration grid fails only that cell, and
 *    the other points still average over every kernel.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/isolation.hh"
#include "common/status.hh"
#include "harness/experiment.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

HardwareConfig
smallConfig()
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    return config;
}

std::vector<Workload>
testSuite()
{
    return {workloadByName("vectorAdd"),
            workloadByName("srad_kernel1"),
            workloadByName("micro_stream")};
}

// ---- primitives -----------------------------------------------------

TEST(CancelToken, DefaultNeverExpires)
{
    CancelToken token;
    EXPECT_FALSE(token.active());
    EXPECT_FALSE(token.expired());
    EXPECT_FALSE(CancelToken::withTimeoutMs(0).active());
}

TEST(CancelToken, ExpiresAfterDeadline)
{
    CancelToken token = CancelToken::withTimeoutMs(1);
    EXPECT_TRUE(token.active());
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    EXPECT_TRUE(token.expired());
}

TEST(FaultSiteNames, RoundTrip)
{
    for (FaultSite site : {FaultSite::Parse, FaultSite::Collect,
                           FaultSite::Profile, FaultSite::Cache}) {
        auto parsed = faultSiteFromString(toString(site));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), site);
    }
    EXPECT_EQ(faultSiteFromString("bogus").status().code(),
              StatusCode::NotFound);
}

TEST(ScopedContext, InstallsAndRestoresNested)
{
    EXPECT_EQ(currentEvalContext(), nullptr);
    {
        ScopedEvalContext outer("a", CancelToken(), nullptr);
        ASSERT_NE(currentEvalContext(), nullptr);
        EXPECT_EQ(currentEvalContext()->kernel, "a");
        {
            ScopedEvalContext inner("b", CancelToken(), nullptr);
            EXPECT_EQ(currentEvalContext()->kernel, "b");
        }
        EXPECT_EQ(currentEvalContext()->kernel, "a");
    }
    EXPECT_EQ(currentEvalContext(), nullptr);
}

TEST(Checkpoints, NoOpWithoutContext)
{
    // Library users who never configure isolation must pay nothing.
    evalCheckpoint(FaultSite::Parse);
    deadlineCheckpoint();
}

TEST(Checkpoints, DeadlineThrowsOnceExpired)
{
    ScopedEvalContext scope("slow_kernel",
                            CancelToken::withTimeoutMs(1), nullptr);
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    try {
        deadlineCheckpoint();
        FAIL() << "deadline did not fire";
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::DeadlineExceeded);
        EXPECT_NE(e.status().message().find("slow_kernel"),
                  std::string::npos);
    }
}

TEST(Checkpoints, PoolTasksRunUnderTheCallersContext)
{
    ScopedEvalContext scope("fanned_out", CancelToken::withTimeoutMs(1),
                            nullptr);
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    // Each task waits for the other to start, so the two run on two
    // threads: the caller and a pool worker.
    std::atomic<int> started{0};
    std::thread::id threads[2];
    std::string kernels[2];
    bool stopped[2] = {false, false};
    parallelForInContext(
        2,
        [&](std::size_t i) {
            threads[i] = std::this_thread::get_id();
            ++started;
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (started < 2 && std::chrono::steady_clock::now() < give_up)
                std::this_thread::yield();
            if (const EvalContext *ctx = currentEvalContext())
                kernels[i] = ctx->kernel;
            try {
                deadlineCheckpoint();
            } catch (const StatusException &e) {
                stopped[i] = e.status().code() == StatusCode::DeadlineExceeded;
            }
        },
        1, 2);
    EXPECT_NE(threads[0], threads[1]);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(kernels[i], "fanned_out") << "task " << i;
        EXPECT_TRUE(stopped[i]) << "task " << i;
    }
}

TEST(FaultPlan, FiresOnMatchingKernelSiteAndAttempt)
{
    FaultPlan plan;
    FaultInjection injection;
    injection.kernel = "k";
    injection.site = FaultSite::Collect;
    injection.attempt = 2;
    plan.add(injection);

    // Wrong kernel / wrong site / first attempt: no fire.
    plan.onCheckpoint("other", FaultSite::Collect);
    plan.onCheckpoint("k", FaultSite::Parse);
    plan.onCheckpoint("k", FaultSite::Collect); // hit 1 of 2
    try {
        plan.onCheckpoint("k", FaultSite::Collect); // hit 2: fires
        FAIL() << "injection did not fire";
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::FaultInjected);
        EXPECT_NE(e.status().message().find("collect"),
                  std::string::npos);
    }
    // Fired exactly once; later hits pass.
    plan.onCheckpoint("k", FaultSite::Collect);
}

TEST(FaultPlan, ResetReArms)
{
    FaultPlan plan;
    plan.add(FaultInjection{"k", FaultSite::Parse, 1, 0});
    EXPECT_THROW(plan.onCheckpoint("k", FaultSite::Parse),
                 StatusException);
    plan.onCheckpoint("k", FaultSite::Parse); // spent
    plan.reset();
    EXPECT_THROW(plan.onCheckpoint("k", FaultSite::Parse),
                 StatusException);
}

TEST(FaultPlan, RandomizedIsDeterministic)
{
    std::vector<std::string> kernels = {"a", "b", "c", "d"};
    FaultPlan p1 = FaultPlan::randomized(42, kernels);
    FaultPlan p2 = FaultPlan::randomized(42, kernels);
    ASSERT_EQ(p1.injections().size(), kernels.size());
    ASSERT_EQ(p2.injections().size(), kernels.size());
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        EXPECT_EQ(p1.injections()[i].kernel, kernels[i]);
        EXPECT_EQ(p1.injections()[i].site, p2.injections()[i].site);
    }
}

// ---- per-kernel containment -----------------------------------------

/** Clean-run baseline for survivor comparison. */
std::vector<KernelEvaluation>
cleanRun(const std::vector<Workload> &suite,
         const HardwareConfig &config)
{
    InputCache cache;
    return evaluateSuite(suite, config,
                         SchedulingPolicy::RoundRobin, allModels(),
                         false, 1, &cache);
}

TEST(FaultContainment, EverySiteFailsOnlyTheTargetedKernel)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();
    auto clean = cleanRun(suite, config);

    for (FaultSite site : {FaultSite::Parse, FaultSite::Collect,
                           FaultSite::Profile, FaultSite::Cache}) {
        FaultPlan plan;
        plan.add(FaultInjection{"srad_kernel1", site, 1, 0});
        IsolationOptions iso;
        iso.faultPlan = &plan;

        InputCache cache;
        auto evals = evaluateSuite(suite, config,
                                   SchedulingPolicy::RoundRobin,
                                   allModels(), false, 1, &cache,
                                   iso);
        ASSERT_EQ(evals.size(), suite.size());
        EXPECT_EQ(countFailures(evals), 1u)
            << "site " << toString(site) << ": "
            << failureSummary(evals);
        for (std::size_t i = 0; i < evals.size(); ++i) {
            if (evals[i].kernel == "srad_kernel1") {
                ASSERT_FALSE(evals[i].ok());
                EXPECT_EQ(evals[i].status.code(),
                          StatusCode::FaultInjected)
                    << evals[i].status.toString();
                EXPECT_NE(evals[i].status.message().find(
                              toString(site)),
                          std::string::npos)
                    << evals[i].status.toString();
            } else {
                ASSERT_TRUE(evals[i].ok())
                    << evals[i].status.toString();
                // Survivors bit-identical to the clean run.
                EXPECT_EQ(evals[i].oracleCpi, clean[i].oracleCpi);
                EXPECT_EQ(evals[i].predictedIpc,
                          clean[i].predictedIpc);
            }
        }
        EXPECT_NE(failureSummary(evals).find("srad_kernel1"),
                  std::string::npos);
    }
}

TEST(FaultContainment, SurvivorsBitIdenticalAcrossThreadCounts)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();
    auto clean = cleanRun(suite, config);

    for (unsigned jobs : {1u, 2u, 8u}) {
        FaultPlan plan;
        plan.add(
            FaultInjection{"vectorAdd", FaultSite::Collect, 1, 0});
        IsolationOptions iso;
        iso.faultPlan = &plan;

        InputCache cache;
        auto evals = evaluateSuite(suite, config,
                                   SchedulingPolicy::RoundRobin,
                                   allModels(), false, jobs, &cache,
                                   iso);
        ASSERT_EQ(evals.size(), suite.size());
        ASSERT_EQ(countFailures(evals), 1u)
            << jobs << " jobs: " << failureSummary(evals);
        for (std::size_t i = 0; i < evals.size(); ++i) {
            if (evals[i].kernel == "vectorAdd") {
                EXPECT_EQ(evals[i].status.code(),
                          StatusCode::FaultInjected);
                continue;
            }
            ASSERT_TRUE(evals[i].ok());
            EXPECT_EQ(evals[i].oracleCpi, clean[i].oracleCpi);
            EXPECT_EQ(evals[i].oracleIpc, clean[i].oracleIpc);
            EXPECT_EQ(evals[i].predictedIpc, clean[i].predictedIpc);
        }
    }
}

TEST(FaultContainment, PredictSuiteContainsFailures)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();

    InputCache clean_cache;
    auto clean = predictSuite(suite, config, GpuMechOptions{}, 1,
                              &clean_cache);
    ASSERT_EQ(countFailures(clean), 0u) << failureSummary(clean);

    FaultPlan plan;
    plan.add(FaultInjection{"micro_stream", FaultSite::Profile, 1, 0});
    IsolationOptions iso;
    iso.faultPlan = &plan;
    InputCache cache;
    auto preds = predictSuite(suite, config, GpuMechOptions{}, 2,
                              &cache, iso);
    ASSERT_EQ(preds.size(), suite.size());
    EXPECT_EQ(countFailures(preds), 1u) << failureSummary(preds);
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i].kernel == "micro_stream") {
            EXPECT_EQ(preds[i].status.code(),
                      StatusCode::FaultInjected);
        } else {
            ASSERT_TRUE(preds[i].ok());
            EXPECT_EQ(preds[i].result.cpi, clean[i].result.cpi);
            EXPECT_EQ(preds[i].result.ipc, clean[i].result.ipc);
            // Full CPI stack, component by component.
            EXPECT_EQ(preds[i].result.stack.cpi,
                      clean[i].result.stack.cpi);
        }
    }
}

TEST(FaultContainment, UncachedPathIsAlsoContained)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();
    FaultPlan plan;
    plan.add(FaultInjection{"srad_kernel1", FaultSite::Parse, 1, 0});
    IsolationOptions iso;
    iso.faultPlan = &plan;
    auto evals = evaluateSuite(suite, config,
                               SchedulingPolicy::RoundRobin,
                               allModels(), false, 1, nullptr, iso);
    EXPECT_EQ(countFailures(evals), 1u) << failureSummary(evals);
}

TEST(FaultContainment, FailedCacheComputeDoesNotPoisonRetry)
{
    // A fault thrown inside a cache compute must not cache a partial
    // artifact: re-running the same kernel without the plan succeeds.
    HardwareConfig config = smallConfig();
    const Workload &w = workloadByName("vectorAdd");
    InputCache cache;

    FaultPlan plan;
    plan.add(FaultInjection{"vectorAdd", FaultSite::Parse, 1, 0});
    IsolationOptions iso;
    iso.faultPlan = &plan;
    auto first = evaluateSuite({w}, config,
                               SchedulingPolicy::RoundRobin,
                               allModels(), false, 1, &cache, iso);
    ASSERT_EQ(countFailures(first), 1u);

    auto retry = evaluateSuite({w}, config,
                               SchedulingPolicy::RoundRobin,
                               allModels(), false, 1, &cache);
    ASSERT_EQ(countFailures(retry), 0u) << failureSummary(retry);

    auto clean = cleanRun({w}, config);
    EXPECT_EQ(retry[0].oracleCpi, clean[0].oracleCpi);
    EXPECT_EQ(retry[0].predictedIpc, clean[0].predictedIpc);
}

TEST(FaultContainment, AggregatorsSkipFailedKernels)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();
    auto clean = cleanRun(suite, config);

    FaultPlan plan;
    plan.add(FaultInjection{"micro_stream", FaultSite::Collect, 1, 0});
    IsolationOptions iso;
    iso.faultPlan = &plan;
    InputCache cache;
    auto evals = evaluateSuite(suite, config,
                               SchedulingPolicy::RoundRobin,
                               allModels(), false, 1, &cache, iso);
    ASSERT_EQ(countFailures(evals), 1u);

    // Means over the two survivors, not a panic and not zero-filled.
    std::vector<KernelEvaluation> survivors;
    for (const auto &e : clean) {
        if (e.kernel != "micro_stream")
            survivors.push_back(e);
    }
    for (ModelKind kind : allModels()) {
        EXPECT_DOUBLE_EQ(averageError(evals, kind),
                         averageError(survivors, kind));
    }
}

// ---- deadline watchdog ----------------------------------------------

TEST(DeadlineWatchdog, StalledKernelDegradesToDeadlineExceeded)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();

    // Deterministic: the injected stall (2s) dwarfs the deadline
    // (200ms), so the stalled kernel must trip the watchdog at the
    // next checkpoint regardless of machine speed; the suite itself
    // must complete rather than hang.
    FaultPlan plan;
    plan.add(
        FaultInjection{"srad_kernel1", FaultSite::Collect, 1, 2000});
    IsolationOptions iso;
    iso.kernelTimeoutMs = 200;
    iso.faultPlan = &plan;

    InputCache cache;
    auto evals = evaluateSuite(suite, config,
                               SchedulingPolicy::RoundRobin,
                               allModels(), false, 2, &cache, iso);
    ASSERT_EQ(evals.size(), suite.size());
    for (const auto &eval : evals) {
        if (eval.kernel == "srad_kernel1") {
            ASSERT_FALSE(eval.ok());
            EXPECT_EQ(eval.status.code(),
                      StatusCode::DeadlineExceeded)
                << eval.status.toString();
        }
    }
}

TEST(DeadlineWatchdog, ZeroTimeoutDisablesWatchdog)
{
    HardwareConfig config = smallConfig();
    IsolationOptions iso; // kernelTimeoutMs = 0
    InputCache cache;
    auto evals = evaluateSuite(testSuite(), config,
                               SchedulingPolicy::RoundRobin,
                               allModels(), false, 1, &cache, iso);
    EXPECT_EQ(countFailures(evals), 0u) << failureSummary(evals);
}

// ---- sweep containment ----------------------------------------------

TEST(SweepContainment, FailingCellIsRecordedAndGridCompletes)
{
    HardwareConfig base = smallConfig();
    auto suite = testSuite();

    // The collector is keyed independently of MSHR count, so with one
    // cache shared across the points the injected collect fault fires
    // on whichever cell touches the kernel's collector first; attempt
    // 1 fails exactly one cell.
    FaultPlan plan;
    plan.add(FaultInjection{"vectorAdd", FaultSite::Collect, 1, 0});
    IsolationOptions iso;
    iso.faultPlan = &plan;
    InputCache clean_cache;
    InputCache shared;
    std::size_t failures = 0;
    for (std::uint32_t mshrs : {8u, 32u}) {
        HardwareConfig p = base;
        p.numMshrs = mshrs;
        auto clean = evaluateSuite(suite, p, SchedulingPolicy::RoundRobin,
                                   allModels(), false, 0, &clean_cache);
        ASSERT_EQ(countFailures(clean), 0u) << failureSummary(clean);
        auto swept = evaluateSuite(suite, p, SchedulingPolicy::RoundRobin,
                                   allModels(), false, 1, &shared, iso);
        ASSERT_EQ(swept.size(), suite.size());
        std::size_t here = countFailures(swept);
        failures += here;
        for (const auto &eval : swept) {
            if (eval.ok())
                continue;
            EXPECT_EQ(eval.kernel, "vectorAdd");
            EXPECT_EQ(eval.status.code(), StatusCode::FaultInjected);
        }
        // The unaffected point's averages match the clean grid exactly.
        if (here == 0) {
            for (ModelKind kind : allModels())
                EXPECT_EQ(averageError(swept, kind),
                          averageError(clean, kind));
        }
    }
    EXPECT_EQ(failures, 1u);
}

// ---- workload lookup ------------------------------------------------

TEST(WorkloadLookup, FindWorkloadIsNullableNotFatal)
{
    EXPECT_NE(findWorkload("vectorAdd"), nullptr);
    EXPECT_EQ(findWorkload("no_such_kernel"), nullptr);
}

TEST(WorkloadLookup, SuiteByNameReportsKnownSuites)
{
    auto micro = suiteByName("micro");
    ASSERT_TRUE(micro.ok());
    EXPECT_FALSE(micro.value().empty());

    auto bad = suiteByName("bogus_suite");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::NotFound);
    EXPECT_NE(bad.status().message().find("micro"),
              std::string::npos)
        << bad.status().toString();
}

} // namespace
} // namespace gpumech
