/**
 * @file
 * Tests for the parallel evaluation engine: the shared thread pool,
 * parallel per-warp profiling, parallel suite evaluation, the
 * keyed input cache, and the configuration cache-key contracts.
 *
 * The engine's central guarantee is that parallelism and caching are
 * pure performance features: every result must be bit-identical to
 * the serial, uncached path at any thread count. These tests compare
 * doubles with EXPECT_EQ deliberately — approximate equality would
 * hide scheduling-dependent results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "common/config.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "core/interval_builder.hh"
#include "harness/experiment.hh"
#include "harness/session.hh"

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

// ---- thread pool -----------------------------------------------------

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.concurrency(), 4u);

    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> counts(n);
    pool.parallelFor(n, [&](std::size_t i) { counts[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp)
{
    ThreadPool pool(4);
    bool called = false;
    pool.parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ConcurrencyOneRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);

    // The pool must stay usable after a failed job.
    std::atomic<int> ran{0};
    pool.parallelFor(10, [&](std::size_t) { ran++; });
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, ExceptionTypeAndMessageSurviveRethrow)
{
    // The containment boundary in the harness catches StatusException
    // by type to recover the Status; the pool must rethrow the
    // original exception object, not flatten it to std::exception.
    ThreadPool pool(4);
    try {
        pool.parallelFor(64, [](std::size_t i) {
            if (i == 21) {
                throw StatusException(Status(StatusCode::FaultInjected,
                                             "planted at 21"));
            }
        });
        FAIL() << "exception was swallowed";
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::FaultInjected);
        EXPECT_EQ(e.status().message(), "planted at 21");
    }
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsRethrown)
{
    // Every iteration throws; exactly one exception must surface and
    // the pool must not terminate on the discarded ones.
    ThreadPool pool(4);
    std::atomic<int> attempts{0};
    try {
        pool.parallelFor(100, [&](std::size_t) {
            attempts++;
            throw std::runtime_error("each");
        });
        FAIL() << "exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "each");
    }
    EXPECT_GE(attempts.load(), 1);
}

TEST(ThreadPoolTest, ParallelMapPropagatesAndStaysUsable)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelMap<int>(32,
                                       [](std::size_t i) -> int {
                                           if (i == 7)
                                               throw std::logic_error(
                                                   "map");
                                           return static_cast<int>(i);
                                       }),
                 std::logic_error);
    auto out =
        pool.parallelMap<int>(8, [](std::size_t i) {
            return static_cast<int>(i) * 2;
        });
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(ThreadPoolTest, InnerExceptionEscapesNestedParallelFor)
{
    // A throw inside a nested loop must unwind through both levels
    // without deadlocking the pool.
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(4,
                         [&](std::size_t) {
                             pool.parallelFor(8, [](std::size_t j) {
                                 if (j == 3)
                                     throw std::runtime_error("inner");
                             });
                         }),
        std::runtime_error);

    std::atomic<int> ran{0};
    pool.parallelFor(16, [&](std::size_t) { ran++; });
    EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, SerialInlinePathPropagatesExceptions)
{
    // jobs == 1 bypasses the pool entirely; the error contract must
    // not differ between the inline and pooled paths.
    EXPECT_THROW(parallelFor(
                     4,
                     [](std::size_t i) {
                         if (i == 2)
                             throw std::runtime_error("serial");
                     },
                     1, 1),
                 std::runtime_error);
}

TEST(ThreadPoolTest, ParallelMapPreservesOrder)
{
    ThreadPool pool(4);
    auto out = pool.parallelMap<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock)
{
    // The submitting thread drains its own job, so inner loops make
    // progress even when every worker is busy with outer iterations.
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(16, [&](std::size_t) { total++; });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, DefaultJobsOverride)
{
    setDefaultJobs(3);
    EXPECT_EQ(defaultJobs(), 3u);
    EXPECT_EQ(globalPool().concurrency(), 3u);
    setDefaultJobs(0);
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ThreadPoolTest, FreeFunctionRoutesJobCounts)
{
    // jobs == 1 must run serially inline on the calling thread.
    std::vector<int> order;
    parallelFor(
        4, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
        1, 1);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));

    auto out = parallelMap<int>(
        64, [](std::size_t i) { return static_cast<int>(i) + 1; }, 1, 2);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

// ---- parallel per-warp profiling ------------------------------------

/**
 * The features pass must equal, bit for bit, the features of the
 * serial reference profiles.
 */
void
expectFeaturesMatchProfiles(const std::vector<WarpFeatures> &features,
                            const std::vector<IntervalProfile> &profiles,
                            const HardwareConfig &config)
{
    ASSERT_EQ(features.size(), profiles.size());
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        WarpFeatures want = profiles[w].features(config.issueRate);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(features[w].perf),
                  std::bit_cast<std::uint64_t>(want.perf))
            << "warp " << w;
        EXPECT_EQ(features[w].insts, want.insts) << "warp " << w;
    }
}

TEST(ParallelProfiling, ManyWarpKernelMatchesSerialAtAllThreadCounts)
{
    HardwareConfig config = HardwareConfig::baseline();
    KernelTrace kernel = workloadByName("srad_kernel1").generate(config);
    ASSERT_GE(kernel.numWarps(), parallelWarpThreshold)
        << "kernel too small to exercise the parallel path";
    CollectorResult inputs = collectInputs(kernel, config);

    auto serial = buildAllProfiles(kernel, inputs, config);
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        expectFeaturesMatchProfiles(
            buildAllFeatures(kernel, inputs, config, threads), serial,
            config);
    }
}

TEST(ParallelProfiling, SmallKernelTakesSerialFallback)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 1;
    config.warpsPerCore = 1;
    KernelTrace kernel = workloadByName("vectorAdd").generate(config);
    ASSERT_GE(kernel.numWarps(), 1u);
    ASSERT_LT(kernel.numWarps(), parallelWarpThreshold);
    CollectorResult inputs = collectInputs(kernel, config);

    auto serial = buildAllProfiles(kernel, inputs, config);
    for (unsigned threads : {2u, 8u}) {
        expectFeaturesMatchProfiles(
            buildAllFeatures(kernel, inputs, config, threads), serial,
            config);
    }
}

TEST(ParallelProfiling, EmptyKernelYieldsNoProfiles)
{
    KernelTrace kernel("empty");
    CollectorResult inputs;
    HardwareConfig config = HardwareConfig::baseline();
    EXPECT_TRUE(buildAllProfiles(kernel, inputs, config).empty());
    EXPECT_TRUE(buildAllFeatures(kernel, inputs, config, 1).empty());
    EXPECT_TRUE(buildAllFeatures(kernel, inputs, config, 4).empty());
}

// ---- parallel suite / sweep evaluation ------------------------------

std::vector<Workload>
testSuite()
{
    return {workloadByName("vectorAdd"), workloadByName("srad_kernel1"),
            workloadByName("micro_stream")};
}

void
expectEvaluationsIdentical(const std::vector<KernelEvaluation> &a,
                           const std::vector<KernelEvaluation> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kernel, b[i].kernel);
        EXPECT_EQ(a[i].oracleCpi, b[i].oracleCpi);
        EXPECT_EQ(a[i].oracleIpc, b[i].oracleIpc);
        ASSERT_EQ(a[i].predictedIpc.size(), b[i].predictedIpc.size());
        for (const auto &[kind, ipc] : a[i].predictedIpc)
            EXPECT_EQ(ipc, b[i].predictedIpc.at(kind))
                << a[i].kernel << " " << toString(kind);
    }
}

TEST(ParallelSuite, ParallelAndCachedMatchSerial)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();
    auto serial = evaluateSuite(suite, config,
                                SchedulingPolicy::RoundRobin,
                                allModels(), false, 1);

    for (unsigned jobs : {2u, 4u}) {
        auto parallel = evaluateSuite(suite, config,
                                      SchedulingPolicy::RoundRobin,
                                      allModels(), false, jobs);
        expectEvaluationsIdentical(serial, parallel);
    }

    InputCache cache;
    auto cached = evaluateSuite(suite, config,
                                SchedulingPolicy::RoundRobin,
                                allModels(), false, 2, &cache);
    expectEvaluationsIdentical(serial, cached);
    EXPECT_EQ(cache.profilerMisses(), suite.size());
}

TEST(ParallelSuite, PredictSuiteMatchesPerKernelRuns)
{
    HardwareConfig config = smallConfig();
    auto suite = testSuite();
    GpuMechOptions options;

    std::vector<GpuMechResult> expected;
    for (const Workload &w : suite) {
        KernelTrace kernel = w.generate(config);
        expected.push_back(runGpuMech(kernel, config, options));
    }

    InputCache cache;
    for (unsigned jobs : {1u, 4u}) {
        for (InputCache *c : {static_cast<InputCache *>(nullptr),
                              &cache}) {
            auto got = predictSuite(suite, config, options, jobs, c);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_TRUE(got[i].ok()) << got[i].status.toString();
                EXPECT_EQ(got[i].kernel, suite[i].name);
                EXPECT_EQ(got[i].result.cpi, expected[i].cpi);
                EXPECT_EQ(got[i].result.ipc, expected[i].ipc);
                EXPECT_EQ(got[i].result.repWarpIndex,
                          expected[i].repWarpIndex);
            }
        }
    }
}

// ---- input cache ----------------------------------------------------

TEST(InputCacheTest, CachedInputsMatchFreshCollectorRun)
{
    HardwareConfig config = smallConfig();
    const Workload &w = workloadByName("vectorAdd");
    KernelTrace kernel = w.generate(config);
    CollectorResult fresh = collectInputs(kernel, config);

    InputCache cache;
    const CollectorResult &cached = cache.profiler(w, config)->inputs();
    EXPECT_EQ(cache.collectorMisses(), 1u);
    EXPECT_EQ(cache.collectorHits(), 0u);

    ASSERT_EQ(cached.pcLatency, fresh.pcLatency);
    EXPECT_EQ(cached.avgMissLatency, fresh.avgMissLatency);
    EXPECT_EQ(cached.l1HitRate, fresh.l1HitRate);
    EXPECT_EQ(cached.l2HitRate, fresh.l2HitRate);
    ASSERT_EQ(cached.pcs.size(), fresh.pcs.size());
    for (std::size_t pc = 0; pc < fresh.pcs.size(); ++pc) {
        EXPECT_EQ(cached.pcs[pc].instCount, fresh.pcs[pc].instCount);
        EXPECT_EQ(cached.pcs[pc].reqL1Miss, fresh.pcs[pc].reqL1Miss);
        EXPECT_EQ(cached.pcs[pc].reqL2Miss, fresh.pcs[pc].reqL2Miss);
    }

    // A profiler with another selection shares the collector key: its
    // collector lookup is a hit and returns the same object.
    const CollectorResult &again =
        cache.profiler(w, config, RepSelection::MaxPerf)->inputs();
    EXPECT_EQ(cache.collectorHits(), 1u);
    EXPECT_EQ(&again, &cached);
}

TEST(InputCacheTest, ProfilerIsSharedAcrossKeyEqualConfigs)
{
    const Workload &w = workloadByName("vectorAdd");
    HardwareConfig a = smallConfig();
    HardwareConfig b = a;
    b.numMshrs = a.numMshrs * 2;
    b.dramBandwidthGBs = a.dramBandwidthGBs * 2.0;

    InputCache cache;
    std::shared_ptr<const GpuMechProfiler> pa = cache.profiler(w, a);
    std::shared_ptr<const GpuMechProfiler> pb = cache.profiler(w, b);
    EXPECT_EQ(pa.get(), pb.get());
    EXPECT_EQ(cache.profilerMisses(), 1u);
    EXPECT_EQ(cache.profilerHits(), 1u);

    // A trace-key change forces a rebuild.
    HardwareConfig c = a;
    c.warpsPerCore = a.warpsPerCore * 2;
    std::shared_ptr<const GpuMechProfiler> pc = cache.profiler(w, c);
    EXPECT_NE(pa.get(), pc.get());
}

TEST(InputCacheTest, EvaluateAtMemoizesRepeatedConfigs)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel = workloadByName("vectorAdd").generate(config);
    GpuMechProfiler profiler(kernel, config);

    std::size_t hits0 = profiler.collectorCacheHits();
    GpuMechResult r1 = profiler.evaluateAt(
        config, SchedulingPolicy::RoundRobin);
    GpuMechResult r2 = profiler.evaluateAt(
        config, SchedulingPolicy::RoundRobin);
    EXPECT_EQ(r1.cpi, r2.cpi);
    EXPECT_EQ(r1.ipc, r2.ipc);
    // The construction config's collector result is seeded into the
    // memo, so both evaluateAt calls must be hits — collection never
    // reruns for the profiling configuration.
    EXPECT_EQ(profiler.collectorCacheHits(), hits0 + 2);

    // And evaluateAt at the construction config equals evaluate().
    GpuMechResult direct =
        profiler.evaluate(SchedulingPolicy::RoundRobin);
    EXPECT_EQ(direct.cpi, r1.cpi);
    EXPECT_EQ(direct.ipc, r1.ipc);
}

TEST(InputCacheTest, SuitePassesShareOneTracePerKernel)
{
    // validate's shape: the RR pass caches each kernel's trace for the
    // oracle and its profile build reuses it; the GTO pass hits both.
    EvalSession session;
    session.jobs = 2;
    std::vector<Workload> kernels;
    for (const char *name : {"vectorAdd", "micro_stream", "srad_kernel1"})
        kernels.push_back(workloadByName(name));
    for (SchedulingPolicy policy : {SchedulingPolicy::RoundRobin,
                                    SchedulingPolicy::GreedyThenOldest}) {
        for (const KernelEvaluation &eval :
             evaluateSuite(session, kernels, smallConfig(), policy))
            ASSERT_TRUE(eval.ok()) << eval.status.toString();
    }
    EXPECT_EQ(session.cache.traceMisses(), 3u);
    EXPECT_EQ(session.cache.profilerMisses(), 3u);
    EXPECT_GT(session.cache.traceBytes(), 0u);
}

TEST(InputCacheTest, CachedProfilerRecollectsWithoutItsTrace)
{
    // A cache-built profiler keeps a one-warp slice, not its trace. A
    // rerun-mode re-collection fetches the trace through trace(),
    // which regenerates it bit for bit after clear().
    const Workload &w = workloadByName("srad_kernel1");
    const HardwareConfig base = smallConfig();
    InputCache cache;
    std::shared_ptr<const GpuMechProfiler> cached = cache.profiler(w, base);
    EXPECT_EQ(cache.traceBytes(), 0u);

    const KernelTrace kernel = w.generate(base);
    const GpuMechProfiler direct(kernel, base);
    auto expectRecollected = [&](const std::vector<std::uint32_t> &kbs) {
        auto at = [&](std::size_t i) {
            HardwareConfig config = base;
            config.l1SizeBytes = kbs[i] * 1024;
            return config;
        };
        std::vector<GpuMechResult> got = parallelMap<GpuMechResult>(
            kbs.size(),
            [&](std::size_t i) {
                return cached->evaluateAt(at(i),
                                          SchedulingPolicy::RoundRobin);
            },
            1, 4);
        for (std::size_t i = 0; i < kbs.size(); ++i) {
            ASSERT_TRUE(at(i).validate().ok()) << kbs[i];
            GpuMechResult want =
                direct.evaluateAt(at(i), SchedulingPolicy::RoundRobin);
            EXPECT_EQ(got[i].cpi, want.cpi) << kbs[i] << " KB";
            EXPECT_EQ(got[i].stack.cpi, want.stack.cpi) << kbs[i] << " KB";
        }
    };
    expectRecollected({8, 16, 64});
    cache.clear();
    expectRecollected({4, 128, 256});
    EXPECT_EQ(cache.traceMisses(), 1u);
}

// ---- cache-key contracts --------------------------------------------

TEST(CacheKeys, ModelOnlyParametersAreExcluded)
{
    HardwareConfig a = HardwareConfig::baseline();
    HardwareConfig b = a;
    b.numMshrs = 64;
    b.dramBandwidthGBs = 999.0;
    EXPECT_EQ(a.traceKey(), b.traceKey());
    EXPECT_EQ(a.collectorKey(), b.collectorKey());
}

TEST(CacheKeys, TraceAndCollectorInputsAreIncluded)
{
    HardwareConfig base = HardwareConfig::baseline();

    HardwareConfig warps = base;
    warps.warpsPerCore = base.warpsPerCore * 2;
    EXPECT_NE(base.traceKey(), warps.traceKey());
    EXPECT_NE(base.collectorKey(), warps.collectorKey());

    HardwareConfig l1 = base;
    l1.l1SizeBytes = base.l1SizeBytes * 2;
    EXPECT_EQ(base.traceKey(), l1.traceKey());
    EXPECT_NE(base.collectorKey(), l1.collectorKey());
}

TEST(CacheKeys, KnobTableMatchesTraceKey)
{
    // Sweep and tune re-profile a point only for a knob whose row says
    // it reshapes the trace; every other knob reuses the base trace.
    const HardwareConfig base = HardwareConfig::baseline();
    for (const Knob &knob : knobTable) {
        HardwareConfig moved = base;
        knob.set(moved, knob.get(base) * 2);
        EXPECT_EQ(knob.get(moved), knob.get(base) * 2) << knob.name;
        EXPECT_EQ(moved.traceKey() != base.traceKey(), knob.reshapesTrace)
            << knob.name;
        // Only the cache sizes move the collector key alone, so only
        // they make a rerun-mode profiler walk its whole trace again.
        const std::string name = knob.name;
        const std::vector<double> doubled{knob.get(base) * 2};
        EXPECT_EQ(recollectsTrace(knob, base, doubled, SweepMode::Rerun),
                  name == "l1-kb" || name == "l2-kb")
            << knob.name;
        EXPECT_FALSE(recollectsTrace(knob, base, doubled, SweepMode::Mrc))
            << knob.name;
    }
}

TEST(CacheKeys, CollectorOutputInvariantUnderExcludedFields)
{
    // The contract behind excluding MSHR count and DRAM bandwidth from
    // collectorKey: the functional cache simulation must not read
    // them. If collectInputs ever starts depending on either field,
    // this test catches the stale-cache bug before the sweep does.
    HardwareConfig a = smallConfig();
    HardwareConfig b = a;
    b.numMshrs = a.numMshrs * 4;
    b.dramBandwidthGBs = a.dramBandwidthGBs / 2.0;

    const Workload &w = workloadByName("micro_stream");
    KernelTrace kernel = w.generate(a);
    CollectorResult ra = collectInputs(kernel, a);
    CollectorResult rb = collectInputs(kernel, b);

    ASSERT_EQ(ra.pcLatency, rb.pcLatency);
    EXPECT_EQ(ra.avgMissLatency, rb.avgMissLatency);
    EXPECT_EQ(ra.l1HitRate, rb.l1HitRate);
    EXPECT_EQ(ra.l2HitRate, rb.l2HitRate);
}

} // namespace
} // namespace gpumech
