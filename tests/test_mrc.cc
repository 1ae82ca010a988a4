/**
 * @file
 * Tests for the MRC evaluation layer: reuse-distance tracking, SHARDS
 * sampling, the balanced-mapping associativity conversion, the
 * exactness contract of deriveCollectorResult() against the functional
 * collector, and the sweep-mode plumbing (including bit-identity of
 * --sweep-mode=rerun with the pre-MRC engine, pinned by
 * tests/golden/sweep_cachegeom_rerun.csv).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "collector/input_collector.hh"
#include "collector/mrc_collector.hh"
#include "common/status.hh"
#include "common/table.hh"
#include "core/gpumech.hh"
#include "harness/experiment.hh"
#include "mem/mrc.hh"
#include "trace/trace_builder.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

// ---------------------------------------------------------------------
// ReuseDistanceTracker
// ---------------------------------------------------------------------

TEST(ReuseDistance, ColdAccessesAndBasicDistances)
{
    ReuseDistanceTracker t;
    EXPECT_EQ(t.access(0xa), mrcColdDistance);
    EXPECT_EQ(t.access(0xb), mrcColdDistance);
    // One distinct line (b) touched since a's previous access.
    EXPECT_EQ(t.access(0xa), 1u);
    // Immediate re-reference.
    EXPECT_EQ(t.access(0xa), 0u);
    EXPECT_EQ(t.access(0xb), 1u);
    EXPECT_EQ(t.uniqueLines(), 2u);
    EXPECT_EQ(t.accesses(), 5u);
}

TEST(ReuseDistance, DistanceCountsDistinctLinesNotAccesses)
{
    ReuseDistanceTracker t;
    t.access(0x1);
    // Touch one other line many times: still distance 1.
    for (int i = 0; i < 10; ++i)
        t.access(0x2);
    EXPECT_EQ(t.access(0x1), 1u);
}

TEST(ReuseDistance, SurvivesFenwickGrowth)
{
    // The tree starts at 64 stamps and doubles; 1000 distinct lines
    // crosses several resizes and the root-node live-count fixup.
    ReuseDistanceTracker t;
    for (Addr line = 0; line < 1000; ++line)
        EXPECT_EQ(t.access(line), mrcColdDistance);
    EXPECT_EQ(t.access(0), 999u);
    EXPECT_EQ(t.access(999), 1u);
    EXPECT_EQ(t.uniqueLines(), 1000u);
}

TEST(ReuseDistance, MatchesBruteForceLruStackOnCollidingKeys)
{
    // Keys 0, k * 2^20 and k * 2^32 all land in one slot under an
    // identity or low-bits hash. 60k accesses over ~12k of them cross
    // many table and Fenwick doublings and long probe chains,
    // including ones that wrap past the table's end.
    std::mt19937_64 rng(7);
    std::vector<Addr> keys;
    std::vector<Addr> stack; // LRU stack, most recent at the back
    ReuseDistanceTracker t;
    const std::size_t num_accesses = 60000;
    for (std::size_t n = 0; n < num_accesses; ++n) {
        Addr line;
        const unsigned pick = rng() % 10;
        if (keys.empty() || pick < 2) {
            const Addr k = keys.size() / 2;
            line = keys.size() % 2 == 0 ? k << 20 : k << 32;
            keys.push_back(line);
        } else if (pick < 7) {
            // Recent reuse: one of the last few stack entries.
            line = stack[stack.size() - 1 - rng() % std::min<std::size_t>(
                                                     stack.size(), 16)];
        } else {
            line = keys[rng() % keys.size()];
        }

        std::uint32_t want = mrcColdDistance;
        for (std::size_t i = stack.size(); i-- > 0;) {
            if (stack[i] == line) {
                want = static_cast<std::uint32_t>(stack.size() - 1 - i);
                stack.erase(stack.begin() +
                            static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
        stack.push_back(line);
        ASSERT_EQ(t.access(line), want) << "access " << n;
    }
    EXPECT_EQ(t.uniqueLines(), stack.size());
    EXPECT_EQ(t.accesses(), num_accesses);
    EXPECT_GT(stack.size(), 10000u);
}

// ---------------------------------------------------------------------
// ShardsSampler
// ---------------------------------------------------------------------

TEST(Shards, RateOneIsExact)
{
    ShardsSampler s(1.0);
    for (Addr line : {0ull, 1ull, 0xdeadbeefull, ~0ull})
        EXPECT_TRUE(s.sampled(line));
    EXPECT_DOUBLE_EQ(s.weight(), 1.0);
    EXPECT_EQ(s.unscale(7), 7u);
    EXPECT_EQ(s.unscale(mrcColdDistance), mrcColdDistance);
}

TEST(Shards, SubsamplingScalesWeightAndDistance)
{
    ShardsSampler s(0.5);
    EXPECT_DOUBLE_EQ(s.weight(), 2.0);
    EXPECT_EQ(s.unscale(7), 14u);
    // Cold stays cold; near-max distances saturate below the sentinel.
    EXPECT_EQ(s.unscale(mrcColdDistance), mrcColdDistance);
    EXPECT_EQ(s.unscale(mrcColdDistance - 1), mrcColdDistance - 1);
}

TEST(Shards, SampledSetIsDeterministicAndRoughlyRateSized)
{
    ShardsSampler s(0.25);
    std::size_t hits = 0;
    for (Addr line = 0; line < 4096; ++line)
        hits += s.sampled(line) ? 1 : 0;
    // splitmix64 is uniform; 4096 draws at p=0.25 stay well within
    // this deterministic band.
    EXPECT_GT(hits, 4096 * 0.2);
    EXPECT_LT(hits, 4096 * 0.3);
    ShardsSampler again(0.25);
    for (Addr line = 0; line < 256; ++line)
        EXPECT_EQ(s.sampled(line), again.sampled(line));
}

// ---------------------------------------------------------------------
// assocHitProbability
// ---------------------------------------------------------------------

TEST(AssocHit, ColdNeverHits)
{
    EXPECT_DOUBLE_EQ(assocHitProbability(mrcColdDistance, 1, 8), 0.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(mrcColdDistance, 64, 8), 0.0);
}

TEST(AssocHit, FullyAssociativeIsExactStackDistance)
{
    EXPECT_DOUBLE_EQ(assocHitProbability(0, 1, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(7, 1, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(8, 1, 8), 0.0);
    // Degenerate single-line cache: only immediate re-reference hits.
    EXPECT_DOUBLE_EQ(assocHitProbability(0, 1, 1), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(1, 1, 1), 0.0);
}

TEST(AssocHit, BalancedMappingThresholdIsCapacity)
{
    // 64 sets x 8 ways: resident iff fewer than 512 distinct lines
    // intervene.
    EXPECT_DOUBLE_EQ(assocHitProbability(0, 64, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(511, 64, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(512, 64, 8), 0.0);
    // Non-power-of-two set count (the Table I L2 shape).
    EXPECT_DOUBLE_EQ(assocHitProbability(768 * 8 - 1, 768, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(768 * 8, 768, 8), 0.0);
}

// ---------------------------------------------------------------------
// deriveCollectorResult: exactness contract
// ---------------------------------------------------------------------

/** Small machine used throughout: cache behaviour visible, fast. */
HardwareConfig
smallMachine()
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    return config;
}

/** Make both levels fully associative (one set) at unchanged sizes. */
HardwareConfig
fullyAssociative(HardwareConfig config)
{
    config.l1Assoc = config.l1SizeBytes / config.l1LineBytes;
    config.l2Assoc = config.l2SizeBytes / config.l2LineBytes;
    return config;
}

void
expectSameCollectorResult(const CollectorResult &derived,
                          const CollectorResult &simulated,
                          const std::string &context)
{
    ASSERT_EQ(derived.pcs.size(), simulated.pcs.size()) << context;
    for (std::size_t pc = 0; pc < derived.pcs.size(); ++pc) {
        const PcProfile &d = derived.pcs[pc];
        const PcProfile &s = simulated.pcs[pc];
        EXPECT_EQ(d.instCount, s.instCount) << context << " pc " << pc;
        EXPECT_EQ(d.instL1Hit, s.instL1Hit) << context << " pc " << pc;
        EXPECT_EQ(d.instL2Hit, s.instL2Hit) << context << " pc " << pc;
        EXPECT_EQ(d.instL2Miss, s.instL2Miss)
            << context << " pc " << pc;
        EXPECT_EQ(d.reqCount, s.reqCount) << context << " pc " << pc;
        EXPECT_EQ(d.reqL1Miss, s.reqL1Miss) << context << " pc " << pc;
        EXPECT_EQ(d.reqL2Miss, s.reqL2Miss) << context << " pc " << pc;
        EXPECT_DOUBLE_EQ(derived.pcLatency[pc], simulated.pcLatency[pc])
            << context << " pc " << pc;
    }
    EXPECT_DOUBLE_EQ(derived.avgMissLatency, simulated.avgMissLatency)
        << context;
    EXPECT_DOUBLE_EQ(derived.l1HitRate, simulated.l1HitRate) << context;
    EXPECT_DOUBLE_EQ(derived.l2HitRate, simulated.l2HitRate) << context;
}

TEST(MrcDerive, ExactOnFullyAssociativeLruUnsampled)
{
    // The contract: rate 1.0 + LRU + fully-associative geometry (with
    // an L2 large enough that only cold lines miss it) reproduces the
    // functional collector bit-for-bit, per PC.
    HardwareConfig config = fullyAssociative(smallMachine());
    for (const Workload &w : microWorkloads()) {
        KernelTrace kernel = w.generate(config);
        MrcProfile profile = collectMrcProfile(kernel, config, 1.0);
        CollectorResult derived =
            deriveCollectorResult(profile, kernel, config);
        CollectorResult simulated = collectInputs(kernel, config);
        expectSameCollectorResult(derived, simulated, w.name);
        EXPECT_TRUE(derived.mrcDerived);
        EXPECT_FALSE(derived.mrcApproximate) << derived.mrcApproximation;
        EXPECT_FALSE(simulated.mrcDerived);
    }
}

TEST(MrcDerive, ExactWithSingleLineL1)
{
    // One-line fully-associative L1 (hit iff immediate re-reference):
    // the harshest L1 filter, still exact because the big L2 turns the
    // union-stream approximation into "only cold misses".
    HardwareConfig config = fullyAssociative(smallMachine());
    config.l1SizeBytes = config.l1LineBytes;
    config.l1Assoc = 1;
    for (const char *name : {"micro_write_burst", "micro_l1_resident",
                             "micro_pointer_chase"}) {
        const Workload &w = workloadByName(name);
        KernelTrace kernel = w.generate(config);
        MrcProfile profile = collectMrcProfile(kernel, config, 1.0);
        CollectorResult derived =
            deriveCollectorResult(profile, kernel, config);
        CollectorResult simulated = collectInputs(kernel, config);
        expectSameCollectorResult(derived, simulated, name);
    }
}

TEST(MrcDerive, StoresTakeTheirTurnInTheWalk)
{
    // One core, two warps. Warp 0 is [store, load A, load A] and warp
    // 1 is [load B, load C, load B], so the round-robin walk meets the
    // loads as B, A, C, A, B with d1 cold, cold, cold, 1, 2. A per-core
    // walk that let warp 0's store skip its turn would meet A before B
    // and hand the later loads the wrong distances.
    HardwareConfig config = smallMachine();
    config.numCores = 1;
    KernelTrace kernel("store_turns");
    const std::uint32_t pc_st = kernel.addStatic(Opcode::GlobalStore);
    const std::uint32_t pc_a1 = kernel.addStatic(Opcode::GlobalLoad);
    const std::uint32_t pc_a2 = kernel.addStatic(Opcode::GlobalLoad);
    const std::uint32_t pc_b1 = kernel.addStatic(Opcode::GlobalLoad);
    const std::uint32_t pc_c = kernel.addStatic(Opcode::GlobalLoad);
    const std::uint32_t pc_b2 = kernel.addStatic(Opcode::GlobalLoad);
    const Addr a = 0x10000, b = 0x20000, c = 0x30000;
    {
        TraceBuilder w0(kernel, 0, 0, config);
        w0.globalStore(pc_st, {0x40000});
        w0.globalLoad(pc_a1, {a});
        w0.globalLoad(pc_a2, {a});
        w0.finish();
    }
    {
        TraceBuilder w1(kernel, 1, 0, config);
        w1.globalLoad(pc_b1, {b});
        w1.globalLoad(pc_c, {c});
        w1.globalLoad(pc_b2, {b});
        w1.finish();
    }

    MrcProfile profile = collectMrcProfile(kernel, config, 1.0);
    const std::uint64_t cold = packReusePair(mrcColdDistance,
                                             mrcColdDistance);
    const ReusePairHist cold_once = {{cold, 1.0}};
    EXPECT_EQ(profile.pcs[pc_b1].reqHist, cold_once);
    EXPECT_EQ(profile.pcs[pc_a1].reqHist, cold_once);
    EXPECT_EQ(profile.pcs[pc_c].reqHist, cold_once);
    // One core: the merged-stream distance equals the per-core one.
    EXPECT_EQ(profile.pcs[pc_a2].reqHist,
              (ReusePairHist{{packReusePair(1, 1), 1.0}}));
    EXPECT_EQ(profile.pcs[pc_b2].reqHist,
              (ReusePairHist{{packReusePair(2, 2), 1.0}}));
    for (std::uint32_t pc : {pc_a1, pc_a2, pc_b1, pc_c, pc_b2}) {
        EXPECT_EQ(profile.pcs[pc].instHist, profile.pcs[pc].reqHist)
            << "pc " << pc;
        EXPECT_EQ(profile.pcs[pc].loadInsts, 1u) << "pc " << pc;
    }
    EXPECT_TRUE(profile.pcs[pc_st].reqHist.empty());
    EXPECT_EQ(profile.pcs[pc_st].storeInsts, 1u);
    EXPECT_EQ(profile.pcs[pc_st].storeReqs, 1u);
    EXPECT_EQ(profile.totalLoadLines, 5u);
    EXPECT_EQ(profile.sampledLoadLines, 5u);
}

TEST(MrcDerive, ProfileIsGeometryIndependent)
{
    // One profile collected once must serve multiple geometries; the
    // profile object is untouched by derivation.
    HardwareConfig base = smallMachine();
    const Workload &w = workloadByName("micro_l1_resident");
    KernelTrace kernel = w.generate(base);
    MrcProfile profile = collectMrcProfile(kernel, base, 1.0);
    std::uint64_t total = profile.totalLoadLines;

    double last_hit_rate = -1.0;
    bool varied = false;
    for (std::uint32_t kb : {1u, 4u, 32u}) {
        HardwareConfig config = base;
        config.l1SizeBytes = kb * 1024;
        CollectorResult derived =
            deriveCollectorResult(profile, kernel, config);
        if (last_hit_rate >= 0.0 &&
            derived.l1HitRate != last_hit_rate)
            varied = true;
        // Growing the L1 never lowers the derived hit rate.
        EXPECT_GE(derived.l1HitRate, last_hit_rate);
        last_hit_rate = derived.l1HitRate;
    }
    EXPECT_TRUE(varied); // the sweep axis actually moved the answer
    EXPECT_EQ(profile.totalLoadLines, total);
}

TEST(MrcDerive, ApproximationFlagsAndReasons)
{
    HardwareConfig exact_cfg = fullyAssociative(smallMachine());
    const Workload &w = workloadByName("micro_write_burst");
    KernelTrace kernel = w.generate(exact_cfg);
    MrcProfile profile = collectMrcProfile(kernel, exact_cfg, 1.0);

    // Set-associative geometry is flagged.
    HardwareConfig set_assoc = smallMachine();
    CollectorResult d1 =
        deriveCollectorResult(profile, kernel, set_assoc);
    EXPECT_TRUE(d1.mrcApproximate);
    EXPECT_NE(d1.mrcApproximation.find("set-associative"),
              std::string::npos);

    // A sampled profile is flagged.
    MrcProfile sampled = collectMrcProfile(kernel, exact_cfg, 0.5);
    CollectorResult d2 =
        deriveCollectorResult(sampled, kernel, exact_cfg);
    EXPECT_TRUE(d2.mrcApproximate);
    EXPECT_NE(d2.mrcApproximation.find("sampled"), std::string::npos);

    // Non-LRU replacement is flagged.
    HardwareConfig arc_cfg = exact_cfg;
    arc_cfg.replacementPolicy = 3;
    CollectorResult d3 = deriveCollectorResult(profile, kernel, arc_cfg);
    EXPECT_TRUE(d3.mrcApproximate);
    EXPECT_NE(d3.mrcApproximation.find("non-LRU"), std::string::npos);
}

TEST(MrcDerive, LineSizeMismatchThrows)
{
    HardwareConfig config = smallMachine();
    const Workload &w = workloadByName("micro_stream");
    KernelTrace kernel = w.generate(config);
    MrcProfile profile = collectMrcProfile(kernel, config, 1.0);

    HardwareConfig other_line = config;
    other_line.l1LineBytes = 64;
    other_line.l2LineBytes = 64;
    try {
        deriveCollectorResult(profile, kernel, other_line);
        FAIL() << "line-size mismatch must throw";
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("--sweep-mode=rerun"),
                  std::string::npos);
    }
}

TEST(MrcDerive, PcCountMismatchThrows)
{
    HardwareConfig config = smallMachine();
    const Workload &w = workloadByName("micro_stream");
    KernelTrace kernel = w.generate(config);
    MrcProfile profile = collectMrcProfile(kernel, config, 1.0);
    profile.pcs.pop_back();
    EXPECT_THROW(deriveCollectorResult(profile, kernel, config),
                 StatusException);
}

TEST(MrcDerive, SamplingDriftIsBounded)
{
    // Sampling is hash-based and deterministic; the rate-0.5 aggregate
    // hit rates measured on the micro suite sit within 0.025 of exact,
    // so 0.05 is a stable regression band (not a statistical test).
    HardwareConfig config = smallMachine();
    for (const Workload &w : microWorkloads()) {
        KernelTrace kernel = w.generate(config);
        MrcProfile full = collectMrcProfile(kernel, config, 1.0);
        MrcProfile half = collectMrcProfile(kernel, config, 0.5);
        CollectorResult df = deriveCollectorResult(full, kernel, config);
        CollectorResult dh = deriveCollectorResult(half, kernel, config);
        EXPECT_NEAR(dh.l1HitRate, df.l1HitRate, 0.05) << w.name;
        EXPECT_NEAR(dh.l2HitRate, df.l2HitRate, 0.05) << w.name;
        // Exact totals are carried unsampled.
        EXPECT_EQ(half.totalLoadLines, full.totalLoadLines) << w.name;
        EXPECT_LE(half.sampledLoadLines, full.sampledLoadLines)
            << w.name;
    }
}

// ---------------------------------------------------------------------
// Model-level drift: MRC path vs rerun path
// ---------------------------------------------------------------------

TEST(MrcSweep, ModelCpiDriftWithinTwoPercentOfRerun)
{
    // The PR's accuracy gate, in miniature: across a cache-geometry
    // subgrid, the unsampled MRC path's model CPI stays within 2% of
    // per-cell functional re-simulation for every micro kernel.
    HardwareConfig base = smallMachine();
    struct Cell
    {
        std::uint32_t l1Kb;
        std::uint32_t l2Kb;
    };
    const Cell cells[] = {{1, 16}, {2, 6}, {4, 48}, {16, 192}};
    for (const Workload &w : microWorkloads()) {
        KernelTrace kernel = w.generate(base);
        GpuMechProfiler rerun(kernel, base);
        auto profile = std::make_shared<const MrcProfile>(
            collectMrcProfile(kernel, base, 1.0));
        GpuMechProfiler mrc(kernel, base, RepSelection::Clustering, 2,
                            1, nullptr, profile);
        for (const Cell &cell : cells) {
            HardwareConfig config = base;
            config.l1SizeBytes = cell.l1Kb * 1024;
            config.l2SizeBytes = cell.l2Kb * 1024;
            double want =
                rerun
                    .evaluateAt(config, SchedulingPolicy::RoundRobin)
                    .cpi;
            double got =
                mrc.evaluateAt(config, SchedulingPolicy::RoundRobin)
                    .cpi;
            ASSERT_GT(want, 0.0);
            EXPECT_LE(std::abs(got - want) / want, 0.02)
                << w.name << " at l1 " << cell.l1Kb << "KB / l2 "
                << cell.l2Kb << "KB (rerun " << want << ", mrc " << got
                << ")";
        }
    }
}

// ---------------------------------------------------------------------
// Sweep plumbing: golden bit-identity of rerun mode, mode parsing
// ---------------------------------------------------------------------

std::vector<Workload>
goldenSweepKernels()
{
    std::vector<Workload> kernels;
    for (const Workload &w : microWorkloads()) {
        if (w.name == "micro_stream" || w.name == "micro_l1_resident" ||
            w.name == "micro_write_burst" ||
            w.name == "micro_pointer_chase")
            kernels.push_back(w);
    }
    return kernels;
}

/**
 * tests/golden/sweep_cachegeom_rerun.csv was captured from the pre-MRC
 * engine (commit 25f8889) by running exactly the sweep below: every
 * model's mean error over goldenSweepKernels() at each cache geometry,
 * on one InputCache shared across the points. Rerun mode must keep
 * reproducing it byte-for-byte. The MT_MSHR_BAND row was re-captured
 * when the bandwidth queue gained its continuity clamp at
 * kBandwidthRhoClamp (the only model whose numbers moved).
 */
TEST(MrcSweep, RerunModeIsBitIdenticalToGolden)
{
    std::vector<std::pair<std::string, HardwareConfig>> points;
    for (std::uint32_t kb : {1u, 2u, 4u}) {
        HardwareConfig config;
        config.numCores = 2;
        config.warpsPerCore = 4;
        config.l1SizeBytes = kb * 1024;
        points.emplace_back("l1-" + std::to_string(kb) + "kb", config);
    }
    for (std::uint32_t kb : {4u, 16u}) {
        HardwareConfig config;
        config.numCores = 2;
        config.warpsPerCore = 4;
        config.l2SizeBytes = kb * 1024;
        points.emplace_back("l2-" + std::to_string(kb) + "kb", config);
    }

    const std::vector<Workload> kernels = goldenSweepKernels();
    InputCache cache;
    std::map<ModelKind, std::string> rows;
    std::string csv = "model";
    for (const auto &[label, config] : points) {
        csv += "," + label;
        std::vector<KernelEvaluation> evals =
            evaluateSuite(kernels, config, SchedulingPolicy::RoundRobin,
                          allModels(), false, 1, &cache);
        ASSERT_EQ(countFailures(evals), 0u) << failureSummary(evals);
        for (ModelKind kind : allModels())
            rows[kind] += "," + fmtDouble(averageError(evals, kind), 6);
    }
    csv += "\n";
    for (ModelKind kind : allModels())
        csv += toString(kind) + rows[kind] + "\n";

    std::ifstream in(GPUMECH_GOLDEN_DIR "/sweep_cachegeom_rerun.csv");
    ASSERT_TRUE(in) << "cannot read " GPUMECH_GOLDEN_DIR
                       "/sweep_cachegeom_rerun.csv";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(csv, golden.str());
}

TEST(MrcSweep, ParseSweepMode)
{
    EXPECT_EQ(toString(SweepMode::Rerun), "rerun");
    EXPECT_EQ(toString(SweepMode::Mrc), "mrc");
}

} // namespace
} // namespace gpumech
