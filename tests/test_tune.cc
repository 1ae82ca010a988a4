/**
 * @file
 * Tests for guided design-space exploration (harness/tune.hh): exact
 * agreement with an exhaustive search on a small grid, bit-identity
 * across thread counts, Pareto-frontier shape, explanation and
 * advisor wiring, the MRC approximation policy, and specification
 * validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/json_value.hh"
#include "common/status.hh"
#include "harness/tune.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

const Workload &
microWorkload(const std::string &name)
{
    for (const Workload &w : microWorkloads()) {
        if (w.name == name)
            return w;
    }
    ADD_FAILURE() << "no micro workload named " << name;
    return microWorkloads().front();
}

/** Small, fast base machine (same shape the MRC sweep tests use). */
HardwareConfig
smallBase()
{
    HardwareConfig config;
    config.numCores = 2;
    config.warpsPerCore = 4;
    return config;
}

/** A 3x3x3 space over evaluation-only dimensions. */
TuneOptions
smallGrid()
{
    TuneOptions options;
    options.dims = {{"mshrs", {16, 32, 64}},
                    {"bw", {96, 192, 384}},
                    {"l2-kb", {384, 768, 1536}}};
    options.jobs = 1;
    return options;
}

/**
 * Exhaustive argmin of the same space, mirroring tune's evaluation
 * path exactly (shared reuse-distance profile at the base trace
 * shape, evaluateAt per cell, lexicographic strict-< tie-break).
 */
void
exhaustiveArgmin(EvalSession &session, const Workload &w,
                 const HardwareConfig &base, const TuneOptions &options,
                 std::vector<double> &best_coords, double &best_obj)
{
    std::shared_ptr<const GpuMechProfiler> profiler =
        session.cache.mrcProfiler(w, base, 1.0);
    best_obj = std::numeric_limits<double>::infinity();
    for (double mshrs : options.dims[0].values) {
        for (double bw : options.dims[1].values) {
            for (double l2 : options.dims[2].values) {
                HardwareConfig config = base;
                config.numMshrs = static_cast<std::uint32_t>(mshrs);
                config.dramBandwidthGBs = bw;
                config.l2SizeBytes =
                    static_cast<std::uint32_t>(l2) * 1024;
                ASSERT_TRUE(config.validate().ok());
                GpuMechResult r = profiler->evaluateAt(
                    config, SchedulingPolicy::RoundRobin,
                    ModelLevel::MT_MSHR_BAND, false);
                double obj =
                    options.objective == TuneObjective::MinCpi
                        ? r.cpi
                        : r.cpi * options.cost.cost(config, base);
                if (obj < best_obj) {
                    best_obj = obj;
                    best_coords = {mshrs, bw, l2};
                }
            }
        }
    }
}

TEST(Tune, FindsExhaustiveArgminOnSmallGrid)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    HardwareConfig base = smallBase();
    TuneOptions options = smallGrid();

    Result<TuneResult> run = runTune(session, w, base, options);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const TuneResult &result = run.value();
    EXPECT_EQ(result.spaceSize, 27u);
    EXPECT_LE(result.evaluations, 27u);

    std::vector<double> want_coords;
    double want_obj = 0.0;
    exhaustiveArgmin(session, w, base, options, want_coords, want_obj);
    EXPECT_EQ(result.best.coords, want_coords);
    EXPECT_DOUBLE_EQ(result.best.objective, want_obj);
}

TEST(Tune, FindsExhaustiveArgminUnderCpiCostObjective)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    HardwareConfig base = smallBase();
    TuneOptions options = smallGrid();
    options.objective = TuneObjective::MinCpiCost;

    Result<TuneResult> run = runTune(session, w, base, options);
    ASSERT_TRUE(run.ok()) << run.status().toString();

    std::vector<double> want_coords;
    double want_obj = 0.0;
    exhaustiveArgmin(session, w, base, options, want_coords, want_obj);
    EXPECT_EQ(run.value().best.coords, want_coords);
    EXPECT_DOUBLE_EQ(run.value().best.objective, want_obj);
}

TEST(Tune, BitIdenticalAcrossJobCounts)
{
    const Workload &w = microWorkload("micro_stream");
    HardwareConfig base = smallBase();

    TuneOptions serial = smallGrid();
    serial.jobs = 1;
    EvalSession s1;
    Result<TuneResult> r1 = runTune(s1, w, base, serial);
    ASSERT_TRUE(r1.ok()) << r1.status().toString();

    TuneOptions parallel = smallGrid();
    parallel.jobs = 8;
    EvalSession s8;
    Result<TuneResult> r8 = runTune(s8, w, base, parallel);
    ASSERT_TRUE(r8.ok()) << r8.status().toString();

    // The whole report — every point, every stack component, the
    // frontier order — must be byte-identical at any thread count.
    EXPECT_EQ(tuneResultToJson(r1.value(), "micro_stream", serial),
              tuneResultToJson(r8.value(), "micro_stream", parallel));
}

TEST(Tune, FrontierIsParetoAndEveryPointExplained)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    TuneOptions options = smallGrid();

    Result<TuneResult> run = runTune(session, w, smallBase(), options);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const TuneResult &result = run.value();

    ASSERT_FALSE(result.frontier.empty());
    for (std::size_t i = 1; i < result.frontier.size(); ++i) {
        EXPECT_GE(result.frontier[i].cost,
                  result.frontier[i - 1].cost);
        EXPECT_LT(result.frontier[i].cpi, result.frontier[i - 1].cpi);
    }
    for (const TunePoint &p : result.frontier) {
        EXPECT_TRUE(p.feasible);
        EXPECT_FALSE(p.explanation.text.empty());
    }
    EXPECT_EQ(result.baseline.explanation.text, "baseline");
    EXPECT_TRUE(result.baseline.explanation.moves.empty());
    EXPECT_FALSE(result.best.explanation.text.empty());
    EXPECT_FALSE(result.advisor.text.empty());
    EXPECT_FALSE(result.advisor.knob.empty());

    // The frontier's cheapest-at-best-CPI point is the CPI argmin, so
    // under the plain-CPI objective the best point closes the list.
    EXPECT_DOUBLE_EQ(result.frontier.back().cpi, result.best.cpi);
}

TEST(Tune, ReportParsesAsJsonWithDeclaredShape)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    TuneOptions options = smallGrid();
    Result<TuneResult> run = runTune(session, w, smallBase(), options);
    ASSERT_TRUE(run.ok()) << run.status().toString();

    Result<JsonValue> doc = parseJson(
        tuneResultToJson(run.value(), "micro_stream", options));
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue &v = doc.value();
    EXPECT_EQ(v.find("kernel")->string(), "micro_stream");
    EXPECT_EQ(v.find("objective")->string(), "cpi");
    ASSERT_NE(v.find("dims"), nullptr);
    EXPECT_EQ(v.find("dims")->items().size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("space_size")->number(), 27.0);
    ASSERT_NE(v.find("best"), nullptr);
    ASSERT_NE(v.find("best")->find("explanation"), nullptr);
    EXPECT_FALSE(v.find("best")
                     ->find("explanation")
                     ->find("text")
                     ->string()
                     .empty());
    ASSERT_NE(v.find("frontier"), nullptr);
    for (const JsonValue &p : v.find("frontier")->items()) {
        ASSERT_NE(p.find("explanation"), nullptr);
        EXPECT_FALSE(
            p.find("explanation")->find("text")->string().empty());
    }
    ASSERT_NE(v.find("advisor"), nullptr);
    EXPECT_FALSE(v.find("advisor")->find("bottleneck")->string().empty());
}

TEST(Tune, RefusesNonLruMrcInputsUnlessAllowed)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    HardwareConfig base = smallBase();
    base.replacementPolicy = 1; // FIFO, modeled as LRU stack distances

    TuneOptions options = smallGrid();
    Result<TuneResult> refused = runTune(session, w, base, options);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::FailedValidation);
    EXPECT_NE(refused.status().message().find("--allow-approx"),
              std::string::npos)
        << refused.status().message();

    options.allowApprox = true;
    Result<TuneResult> allowed = runTune(session, w, base, options);
    ASSERT_TRUE(allowed.ok()) << allowed.status().toString();
    EXPECT_TRUE(allowed.value().mrcApproximate);
    EXPECT_NE(allowed.value().mrcApproximation.find("non-LRU"),
              std::string::npos);

    // Rerun mode sidesteps the approximation entirely.
    options.allowApprox = false;
    options.mode = SweepMode::Rerun;
    Result<TuneResult> rerun = runTune(session, w, base, options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().toString();
    EXPECT_FALSE(rerun.value().mrcApproximate);
}

TEST(Tune, ConstraintsShapeTheSearch)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    TuneOptions options = smallGrid();

    Result<TuneResult> free = runTune(session, w, smallBase(), options);
    ASSERT_TRUE(free.ok()) << free.status().toString();

    // A binding cost cap must push the best point at or under it.
    options.constraints.maxCost = free.value().baseline.cost;
    Result<TuneResult> capped =
        runTune(session, w, smallBase(), options);
    ASSERT_TRUE(capped.ok()) << capped.status().toString();
    EXPECT_LE(capped.value().best.cost, options.constraints.maxCost);
    for (const TunePoint &p : capped.value().frontier)
        EXPECT_LE(p.cost, options.constraints.maxCost);

    // An unsatisfiable CPI bound leaves nothing feasible.
    options.constraints.maxCost = 0.0;
    options.constraints.maxCpi = 1e-6;
    Result<TuneResult> none = runTune(session, w, smallBase(), options);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::NotFound);
}

TEST(Tune, RejectsBadSearchSpecifications)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    HardwareConfig base = smallBase();

    auto code = [&](const TuneOptions &options) {
        Result<TuneResult> r = runTune(session, w, base, options);
        return r.ok() ? StatusCode::Ok : r.status().code();
    };

    TuneOptions options;
    options.jobs = 1;
    options.dims = {};
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);

    options.dims = {{"voltage", {}}};
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);

    options.dims = {{"mshrs", {}}, {"mshrs", {}}};
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);

    options.dims = {{"mshrs", {1.5}}};
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);

    options.dims = {{"scheduler", {2}}};
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);

    // 4194305 KB would wrap the 32-bit byte count to 1 KB.
    options.dims = {{"l1-kb", {32, 4194305}}};
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);

    options.dims = {{"mshrs", {16, 32}}};
    options.cost.weights["voltage"] = 1.0;
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);

    options.cost.weights.erase("voltage");
    options.mrcRate = 0.0;
    EXPECT_EQ(code(options), StatusCode::InvalidArgument);
}

TEST(Tune, DefaultLaddersResolveAndSchedulerSearches)
{
    EvalSession session;
    const Workload &w = microWorkload("micro_stream");
    TuneOptions options;
    options.jobs = 1;
    options.restarts = 1;
    options.dims = {{"mshrs", {16, 32}}, {"scheduler", {}}};

    Result<TuneResult> run = runTune(session, w, smallBase(), options);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const TuneResult &result = run.value();
    ASSERT_EQ(result.dims.size(), 2u);
    EXPECT_EQ(result.dims[1].values, (std::vector<double>{0, 1}));
    EXPECT_EQ(result.spaceSize, 4u);

    // bw is any finite positive number, as in overrides and sweeps.
    options.dims = {{"bw", {192, 5e9}}};
    Result<TuneResult> wide = runTune(session, w, smallBase(), options);
    EXPECT_TRUE(wide.ok()) << wide.status().toString();
}

TEST(Tune, CostModelIsWeightedRatioSumAndSchedulerIsFree)
{
    TuneCostModel cost;
    EXPECT_EQ(cost.weights.count("scheduler"), 0u);

    HardwareConfig base = smallBase();
    double base_cost = cost.cost(base, base);
    double weight_sum = 0.0;
    for (const auto &entry : cost.weights)
        weight_sum += entry.second;
    // Baseline costs exactly the weight sum (every ratio is 1).
    EXPECT_DOUBLE_EQ(base_cost, weight_sum);

    // Doubling one knob adds exactly its weight.
    HardwareConfig doubled = base;
    doubled.numMshrs *= 2;
    EXPECT_DOUBLE_EQ(cost.cost(doubled, base),
                     base_cost + cost.weights.at("mshrs"));

    // A declared override rescales that dimension alone.
    TuneCostModel heavy;
    heavy.weights["mshrs"] = 10.0;
    EXPECT_DOUBLE_EQ(heavy.cost(doubled, base),
                     base_cost - cost.weights.at("mshrs") + 20.0);
}

} // namespace
} // namespace gpumech
