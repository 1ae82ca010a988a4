/**
 * @file
 * Guided design-space exploration (ROADMAP item 4): random-restart
 * coordinate descent over a user-declared subset of HardwareConfig
 * dimensions, with a CPI-stack bottleneck advisor.
 *
 * The search spends the model's ~100x speed advantage over the
 * cycle-level oracle: every candidate configuration is one analytical
 * evaluation through the session's warm InputCache, line sweeps fan
 * out on the shared ThreadPool, and in SweepMode::Mrc the cache
 * geometry dimensions (l1-kb / l2-kb) are derived from one shared
 * reuse-distance profile per trace shape, so they are near-free to
 * search.
 *
 * Output is a Pareto frontier (model CPI vs a declared resource cost)
 * plus the best point under the objective. Every frontier point
 * carries an explanation derived from the CPI-stack delta against the
 * baseline — which component (MSHR, QUEUE, DRAM, DEP, ...) the moves
 * relieved — and the best point gets an advisor naming its residual
 * bottleneck and the knob that could relieve it (docs/MODEL.md maps
 * components to knobs).
 *
 * Determinism: restart starting points come from an owned
 * xorshift64* generator seeded by (seed, restart); candidate
 * evaluation uses the ordered parallelMap and all selections break
 * ties toward the lowest candidate index, so results are bit-identical
 * at any --jobs.
 */

#ifndef GPUMECH_HARNESS_TUNE_HH
#define GPUMECH_HARNESS_TUNE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cpi_stack.hh"
#include "harness/session.hh"

namespace gpumech
{

/**
 * One searchable dimension: a HardwareConfig knob plus its candidate
 * ladder. Known names: cores, warps, mshrs, bw, l1-kb, l2-kb,
 * scheduler (values 0 = rr, 1 = gto).
 */
struct TuneDimension
{
    std::string name;
    std::vector<double> values; //!< candidate values, search order
};

/** True for a name tune knows how to search. */
bool isTuneDimension(const std::string &name);

/** Default candidate ladder of a known dimension. */
std::vector<double> defaultTuneValues(const std::string &name);

/** Comma list of every searchable dimension (usage strings). */
std::string tuneDimensionNames();

/** What the search minimizes. */
enum class TuneObjective
{
    MinCpi,     //!< model CPI alone
    MinCpiCost, //!< model CPI x resource cost
};

/** CLI name of an objective ("cpi" / "cpi-cost"). */
std::string toString(TuneObjective objective);

/**
 * Declared resource-cost function: a weighted sum of each priced
 * knob's value relative to the baseline configuration,
 *
 *   cost = sum_d weight[d] * value_d(config) / value_d(baseline)
 *
 * so the baseline costs exactly sum(weights) and doubling a knob adds
 * its weight. The scheduler dimension is free (policy choice has no
 * hardware cost). Weights are overridable per dimension
 * (--cost-weights / "cost_weights").
 */
struct TuneCostModel
{
    std::map<std::string, double> weights;

    TuneCostModel();

    /** Cost of @p config relative to @p baseline. */
    double cost(const HardwareConfig &config,
                const HardwareConfig &baseline) const;
};

/** Search constraints; 0 disables a bound. */
struct TuneConstraints
{
    double maxCost = 0.0; //!< reject points costing more than this
    double maxCpi = 0.0;  //!< reject points slower than this CPI
};

/** Full search specification. */
struct TuneOptions
{
    std::vector<TuneDimension> dims;
    TuneObjective objective = TuneObjective::MinCpi;
    TuneCostModel cost;
    TuneConstraints constraints;

    /** Coordinate-descent restarts (restart 0 starts at baseline). */
    std::uint32_t restarts = 4;

    /** Deterministic seed for restart starting points. */
    std::uint64_t seed = 1;

    /**
     * Collector-input source, as in sweeps. Tune defaults to the MRC
     * fast path; use SweepMode::Rerun for exact functional-simulation
     * inputs at every cell.
     */
    SweepMode mode = SweepMode::Mrc;
    double mrcRate = 1.0; //!< SHARDS rate in (0, 1] for SweepMode::Mrc

    /**
     * Accept MRC-approximate inputs for a non-LRU replacement policy
     * (modeled as LRU stack distances). Without this, tune refuses:
     * ranking configurations on inputs known to misrepresent the
     * configured policy silently skews the search.
     */
    bool allowApprox = false;

    SchedulingPolicy policy = SchedulingPolicy::RoundRobin;
    bool modelSfu = false;
    unsigned jobs = 0; //!< threads for line sweeps; 0 = default
};

/** Explanation attached to every reported point. */
struct TuneExplanation
{
    StallType relieved = StallType::Base; //!< most-relieved component
    double reliefCpi = 0.0;   //!< its CPI change vs baseline (<= 0 = relief)
    double totalDeltaCpi = 0.0; //!< total CPI change vs baseline
    std::string moves; //!< "mshrs 32->64, l1-kb 16->32"; "" = baseline
    std::string text;  //!< full sentence for reports
};

/** One evaluated configuration. */
struct TunePoint
{
    /** Chosen value per declared dimension, in dims order. */
    std::vector<double> coords;

    HardwareConfig config;
    SchedulingPolicy policy = SchedulingPolicy::RoundRobin;

    double cpi = 0.0;
    double ipc = 0.0;
    double cost = 0.0;
    double objective = 0.0;
    bool feasible = true; //!< false = violates a constraint

    CpiStack stack;
    TuneExplanation explanation;
};

/** The advisor: the best point's residual bottleneck. */
struct TuneAdvisor
{
    StallType bottleneck = StallType::Base;
    double share = 0.0; //!< bottleneck CPI / total CPI
    std::string knob;   //!< dimension that relieves it (MODEL.md table)
    std::string text;
};

/** Everything a tune run reports. */
struct TuneResult
{
    /** Declared dimensions with default ladders resolved. */
    std::vector<TuneDimension> dims;

    TunePoint baseline; //!< base configuration snapped onto the grid
    TunePoint best;     //!< feasible argmin of the objective

    /**
     * Pareto frontier over all evaluated feasible points: sorted by
     * ascending cost, strictly decreasing CPI (each point is the
     * cheapest way to reach its CPI among everything evaluated).
     */
    std::vector<TunePoint> frontier;

    TuneAdvisor advisor;

    std::size_t evaluations = 0;  //!< distinct model evaluations
    std::size_t spaceSize = 0;    //!< full grid size
    std::uint32_t restartsRun = 0;

    bool mrcApproximate = false;    //!< inputs carried approximations
    std::string mrcApproximation;   //!< the reasons, comma-joined
};

/**
 * Run the search. Errors (unknown/duplicate/empty dimension, invalid
 * baseline, non-LRU policy under SweepMode::Mrc without allowApprox)
 * come back as a Status; per-point validation failures just mark the
 * cell infeasible and the search continues around them.
 */
Result<TuneResult> runTune(EvalSession &session,
                           const Workload &workload,
                           const HardwareConfig &base,
                           const TuneOptions &options);

/**
 * Render a result as one JSON document (the report every front-end
 * emits; see README "Tuning" for the shape).
 */
std::string tuneResultToJson(const TuneResult &result,
                             const std::string &kernel,
                             const TuneOptions &options);

} // namespace gpumech

#endif // GPUMECH_HARNESS_TUNE_HH
