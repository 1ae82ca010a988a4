/**
 * @file
 * Configuration-sweep helper: runs the full model-vs-oracle
 * comparison at each configuration point and aggregates the average
 * error per model. printSweep also renders bench/accuracy's
 * Figure 13/14/15 tables.
 */

#ifndef GPUMECH_HARNESS_SWEEP_HH
#define GPUMECH_HARNESS_SWEEP_HH

#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace gpumech
{

/** One sweep point: a labeled configuration. */
struct SweepPoint
{
    std::string label;
    HardwareConfig config;
};

/**
 * Sweep evaluation knobs. The default (SweepMode::Rerun, rate 1)
 * reproduces the historical behaviour bit-for-bit; SweepMode::Mrc
 * derives each cell's cache behaviour from one shared reuse-distance
 * profile per kernel (see harness/experiment.hh).
 */
struct SweepOptions
{
    SweepMode mode = SweepMode::Rerun;
    double mrcRate = 1.0; //!< SHARDS sampling rate for SweepMode::Mrc
};

/** One contained per-cell failure of a sweep. */
struct SweepFailure
{
    std::string point;  //!< sweep-point label
    std::string kernel; //!< workload name
    Status status;      //!< the contained failure
};

/** Average error of each model at each sweep point. */
struct SweepResult
{
    std::vector<std::string> labels;
    /** averages[model][point] = mean relative error. */
    std::map<ModelKind, std::vector<double>> averages;

    /**
     * Failed (point, kernel) cells. Averages are over the surviving
     * kernels of each point; a point whose kernels all failed reports
     * 0 (mean of nothing).
     */
    std::vector<SweepFailure> failures;

    /**
     * Per point: true when any kernel's model inputs were
     * MRC-approximate at that point (SweepMode::Mrc only; rerun
     * sweeps leave every entry false). printSweepCsv appends an
     * "mrc_approx" 0/1 row when any entry is set, so machine
     * consumers of the CSV see the signal the text report prints.
     */
    std::vector<bool> mrcApproximate;

    bool anyMrcApproximate() const
    {
        for (bool b : mrcApproximate) {
            if (b)
                return true;
        }
        return false;
    }

    bool complete() const { return failures.empty(); }
};

/**
 * Run a sweep: evaluate every workload at every point and average the
 * per-kernel errors per model.
 *
 * The (point x workload) grid fans out across the shared thread pool,
 * and an input cache is shared across the whole sweep: points that
 * only differ in model parameters (MSHR count, DRAM bandwidth) reuse
 * each workload's trace, collector result, and profiler instead of
 * recomputing them. Result layout and every number are
 * bit-identical to a serial, uncached sweep.
 *
 * @param workloads kernels to evaluate
 * @param points labeled configurations
 * @param policy scheduling policy
 * @param verbose log progress via inform()
 * @param jobs total threads; 0 = defaultJobs(), 1 = serial
 * @param cache shared input cache; nullptr uses one private to this
 *        sweep
 * @param isolation per-kernel deadline / fault plan; a failing cell
 *        lands in SweepResult::failures, the rest of the grid still
 *        runs
 * @param options sweep mode (rerun vs MRC-derived) and sampling rate
 */
SweepResult runSweep(const std::vector<Workload> &workloads,
                     const std::vector<SweepPoint> &points,
                     SchedulingPolicy policy, bool verbose = false,
                     unsigned jobs = 0, InputCache *cache = nullptr,
                     const IsolationOptions &isolation = {},
                     const SweepOptions &options = {});

/** Render a sweep as a table (rows = models, columns = points). */
void printSweep(std::ostream &os, const SweepResult &result);

/** Render a sweep as CSV (same layout, machine readable). */
void printSweepCsv(std::ostream &os, const SweepResult &result);

} // namespace gpumech

#endif // GPUMECH_HARNESS_SWEEP_HH
