/**
 * @file
 * Experiment harness: evaluates the five models of Table II against
 * the detailed timing simulator over kernel sets, and aggregates the
 * relative errors the paper's figures report.
 *
 * Error metric: relative error of predicted performance,
 * |IPC_model - IPC_oracle| / IPC_oracle. (The paper reports errors
 * above 100% for models that overestimate performance, which is only
 * possible on the performance axis; see DESIGN.md.)
 */

#ifndef GPUMECH_HARNESS_EXPERIMENT_HH
#define GPUMECH_HARNESS_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/isolation.hh"
#include "common/status.hh"
#include "core/gpumech.hh"
#include "harness/input_cache.hh"
#include "timing/gpu_timing.hh"
#include "workloads/workload.hh"

namespace gpumech
{

/**
 * How configuration sweeps obtain collector inputs at each cell.
 *
 * Rerun replays the functional cache simulation per cell (the exact
 * reference). Mrc profiles reuse distances once per kernel and derives
 * every cache geometry from that one profile
 * (collector/mrc_collector.hh) — typically several times faster on
 * cache-geometry sweeps, exact on fully-associative LRU geometries and
 * a close approximation elsewhere.
 */
enum class SweepMode
{
    Rerun,
    Mrc,
};

/** CLI name of a sweep mode ("rerun" / "mrc"). */
std::string toString(SweepMode mode);

/**
 * Whether evaluating profilers of @p base at @p knob's @p values
 * walks the whole trace again: in rerun mode, a value that moves
 * collectorKey() but not traceKey() re-collects. A caller that
 * profiles and then evaluates such values asks InputCache::trace()
 * before the profile build, so the build reuses the trace and it is
 * generated once.
 */
bool recollectsTrace(const Knob &knob, const HardwareConfig &base,
                     const std::vector<double> &values, SweepMode mode);

/** The evaluated models (Table II). */
enum class ModelKind
{
    NaiveInterval,
    MarkovChain,
    MT,
    MT_MSHR,
    MT_MSHR_BAND, //!< full GPUMech
};

/** Table II name of a model. */
std::string toString(ModelKind kind);

/** All five models in Table II order. */
const std::vector<ModelKind> &allModels();

/**
 * Per-kernel fault-isolation knobs. Default-constructed options are
 * free: no deadline, no fault plan, checkpoints reduce to one
 * thread-local load.
 */
struct IsolationOptions
{
    /** Per-kernel deadline in milliseconds; 0 disables the watchdog. */
    std::uint64_t kernelTimeoutMs = 0;

    /**
     * Deterministic fault schedule (tests / ext_fault_injection);
     * nullptr injects nothing. Not owned; must outlive the run.
     */
    const FaultPlan *faultPlan = nullptr;
};

/** Per-kernel evaluation outcome. */
struct KernelEvaluation
{
    std::string kernel;
    SchedulingPolicy policy = SchedulingPolicy::RoundRobin;

    /**
     * Ok when the kernel evaluated fully; otherwise the contained
     * failure (its code names the failing stage / injected site) and
     * the numeric fields below are meaningless.
     */
    Status status;

    double oracleCpi = 0.0;
    double oracleIpc = 0.0;

    /** Predicted IPC per model. */
    std::map<ModelKind, double> predictedIpc;

    bool ok() const { return status.ok(); }

    /**
     * Relative performance error of one model. Panics on a failed
     * evaluation (aggregators skip those).
     */
    double error(ModelKind kind) const;
};

/**
 * One Table II model's prediction from a profiler, which may come from
 * an InputCache keyed at another configuration: the GPUMech levels
 * evaluate through GpuMechProfiler::evaluateAt(config, ...), and the
 * two baselines, which fill only ipc and cpi, read the representative
 * warp's profile at @p config's warp count.
 *
 * @param model_sfu add the SFU contention term (GPUMech levels only)
 */
GpuMechResult predictModel(const GpuMechProfiler &profiler,
                           const HardwareConfig &config,
                           SchedulingPolicy policy, ModelKind kind,
                           bool model_sfu = false);

/**
 * Evaluate one kernel: run the oracle and every requested model.
 *
 * @param workload kernel generator
 * @param config machine description
 * @param policy scheduling policy for both oracle and models
 * @param models which models to run (default: all five)
 * @param cache optional shared input cache; when given, the trace,
 *        collector result, and profiler are memoized across calls
 *        (results stay bit-identical — every cached artifact is a
 *        deterministic function of its key)
 * @param isolation per-kernel deadline / fault plan. Any failure —
 *        StatusException from a pipeline stage, deadline expiry,
 *        injected fault, or an unexpected std::exception — is
 *        contained: it is returned in KernelEvaluation::status and
 *        never escapes to the caller.
 */
KernelEvaluation evaluateKernel(const Workload &workload,
                                const HardwareConfig &config,
                                SchedulingPolicy policy,
                                const std::vector<ModelKind> &models =
                                    allModels(),
                                InputCache *cache = nullptr,
                                const IsolationOptions &isolation = {});

/**
 * Evaluate a set of kernels; optionally logs per-kernel progress via
 * inform().
 *
 * Kernels are independent (own trace, own oracle, own profiler), so
 * they fan out across the shared thread pool. Output order and every
 * result are bit-identical to the serial path.
 *
 * Failure containment: one kernel's failure (thrown Status, deadline,
 * injected fault, unexpected exception) marks only that entry's
 * status; every other kernel still evaluates and the suite returns
 * normally. Surviving entries are bit-identical to a run without the
 * failing kernel.
 *
 * @param jobs total threads; 0 = defaultJobs() (GPUMECH_JOBS or
 *        hardware concurrency), 1 = serial
 * @param cache optional shared input cache (see evaluateKernel)
 * @param isolation per-kernel deadline / fault plan
 */
std::vector<KernelEvaluation>
evaluateSuite(const std::vector<Workload> &workloads,
              const HardwareConfig &config, SchedulingPolicy policy,
              const std::vector<ModelKind> &models = allModels(),
              bool verbose = false, unsigned jobs = 0,
              InputCache *cache = nullptr,
              const IsolationOptions &isolation = {});

/** Model-only prediction outcome for one kernel. */
struct KernelPrediction
{
    std::string kernel;
    Status status;        //!< Ok on success
    GpuMechResult result; //!< meaningful only when status.ok()

    bool ok() const { return status.ok(); }
};

/**
 * Model-only fast path: run full GPUMech (no oracle, no baselines)
 * over a set of kernels — the production use case where the paper's
 * ~97x model speedup matters. Parallel and cache-aware like
 * evaluateSuite, with the same per-kernel failure containment; result
 * i corresponds to workloads[i].
 */
std::vector<KernelPrediction>
predictSuite(const std::vector<Workload> &workloads,
             const HardwareConfig &config,
             const GpuMechOptions &options = {}, unsigned jobs = 0,
             InputCache *cache = nullptr,
             const IsolationOptions &isolation = {});

/** Number of failed entries. */
std::size_t countFailures(const std::vector<KernelEvaluation> &evals);
std::size_t countFailures(const std::vector<KernelPrediction> &preds);

/**
 * Human-readable per-kernel failure lines ("kernel: code: message"),
 * one per failed entry; empty string when everything succeeded.
 */
std::string failureSummary(const std::vector<KernelEvaluation> &evals);
std::string failureSummary(const std::vector<KernelPrediction> &preds);

/**
 * Mean relative error of one model over the successful evaluations
 * (failed kernels are excluded from the mean, not counted as zero).
 */
double averageError(const std::vector<KernelEvaluation> &evals,
                    ModelKind kind);

} // namespace gpumech

#endif // GPUMECH_HARNESS_EXPERIMENT_HH
