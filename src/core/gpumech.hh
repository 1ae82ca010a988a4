/**
 * @file
 * GPUMech top-level pipeline (paper Figure 5): input collection,
 * per-warp interval profiles, representative-warp selection, the
 * multi-warp model, and the CPI stack.
 *
 * This is the library's primary public entry point:
 *
 * @code
 *   KernelTrace kernel = someWorkload(config);
 *   GpuMechResult r = runGpuMech(kernel, config, GpuMechOptions{});
 *   std::cout << r.cpi << "\n" << r.stack.toLine() << "\n";
 * @endcode
 */

#ifndef GPUMECH_CORE_GPUMECH_HH
#define GPUMECH_CORE_GPUMECH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collector/input_collector.hh"
#include "common/config.hh"
#include "common/memo.hh"
#include "mem/mrc.hh"
#include "core/contention.hh"
#include "core/cpi_stack.hh"
#include "core/interval_builder.hh"
#include "core/multiwarp.hh"
#include "core/representative.hh"
#include "trace/kernel_trace.hh"

namespace gpumech
{

/** Model levels of Table II (each adds one mechanism). */
enum class ModelLevel
{
    MT,           //!< multithreading only (Section IV-A)
    MT_MSHR,      //!< + MSHR queuing (Section IV-B1)
    MT_MSHR_BAND, //!< + DRAM bandwidth queuing = full GPUMech
};

/** Human-readable model-level name matching Table II. */
std::string toString(ModelLevel level);

/** Options for a GPUMech run. */
struct GpuMechOptions
{
    SchedulingPolicy policy = SchedulingPolicy::RoundRobin;
    ModelLevel level = ModelLevel::MT_MSHR_BAND;
    RepSelection selection = RepSelection::Clustering;
    std::uint32_t numClusters = 2; //!< k for the clustering selector

    /**
     * Extension: model SFU structural contention (the paper's
     * Section IV-B future-work item). Off by default — the paper
     * assumes a balanced design with no normal-operation contention.
     */
    bool modelSfu = false;
};

/** Full output of a GPUMech run. */
struct GpuMechResult
{
    double cpi = 0.0; //!< CPI_final (Eq. 3)
    double ipc = 0.0; //!< 1 / cpi

    double cpiMultithreading = 0.0;
    double cpiContention = 0.0;

    /** Warp chosen as representative (index into the kernel's warps). */
    std::uint32_t repWarpIndex = 0;

    /** Single-warp IPC of the representative warp (Eq. 5). */
    double repWarpPerf = 0.0;

    /** Number of intervals in the representative profile. */
    std::size_t repNumIntervals = 0;

    /** The predicted CPI stack (Section VII). */
    CpiStack stack;

    MultithreadingResult multithreading;
    ContentionResult contention;
};

/**
 * Run the full GPUMech pipeline on a kernel trace.
 *
 * Prefer this function unless intermediate artifacts need reuse
 * across sweep points (then see GpuMechProfiler below).
 */
GpuMechResult runGpuMech(const KernelTrace &kernel,
                         const HardwareConfig &config,
                         const GpuMechOptions &options = {});

/**
 * Reusable profiling front end.
 *
 * Splits the pipeline the way Section VI-D describes: collecting
 * inputs + profiling all warps + clustering happen once per kernel
 * input, while evaluating a new hardware configuration only reruns
 * the cache simulation and the representative warp's interval
 * algorithm. Profiling reduces each warp to its Eq. 6 inputs; only
 * the representative's interval profile is ever built and kept.
 *
 * After selection nothing in Eqs. 7-23 reads another warp, so the
 * profiler keeps a one-warp slice of the trace (the static program
 * plus the representative warp) instead of the trace itself. Only a
 * rerun-mode evaluateAt() at a new cache geometry walks every warp
 * again, and it fetches the whole trace through a TraceSource.
 */
class GpuMechProfiler
{
  public:
    /**
     * Where a re-collection gets the whole trace the profiler was
     * built from; it must return that trace bit for bit.
     */
    using TraceSource =
        std::function<std::shared_ptr<const KernelTrace>()>;

    /**
     * Profile a kernel: run the input collector, reduce every warp to
     * its Eq. 6 inputs (buildAllFeatures), select the representative
     * warp and build its interval profile.
     *
     * @param profile_threads threads for the per-warp interval
     *        algorithm (Section VI-D's unexplored parallelization);
     *        1 = serial, 0 = defaultJobs(). Results are identical
     *        either way.
     * @param precollected collector result for (kernel, config) from a
     *        shared InputCache; when null, collectInputs() runs here.
     * @param mrc optional reuse-distance profile (the MRC fast path):
     *        when set, every collector result — the profiling one
     *        (unless @p precollected is given) and every evaluateAt()
     *        geometry re-collection — is derived from the profile
     *        instead of re-running the functional cache simulation.
     * @param refetch how evaluateAt() gets the whole trace to
     *        re-collect at a new geometry in rerun mode. Null means
     *        @p kernel itself, which must then outlive every such
     *        call; with a source, @p kernel is read only here.
     */
    GpuMechProfiler(const KernelTrace &kernel,
                    const HardwareConfig &config,
                    RepSelection selection = RepSelection::Clustering,
                    std::uint32_t num_clusters = 2,
                    unsigned profile_threads = 1,
                    std::shared_ptr<const CollectorResult> precollected =
                        nullptr,
                    std::shared_ptr<const MrcProfile> mrc = nullptr,
                    TraceSource refetch = nullptr);

    /** Evaluate the multi-warp model at the profiling configuration. */
    GpuMechResult evaluate(SchedulingPolicy policy,
                           ModelLevel level = ModelLevel::MT_MSHR_BAND,
                           bool model_sfu = false) const;

    /**
     * Re-evaluate at a different hardware configuration, reusing the
     * already-selected representative warp (Section VI-D). The cache
     * simulation and the representative warp's interval profile are
     * memoized by the configuration fields they actually read, so
     * design-space sweeps over model-only parameters (MSHRs, DRAM
     * bandwidth) and repeated calls with the same configuration skip
     * collectInputs() entirely. Thread-safe; results are bit-identical
     * to recomputing from scratch.
     */
    GpuMechResult evaluateAt(const HardwareConfig &new_config,
                             SchedulingPolicy policy,
                             ModelLevel level = ModelLevel::MT_MSHR_BAND,
                             bool model_sfu = false) const;

    /** Memo hits of evaluateAt's collector cache (reuse diagnostics). */
    std::size_t collectorCacheHits() const
    {
        return collectorMemo.hits();
    }

    const CollectorResult &inputs() const { return *collected; }
    std::uint32_t repIndex() const { return repWarp; }

    /** The representative warp's profile at the profiling config. */
    const IntervalProfile &repProfile() const { return *representative; }

    /** The profiled kernel's name, warp count and instruction count. */
    const std::string &kernelName() const { return slice.name(); }
    std::uint32_t numWarps() const { return warps; }
    std::uint64_t totalInsts() const { return insts; }

    /**
     * Bytes this profiler holds itself once built: its one-warp trace
     * slice and the capacity of its representative profile's
     * intervals. The collector result and the MRC profile it points
     * to are shared with their owners and not counted here.
     */
    std::size_t memoryFootprint() const;

  private:
    HardwareConfig config;
    TraceSource fullTrace;
    std::shared_ptr<const MrcProfile> mrcProfile; //!< null = rerun mode
    std::shared_ptr<const CollectorResult> collected;
    std::uint32_t warps = 0;
    std::uint64_t insts = 0;
    std::uint32_t repWarp = 0;
    KernelTrace slice; //!< static program + the representative warp
    std::shared_ptr<const IntervalProfile> representative;

    // evaluateAt memos, keyed by the configuration fields each stage
    // reads (seeded with the profiling configuration's results, which
    // they share with collected and representative).
    mutable MemoCache<CollectorResult> collectorMemo;
    mutable MemoCache<IntervalProfile> repMemo;
};

} // namespace gpumech

#endif // GPUMECH_CORE_GPUMECH_HH
