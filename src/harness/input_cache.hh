/**
 * @file
 * Keyed input cache for the evaluation harness.
 *
 * Sweeps that only vary model parameters (MSHR count, DRAM bandwidth,
 * issue rate — figs 13-15's non-warp axes) used to re-generate the
 * kernel trace, re-run the functional cache simulation, and re-profile
 * every warp at every point. InputCache memoizes the three artifacts
 * by (workload, relevant-config-fields) keys:
 *
 *   trace     (workload.name, HardwareConfig::traceKey())
 *   collector (workload.name, HardwareConfig::collectorKey())
 *   profiler  (collector key + issue rate + selection + k)
 *   mrc       (workload.name, traceKey(), sampling rate)
 *   mrcProfiler (profiler key + sampling rate)
 *
 * The mrc entries back --sweep-mode=mrc cache-geometry sweeps: the
 * reuse-distance profile is keyed only by trace-shaping fields
 * (traceKey), so every cache-geometry cell of a sweep shares ONE
 * profile, and each cell's collector result is derived from it in
 * O(histogram) time instead of a functional-simulation walk.
 *
 * Every artifact is a deterministic function of its key, so cached
 * evaluation results are bit-identical to fresh ones (asserted by
 * tests/test_parallel.cc). All lookups are thread-safe and
 * compute-once, so a parallel sweep's points share work instead of
 * duplicating it.
 */

#ifndef GPUMECH_HARNESS_INPUT_CACHE_HH
#define GPUMECH_HARNESS_INPUT_CACHE_HH

#include <atomic>
#include <memory>
#include <string>

#include "common/memo.hh"
#include "core/gpumech.hh"
#include "workloads/workload.hh"

namespace gpumech
{

/**
 * A cached profiler plus the trace that keeps its reference valid.
 * The profiler holds the representative warp's interval profile only.
 */
struct ProfiledKernel
{
    std::shared_ptr<const KernelTrace> trace;
    std::shared_ptr<const GpuMechProfiler> profiler;
};

/** Shared memoization of traces, collector results, and profilers. */
class InputCache
{
  public:
    /** Kernel trace for a workload at a configuration. */
    std::shared_ptr<const KernelTrace>
    trace(const Workload &workload, const HardwareConfig &config);

    /** Collector result for a workload at a configuration. */
    std::shared_ptr<const CollectorResult>
    inputs(const Workload &workload, const HardwareConfig &config);

    /**
     * Fully-profiled kernel (inputs + selected representative and its
     * interval profile). The profiler may have been constructed at a
     * different configuration with the same key, so evaluate through
     * GpuMechProfiler::evaluateAt(config, ...) — never evaluate() —
     * when using a cached profiler.
     */
    ProfiledKernel
    profiler(const Workload &workload, const HardwareConfig &config,
             RepSelection selection = RepSelection::Clustering,
             std::uint32_t num_clusters = 2);

    /**
     * Reuse-distance profile for a workload (collector/mrc_collector
     * .hh). Keyed by trace-shaping fields only — cache geometry does
     * not participate — so one entry serves a whole geometry sweep.
     *
     * @param sampling_rate SHARDS rate in (0, 1]; part of the key
     */
    std::shared_ptr<const MrcProfile>
    mrc(const Workload &workload, const HardwareConfig &config,
        double sampling_rate = 1.0);

    /**
     * Like profiler(), but the GpuMechProfiler carries the shared
     * reuse-distance profile: its collector inputs (and every
     * evaluateAt() re-collection) are derived from the profile instead
     * of simulated. Evaluate through evaluateAt(config, ...), exactly
     * as with profiler().
     */
    ProfiledKernel
    mrcProfiler(const Workload &workload, const HardwareConfig &config,
                double sampling_rate = 1.0,
                RepSelection selection = RepSelection::Clustering,
                std::uint32_t num_clusters = 2);

    std::size_t traceHits() const { return traces.hits(); }
    std::size_t traceMisses() const { return traces.misses(); }
    std::size_t collectorHits() const { return collected.hits(); }
    std::size_t collectorMisses() const { return collected.misses(); }
    std::size_t profilerHits() const { return profilers.hits(); }
    std::size_t profilerMisses() const { return profilers.misses(); }
    std::size_t mrcHits() const { return mrcs.hits(); }
    std::size_t mrcMisses() const { return mrcs.misses(); }

    /** Heap bytes of every cached trace (KernelTrace::memoryFootprint). */
    std::size_t traceBytes() const { return traceByteTotal.load(); }

    /**
     * Bytes the cached profilers, rerun and MRC alike, hold themselves
     * (GpuMechProfiler::memoryFootprint), summed when each is built.
     */
    std::size_t profilerBytes() const { return profilerByteTotal.load(); }

    /** Drop every cached artifact and zero the byte totals. */
    void clear();

  private:
    std::atomic<std::size_t> traceByteTotal{0};
    std::atomic<std::size_t> profilerByteTotal{0};

    MemoCache<KernelTrace> traces;
    MemoCache<CollectorResult> collected;
    MemoCache<ProfiledKernel> profilers;
    MemoCache<MrcProfile> mrcs;
    MemoCache<ProfiledKernel> mrcProfilers;
};

} // namespace gpumech

#endif // GPUMECH_HARNESS_INPUT_CACHE_HH
