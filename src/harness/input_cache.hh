/**
 * @file
 * Keyed input cache for the evaluation harness.
 *
 * Sweeps that only vary model parameters (MSHR count, DRAM bandwidth,
 * issue rate — figs 13-15's non-warp axes) used to re-generate the
 * kernel trace, re-run the functional cache simulation, and re-profile
 * every warp at every point. InputCache memoizes the artifacts by
 * (workload, relevant-config-fields) keys:
 *
 *   trace     (workload.name, HardwareConfig::traceKey())
 *   collector (workload.name, HardwareConfig::collectorKey())
 *   profiler  (collector key + issue rate + selection + k)
 *   mrc       (workload.name, traceKey(), sampling rate)
 *   mrcProfiler (profiler key + sampling rate)
 *
 * Only trace() keeps a trace. A profiler, collector or MRC miss uses
 * the cached trace when there is one; otherwise it generates the
 * trace for that one build and drops it, so a warm entry holds model
 * state only. A profiler owns a one-warp slice of its trace and, in
 * rerun mode, re-collects at a new cache geometry through trace(),
 * which regenerates a dropped trace bit for bit. A caller that will
 * read the whole trace after profiling (the oracle, a rerun geometry
 * sweep or tune: recollectsTrace()) asks trace() first, so the
 * profile build reuses it and the trace is generated once.
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
 * duplicating it. A dropped trace is the exception: it is private to
 * the build that generated it, so concurrent builds of two entries on
 * one trace key may each generate it.
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

/** Shared memoization of traces, collector results, and profilers. */
class InputCache
{
  public:
    /**
     * Kernel trace for a workload at a configuration: the one lookup
     * that caches a trace.
     */
    std::shared_ptr<const KernelTrace>
    trace(const Workload &workload, const HardwareConfig &config);

    /**
     * Fully-profiled kernel (inputs + selected representative and its
     * interval profile). The profiler may have been constructed at a
     * different configuration with the same key, so evaluate through
     * GpuMechProfiler::evaluateAt(config, ...) — never evaluate() —
     * when using a cached profiler. It re-collects through trace(), so
     * it must not evaluate at a new cache geometry once this cache is
     * destroyed.
     */
    std::shared_ptr<const GpuMechProfiler>
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
    std::shared_ptr<const GpuMechProfiler>
    mrcProfiler(const Workload &workload, const HardwareConfig &config,
                double sampling_rate = 1.0,
                RepSelection selection = RepSelection::Clustering,
                std::uint32_t num_clusters = 2);

    std::size_t traceHits() const { return traces.hits(); }
    /** Trace generations, kept by trace() or dropped after a build. */
    std::size_t traceMisses() const
    {
        return traces.misses() + droppedTraces.load();
    }
    std::size_t collectorHits() const { return collected.hits(); }
    std::size_t collectorMisses() const { return collected.misses(); }
    std::size_t profilerHits() const { return profilers.hits(); }
    std::size_t profilerMisses() const { return profilers.misses(); }
    std::size_t mrcHits() const { return mrcs.hits(); }
    std::size_t mrcMisses() const { return mrcs.misses(); }

    /**
     * Heap bytes of every trace trace() cached
     * (KernelTrace::memoryFootprint).
     */
    std::size_t traceBytes() const { return traceByteTotal.load(); }

    /**
     * Bytes the cached profilers, rerun and MRC alike, hold themselves
     * (GpuMechProfiler::memoryFootprint), summed when each is built.
     */
    std::size_t profilerBytes() const { return profilerByteTotal.load(); }

    /** Drop every cached artifact and zero the byte totals. */
    void clear();

  private:
    /** The trace trace() cached, else one generated for this caller. */
    std::shared_ptr<const KernelTrace>
    traceInHand(const Workload &workload, const HardwareConfig &config);

    /** Collector result, computed on a miss from @p kernel. */
    std::shared_ptr<const CollectorResult>
    inputsFrom(const Workload &workload, const HardwareConfig &config,
               const KernelTrace &kernel);

    /** mrc(), computed on a miss from @p kernel (null: traceInHand). */
    std::shared_ptr<const MrcProfile>
    mrcFrom(const Workload &workload, const HardwareConfig &config,
            double sampling_rate, const KernelTrace *kernel);

    /** A profiler's way back to its whole trace: this->trace(). */
    GpuMechProfiler::TraceSource
    refetch(const Workload &workload, const HardwareConfig &config);

    std::atomic<std::size_t> traceByteTotal{0};
    std::atomic<std::size_t> profilerByteTotal{0};
    std::atomic<std::size_t> droppedTraces{0};

    MemoCache<KernelTrace> traces;
    MemoCache<CollectorResult> collected;
    // A profiler cannot move (its memos hold mutexes), so the caches
    // hold pointers to them.
    using ProfilerPtr = std::shared_ptr<const GpuMechProfiler>;
    MemoCache<ProfilerPtr> profilers;
    MemoCache<MrcProfile> mrcs;
    MemoCache<ProfilerPtr> mrcProfilers;
};

} // namespace gpumech

#endif // GPUMECH_HARNESS_INPUT_CACHE_HH
