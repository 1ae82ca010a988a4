#include "harness/input_cache.hh"

#include "collector/mrc_collector.hh"
#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"

namespace gpumech
{

namespace
{

/**
 * Cache observability, per key class. Lookups and misses are counted
 * separately (hits = lookups - misses); MemoCache never evicts on
 * capacity, so cache.evictions only counts entries dropped by an
 * explicit clear(). cache.trace.misses counts every trace generation,
 * kept or dropped; cache.trace.bytes is the flat-trace heap footprint
 * of the traces trace() keeps — what the cache is holding for reuse.
 */
struct CacheMetrics
{
    Counter traceLookups{"cache.trace.lookups"};
    Counter traceMisses{"cache.trace.misses"};
    Counter traceBytes{"cache.trace.bytes"};
    Counter collectorLookups{"cache.collector.lookups"};
    Counter collectorMisses{"cache.collector.misses"};
    Counter profilerLookups{"cache.profiler.lookups"};
    Counter profilerMisses{"cache.profiler.misses"};
    Counter mrcLookups{"cache.mrc.lookups"};
    Counter mrcMisses{"cache.mrc.misses"};
    Counter evictions{"cache.evictions"};
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

std::string
traceKeyOf(const Workload &workload, const HardwareConfig &config)
{
    return msg(workload.name, '|', config.traceKey());
}

/** One trace generation: a trace miss, kept or not. */
KernelTrace
generate(const Workload &workload, const HardwareConfig &config)
{
    cacheMetrics().traceMisses.add();
    Span span("parse", workload.name);
    evalCheckpoint(FaultSite::Parse);
    return workload.generate(config);
}

} // namespace

std::shared_ptr<const KernelTrace>
InputCache::trace(const Workload &workload,
                  const HardwareConfig &config)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().traceLookups.add();
    return traces.getOrCompute(traceKeyOf(workload, config), [&] {
        KernelTrace kernel = generate(workload, config);
        const std::size_t bytes = kernel.memoryFootprint();
        cacheMetrics().traceBytes.add(bytes);
        traceByteTotal += bytes;
        return kernel;
    });
}

std::shared_ptr<const KernelTrace>
InputCache::traceInHand(const Workload &workload,
                        const HardwareConfig &config)
{
    if (traces.contains(traceKeyOf(workload, config)))
        return trace(workload, config);
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().traceLookups.add();
    ++droppedTraces;
    return std::make_shared<const KernelTrace>(
        generate(workload, config));
}

GpuMechProfiler::TraceSource
InputCache::refetch(const Workload &workload,
                    const HardwareConfig &config)
{
    return [this, workload, config] { return trace(workload, config); };
}

std::shared_ptr<const CollectorResult>
InputCache::inputsFrom(const Workload &workload,
                       const HardwareConfig &config,
                       const KernelTrace &kernel)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().collectorLookups.add();
    return collected.getOrCompute(
        msg(workload.name, '|', config.collectorKey()), [&] {
            cacheMetrics().collectorMisses.add();
            Span span("collect", workload.name);
            return collectInputsParallel(kernel, config);
        });
}

std::shared_ptr<const GpuMechProfiler>
InputCache::profiler(const Workload &workload,
                     const HardwareConfig &config,
                     RepSelection selection,
                     std::uint32_t num_clusters)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().profilerLookups.add();
    std::string key =
        msg(workload.name, '|', config.collectorKey(),
            "|ir=", config.issueRate, '|', toString(selection), '|',
            num_clusters);
    return *profilers.getOrCompute(key, [&] {
        cacheMetrics().profilerMisses.add();
        std::shared_ptr<const KernelTrace> kernel =
            traceInHand(workload, config);
        std::shared_ptr<const CollectorResult> collected =
            inputsFrom(workload, config, *kernel);
        Span span("profile", workload.name);
        auto profiler = std::make_shared<const GpuMechProfiler>(
            *kernel, config, selection, num_clusters, 1,
            std::move(collected), nullptr, refetch(workload, config));
        profilerByteTotal += profiler->memoryFootprint();
        return profiler;
    });
}

std::shared_ptr<const MrcProfile>
InputCache::mrc(const Workload &workload, const HardwareConfig &config,
                double sampling_rate)
{
    return mrcFrom(workload, config, sampling_rate, nullptr);
}

std::shared_ptr<const MrcProfile>
InputCache::mrcFrom(const Workload &workload,
                    const HardwareConfig &config, double sampling_rate,
                    const KernelTrace *kernel)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().mrcLookups.add();
    return mrcs.getOrCompute(
        msg(workload.name, '|', config.traceKey(),
            "|mrc=", sampling_rate),
        [&] {
            cacheMetrics().mrcMisses.add();
            std::shared_ptr<const KernelTrace> held;
            if (kernel == nullptr) {
                held = traceInHand(workload, config);
                kernel = held.get();
            }
            Span span("mrc", workload.name);
            return collectMrcProfile(*kernel, config, sampling_rate);
        });
}

std::shared_ptr<const GpuMechProfiler>
InputCache::mrcProfiler(const Workload &workload,
                        const HardwareConfig &config,
                        double sampling_rate, RepSelection selection,
                        std::uint32_t num_clusters)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().profilerLookups.add();
    std::string key =
        msg(workload.name, '|', config.collectorKey(),
            "|ir=", config.issueRate, '|', toString(selection), '|',
            num_clusters, "|mrc=", sampling_rate);
    return *mrcProfilers.getOrCompute(key, [&] {
        cacheMetrics().profilerMisses.add();
        std::shared_ptr<const KernelTrace> kernel =
            traceInHand(workload, config);
        std::shared_ptr<const MrcProfile> profile =
            mrcFrom(workload, config, sampling_rate, kernel.get());
        Span span("profile", workload.name);
        auto profiler = std::make_shared<const GpuMechProfiler>(
            *kernel, config, selection, num_clusters, 1, nullptr,
            std::move(profile), refetch(workload, config));
        profilerByteTotal += profiler->memoryFootprint();
        return profiler;
    });
}

void
InputCache::clear()
{
    cacheMetrics().evictions.add(traces.size() + collected.size() +
                                 profilers.size() + mrcs.size() +
                                 mrcProfilers.size());
    traces.clear();
    collected.clear();
    profilers.clear();
    mrcs.clear();
    mrcProfilers.clear();
    traceByteTotal = 0;
    profilerByteTotal = 0;
    droppedTraces = 0;
}

} // namespace gpumech
