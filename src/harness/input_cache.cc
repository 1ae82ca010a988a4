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
 * explicit clear(). cache.trace.bytes is the flat-trace heap footprint
 * of freshly generated traces — what the cache is holding for reuse.
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

} // namespace

std::shared_ptr<const KernelTrace>
InputCache::trace(const Workload &workload,
                  const HardwareConfig &config)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().traceLookups.add();
    return traces.getOrCompute(
        msg(workload.name, '|', config.traceKey()), [&] {
            cacheMetrics().traceMisses.add();
            Span span("parse", workload.name);
            evalCheckpoint(FaultSite::Parse);
            KernelTrace kernel = workload.generate(config);
            const std::size_t bytes = kernel.memoryFootprint();
            cacheMetrics().traceBytes.add(bytes);
            traceByteTotal += bytes;
            return kernel;
        });
}

std::shared_ptr<const CollectorResult>
InputCache::inputs(const Workload &workload,
                   const HardwareConfig &config)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().collectorLookups.add();
    return collected.getOrCompute(
        msg(workload.name, '|', config.collectorKey()), [&] {
            cacheMetrics().collectorMisses.add();
            std::shared_ptr<const KernelTrace> kernel =
                trace(workload, config);
            Span span("collect", workload.name);
            return collectInputsParallel(*kernel, config);
        });
}

ProfiledKernel
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
    auto entry = profilers.getOrCompute(key, [&] {
        cacheMetrics().profilerMisses.add();
        ProfiledKernel pk;
        pk.trace = trace(workload, config);
        std::shared_ptr<const CollectorResult> collected =
            inputs(workload, config);
        Span span("profile", workload.name);
        pk.profiler = std::make_shared<const GpuMechProfiler>(
            *pk.trace, config, selection, num_clusters, 1,
            std::move(collected));
        profilerByteTotal += pk.profiler->memoryFootprint();
        return pk;
    });
    return *entry;
}

std::shared_ptr<const MrcProfile>
InputCache::mrc(const Workload &workload, const HardwareConfig &config,
                double sampling_rate)
{
    evalCheckpoint(FaultSite::Cache);
    cacheMetrics().mrcLookups.add();
    return mrcs.getOrCompute(
        msg(workload.name, '|', config.traceKey(),
            "|mrc=", sampling_rate),
        [&] {
            cacheMetrics().mrcMisses.add();
            std::shared_ptr<const KernelTrace> kernel =
                trace(workload, config);
            Span span("mrc", workload.name);
            return collectMrcProfile(*kernel, config, sampling_rate);
        });
}

ProfiledKernel
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
    auto entry = mrcProfilers.getOrCompute(key, [&] {
        cacheMetrics().profilerMisses.add();
        ProfiledKernel pk;
        pk.trace = trace(workload, config);
        std::shared_ptr<const MrcProfile> profile =
            mrc(workload, config, sampling_rate);
        Span span("profile", workload.name);
        pk.profiler = std::make_shared<const GpuMechProfiler>(
            *pk.trace, config, selection, num_clusters, 1, nullptr,
            std::move(profile));
        profilerByteTotal += pk.profiler->memoryFootprint();
        return pk;
    });
    return *entry;
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
}

} // namespace gpumech
