#include "core/gpumech.hh"

#include "collector/mrc_collector.hh"
#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/trace_span.hh"

namespace gpumech
{

std::string
toString(ModelLevel level)
{
    switch (level) {
      case ModelLevel::MT:
        return "MT";
      case ModelLevel::MT_MSHR:
        return "MT_MSHR";
      case ModelLevel::MT_MSHR_BAND:
        return "MT_MSHR_BAND";
    }
    return "?";
}

namespace
{

/** Assemble a result from a representative profile and inputs. */
GpuMechResult
assemble(const IntervalProfile &rep, std::uint32_t rep_index,
         const CollectorResult &inputs, const HardwareConfig &config,
         SchedulingPolicy policy, ModelLevel level, bool model_sfu)
{
    // The multi-warp + contention model evaluation — cheap analytic
    // math, but it runs once per sweep point, so it gets its own
    // stage span (the kernel name lives on the enclosing "kernel"
    // span installed by the harness).
    Span span("contention");

    GpuMechResult result;
    result.repWarpIndex = rep_index;
    result.repWarpPerf = rep.warpPerf(config.issueRate);
    result.repNumIntervals = rep.intervals.size();

    result.multithreading = modelMultithreading(
        rep, config.warpsPerCore, config, policy);
    result.cpiMultithreading = result.multithreading.cpi;

    bool mshr = level != ModelLevel::MT;
    bool band = level == ModelLevel::MT_MSHR_BAND;
    result.contention =
        modelContention(rep, result.multithreading, inputs, config,
                        mshr, band, model_sfu);
    result.cpiContention = result.contention.cpi;

    // Eq. 3.
    result.cpi = result.cpiMultithreading + result.cpiContention;
    result.ipc = result.cpi > 0.0 ? 1.0 / result.cpi : 0.0;

    result.stack = buildCpiStack(rep, inputs, config,
                                 result.multithreading,
                                 result.contention);
    return result;
}

} // namespace

namespace
{

/** Memo key of a representative-warp profile: inputs + issue rate. */
std::string
repKey(const HardwareConfig &config)
{
    return msg(config.collectorKey(), "|ir=", config.issueRate);
}

/**
 * A one-warp trace: @p kernel's name and static program plus warp
 * @p index (as warp 0, with its id and block). The interval builder
 * and the collector-result derivation read nothing else.
 */
KernelTrace
sliceWarp(const KernelTrace &kernel, std::uint32_t index)
{
    KernelTrace slice(kernel.name());
    for (const StaticInst &inst : kernel.staticInsts())
        slice.addStatic(inst.op, inst.label);
    const WarpView warp = kernel.warp(index);
    const std::uint64_t first = kernel.instOffsetOf(index);
    const std::uint64_t end = first + warp.numInsts();
    auto window = [&](const auto &column) {
        return std::vector(column.begin() + first, column.begin() + end);
    };
    std::vector<Addr> lines;
    for (std::uint64_t i = first; i < end; ++i) {
        LineSpan span = kernel.linesOfFlat(i);
        lines.insert(lines.end(), span.begin(), span.end());
    }
    slice
        .adoptColumns({warp.warpId()}, {warp.blockId()},
                      {static_cast<std::uint32_t>(warp.numInsts())},
                      window(kernel.instPcs()),
                      window(kernel.instActives()),
                      window(kernel.instDeps()),
                      window(kernel.instLineCounts()), std::move(lines))
        .orDie();
    return slice;
}

/** A source that hands back the caller's own trace, unowned. */
GpuMechProfiler::TraceSource
callerTrace(const KernelTrace &kernel)
{
    return [&kernel] {
        return std::shared_ptr<const KernelTrace>(
            std::shared_ptr<const KernelTrace>(), &kernel);
    };
}

} // namespace

GpuMechProfiler::GpuMechProfiler(
    const KernelTrace &kernel, const HardwareConfig &config,
    RepSelection selection, std::uint32_t num_clusters,
    unsigned profile_threads,
    std::shared_ptr<const CollectorResult> precollected,
    std::shared_ptr<const MrcProfile> mrc, TraceSource refetch)
    : config(config),
      fullTrace(refetch ? std::move(refetch) : callerTrace(kernel)),
      mrcProfile(std::move(mrc)), warps(kernel.numWarps()),
      insts(kernel.totalInsts())
{
    if (kernel.numWarps() == 0) {
        // Thrown (not fatal) so the per-kernel containment boundary in
        // the harness can fail just this kernel.
        throw StatusException(
            Status(StatusCode::FailedValidation,
                   msg("GpuMechProfiler: kernel '", kernel.name(),
                       "' has no warps")));
    }
    if (precollected) {
        collected = std::move(precollected);
    } else if (mrcProfile) {
        Span span("derive", kernel.name());
        collected = std::make_shared<const CollectorResult>(
            deriveCollectorResult(*mrcProfile, kernel, config));
    } else {
        Span span("collect", kernel.name());
        collected = std::make_shared<const CollectorResult>(
            collectInputsParallel(kernel, config, profile_threads));
    }
    {
        // Select on the per-warp Eq. 6 inputs, then build the one
        // interval profile anything reads.
        Span span("profile", kernel.name());
        repWarp = selectRepresentative(
            buildAllFeatures(kernel, *collected, config,
                             profile_threads),
            selection, num_clusters);
        slice = sliceWarp(kernel, repWarp);
        representative = std::make_shared<const IntervalProfile>(
            buildIntervalProfile(slice.warp(0), *collected, config));
    }
    // Seed the evaluateAt memos with the profiling configuration's
    // artifacts so re-evaluating at (or near) it is free.
    collectorMemo.put(config.collectorKey(), collected);
    repMemo.put(repKey(config), representative);
}

std::size_t
GpuMechProfiler::memoryFootprint() const
{
    return slice.memoryFootprint() +
           representative->intervals.capacity() * sizeof(Interval);
}

GpuMechResult
GpuMechProfiler::evaluate(SchedulingPolicy policy, ModelLevel level,
                          bool model_sfu) const
{
    return assemble(*representative, repWarp, *collected, config,
                    policy, level, model_sfu);
}

GpuMechResult
GpuMechProfiler::evaluateAt(const HardwareConfig &new_config,
                            SchedulingPolicy policy, ModelLevel level,
                            bool model_sfu) const
{
    // Re-collect cache behaviour and rebuild only the representative
    // warp's interval profile at the new configuration (Section VI-D:
    // clustering and the remaining warps' profiles are per-input work
    // and are reused). Both steps are memoized by the configuration
    // fields they read, so sweeping model-only parameters or repeating
    // a configuration skips them entirely.
    std::shared_ptr<const CollectorResult> new_inputs =
        collectorMemo.getOrCompute(new_config.collectorKey(), [&] {
            if (mrcProfile) {
                Span span("derive", slice.name());
                return deriveCollectorResult(*mrcProfile, slice,
                                             new_config);
            }
            std::shared_ptr<const KernelTrace> kernel = fullTrace();
            Span span("collect", slice.name());
            return collectInputsParallel(*kernel, new_config);
        });
    std::shared_ptr<const IntervalProfile> rep =
        repMemo.getOrCompute(repKey(new_config), [&] {
            Span span("profile", slice.name());
            return buildIntervalProfile(slice.warp(0), *new_inputs,
                                        new_config);
        });
    return assemble(*rep, repWarp, *new_inputs, new_config, policy,
                    level, model_sfu);
}

GpuMechResult
runGpuMech(const KernelTrace &kernel, const HardwareConfig &config,
           const GpuMechOptions &options)
{
    GpuMechProfiler profiler(kernel, config, options.selection,
                             options.numClusters);
    return profiler.evaluate(options.policy, options.level,
                             options.modelSfu);
}

} // namespace gpumech
