/**
 * @file
 * The interval algorithm (paper Section III-B).
 *
 * Traverses one warp's trace assuming in-order execution at the
 * configured issue rate and forms intervals wherever the dependence-
 * constrained issue cycle of an instruction leaves a gap (Eq. 4):
 *
 *   issue(k+1) = max(issue(k) + 1, done(source of k+1) + 1)
 *
 * Instruction latencies come from the input collector: fixed latencies
 * for compute PCs, AMAT for memory PCs. The traversal reads the
 * kernel's SoA field arrays through the warp view, so the hot loop
 * touches dense memory only.
 *
 * One traversal has two outputs: a warp's full interval profile
 * (buildIntervalProfile), which the multi-warp model reads for the
 * representative warp only, or just the warp's stall-cycle total, which
 * is all representative selection needs (buildAllFeatures).
 */

#ifndef GPUMECH_CORE_INTERVAL_BUILDER_HH
#define GPUMECH_CORE_INTERVAL_BUILDER_HH

#include <vector>

#include "collector/input_collector.hh"
#include "core/interval.hh"
#include "trace/kernel_trace.hh"

namespace gpumech
{

/**
 * Build the interval profile of one warp.
 *
 * @param warp view of the warp's dynamic trace
 * @param inputs per-PC latencies and miss profiles from the collector
 * @param config machine description (issue rate)
 */
IntervalProfile buildIntervalProfile(const WarpView &warp,
                                     const CollectorResult &inputs,
                                     const HardwareConfig &config);

/**
 * Build the interval profiles of every warp in a kernel, serially:
 * the reference that buildAllFeatures and the trace-layout goldens
 * are tested against.
 */
std::vector<IntervalProfile>
buildAllProfiles(const KernelTrace &kernel, const CollectorResult &inputs,
                 const HardwareConfig &config);

/**
 * Warp count below which buildAllFeatures runs serially: the pool
 * handoff costs more than profiling a handful of warps.
 */
inline constexpr std::uint32_t parallelWarpThreshold = 32;

/**
 * Reduce every warp of a kernel to its Eq. 6 inputs. Runs the same
 * Eq. 4 walk as buildIntervalProfile but only sums stall cycles, so no
 * interval is allocated or annotated; element w equals
 * {warpPerf(issueRate), totalInsts()} of warp w's profile bit for bit.
 *
 * Each warp's walk is independent, so warps run on the shared thread
 * pool with chunked dynamic scheduling (the speedup opportunity
 * Section VI-D notes but does not explore), each thread reusing one
 * scratch buffer. Kernels under parallelWarpThreshold warps run
 * serially. Results do not depend on the thread count.
 *
 * @param num_threads total threads; 1 = serial, 0 = defaultJobs()
 */
std::vector<WarpFeatures>
buildAllFeatures(const KernelTrace &kernel, const CollectorResult &inputs,
                 const HardwareConfig &config, unsigned num_threads = 0);

} // namespace gpumech

#endif // GPUMECH_CORE_INTERVAL_BUILDER_HH
