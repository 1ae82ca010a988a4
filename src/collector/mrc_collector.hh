/**
 * @file
 * One-pass reuse-distance profiling and miss-ratio-curve derivation
 * (the MRC fast path for cache-geometry sweeps).
 *
 * collectMrcProfile() makes one profiling pass in the serial
 * collector's round-robin warp/core interleave — each core's L1
 * stream in parallel, then the merged stream — and records, per
 * static PC, joint (per-core, merged-stream) LRU stack distances for
 * every sampled load line request plus exact execution and load/store
 * counts. Stores mirror the simulated collector:
 * write-through/no-allocate, so they never touch the trackers.
 *
 * deriveCollectorResult() then prices ANY cache geometry against the
 * profile in O(histogram) time, producing a CollectorResult with the
 * same shape the functional simulation produces, so the rest of the
 * pipeline (interval profiles, multithreading/contention models, CPI
 * stacks) is unchanged. A cache-geometry sweep becomes one profiling
 * pass plus one cheap derivation per cell instead of one full
 * functional simulation per cell.
 *
 * Exact vs approximate: see mem/mrc.hh. The derivation is exact for
 * unsampled profiles on fully-associative LRU geometries (L1 always;
 * the full hierarchy whenever L1 filters nothing from the L2 stream);
 * sampling, set-associative geometry (balanced-mapping conversion),
 * and
 * non-LRU replacement are approximations, reported in
 * CollectorResult::mrcApproximate / mrcApproximation.
 */

#ifndef GPUMECH_COLLECTOR_MRC_COLLECTOR_HH
#define GPUMECH_COLLECTOR_MRC_COLLECTOR_HH

#include "collector/input_collector.hh"
#include "mem/mrc.hh"

namespace gpumech
{

/**
 * Profile a kernel's reuse distances in one walk.
 *
 * The walk reads only trace-shaping configuration (core/warp mapping,
 * line size — HardwareConfig::traceKey() fields), never cache
 * geometry, so one profile serves every geometry sweep cell.
 *
 * @param sampling_rate SHARDS spatial sampling rate in (0, 1];
 *        1.0 records every line (exact mode)
 */
MrcProfile collectMrcProfile(const KernelTrace &kernel,
                             const HardwareConfig &config,
                             double sampling_rate = 1.0);

/**
 * Derive the collector result for an arbitrary cache geometry from a
 * reuse-distance profile.
 *
 * Requires config.l1LineBytes == config.l2LineBytes ==
 * profile.lineBytes (distances are measured in lines of one size);
 * throws StatusException(InvalidArgument) otherwise — the line-size
 * axis needs --sweep-mode=rerun.
 */
CollectorResult deriveCollectorResult(const MrcProfile &profile,
                                      const KernelTrace &kernel,
                                      const HardwareConfig &config);

} // namespace gpumech

#endif // GPUMECH_COLLECTOR_MRC_COLLECTOR_HH
