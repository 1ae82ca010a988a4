/**
 * @file
 * Parameterized kernel archetypes.
 *
 * Every named workload in the three suites is an instance of one of
 * these generators. The archetypes cover the trace-level behaviours
 * the paper's evaluation exercises: streaming loops with arbitrary
 * divergence / locality / store traffic and control divergence
 * (loopKernel), serial dependent loads (pointerChaseKernel), tree
 * reductions with shrinking active masks (reductionKernel), tiled
 * compute with software-managed memory (tiledMatmulKernel),
 * scatter-write transposes (transposeKernel), and random
 * read-modify-write histograms (histogramKernel).
 */

#ifndef GPUMECH_WORKLOADS_ARCHETYPES_HH
#define GPUMECH_WORKLOADS_ARCHETYPES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "trace/kernel_trace.hh"
#include "trace/trace_builder.hh"

namespace gpumech
{

/**
 * Workload-declared trace size hint: upper bounds on the per-warp
 * instruction count and coalesced line count. Generators pass these to
 * KernelTrace::reserveTrace() / TraceBuilder::reserve() so the flat
 * SoA arrays and the line arena are sized once up front instead of
 * growing geometrically during emission.
 */
struct TraceSizeHint
{
    std::uint64_t instsPerWarp = 0;
    std::uint64_t linesPerWarp = 0;
};

/** Scratch a warp body reuses across the warps one thread emits. */
struct WarpScratch
{
    std::vector<Addr> addrs; //!< per-thread addresses of one access
    std::vector<Reg> regs;   //!< registers held across one iteration
};

/**
 * Emits one warp's dynamic trace through @p b. A body reads only its
 * warp index and shared read-only state (the per-warp RNG stream is
 * seeded from the kernel name and the index), so warps can be emitted
 * in any order and on any thread.
 */
using WarpBody = std::function<void(TraceBuilder &b, std::uint32_t warp,
                                    WarpScratch &scratch)>;

/**
 * Emit every warp of @p kernel, whose static program is registered:
 * totalWarps(config) warps, warp w in block w / @p warps_per_block.
 * The flat storage is reserved once from @p hint. Warps are emitted in
 * bounded waves on the shared pool (inline for a handful of warps),
 * each into a reused per-slot buffer, and each wave is committed in
 * warp order with KernelTrace::appendWarps. The trace is bit-identical
 * to emitting the warps one after another, at any job count. The
 * deadline is checked once per wave, and pool workers run the body
 * under the caller's evaluation context.
 */
void emitWarps(KernelTrace &kernel, const HardwareConfig &config,
               std::uint32_t warps_per_block, const TraceSizeHint &hint,
               const WarpBody &body);

/** Parameters of the general streaming-loop archetype. */
struct LoopKernelParams
{
    // --- structure ---
    std::uint32_t iterations = 80;    //!< loop trips per warp
    std::uint32_t warpsPerBlock = 4;  //!< CTA size in warps

    // --- per-iteration instruction mix ---
    std::uint32_t loadsPerIter = 1;
    std::uint32_t computePerLoad = 4;     //!< chained on each load
    std::uint32_t independentCompute = 2; //!< not load-dependent
    double fpFraction = 0.75;             //!< FP share of compute
    std::uint32_t sfuPerIter = 0;
    std::uint32_t sharedPerIter = 0;      //!< shared-memory ops
    bool serialChain = false; //!< accumulator chain across iterations

    // --- load behaviour ---
    std::uint32_t loadDivergence = 1; //!< lines per load request
    /** Probability a load reads the kernel-wide hot set (L1 hits). */
    double hotFraction = 0.0;
    std::uint64_t hotBytes = 4 * 1024;
    /** Loads draw randomly from a kernel-shared region (L2 reuse). */
    bool sharedRegion = false;
    std::uint64_t sharedRegionBytes = 512 * 1024;

    // --- store behaviour ---
    std::uint32_t storesPerIter = 0;
    std::uint32_t storeDivergence = 1;

    // --- control divergence ---
    /** Per-warp iteration count varies by +/- this fraction. */
    double iterationVariance = 0.0;
    /** Fraction of warps executing an extra compute-heavy path. */
    double extraPathFraction = 0.0;
    std::uint32_t extraPathCompute = 8;
};

/** Build a streaming-loop kernel. */
KernelTrace loopKernel(const std::string &name,
                       const LoopKernelParams &params,
                       const HardwareConfig &config);

/** Per-warp trace size bound of a loopKernel instance. */
TraceSizeHint sizeHint(const LoopKernelParams &params);

/** Parameters of the pointer-chase (latency-bound) archetype. */
struct PointerChaseParams
{
    std::uint32_t chainLength = 150;     //!< serial dependent loads
    std::uint32_t computeBetween = 2;    //!< compute between hops
    std::uint64_t regionBytes = 64 << 20; //!< pointer pool size
    std::uint32_t divergence = 1;
    std::uint32_t warpsPerBlock = 4;
};

/** Build a pointer-chasing kernel (every load depends on the last). */
KernelTrace pointerChaseKernel(const std::string &name,
                               const PointerChaseParams &params,
                               const HardwareConfig &config);

/** Per-warp trace size bound of a pointerChaseKernel instance. */
TraceSizeHint sizeHint(const PointerChaseParams &params);

/** Parameters of the tree-reduction archetype. */
struct ReductionParams
{
    std::uint32_t loadsPerWarp = 64; //!< coalesced element loads
    std::uint32_t levels = 5;        //!< tree levels (mask halves)
    bool useShared = true;           //!< stage partials in shared mem
    std::uint32_t warpsPerBlock = 4;
};

/** Build a reduction kernel with a shrinking active mask. */
KernelTrace reductionKernel(const std::string &name,
                            const ReductionParams &params,
                            const HardwareConfig &config);

/** Per-warp trace size bound of a reductionKernel instance. */
TraceSizeHint sizeHint(const ReductionParams &params);

/** Parameters of the tiled-matmul (compute-bound) archetype. */
struct TiledMatmulParams
{
    std::uint32_t tiles = 24;        //!< outer-loop tiles
    std::uint32_t fmaPerTile = 16;   //!< FMA chain per tile
    std::uint32_t sharedPerTile = 8; //!< shared-memory traffic
    std::uint32_t warpsPerBlock = 4;
};

/** Build a tiled dense-matmul-style kernel. */
KernelTrace tiledMatmulKernel(const std::string &name,
                              const TiledMatmulParams &params,
                              const HardwareConfig &config);

/** Per-warp trace size bound of a tiledMatmulKernel instance. */
TraceSizeHint sizeHint(const TiledMatmulParams &params);

/** Parameters of the transpose archetype. */
struct TransposeParams
{
    std::uint32_t tilesPerWarp = 48;
    bool viaShared = false; //!< stage through shared memory
    std::uint32_t warpsPerBlock = 4;
};

/**
 * Build a matrix-transpose kernel: coalesced loads, fully divergent
 * (degree-32) stores in the naive variant; shared-memory staging with
 * coalesced stores in the optimized variant.
 */
KernelTrace transposeKernel(const std::string &name,
                            const TransposeParams &params,
                            const HardwareConfig &config);

/** Per-warp trace size bound of a transposeKernel instance. */
TraceSizeHint sizeHint(const TransposeParams &params,
                       const HardwareConfig &config);

/** Parameters of the histogram archetype. */
struct HistogramParams
{
    std::uint32_t iterations = 70;
    std::uint32_t updatesPerIter = 1; //!< read-modify-write pairs
    std::uint64_t binBytes = 256 * 1024;
    std::uint32_t degree = 16;
    std::uint32_t warpsPerBlock = 4;
};

/** Build a histogram kernel: random scatter read-modify-writes. */
KernelTrace histogramKernel(const std::string &name,
                            const HistogramParams &params,
                            const HardwareConfig &config);

/** Per-warp trace size bound of a histogramKernel instance. */
TraceSizeHint sizeHint(const HistogramParams &params);

/** Total warps for a configuration (numCores * warpsPerCore). */
std::uint32_t totalWarps(const HardwareConfig &config);

} // namespace gpumech

#endif // GPUMECH_WORKLOADS_ARCHETYPES_HH
