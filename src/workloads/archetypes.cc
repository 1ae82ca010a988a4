#include "workloads/archetypes.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "workloads/patterns.hh"

namespace gpumech
{

namespace
{

// Disjoint base addresses of the synthetic address space.
constexpr Addr streamBase = 0x100000000ULL; //!< per-warp input slices
constexpr Addr hotBase = 0x200000000ULL;    //!< kernel-wide hot set
constexpr Addr sharedBase = 0x300000000ULL; //!< kernel-shared region
constexpr Addr outBase = 0x400000000ULL;    //!< per-warp output slices
constexpr Addr chaseBase = 0x500000000ULL;  //!< pointer pool
constexpr Addr binsBase = 0x600000000ULL;   //!< histogram bins

/** Generous per-warp slice so streams never alias. */
constexpr Addr warpSlice = 8ULL << 20;

/** Deterministic per-warp RNG derived from the kernel name. */
Rng
warpRng(const std::string &name, std::uint32_t warp_id)
{
    Rng seed_rng = Rng::fromString(name);
    return Rng(seed_rng.next() ^
               (0x9e3779b97f4a7c15ULL * (warp_id + 1)));
}

/** Compute opcode for slot i under an FP share. */
Opcode
computeOp(std::uint32_t i, double fp_fraction)
{
    double position = (static_cast<double>(i % 8) + 0.5) / 8.0;
    return position < fp_fraction ? Opcode::FpAlu : Opcode::IntAlu;
}

/**
 * Warps per pool thread in one emission wave. The wave's buffers are
 * the only trace memory beyond the kernel's own arrays, so this bounds
 * them; fewer warps per wave pay more for the wave's barrier and tail.
 */
constexpr std::uint32_t waveWarpsPerJob = 16;

/** Kernels with fewer warps are emitted inline, without the pool. */
constexpr std::uint32_t inlineWarps = 16;

} // namespace

std::uint32_t
totalWarps(const HardwareConfig &config)
{
    return config.numCores * config.warpsPerCore;
}

void
emitWarps(KernelTrace &kernel, const HardwareConfig &config,
          std::uint32_t warps_per_block, const TraceSizeHint &hint,
          const WarpBody &body)
{
    const std::uint32_t num_warps = totalWarps(config);
    kernel.reserveTrace(num_warps, num_warps * hint.instsPerWarp,
                        num_warps * hint.linesPerWarp);
    // jobs 1 runs both the emission and the commit inline; jobs 0 is
    // the shared pool at defaultJobs().
    const unsigned jobs = num_warps < inlineWarps ? 1 : 0;
    const std::uint32_t wave = std::min(
        num_warps, waveWarpsPerJob * (jobs == 1 ? 1 : defaultJobs()));
    // Slots are sized here, on the calling thread, so their memory
    // comes from its heap rather than from each worker's.
    std::vector<WarpTrace> slots(wave);
    for (WarpTrace &slot : slots)
        slot.reserve(hint.instsPerWarp, hint.linesPerWarp);
    // Checkpoints read a thread-local frame; carry the caller's onto
    // the pool workers so a body's checkpoints see it.
    const EvalContext *caller = currentEvalContext();
    for (std::uint32_t first = 0; first < num_warps; first += wave) {
        deadlineCheckpoint();
        const std::uint32_t count = std::min(wave, num_warps - first);
        parallelFor(
            count,
            [&](std::size_t i) {
                std::optional<ScopedEvalContext> scope;
                if (caller)
                    scope.emplace(caller->kernel, caller->token,
                                  caller->plan);
                thread_local WarpScratch scratch;
                const std::uint32_t w =
                    first + static_cast<std::uint32_t>(i);
                TraceBuilder b(kernel, slots[i], w, w / warps_per_block,
                               config);
                b.reserve(hint.instsPerWarp, hint.linesPerWarp);
                body(b, w, scratch);
                b.finish();
            },
            1, jobs);
        kernel.appendWarps(slots.data(), count, jobs);
    }
}

TraceSizeHint
sizeHint(const LoopKernelParams &params)
{
    TraceSizeHint hint;
    std::uint64_t per_iter = params.independentCompute +
        std::uint64_t{params.loadsPerIter} * (1 + params.computePerLoad) +
        params.sfuPerIter + params.sharedPerIter + params.storesPerIter +
        1; // loop branch
    if (params.extraPathFraction > 0.0)
        per_iter += params.extraPathCompute;
    // Iteration variance scales the trip count by at most (1 + v).
    auto iters = static_cast<std::uint64_t>(std::ceil(
        params.iterations * (1.0 + params.iterationVariance)));
    hint.instsPerWarp = iters * per_iter;
    hint.linesPerWarp = iters *
        (std::uint64_t{params.loadsPerIter} * params.loadDivergence +
         std::uint64_t{params.storesPerIter} * params.storeDivergence);
    return hint;
}

TraceSizeHint
sizeHint(const PointerChaseParams &params)
{
    TraceSizeHint hint;
    hint.instsPerWarp =
        std::uint64_t{params.chainLength} * (1 + params.computeBetween);
    hint.linesPerWarp =
        std::uint64_t{params.chainLength} * params.divergence;
    return hint;
}

TraceSizeHint
sizeHint(const ReductionParams &params)
{
    TraceSizeHint hint;
    hint.instsPerWarp = std::uint64_t{params.loadsPerWarp} * 2 +
        (params.useShared ? std::uint64_t{params.levels} * 3 : 0) +
        std::uint64_t{params.warpsPerBlock} * 2 + 1;
    hint.linesPerWarp =
        params.loadsPerWarp + params.warpsPerBlock + 1;
    return hint;
}

TraceSizeHint
sizeHint(const TiledMatmulParams &params)
{
    TraceSizeHint hint;
    hint.instsPerWarp = std::uint64_t{params.tiles} *
            (3 + params.sharedPerTile + params.fmaPerTile) +
        1;
    hint.linesPerWarp = std::uint64_t{params.tiles} * 2 + 1;
    return hint;
}

TraceSizeHint
sizeHint(const TransposeParams &params, const HardwareConfig &config)
{
    TraceSizeHint hint;
    std::uint64_t per_tile_insts = params.viaShared ? 6 : 4;
    std::uint64_t per_tile_lines =
        params.viaShared ? 2 : 1 + std::uint64_t{config.warpSize};
    hint.instsPerWarp = params.tilesPerWarp * per_tile_insts;
    hint.linesPerWarp = params.tilesPerWarp * per_tile_lines;
    return hint;
}

TraceSizeHint
sizeHint(const HistogramParams &params)
{
    TraceSizeHint hint;
    hint.instsPerWarp = std::uint64_t{params.iterations} *
        (3 + std::uint64_t{params.updatesPerIter} * 3);
    hint.linesPerWarp = std::uint64_t{params.iterations} *
        (1 + std::uint64_t{params.updatesPerIter} * 2 * params.degree);
    return hint;
}

KernelTrace
loopKernel(const std::string &name, const LoopKernelParams &params,
           const HardwareConfig &config)
{
    if (params.iterations == 0)
        panic("loopKernel: iterations must be positive");

    KernelTrace kernel(name);

    // ---- static program ----
    std::vector<std::uint32_t> pc_indep;
    for (std::uint32_t i = 0; i < params.independentCompute; ++i) {
        pc_indep.push_back(kernel.addStatic(
            computeOp(i, params.fpFraction), "indep" + std::to_string(i)));
    }
    std::vector<std::uint32_t> pc_load;
    std::vector<std::vector<std::uint32_t>> pc_chain(params.loadsPerIter);
    for (std::uint32_t l = 0; l < params.loadsPerIter; ++l) {
        pc_load.push_back(kernel.addStatic(Opcode::GlobalLoad,
                                           "load" + std::to_string(l)));
        for (std::uint32_t c = 0; c < params.computePerLoad; ++c) {
            pc_chain[l].push_back(kernel.addStatic(
                computeOp(c + l, params.fpFraction),
                "chain" + std::to_string(l) + "_" + std::to_string(c)));
        }
    }
    std::vector<std::uint32_t> pc_sfu;
    for (std::uint32_t i = 0; i < params.sfuPerIter; ++i)
        pc_sfu.push_back(kernel.addStatic(Opcode::Sfu));
    std::vector<std::uint32_t> pc_shared;
    for (std::uint32_t i = 0; i < params.sharedPerIter; ++i) {
        pc_shared.push_back(kernel.addStatic(
            i % 2 ? Opcode::SharedLoad : Opcode::SharedStore));
    }
    std::vector<std::uint32_t> pc_store;
    for (std::uint32_t i = 0; i < params.storesPerIter; ++i)
        pc_store.push_back(kernel.addStatic(Opcode::GlobalStore));
    std::vector<std::uint32_t> pc_extra;
    for (std::uint32_t i = 0; i < params.extraPathCompute; ++i) {
        pc_extra.push_back(kernel.addStatic(
            computeOp(i, params.fpFraction), "extra"));
    }
    std::uint32_t pc_branch = kernel.addStatic(Opcode::Branch, "loop");

    // ---- per-warp traces ----
    auto warp = [&](TraceBuilder &b, std::uint32_t w,
                    WarpScratch &scratch) {
        // Scratch reused across warps; the emission loop never
        // allocates.
        std::vector<Addr> &addrs = scratch.addrs;
        std::vector<Reg> &loaded = scratch.regs;
        Rng rng = warpRng(name, w);

        std::uint32_t iters = params.iterations;
        if (params.iterationVariance > 0.0) {
            double u = rng.nextDouble() * 2.0 - 1.0;
            double scaled = static_cast<double>(params.iterations) *
                            (1.0 + params.iterationVariance * u);
            iters = std::max<std::uint32_t>(
                4, static_cast<std::uint32_t>(std::lround(scaled)));
        }
        bool heavy_path = params.extraPathFraction > 0.0 &&
                          rng.nextBool(params.extraPathFraction);

        Addr stream_cursor = streamBase + static_cast<Addr>(w) * warpSlice;
        Addr out_cursor = outBase + static_cast<Addr>(w) * warpSlice;

        Reg carry = regNone;
        for (std::uint32_t it = 0; it < iters; ++it) {
            // Independent compute (address arithmetic etc.).
            Reg indep = carry;
            for (std::uint32_t i = 0; i < params.independentCompute;
                 ++i) {
                indep = indep == regNone
                    ? b.compute(pc_indep[i])
                    : b.compute(pc_indep[i], {indep});
            }

            // Loads first (memory-level parallelism within the
            // iteration), then the dependent compute chains.
            loaded.clear();
            for (std::uint32_t l = 0; l < params.loadsPerIter; ++l) {
                if (params.hotFraction > 0.0 &&
                    rng.nextBool(params.hotFraction)) {
                    randomDivergentPattern(
                        rng, hotBase, params.hotBytes, config.warpSize,
                        params.loadDivergence, config.l1LineBytes,
                        addrs);
                } else if (params.sharedRegion) {
                    randomDivergentPattern(
                        rng, sharedBase, params.sharedRegionBytes,
                        config.warpSize, params.loadDivergence,
                        config.l1LineBytes, addrs);
                } else {
                    divergentPattern(stream_cursor, config.warpSize,
                                     params.loadDivergence,
                                     config.l1LineBytes, addrs);
                    stream_cursor += static_cast<Addr>(
                                         params.loadDivergence) *
                                     config.l1LineBytes;
                }
                loaded.push_back(b.globalLoad(pc_load[l], addrs));
            }

            Reg chain_last = regNone;
            for (std::uint32_t l = 0; l < params.loadsPerIter; ++l) {
                Reg c = loaded[l];
                for (std::uint32_t k = 0; k < params.computePerLoad;
                     ++k) {
                    c = params.serialChain && carry != regNone
                        ? b.compute(pc_chain[l][k], {c, carry})
                        : b.compute(pc_chain[l][k], {c});
                }
                chain_last = c;
                if (params.serialChain)
                    carry = c;
            }
            if (!params.serialChain)
                carry = chain_last != regNone ? chain_last : indep;

            for (std::uint32_t i = 0; i < params.sfuPerIter; ++i) {
                carry = carry == regNone
                    ? b.compute(pc_sfu[i])
                    : b.compute(pc_sfu[i], {carry});
            }
            for (std::uint32_t i = 0; i < params.sharedPerIter; ++i) {
                Reg r = carry == regNone
                    ? b.compute(pc_shared[i])
                    : b.compute(pc_shared[i], {carry});
                if (r != regNone)
                    carry = r;
            }

            for (std::uint32_t i = 0; i < params.storesPerIter; ++i) {
                divergentPattern(out_cursor, config.warpSize,
                                 params.storeDivergence,
                                 config.l1LineBytes, addrs);
                out_cursor += static_cast<Addr>(params.storeDivergence) *
                              config.l1LineBytes;
                if (carry != regNone)
                    b.globalStore(pc_store[i], addrs, {carry});
                else
                    b.globalStore(pc_store[i], addrs);
            }

            if (heavy_path) {
                Reg e = carry;
                for (std::uint32_t i = 0; i < params.extraPathCompute;
                     ++i) {
                    e = e == regNone ? b.compute(pc_extra[i])
                                     : b.compute(pc_extra[i], {e});
                }
                carry = e;
            }

            b.compute(pc_branch, {});
        }
    };
    emitWarps(kernel, config, params.warpsPerBlock, sizeHint(params),
              warp);
    return kernel;
}

KernelTrace
pointerChaseKernel(const std::string &name,
                   const PointerChaseParams &params,
                   const HardwareConfig &config)
{
    KernelTrace kernel(name);
    std::uint32_t pc_load = kernel.addStatic(Opcode::GlobalLoad, "hop");
    std::vector<std::uint32_t> pc_comp;
    for (std::uint32_t i = 0; i < params.computeBetween; ++i)
        pc_comp.push_back(kernel.addStatic(Opcode::IntAlu));

    auto warp = [&](TraceBuilder &b, std::uint32_t w,
                    WarpScratch &scratch) {
        std::vector<Addr> &addrs = scratch.addrs;
        Rng rng = warpRng(name, w);

        Reg ptr = regNone;
        for (std::uint32_t hop = 0; hop < params.chainLength; ++hop) {
            randomDivergentPattern(rng, chaseBase, params.regionBytes,
                                   config.warpSize, params.divergence,
                                   config.l1LineBytes, addrs);
            ptr = ptr == regNone ? b.globalLoad(pc_load, addrs)
                                 : b.globalLoad(pc_load, addrs, {ptr});
            for (std::uint32_t i = 0; i < params.computeBetween; ++i)
                ptr = b.compute(pc_comp[i], {ptr});
        }
    };
    emitWarps(kernel, config, params.warpsPerBlock, sizeHint(params),
              warp);
    return kernel;
}

KernelTrace
reductionKernel(const std::string &name, const ReductionParams &params,
                const HardwareConfig &config)
{
    KernelTrace kernel(name);
    std::uint32_t pc_load = kernel.addStatic(Opcode::GlobalLoad, "elem");
    std::uint32_t pc_add = kernel.addStatic(Opcode::FpAlu, "acc");
    std::uint32_t pc_sst = kernel.addStatic(Opcode::SharedStore);
    std::uint32_t pc_sld = kernel.addStatic(Opcode::SharedLoad);
    std::uint32_t pc_lvl = kernel.addStatic(Opcode::FpAlu, "lvl");
    std::uint32_t pc_fin_ld = kernel.addStatic(Opcode::GlobalLoad, "fin");
    std::uint32_t pc_fin_add = kernel.addStatic(Opcode::FpAlu);
    std::uint32_t pc_st = kernel.addStatic(Opcode::GlobalStore);

    auto warp = [&](TraceBuilder &b, std::uint32_t w,
                    WarpScratch &scratch) {
        std::vector<Addr> &addrs = scratch.addrs;
        Addr cursor = streamBase + static_cast<Addr>(w) * warpSlice;

        // Phase 1: accumulate coalesced elements.
        Reg acc = regNone;
        for (std::uint32_t i = 0; i < params.loadsPerWarp; ++i) {
            coalescedPattern(cursor, config.warpSize, 4, addrs);
            cursor += config.l1LineBytes;
            Reg v = b.globalLoad(pc_load, addrs);
            acc = acc == regNone ? v : b.compute(pc_add, {acc, v});
        }

        // Phase 2: tree reduction with a shrinking active mask.
        if (params.useShared) {
            std::uint32_t active = config.warpSize;
            for (std::uint32_t level = 0; level < params.levels;
                 ++level) {
                active = std::max<std::uint32_t>(active / 2, 1);
                b.compute(pc_sst, {acc}, active);
                Reg other = b.compute(pc_sld, {}, active);
                acc = b.compute(pc_lvl, {acc, other}, active);
            }
        }

        // Warp 0 of each block reduces the block partials: a distinct
        // (heavier) control path for a subset of warps.
        if (w % params.warpsPerBlock == 0) {
            for (std::uint32_t i = 0; i + 1 < params.warpsPerBlock;
                 ++i) {
                coalescedPattern(
                    sharedBase + static_cast<Addr>(w) * 4096, 1, 4,
                    addrs);
                Reg part = b.globalLoad(pc_fin_ld, addrs);
                acc = b.compute(pc_fin_add, {acc, part}, 1);
            }
        }
        coalescedPattern(outBase + static_cast<Addr>(w) * 128, 1, 4,
                         addrs);
        b.globalStore(pc_st, addrs, {acc});
    };
    emitWarps(kernel, config, params.warpsPerBlock, sizeHint(params),
              warp);
    return kernel;
}

KernelTrace
tiledMatmulKernel(const std::string &name,
                  const TiledMatmulParams &params,
                  const HardwareConfig &config)
{
    KernelTrace kernel(name);
    std::uint32_t pc_ld_a = kernel.addStatic(Opcode::GlobalLoad, "tileA");
    std::uint32_t pc_ld_b = kernel.addStatic(Opcode::GlobalLoad, "tileB");
    std::uint32_t pc_sst = kernel.addStatic(Opcode::SharedStore);
    std::uint32_t pc_sld = kernel.addStatic(Opcode::SharedLoad);
    std::uint32_t pc_fma = kernel.addStatic(Opcode::FpAlu, "fma");
    std::uint32_t pc_idx = kernel.addStatic(Opcode::IntAlu, "idx");
    std::uint32_t pc_st = kernel.addStatic(Opcode::GlobalStore, "out");

    // Tiles live in a region sized to enjoy L2 (but not L1) reuse.
    constexpr std::uint64_t matrix_bytes = 8ULL << 20;
    auto warp = [&](TraceBuilder &b, std::uint32_t w,
                    WarpScratch &scratch) {
        std::vector<Addr> &addrs = scratch.addrs;
        Rng rng = warpRng(name, w);

        Reg acc = regNone;
        for (std::uint32_t t = 0; t < params.tiles; ++t) {
            Reg i0 = b.compute(pc_idx, {});
            Addr tile_a = sharedBase +
                          rng.nextBelow(matrix_bytes / 4096) * 4096;
            Addr tile_b = sharedBase + matrix_bytes +
                          rng.nextBelow(matrix_bytes / 4096) * 4096;
            coalescedPattern(tile_a, config.warpSize, 4, addrs);
            Reg a = b.globalLoad(pc_ld_a, addrs, {i0});
            coalescedPattern(tile_b, config.warpSize, 4, addrs);
            Reg bb = b.globalLoad(pc_ld_b, addrs, {i0});
            for (std::uint32_t s = 0; s < params.sharedPerTile; ++s) {
                Reg r = b.compute(s % 2 ? pc_sld : pc_sst,
                                  {s % 2 == 0 && s == 0 ? a : bb});
                if (r != regNone)
                    bb = r;
            }
            Reg c = acc == regNone ? b.compute(pc_fma, {a, bb})
                                   : b.compute(pc_fma, {a, bb, acc});
            for (std::uint32_t f = 1; f < params.fmaPerTile; ++f)
                c = b.compute(pc_fma, {c, bb});
            acc = c;
        }
        coalescedPattern(outBase + static_cast<Addr>(w) * 128,
                         config.warpSize, 4, addrs);
        b.globalStore(pc_st, addrs, {acc});
    };
    emitWarps(kernel, config, params.warpsPerBlock, sizeHint(params),
              warp);
    return kernel;
}

KernelTrace
transposeKernel(const std::string &name, const TransposeParams &params,
                const HardwareConfig &config)
{
    KernelTrace kernel(name);
    std::uint32_t pc_ld = kernel.addStatic(Opcode::GlobalLoad, "row");
    std::uint32_t pc_idx = kernel.addStatic(Opcode::IntAlu);
    std::uint32_t pc_idx2 = kernel.addStatic(Opcode::IntAlu);
    std::uint32_t pc_sst = kernel.addStatic(Opcode::SharedStore);
    std::uint32_t pc_sld = kernel.addStatic(Opcode::SharedLoad);
    std::uint32_t pc_st = kernel.addStatic(Opcode::GlobalStore, "col");

    auto warp = [&](TraceBuilder &b, std::uint32_t w,
                    WarpScratch &scratch) {
        std::vector<Addr> &addrs = scratch.addrs;
        Addr in_cursor = streamBase + static_cast<Addr>(w) * warpSlice;
        Addr out_cursor = outBase + static_cast<Addr>(w) * warpSlice;

        for (std::uint32_t t = 0; t < params.tilesPerWarp; ++t) {
            coalescedPattern(in_cursor, config.warpSize, 4, addrs);
            Reg v = b.globalLoad(pc_ld, addrs);
            in_cursor += config.l1LineBytes;
            Reg i = b.compute(pc_idx, {v});
            i = b.compute(pc_idx2, {i});
            if (params.viaShared) {
                b.compute(pc_sst, {i});
                Reg s = b.compute(pc_sld, {});
                coalescedPattern(out_cursor, config.warpSize, 4,
                                 addrs);
                b.globalStore(pc_st, addrs, {s});
                out_cursor += config.l1LineBytes;
            } else {
                // Column-order store: one line per thread.
                stridedPattern(out_cursor, config.warpSize,
                               config.l1LineBytes, addrs);
                b.globalStore(pc_st, addrs, {i});
                out_cursor += static_cast<Addr>(config.warpSize) *
                              config.l1LineBytes;
            }
        }
    };
    emitWarps(kernel, config, params.warpsPerBlock,
              sizeHint(params, config), warp);
    return kernel;
}

KernelTrace
histogramKernel(const std::string &name, const HistogramParams &params,
                const HardwareConfig &config)
{
    KernelTrace kernel(name);
    std::uint32_t pc_data = kernel.addStatic(Opcode::GlobalLoad, "data");
    std::uint32_t pc_hash = kernel.addStatic(Opcode::IntAlu);
    std::uint32_t pc_hash2 = kernel.addStatic(Opcode::IntAlu);
    std::uint32_t pc_bin_ld = kernel.addStatic(Opcode::GlobalLoad, "bin");
    std::uint32_t pc_inc = kernel.addStatic(Opcode::IntAlu);
    std::uint32_t pc_bin_st = kernel.addStatic(Opcode::GlobalStore,
                                               "bin");

    auto warp = [&](TraceBuilder &b, std::uint32_t w,
                    WarpScratch &scratch) {
        std::vector<Addr> &addrs = scratch.addrs;
        Rng rng = warpRng(name, w);
        Addr cursor = streamBase + static_cast<Addr>(w) * warpSlice;

        for (std::uint32_t it = 0; it < params.iterations; ++it) {
            coalescedPattern(cursor, config.warpSize, 4, addrs);
            Reg v = b.globalLoad(pc_data, addrs);
            cursor += config.l1LineBytes;
            Reg h = b.compute(pc_hash, {v});
            h = b.compute(pc_hash2, {h});
            for (std::uint32_t u = 0; u < params.updatesPerIter; ++u) {
                randomDivergentPattern(rng, binsBase, params.binBytes,
                                       config.warpSize, params.degree,
                                       config.l1LineBytes, addrs);
                Reg old = b.globalLoad(pc_bin_ld, addrs, {h});
                Reg inc = b.compute(pc_inc, {old});
                b.globalStore(pc_bin_st, addrs, {inc});
            }
        }
    };
    emitWarps(kernel, config, params.warpsPerBlock, sizeHint(params),
              warp);
    return kernel;
}

} // namespace gpumech
