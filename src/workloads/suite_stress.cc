/**
 * @file
 * Stress kernels with strongly phased behaviour.
 *
 * The contention models aggregate resource demand in steady state
 * over the whole profile (DESIGN.md §"Implementation corrections"),
 * which deliberately washes out phase structure. These kernels put a
 * number on that trade-off: each alternates between a compute-only
 * phase and a memory-heavy phase, so per-phase contention differs
 * wildly from the kernel-wide average. They are not part of the
 * 40-kernel evaluation suite; the `phase_sensitivity` section of
 * bench/accuracy and the tests use them.
 */

#include "workloads/archetypes.hh"
#include "workloads/patterns.hh"
#include "workloads/workload.hh"

#include "common/rng.hh"
#include "trace/trace_builder.hh"

namespace gpumech
{

namespace
{

/** One phase of a phased kernel. */
struct PhaseSpec
{
    std::uint32_t iterations = 20;
    std::uint32_t loadsPerIter = 0;    //!< 0 = compute-only phase
    std::uint32_t loadDivergence = 1;
    std::uint32_t computePerIter = 6;
    std::uint32_t storesPerIter = 0;
    std::uint32_t storeDivergence = 1;
};

/**
 * Emit a kernel whose warps execute the given phases back to back.
 * Each phase gets its own static PCs so the per-PC latency table
 * keeps the phases' memory behaviour separate.
 */
KernelTrace
phasedKernel(const std::string &name,
             const std::vector<PhaseSpec> &phases,
             const HardwareConfig &config)
{
    KernelTrace kernel(name);

    struct PhasePcs
    {
        std::uint32_t load = 0;
        std::vector<std::uint32_t> compute;
        std::uint32_t store = 0;
    };
    std::vector<PhasePcs> pcs(phases.size());
    for (std::size_t p = 0; p < phases.size(); ++p) {
        if (phases[p].loadsPerIter > 0) {
            pcs[p].load = kernel.addStatic(
                Opcode::GlobalLoad, "p" + std::to_string(p) + "_ld");
        }
        for (std::uint32_t c = 0; c < phases[p].computePerIter; ++c) {
            pcs[p].compute.push_back(kernel.addStatic(
                c % 2 ? Opcode::FpAlu : Opcode::IntAlu));
        }
        if (phases[p].storesPerIter > 0) {
            pcs[p].store = kernel.addStatic(
                Opcode::GlobalStore, "p" + std::to_string(p) + "_st");
        }
    }

    constexpr Addr stream_base = 0x700000000ULL;
    constexpr Addr out_base = 0x800000000ULL;
    constexpr Addr slice = 8ULL << 20;

    // Phase structure is static, so the per-warp trace size is exact.
    TraceSizeHint hint;
    for (const PhaseSpec &phase : phases) {
        hint.instsPerWarp += std::uint64_t{phase.iterations} *
            (phase.loadsPerIter + phase.computePerIter +
             phase.storesPerIter);
        hint.linesPerWarp += std::uint64_t{phase.iterations} *
            (std::uint64_t{phase.loadsPerIter} * phase.loadDivergence +
             std::uint64_t{phase.storesPerIter} * phase.storeDivergence);
    }

    auto warp = [&](TraceBuilder &b, std::uint32_t w,
                    WarpScratch &scratch) {
        // Scratch buffers reused across every warp and iteration keep
        // the emission loop allocation-free in steady state.
        std::vector<Addr> &addrs = scratch.addrs;
        std::vector<Reg> &loaded = scratch.regs;
        Addr in_cursor = stream_base + static_cast<Addr>(w) * slice;
        Addr out_cursor = out_base + static_cast<Addr>(w) * slice;

        Reg carry = regNone;
        for (std::size_t p = 0; p < phases.size(); ++p) {
            const PhaseSpec &phase = phases[p];
            for (std::uint32_t it = 0; it < phase.iterations; ++it) {
                loaded.clear();
                for (std::uint32_t l = 0; l < phase.loadsPerIter;
                     ++l) {
                    divergentPattern(in_cursor, config.warpSize,
                                     phase.loadDivergence,
                                     config.l1LineBytes, addrs);
                    in_cursor += static_cast<Addr>(
                                     phase.loadDivergence) *
                                 config.l1LineBytes;
                    loaded.push_back(b.globalLoad(pcs[p].load, addrs));
                }
                Reg r = carry;
                for (std::uint32_t c = 0; c < phase.computePerIter;
                     ++c) {
                    Reg src = c < loaded.size() ? loaded[c] : r;
                    r = src != regNone
                        ? b.compute(pcs[p].compute[c], {src})
                        : b.compute(pcs[p].compute[c]);
                }
                carry = r;
                for (std::uint32_t s = 0; s < phase.storesPerIter;
                     ++s) {
                    divergentPattern(out_cursor, config.warpSize,
                                     phase.storeDivergence,
                                     config.l1LineBytes, addrs);
                    out_cursor += static_cast<Addr>(
                                      phase.storeDivergence) *
                                  config.l1LineBytes;
                    if (carry != regNone)
                        b.globalStore(pcs[p].store, addrs, {carry});
                    else
                        b.globalStore(pcs[p].store, addrs);
                }
            }
        }
    };
    emitWarps(kernel, config, 4, hint, warp);
    return kernel;
}

} // namespace

std::vector<Workload>
makeStressSuite()
{
    std::vector<Workload> suite;
    auto add = [&suite](std::string name, std::string desc,
                        auto generator) {
        suite.push_back(Workload{std::move(name), "stress",
                                 std::move(desc), false, true,
                                 std::move(generator)});
    };

    add("stress_two_phase",
        "long compute phase followed by a divergent memory phase",
        [](const HardwareConfig &c) {
            return phasedKernel(
                "stress_two_phase",
                {PhaseSpec{40, 0, 1, 8, 0, 1},
                 PhaseSpec{40, 2, 16, 3, 1, 8}},
                c);
        });

    add("stress_alternating",
        "compute and memory behaviour alternating every few "
        "iterations",
        [](const HardwareConfig &c) {
            std::vector<PhaseSpec> phases;
            for (int i = 0; i < 6; ++i) {
                phases.push_back(PhaseSpec{8, 0, 1, 8, 0, 1});
                phases.push_back(PhaseSpec{8, 1, 16, 3, 0, 1});
            }
            return phasedKernel("stress_alternating", phases, c);
        });

    add("stress_write_burst_tail",
        "quiet streaming followed by a divergent write burst",
        [](const HardwareConfig &c) {
            return phasedKernel(
                "stress_write_burst_tail",
                {PhaseSpec{50, 1, 1, 6, 0, 1},
                 PhaseSpec{12, 0, 1, 2, 3, 32}},
                c);
        });

    return suite;
}

} // namespace gpumech
