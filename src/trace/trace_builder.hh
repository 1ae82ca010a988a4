/**
 * @file
 * Register-dataflow trace builder.
 *
 * Workload generators write natural register code (each emit returns a
 * virtual register; sources are registers produced earlier) and the
 * builder converts the register dataflow into the trace-index
 * dependency edges the interval algorithm consumes. This plays the
 * role of GPUOcelot's dependency tagging (Section V-A).
 *
 * The builder's emit path is allocation-free in steady state: lines
 * are coalesced into a reused scratch buffer and appended to the
 * warp's line arena, and dependency resolution reuses a scratch
 * index vector. Generators that know their instruction counts should
 * call reserve() so the per-warp arrays never reallocate either.
 */

#ifndef GPUMECH_TRACE_TRACE_BUILDER_HH
#define GPUMECH_TRACE_TRACE_BUILDER_HH

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "trace/kernel_trace.hh"

namespace gpumech
{

/** Virtual register handle returned by TraceBuilder emits. */
using Reg = std::int64_t;

/** Sentinel register for instructions that produce no value. */
constexpr Reg regNone = -1;

/**
 * Builds one warp's dynamic trace against a kernel's static program.
 *
 * Example:
 * @code
 *   KernelTrace kernel("axpy");
 *   auto pc_ld = kernel.addStatic(Opcode::GlobalLoad);
 *   auto pc_mul = kernel.addStatic(Opcode::FpAlu);
 *   auto pc_st = kernel.addStatic(Opcode::GlobalStore);
 *
 *   TraceBuilder b(kernel, 0, 0, config);
 *   Reg x = b.globalLoad(pc_ld, addrs);
 *   Reg y = b.compute(pc_mul, {x});
 *   b.globalStore(pc_st, out_addrs, {y});
 *   b.finish();
 * @endcode
 */
class TraceBuilder
{
  public:
    /**
     * @param kernel the kernel the warp belongs to (static program
     *               must already contain the PCs that will be emitted)
     * @param warp_id kernel-global warp index
     * @param block_id owning thread block
     * @param config provides warp size and L1 line size for coalescing
     */
    TraceBuilder(KernelTrace &kernel, std::uint32_t warp_id,
                 std::uint32_t block_id, const HardwareConfig &config);

    /**
     * Build into a caller-owned buffer instead: @p out is cleared
     * (its capacity kept) and holds the warp after finish(), which
     * appends nothing to @p kernel. This form only reads the kernel,
     * so several warps can be built at once against one static
     * program (see emitWarps in workloads/archetypes.hh).
     */
    TraceBuilder(const KernelTrace &kernel, WarpTrace &out,
                 std::uint32_t warp_id, std::uint32_t block_id,
                 const HardwareConfig &config);

    TraceBuilder(const TraceBuilder &) = delete;
    TraceBuilder &operator=(const TraceBuilder &) = delete;

    /**
     * Pre-size the warp's instruction array and line arena from a
     * workload-declared hint (upper bounds are fine; this only avoids
     * geometric-reallocation copies during emission).
     */
    void reserve(std::size_t num_insts, std::size_t num_lines);

    /**
     * Emit a non-global-memory instruction (ALU, SFU, branch, shared
     * memory) reading the given source registers.
     *
     * @param pc static instruction id
     * @param srcs source registers (regNone entries are ignored)
     * @param active_threads active mask population; defaults to a full
     *        warp
     * @return the destination register
     */
    Reg compute(std::uint32_t pc, std::initializer_list<Reg> srcs = {},
                std::uint32_t active_threads = 0);

    /** As above with sources in a container (no copy is taken). */
    Reg compute(std::uint32_t pc, const std::vector<Reg> &srcs,
                std::uint32_t active_threads = 0);

    /**
     * Emit a global load. Per-thread addresses are coalesced into line
     * requests; the number of active threads is the address count.
     *
     * @param pc static instruction id (must be a GlobalLoad)
     * @param thread_addrs one byte address per active thread
     * @param srcs address-generation source registers
     * @return the destination register holding the loaded value
     */
    Reg globalLoad(std::uint32_t pc, const std::vector<Addr> &thread_addrs,
                   std::initializer_list<Reg> srcs = {});

    /** As above with sources in a container (no copy is taken). */
    Reg globalLoad(std::uint32_t pc, const std::vector<Addr> &thread_addrs,
                   const std::vector<Reg> &srcs);

    /**
     * Emit a global store (produces no register).
     *
     * @param pc static instruction id (must be a GlobalStore)
     * @param thread_addrs one byte address per active thread
     * @param srcs data and address source registers
     */
    void globalStore(std::uint32_t pc, const std::vector<Addr> &thread_addrs,
                     std::initializer_list<Reg> srcs = {});

    /** As above with sources in a container (no copy is taken). */
    void globalStore(std::uint32_t pc, const std::vector<Addr> &thread_addrs,
                     const std::vector<Reg> &srcs);

    /** Number of instructions emitted so far. */
    std::size_t size() const { return trace.insts.size(); }

    /**
     * Finalize the warp and append it to the kernel (or leave it in
     * the caller's buffer). Nothing may be emitted afterwards.
     */
    void finish();

  private:
    /** Append an instruction, resolving register deps to trace indices. */
    Reg append(std::uint32_t pc, Opcode op, const Reg *srcs,
               std::size_t num_srcs, std::uint32_t active_threads,
               const Addr *lines, std::uint32_t num_lines, bool produces);

    const KernelTrace &kernel;
    KernelTrace *sink; //!< finish() appends here; null for a buffer
    const HardwareConfig &config;
    /** Storage of a warp built for the kernel (unused for a buffer). */
    WarpTrace own;
    /** The warp under construction: own, or the caller's buffer. */
    WarpTrace &trace;
    /**
     * Producing trace index for each virtual register, indexed by the
     * register number (registers are issued densely by nextReg, so a
     * flat array replaces a hash map in the per-instruction path).
     */
    std::vector<std::int32_t> producer;
    /** Reused per-instruction coalescing buffer (no per-emit alloc). */
    std::vector<Addr> lineScratch;
    /** Reused dependency-resolution buffer. */
    std::vector<std::int32_t> depScratch;
    Reg nextReg = 0;
    bool finished = false;
};

} // namespace gpumech

#endif // GPUMECH_TRACE_TRACE_BUILDER_HH
