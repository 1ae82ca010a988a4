/**
 * @file
 * Per-warp execution state in the timing simulator.
 */

#ifndef GPUMECH_TIMING_WARP_CONTEXT_HH
#define GPUMECH_TIMING_WARP_CONTEXT_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "trace/kernel_trace.hh"

namespace gpumech
{

/** doneCycle value for an instruction whose completion is not known. */
constexpr std::uint64_t cycleUnknown =
    std::numeric_limits<std::uint64_t>::max();

/**
 * Execution state of one warp resident on a core.
 *
 * The warp issues its trace in order. readyCycle is the earliest cycle
 * the next instruction may issue given its already-resolved
 * dependencies; unresolved dependencies (outstanding loads) are listed
 * in waitingOn and cleared as fills arrive.
 */
struct WarpContext
{
    /** View of the warp's trace window in the kernel's SoA arrays. */
    WarpView trace;

    /** Index of the next instruction to issue. */
    std::uint64_t nextIdx = 0;

    /** Completion cycle of each issued instruction. */
    std::vector<std::uint64_t> doneCycle;

    /**
     * Outstanding fill count per issued load (0 when complete); as
     * wide as a trace's per-instruction line count.
     */
    std::vector<std::uint32_t> pendingFills;

    /** Latest fill cycle observed so far per in-flight load. */
    std::vector<std::uint64_t> fillHighWater;

    /**
     * Earliest issue cycle of the next instruction from resolved
     * dependencies (issue-after-done+1 rule, Eq. 4 semantics).
     */
    std::uint64_t readyCycle = 0;

    /** Trace indices of unresolved (in-flight) dependencies. */
    std::array<std::int64_t, 3> waitingOn = {-1, -1, -1};
    std::uint32_t numWaiting = 0;

    /**
     * Dispatch progress of the current (partially issued) load: index
     * of the first line request not yet sent to the memory system.
     * Divergent loads whose fresh misses exceed the free MSHRs are
     * replayed in waves, like real hardware.
     */
    std::uint32_t lineCursor = 0;

    bool
    finishedIssuing() const
    {
        return trace.valid() && nextIdx >= trace.numInsts();
    }

    /** Opcode of the next instruction to issue. */
    Opcode nextOp() const { return trace.op(nextIdx); }

    /** Line requests of the next instruction to issue. */
    LineSpan nextLines() const { return trace.lines(nextIdx); }
};

} // namespace gpumech

#endif // GPUMECH_TIMING_WARP_CONTEXT_HH
