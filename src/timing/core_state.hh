/**
 * @file
 * Per-core state and warp scheduling for the timing simulator.
 *
 * Implements the two scheduling policies the paper models
 * (Section IV-A): round-robin (RR) issues one instruction per warp in
 * turn; greedy-then-oldest (GTO) keeps issuing from the current warp
 * until it stalls, then switches to the oldest ready warp.
 *
 * A core's per-cycle cost follows the warps that could issue, not the
 * warps resident: slot bitmasks record which warps have finished,
 * wait on a load, or are blocked on the MSHR file, and are updated by
 * the events that change those states (DESIGN.md §2, "Scheduler
 * state").
 */

#ifndef GPUMECH_TIMING_CORE_STATE_HH
#define GPUMECH_TIMING_CORE_STATE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "mem/mshr.hh"
#include "timing/warp_context.hh"

namespace gpumech
{

/** One bit per warp slot, in 64-bit words (no bound on warp count). */
class SlotMask
{
  public:
    void resize(std::size_t slots) { words.assign((slots + 63) / 64, 0); }

    void set(std::uint32_t slot) { words[slot >> 6] |= bit(slot); }
    void reset(std::uint32_t slot) { words[slot >> 6] &= ~bit(slot); }

    void
    assign(std::uint32_t slot, bool value)
    {
        if (value)
            set(slot);
        else
            reset(slot);
    }

    void clear() { std::fill(words.begin(), words.end(), 0); }

    bool
    any() const
    {
        return std::any_of(words.begin(), words.end(),
                           [](std::uint64_t w) { return w != 0; });
    }

    std::uint64_t word(std::size_t w) const { return words[w]; }
    std::size_t numWords() const { return words.size(); }

  private:
    static std::uint64_t bit(std::uint32_t slot)
    {
        return std::uint64_t(1) << (slot & 63);
    }

    std::vector<std::uint64_t> words;
};

/** Why a core did not issue, in descending priority. */
enum class StallKind
{
    Mshr,   //!< a warp is blocked on the MSHR file
    Sfu,    //!< a ready warp waits for the SFU
    Mem,    //!< a warp waits on an in-flight load
    Compute //!< warps wait on fixed-latency dependencies
};

/** All per-core mutable state. */
class CoreState
{
  public:
    CoreState(std::uint32_t core_id, std::uint32_t num_mshrs)
        : mshrs(num_mshrs), coreId(core_id)
    {}

    /** Warps resident on this core (index = warp slot). */
    std::vector<WarpContext> warps;

    /** L1 MSHR file. */
    MshrFile mshrs;

    /**
     * Earliest cycle this core could possibly issue again; the main
     * loop skips scheduling attempts before it. Reset by fills and by
     * successful issues.
     */
    std::uint64_t sleepUntil = 0;

    /**
     * Cycle until which the special function unit is occupied; an
     * SFU warp-instruction holds it for sfuOccupancyCycles().
     */
    std::uint64_t sfuBusyUntil = 0;

    std::uint32_t id() const { return coreId; }

    /** Size the slot masks; call once every warp is resident. */
    void initSlots();

    /** Every warp has issued its whole trace. */
    bool allIssued() const { return unfinished == 0; }

    // --- slot state; each call mirrors one WarpContext change ---

    /** The warp issued its last instruction. */
    void markFinished(std::uint32_t slot);

    /** The warp's numWaiting changed. */
    void
    syncWaiting(std::uint32_t slot)
    {
        waiting.assign(slot, warps[slot].numWaiting > 0);
    }

    /**
     * The warp's next line request found no free MSHR entry (true) or
     * can make progress (false). A blocked warp is not offered to the
     * scheduler again until an entry is retired.
     */
    void
    setMshrBlocked(std::uint32_t slot, bool blocked)
    {
        mshrBlocked.assign(slot, blocked);
        blockedThisEpoch.assign(slot, blocked);
    }

    /** An MSHR entry was retired: blocked warps may probe again. */
    void mshrEntryRetired() { blockedThisEpoch.clear(); }

    /** Some warp is blocked on the MSHR file. */
    bool anyMshrBlocked() const { return mshrBlocked.any(); }

    /** Some warp waits on an in-flight load. */
    bool anyWaiting() const { return waiting.any(); }

    /**
     * Call fn(slot) for each unfinished warp that neither waits on a
     * load nor is blocked on the MSHR file, in slot order.
     */
    template <typename Fn>
    void
    forEachIdle(Fn &&fn) const
    {
        for (std::size_t w = 0; w < finished.numWords(); ++w) {
            std::uint64_t bits = ~(finished.word(w) | waiting.word(w) |
                                   mshrBlocked.word(w));
            for (; bits != 0; bits &= bits - 1)
                fn(slotOf(w, bits));
        }
    }

    /**
     * Pick the warp slot to issue this cycle, or -1.
     *
     * Only candidates are offered to @p can_issue: unfinished warps
     * with no unresolved load dependency and no failed MSHR probe
     * since the last entry was retired. The simulator's check rejects
     * every other warp before changing any state, so skipping them
     * leaves the pick unchanged.
     *
     * @param policy scheduling policy
     * @param can_issue predicate: true when the slot can issue now
     *        (dependency- and resource-wise)
     */
    template <typename CanIssue>
    std::int32_t
    pick(SchedulingPolicy policy, CanIssue &&can_issue)
    {
        auto num = static_cast<std::uint32_t>(warps.size());
        if (num == 0)
            return -1;

        if (policy == SchedulingPolicy::RoundRobin) {
            // Scan starting after the last issuer; skipping stalled
            // warps in the same cycle models the "schedule until a
            // warp that can issue is found" behaviour of Section IV-A.
            auto start = static_cast<std::uint32_t>(lastIssuedSlot + 1) %
                         num;
            std::int32_t slot = firstCandidate(start, num, -1, can_issue);
            return slot >= 0 ? slot
                             : firstCandidate(0, start, -1, can_issue);
        }

        // Greedy-then-oldest: stay on the greedy warp while it can
        // issue.
        if (greedySlot >= 0) {
            auto greedy = static_cast<std::uint32_t>(greedySlot);
            if (isCandidate(greedy) && can_issue(greedy))
                return greedySlot;
        }
        // Otherwise the oldest warp (lowest slot: all warps launch
        // together, so slot order is age order) that can issue becomes
        // the new greedy warp.
        return firstCandidate(0, num, greedySlot, can_issue);
    }

    /**
     * Record that a slot issued (updates RR/GTO bookkeeping).
     *
     * @param count_inst false for replay waves of a partially
     *        dispatched load, which occupy an issue slot but are not
     *        a new instruction
     */
    void
    issued(std::uint32_t slot, bool count_inst = true)
    {
        lastIssuedSlot = static_cast<std::int32_t>(slot);
        greedySlot = static_cast<std::int32_t>(slot);
        if (count_inst)
            ++instsIssued;
    }

    /** Total instructions issued by this core. */
    std::uint64_t instsIssued = 0;

    /** Total active thread-instructions issued (SIMD efficiency). */
    std::uint64_t threadInstsIssued = 0;

    // --- measured stall accounting: cycles the core did not issue,
    //     classified by the blocking reason ---
    std::uint64_t stallMemCycles = 0;     //!< waiting on loads
    std::uint64_t stallComputeCycles = 0; //!< waiting on fixed latency
    std::uint64_t stallMshrCycles = 0;    //!< blocked on MSHR entries
    std::uint64_t stallSfuCycles = 0;     //!< blocked on the SFU

    /**
     * Open a stall span at @p cycle, after the core failed to issue or
     * a fill changed a stalled core: the span's cycles go to the
     * highest-priority StallKind that holds at @p cycle. A sleeping
     * core's state changes only by fills, so the kind is fixed until
     * the next fill or wake-up, except that an SFU stall begins once
     * an idle SFU warp's operands are ready (sfuStallFrom).
     */
    void openStall(std::uint64_t cycle);

    /** Charge the open span's cycles before @p cycle. */
    void settleStall(std::uint64_t cycle);

    /** Settle and close the span: the core tries to issue at @p cycle. */
    void
    closeStall(std::uint64_t cycle)
    {
        settleStall(cycle);
        stallSince = cycleUnknown;
    }

    /** A stall span is open. */
    bool stalled() const { return stallSince != cycleUnknown; }

    /**
     * Turn the open span into an SFU stall if it is due by @p cycle;
     * called at every simulated cycle the core sleeps.
     */
    void
    checkSfuStall(std::uint64_t cycle)
    {
        if (sfuStallFrom <= cycle) {
            settleStall(cycle);
            stallKind = StallKind::Sfu;
            sfuStallFrom = cycleUnknown;
        }
    }

  private:
    static std::uint32_t
    slotOf(std::size_t word, std::uint64_t bits)
    {
        return static_cast<std::uint32_t>(word * 64 +
                                          std::countr_zero(bits));
    }

    std::uint64_t
    candidateWord(std::size_t w) const
    {
        return ~(finished.word(w) | waiting.word(w) |
                 blockedThisEpoch.word(w));
    }

    bool
    isCandidate(std::uint32_t slot) const
    {
        return (candidateWord(slot >> 6) >> (slot & 63)) & 1;
    }

    /**
     * First candidate slot in [begin, end), other than @p skip, that
     * @p can_issue accepts, or -1. Visits candidates in slot order.
     */
    template <typename CanIssue>
    std::int32_t
    firstCandidate(std::uint32_t begin, std::uint32_t end,
                   std::int32_t skip, CanIssue &can_issue)
    {
        for (std::size_t w = begin >> 6; w * 64 < end; ++w) {
            std::uint64_t bits = candidateWord(w);
            if (w == begin >> 6)
                bits &= ~std::uint64_t(0) << (begin & 63);
            if ((w + 1) * 64 > end)
                bits &= (std::uint64_t(1) << (end & 63)) - 1;
            for (; bits != 0; bits &= bits - 1) {
                std::uint32_t slot = slotOf(w, bits);
                if (static_cast<std::int32_t>(slot) != skip &&
                    can_issue(slot)) {
                    return static_cast<std::int32_t>(slot);
                }
            }
        }
        return -1;
    }

    std::uint32_t coreId;

    /** Warps that have not issued their whole trace. */
    std::uint32_t unfinished = 0;

    /** Finished warps; slots past the last warp read as finished. */
    SlotMask finished;
    /** Warps whose numWaiting > 0. */
    SlotMask waiting;
    /** Warps whose last MSHR probe (or replay wave) found no entry. */
    SlotMask mshrBlocked;
    /** mshrBlocked warps blocked since the last entry was retired. */
    SlotMask blockedThisEpoch;

    /** Start of the open stall span, or cycleUnknown. */
    std::uint64_t stallSince = cycleUnknown;
    StallKind stallKind = StallKind::Compute;
    /** Cycle from which the open span counts as SFU stall. */
    std::uint64_t sfuStallFrom = cycleUnknown;

    /** RR pointer: last slot that issued. */
    std::int32_t lastIssuedSlot = -1;

    /** GTO: current greedy slot (-1 before first issue). */
    std::int32_t greedySlot = -1;
};

} // namespace gpumech

#endif // GPUMECH_TIMING_CORE_STATE_HH
