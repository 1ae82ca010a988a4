/**
 * @file
 * Interval profile data structures (paper Eq. 2).
 *
 * An interval is a run of instructions issued back-to-back at the
 * maximum issue rate, followed by stall cycles. The profile of a warp
 * is the ordered list of its intervals; it is the only thing the
 * multi-warp model needs about a warp.
 */

#ifndef GPUMECH_CORE_INTERVAL_HH
#define GPUMECH_CORE_INTERVAL_HH

#include <cstdint>
#include <vector>

namespace gpumech
{

/** What ended an interval (used for CPI-stack attribution). */
enum class StallCause : std::uint8_t
{
    None,    //!< final interval: trace ended without a stall
    Compute, //!< dependence on a compute instruction (DEP category)
    Memory,  //!< dependence on a global load (split by miss events)
};

/** One interval of a warp (Eq. 2 entry plus model annotations). */
struct Interval
{
    /** Instructions issued at full rate in this interval. */
    std::uint64_t numInsts = 0;

    /** Stall cycles following the last instruction. */
    double stallCycles = 0.0;

    /** What the stall was waiting on. */
    StallCause cause = StallCause::None;

    /** PC of the load causing a Memory stall (valid iff Memory). */
    std::uint32_t causePc = 0;

    // ---- contention-model annotations (from the input collector) ----

    /** Expected L1-missing load requests issued in this interval. */
    double mshrReqs = 0.0;

    /** Expected DRAM-bound requests (load L2 misses + all stores). */
    double dramReqs = 0.0;

    /** Expected number of L1-missing load instructions. */
    double memInsts = 0.0;

    /** SFU instructions in this interval (extension: SFU model). */
    double sfuInsts = 0.0;
};

/**
 * Warp performance (Eq. 5): IPC of a warp that issues @p insts
 * instructions at @p issue_rate and stalls @p stall_cycles cycles in
 * total; 0 when the warp takes no cycles.
 */
double warpPerf(std::uint64_t insts, double stall_cycles,
                double issue_rate);

/**
 * A warp reduced to the two inputs of representative selection
 * (Eq. 6), bit-identical to its profile's warpPerf() and totalInsts().
 */
struct WarpFeatures
{
    double perf = 0.0;       //!< warp performance (Eq. 5)
    std::uint64_t insts = 0; //!< instruction count
};

/** Interval profile of one warp (Eq. 2). */
struct IntervalProfile
{
    std::uint32_t warpId = 0;
    std::vector<Interval> intervals;

    /** Total instructions across intervals. */
    std::uint64_t totalInsts() const;

    /** Total stall cycles across intervals. */
    double totalStallCycles() const;

    /**
     * Total single-warp execution cycles:
     * sum(insts / issue_rate + stalls).
     */
    double totalCycles(double issue_rate) const;

    /**
     * Warp performance — IPC of the warp running alone (Eq. 5); also
     * the issue probability of Eq. 9.
     */
    double warpPerf(double issue_rate) const;

    /** This warp's Eq. 6 inputs: {warpPerf(), totalInsts()}. */
    WarpFeatures features(double issue_rate) const;

    /** Average instructions per interval (Eq. 13). */
    double avgIntervalInsts() const;
};

} // namespace gpumech

#endif // GPUMECH_CORE_INTERVAL_HH
