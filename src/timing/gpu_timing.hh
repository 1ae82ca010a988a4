/**
 * @file
 * Detailed cycle-level GPU timing simulator — the validation oracle.
 *
 * Plays the role of Macsim in the paper's evaluation (Section VI-A):
 * in-order SIMT cores with issue width 1 (Table I), RR or GTO warp
 * scheduling, per-core L1s with a finite MSHR file, a shared L2, and a
 * bandwidth-limited DRAM channel. Loads stall dependents until their
 * slowest coalesced request fills; stores bypass the MSHRs and stream
 * to DRAM, consuming bandwidth without stalling the issuing warp.
 */

#ifndef GPUMECH_TIMING_GPU_TIMING_HH
#define GPUMECH_TIMING_GPU_TIMING_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "common/config.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "timing/core_state.hh"
#include "trace/kernel_trace.hh"

namespace gpumech
{

/** Results of one timing simulation. */
struct TimingStats
{
    std::uint64_t totalCycles = 0; //!< kernel execution cycles
    std::uint64_t totalInsts = 0;  //!< warp-instructions issued
    std::uint64_t threadInsts = 0; //!< thread-instructions (active lanes)
    std::uint32_t warpSize = 32;   //!< lanes per warp (for efficiency)
    std::uint32_t coresUsed = 0;   //!< cores with at least one warp

    // memory system
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    double avgDramQueueDelay = 0.0; //!< mean cycles a request queued
    std::uint32_t mshrPeak = 0;     //!< peak MSHR occupancy (any core)
    std::uint64_t mshrAllocs = 0;
    std::uint64_t mshrMerges = 0;

    // Measured stall breakdown: cycles cores spent unable to issue,
    // classified by the dominant blocking reason (summed over cores).
    // Together with the issue cycles (totalInsts) these account for
    // every core-cycle up to the drain tail.
    std::uint64_t stallMemCycles = 0;     //!< waiting on loads
    std::uint64_t stallComputeCycles = 0; //!< fixed-latency deps
    std::uint64_t stallMshrCycles = 0;    //!< MSHR file exhausted
    std::uint64_t stallSfuCycles = 0;     //!< SFU occupied

    /** Measured per-instruction breakdown (per-core CPI shares). */
    double memStallCpi() const;
    double computeStallCpi() const;
    double mshrStallCpi() const;
    double sfuStallCpi() const;

    /**
     * Average per-core CPI: cycles divided by the average number of
     * instructions a core issued. This is the quantity GPUMech
     * predicts (its multi-warp model describes one core).
     */
    double cpi() const;

    /** Aggregate IPC across the whole GPU. */
    double ipc() const;

    /**
     * SIMD lane utilization: active thread-instructions over
     * warp-instructions * warpSize. 1.0 means no intra-warp
     * control divergence.
     */
    double simdEfficiency() const;
};

/** One run of the detailed simulator over a kernel trace. */
class GpuTiming
{
  public:
    /**
     * @param kernel the trace to execute (must outlive the simulator)
     * @param config machine description (Table I or a sweep point)
     * @param policy warp scheduling policy
     */
    GpuTiming(const KernelTrace &kernel, const HardwareConfig &config,
              SchedulingPolicy policy);

    /** Execute to completion and return the statistics. */
    TimingStats run();

  private:
    struct FillEvent
    {
        std::uint64_t cycle;
        std::uint32_t core;
        Addr line;

        bool
        operator>(const FillEvent &other) const
        {
            return cycle > other.cycle;
        }
    };

    /**
     * Dependency/resource check used by the scheduler; only called on
     * CoreState::pick's candidates.
     */
    bool canIssue(CoreState &core, std::uint32_t slot,
                  std::uint64_t cycle);

    /** Issue the chosen instruction and schedule its completion. */
    void doIssue(CoreState &core, std::uint32_t slot,
                 std::uint64_t cycle);

    /** Apply one fill: retire MSHR entry, complete waiting loads. */
    void handleFill(const FillEvent &event);

    /** Record an instruction completion and wake its warp if waiting. */
    void complete(CoreState &core, std::uint32_t slot,
                  std::uint64_t inst_idx, std::uint64_t done);

    /** Recompute the warp's next-instruction readiness after an issue. */
    void updateReadiness(CoreState &core, std::uint32_t slot,
                         std::uint64_t cycle);

    /**
     * Earliest future cycle at which anything can happen, or
     * cycleUnknown.
     */
    std::uint64_t nextInterestingCycle(std::uint64_t cycle) const;

    const KernelTrace &kernel;
    HardwareConfig config;
    SchedulingPolicy policy;

    FunctionalHierarchy hierarchy;
    DramChannel dram;
    std::vector<CoreState> cores;
    std::priority_queue<FillEvent, std::vector<FillEvent>,
                        std::greater<FillEvent>> events;

    std::uint64_t maxDone = 0;
    std::uint64_t outstandingLoads = 0;
};

} // namespace gpumech

#endif // GPUMECH_TIMING_GPU_TIMING_HH
