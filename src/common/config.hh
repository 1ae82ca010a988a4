/**
 * @file
 * Hardware configuration of the modeled GPU (paper Table I), and the
 * knob table: the fields that overrides, sweep and tune set by name.
 */

#ifndef GPUMECH_COMMON_CONFIG_HH
#define GPUMECH_COMMON_CONFIG_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/status.hh"

namespace gpumech
{

/**
 * Generation token of the flat SoA trace layout. Appears in
 * HardwareConfig::traceKey() (so the InputCache never serves a trace
 * whose in-memory layout predates the current engine) and in the .gmt
 * binary trace header (so an on-disk trace packed under a different
 * layout generation is refused at load rather than misdecoded). Bump
 * when the SoA schema changes.
 */
inline constexpr char traceLayoutToken[] = "soa1";

/** Warp scheduling policies modeled by GPUMech (Section IV-A). */
enum class SchedulingPolicy
{
    RoundRobin,      //!< issue one instruction per warp in turn
    GreedyThenOldest //!< greedy on the current warp, then oldest ready
};

/** Human-readable policy name ("RR" / "GTO"). */
std::string toString(SchedulingPolicy policy);

/**
 * Static instruction latencies in core cycles, "modeled according to
 * the CUDA manual" (Table I: normal FP instructions are 25 cycles).
 */
struct LatencyTable
{
    std::uint32_t intAlu = 20;    //!< integer ALU operation
    std::uint32_t fpAlu = 25;     //!< normal floating-point operation
    std::uint32_t sfu = 40;       //!< special function unit (sin, rsqrt..)
    std::uint32_t sharedMem = 30; //!< 16KB software-managed cache access
    std::uint32_t branch = 20;    //!< branch / control instruction
};

/**
 * Largest cache size in KB that a sweep or tune value may name: its
 * byte count must fit the 32-bit l1SizeBytes / l2SizeBytes fields.
 */
inline constexpr std::uint32_t maxCacheKb = 0xffffffffu / 1024;

/**
 * The modeled machine (paper Table I).
 *
 * All latencies are in core cycles at coreFreqGhz. The same structure
 * configures the detailed timing simulator (the oracle), the
 * functional cache simulation in the input collector, and the
 * analytical models, so a sweep point changes every component
 * coherently.
 */
struct HardwareConfig
{
    // --- organization ---
    std::uint32_t numCores = 16;      //!< number of SM cores
    double coreFreqGhz = 1.0;         //!< core clock
    std::uint32_t simtWidth = 32;     //!< SIMT lanes
    std::uint32_t warpSize = 32;      //!< threads per warp
    std::uint32_t warpsPerCore = 32;  //!< max threads 1024 / warp size 32
    std::uint32_t issueWidth = 1;     //!< warp-instructions per cycle
    double issueRate = 1.0;           //!< sustained issue rate (inst/cyc)

    // --- instruction latencies ---
    LatencyTable latency;

    /**
     * Special-function-unit lanes per core. The paper assumes a
     * balanced design where normal-operation resources never contend
     * (Section IV-B), which corresponds to sfuLanes == warpSize (one
     * cycle of SFU occupancy per warp instruction). Setting fewer
     * lanes makes an SFU warp-instruction occupy the unit for
     * warpSize / sfuLanes cycles — the structural contention the
     * paper's future-work note proposes to model.
     */
    std::uint32_t sfuLanes = 32;

    /** Cycles one SFU warp-instruction occupies the SFU. */
    std::uint32_t
    sfuOccupancyCycles() const
    {
        return (warpSize + sfuLanes - 1) / sfuLanes;
    }

    // --- L1 data cache (per core) ---
    std::uint32_t l1SizeBytes = 32 * 1024;
    std::uint32_t l1LineBytes = 128;
    std::uint32_t l1Assoc = 8;
    std::uint32_t l1HitLatency = 25;   //!< cycles, total from issue
    std::uint32_t numMshrs = 32;       //!< L1 MSHR entries per core

    /**
     * Cache replacement policy index, shared by L1 and L2:
     * 0 = LRU (default), 1 = FIFO, 2 = pseudo-random, 3 = ARC
     * (adaptive replacement). Kept as an integer here to avoid a
     * header cycle with mem/cache.hh; the hierarchy translates it.
     */
    std::uint32_t replacementPolicy = 0;

    // --- L2 cache (shared) ---
    std::uint32_t l2SizeBytes = 768 * 1024;
    std::uint32_t l2LineBytes = 128;
    std::uint32_t l2Assoc = 8;
    std::uint32_t l2HitLatency = 120;  //!< cycles, includes NoC

    // --- DRAM ---
    double dramBandwidthGBs = 192.0;   //!< aggregate bandwidth
    std::uint32_t dramAccessLatency = 300; //!< cycles beyond an L2 hit

    /** Latency of an access that misses L2 (120 + 300 = 420 cycles). */
    std::uint32_t
    l2MissLatency() const
    {
        return l2HitLatency + dramAccessLatency;
    }

    /**
     * DRAM service time per cache line in core cycles:
     * freq * lineSize / bandwidth (Eq. 22's "s").
     */
    double
    dramServiceCycles() const
    {
        return coreFreqGhz * 1e9 * l2LineBytes / (dramBandwidthGBs * 1e9);
    }

    /** Table I baseline configuration. */
    static HardwareConfig baseline();

    /**
     * Range-check every field against the domains the models and the
     * timing simulator assume (positive organization counts,
     * power-of-two cache geometry, nonzero DRAM bandwidth, MSHR count
     * > 0, ...). Returns StatusCode::InvalidArgument naming the
     * offending field; the harness validates each kernel's
     * configuration before evaluation so a bad sweep point fails that
     * point instead of aborting the run.
     */
    Status validate() const;

    /**
     * Copy of this configuration with a different issue width; keeps
     * issueWidth (used by the timing simulator) and issueRate (used
     * by the analytical models) coherent.
     */
    HardwareConfig withIssueWidth(std::uint32_t width) const;

    /** One-line summary for bench headers. */
    std::string summary() const;

    /**
     * Memoization key over the fields trace generation reads
     * (organization and line size). Two configurations with equal
     * traceKey() produce bit-identical KernelTraces for the same
     * workload, so sweeps over model-only parameters (MSHRs, DRAM
     * bandwidth, issue rate, SFU lanes) can reuse a generated trace.
     * tests/test_parallel.cc pins this contract.
     */
    std::string traceKey() const;

    /**
     * Memoization key over the fields the input collector reads on
     * top of traceKey(): cache geometry, replacement policy, and the
     * latency constants behind AMAT and fixed instruction latencies.
     * Equal collectorKey() means collectInputs() returns bit-identical
     * results; numMshrs and dramBandwidthGBs are deliberately excluded
     * (they only enter the contention models at evaluation time).
     */
    std::string collectorKey() const;
};

/**
 * One machine knob: a HardwareConfig field that the overrides, sweep
 * and tune set by name. Values are in the knob's unit, KB for the
 * cache sizes; the field holds the value times scale.
 */
struct Knob
{
    /** The surfaces that set knobs by name, as bits of surfaces: the
     *  overrides (--warps N), sweep's --param and tune's --dims. */
    enum Surface : std::uint32_t { Override = 1, Sweep = 2, Tune = 4 };

    const char *name;                     //!< argv, sweep and tune name
    std::uint32_t HardwareConfig::*count; //!< an integral knob's field
    double HardwareConfig::*real;         //!< else, a real knob's field
    std::uint32_t scale;                  //!< field units per knob unit
    std::uint32_t max;                    //!< an integral knob's largest
    bool reshapesTrace;                   //!< changes traceKey()
    std::uint32_t surfaces;               //!< Surface bits
    double tuneWeight;                    //!< tune's default cost weight
    std::initializer_list<double> tuneLadder; //!< tune's default values

    bool integral() const { return count != nullptr; }
    bool accepts(Surface surface) const { return surfaces & surface; }

    /** Set the field to @p v units; an integral value truncates first. */
    void
    set(HardwareConfig &config, double v) const
    {
        if (integral())
            config.*count = static_cast<std::uint32_t>(v) * scale;
        else
            config.*real = v;
    }

    /** The field's value in knob units. */
    double
    get(const HardwareConfig &config) const
    {
        return integral() ? config.*count / static_cast<double>(scale)
                          : config.*real;
    }

    /** Ok when @p v is finite, positive and, for an integral knob, a
     *  whole number up to max; else InvalidArgument naming both. */
    Status check(double v) const;
};

/**
 * The knob table. Tune's ladders bracket the Table I baseline (16
 * cores, 32 warps/core, 32 MSHRs, 192 GB/s, 32KB L1, 768KB L2), so its
 * restart 0 snaps onto the grid exactly; the cache sizes stay
 * multiples of line x assoc = 1KB, which validate() requires.
 */
inline constexpr Knob knobTable[] = {
    {"cores", &HardwareConfig::numCores, nullptr, 1, 0xffffffffu, true,
     Knob::Override | Knob::Tune, 1.0, {4, 8, 16, 24, 32}},
    {"warps", &HardwareConfig::warpsPerCore, nullptr, 1, 0xffffffffu,
     true, Knob::Override | Knob::Sweep | Knob::Tune, 0.25,
     {8, 16, 24, 32, 48}},
    {"mshrs", &HardwareConfig::numMshrs, nullptr, 1, 0xffffffffu, false,
     Knob::Override | Knob::Sweep | Knob::Tune, 0.1, {8, 16, 32, 64, 128}},
    {"bw", nullptr, &HardwareConfig::dramBandwidthGBs, 1, 0, false,
     Knob::Override | Knob::Sweep | Knob::Tune, 0.5,
     {96, 192, 288, 384, 512}},
    {"sfu-lanes", &HardwareConfig::sfuLanes, nullptr, 1, 0xffffffffu,
     false, Knob::Override | Knob::Sweep, 0.0, {}},
    {"l1-kb", &HardwareConfig::l1SizeBytes, nullptr, 1024, maxCacheKb,
     false, Knob::Sweep | Knob::Tune, 0.15, {8, 16, 32, 64}},
    {"l2-kb", &HardwareConfig::l2SizeBytes, nullptr, 1024, maxCacheKb,
     false, Knob::Sweep | Knob::Tune, 0.3, {192, 384, 768, 1536}},
};

/** The row named @p name, or nullptr. */
constexpr const Knob *
findKnob(std::string_view name)
{
    for (const Knob &knob : knobTable) {
        if (name == knob.name)
            return &knob;
    }
    return nullptr;
}

/** Names of the knobs @p surface accepts, in table order. */
std::string knobNames(Knob::Surface surface, char separator);

} // namespace gpumech

#endif // GPUMECH_COMMON_CONFIG_HH
