#include "common/config.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"

namespace gpumech
{

std::string
toString(SchedulingPolicy policy)
{
    switch (policy) {
      case SchedulingPolicy::RoundRobin:
        return "RR";
      case SchedulingPolicy::GreedyThenOldest:
        return "GTO";
    }
    return "?";
}

HardwareConfig
HardwareConfig::baseline()
{
    return HardwareConfig{};
}

namespace
{

bool
isPowerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

Status
invalidField(const char *field, const std::string &why)
{
    return Status(StatusCode::InvalidArgument,
                  msg("config field ", field, ": ", why));
}

/** Positive, finite check naming the field (+inf is no rate). */
Status
requirePositive(const char *field, double value)
{
    if (value > 0.0 && std::isfinite(value))
        return Status();
    return invalidField(field, msg("must be finite and > 0, got ", value));
}

/**
 * One cache level's geometry, mirroring Cache's constructor
 * preconditions (which panic): power-of-two line size, whole sets.
 * Set counts need not be a power of two (Table I's L2 has 768 sets).
 */
Status
validateCache(const char *level, std::uint32_t size_bytes,
              std::uint32_t line_bytes, std::uint32_t assoc)
{
    if (!isPowerOfTwo(line_bytes)) {
        return invalidField(
            level, msg("line size must be a power of two, got ",
                       line_bytes, " (field ", level, "LineBytes)"));
    }
    if (assoc == 0) {
        return invalidField(level,
                            msg("associativity must be > 0 (field ",
                                level, "Assoc)"));
    }
    if (size_bytes == 0 || size_bytes % (line_bytes * assoc) != 0) {
        return invalidField(
            level,
            msg("size must be a positive multiple of line*assoc, got ",
                size_bytes, " (field ", level, "SizeBytes)"));
    }
    return Status();
}

} // namespace

Status
HardwareConfig::validate() const
{
    GPUMECH_TRY(requirePositive("numCores", numCores));
    GPUMECH_TRY(requirePositive("coreFreqGhz", coreFreqGhz));
    GPUMECH_TRY(requirePositive("simtWidth", simtWidth));
    GPUMECH_TRY(requirePositive("warpSize", warpSize));
    GPUMECH_TRY(requirePositive("warpsPerCore", warpsPerCore));
    GPUMECH_TRY(requirePositive("issueWidth", issueWidth));
    GPUMECH_TRY(requirePositive("issueRate", issueRate));
    GPUMECH_TRY(requirePositive("sfuLanes", sfuLanes));
    GPUMECH_TRY(requirePositive("latency.intAlu", latency.intAlu));
    GPUMECH_TRY(requirePositive("latency.fpAlu", latency.fpAlu));
    GPUMECH_TRY(requirePositive("latency.sfu", latency.sfu));
    GPUMECH_TRY(requirePositive("latency.sharedMem", latency.sharedMem));
    GPUMECH_TRY(requirePositive("latency.branch", latency.branch));
    GPUMECH_TRY(requirePositive("l1HitLatency", l1HitLatency));
    GPUMECH_TRY(requirePositive("l2HitLatency", l2HitLatency));
    GPUMECH_TRY(requirePositive("numMshrs", numMshrs));
    GPUMECH_TRY(requirePositive("dramBandwidthGBs", dramBandwidthGBs));
    GPUMECH_TRY(validateCache("l1", l1SizeBytes, l1LineBytes, l1Assoc));
    GPUMECH_TRY(validateCache("l2", l2SizeBytes, l2LineBytes, l2Assoc));
    if (replacementPolicy > 3) {
        return invalidField(
            "replacementPolicy",
            msg("must be 0 (LRU), 1 (FIFO), 2 (random) or 3 (ARC), "
                "got ", replacementPolicy));
    }
    return Status();
}

HardwareConfig
HardwareConfig::withIssueWidth(std::uint32_t width) const
{
    HardwareConfig copy = *this;
    copy.issueWidth = width;
    copy.issueRate = static_cast<double>(width);
    return copy;
}

std::string
HardwareConfig::summary() const
{
    std::ostringstream os;
    os << numCores << " cores @ " << coreFreqGhz << " GHz, "
       << warpsPerCore << " warps/core, SIMT " << simtWidth
       << ", L1 " << l1SizeBytes / 1024 << "KB/" << numMshrs << " MSHRs, "
       << "L2 " << l2SizeBytes / 1024 << "KB, DRAM "
       << dramBandwidthGBs << " GB/s, " << dramAccessLatency
       << "-cycle access";
    return os.str();
}

std::string
HardwareConfig::traceKey() const
{
    std::ostringstream os;
    // The layout token invalidates cached traces (and refuses .gmt
    // files) whose SoA layout generation predates the engine's.
    os << traceLayoutToken << '|' << numCores << '|' << warpsPerCore
       << '|' << warpSize
       << '|' << simtWidth << '|' << l1LineBytes;
    return os.str();
}

std::string
HardwareConfig::collectorKey() const
{
    std::ostringstream os;
    os << traceKey() << '|' << l1SizeBytes << '|' << l1Assoc << '|'
       << l1HitLatency << '|' << l2SizeBytes << '|' << l2LineBytes
       << '|' << l2Assoc << '|' << l2HitLatency << '|'
       << dramAccessLatency << '|' << replacementPolicy << '|'
       << latency.intAlu << '|' << latency.fpAlu << '|' << latency.sfu
       << '|' << latency.sharedMem << '|' << latency.branch;
    return os.str();
}

Status
Knob::check(double v) const
{
    if (std::isfinite(v) && v > 0.0 &&
        (!integral() || (v == std::floor(v) && v <= max)))
        return Status();
    return Status(StatusCode::InvalidArgument,
                  msg("bad value ", fmtShortest(v), " for '", name,
                      "' (must be a positive ",
                      integral() ? msg("integer up to ", max) : "number",
                      ")"));
}

std::string
knobNames(Knob::Surface surface, char separator)
{
    std::string names;
    for (const Knob &knob : knobTable) {
        if (!knob.accepts(surface))
            continue;
        if (!names.empty())
            names += separator;
        names += knob.name;
    }
    return names;
}

} // namespace gpumech
