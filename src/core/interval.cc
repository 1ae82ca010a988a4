#include "core/interval.hh"

namespace gpumech
{

std::uint64_t
IntervalProfile::totalInsts() const
{
    std::uint64_t n = 0;
    for (const auto &iv : intervals)
        n += iv.numInsts;
    return n;
}

double
IntervalProfile::totalStallCycles() const
{
    double s = 0.0;
    for (const auto &iv : intervals)
        s += iv.stallCycles;
    return s;
}

double
warpPerf(std::uint64_t insts, double stall_cycles, double issue_rate)
{
    double cycles =
        static_cast<double>(insts) / issue_rate + stall_cycles;
    return cycles == 0.0 ? 0.0 : static_cast<double>(insts) / cycles;
}

double
IntervalProfile::totalCycles(double issue_rate) const
{
    return static_cast<double>(totalInsts()) / issue_rate +
           totalStallCycles();
}

double
IntervalProfile::warpPerf(double issue_rate) const
{
    return gpumech::warpPerf(totalInsts(), totalStallCycles(),
                             issue_rate);
}

WarpFeatures
IntervalProfile::features(double issue_rate) const
{
    return {warpPerf(issue_rate), totalInsts()};
}

double
IntervalProfile::avgIntervalInsts() const
{
    if (intervals.empty())
        return 0.0;
    return static_cast<double>(totalInsts()) /
           static_cast<double>(intervals.size());
}

} // namespace gpumech
