#include "mem/mrc.hh"

#include <cmath>

#include "common/logging.hh"

namespace gpumech
{

namespace
{

/** splitmix64: the sampling hash (fixed, platform-independent). */
std::uint64_t
mixLine(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint32_t
ReuseDistanceTracker::access(Addr line)
{
    const std::uint64_t stamp = clock++;
    if (stamp >= stamps.capacity())
        stamps.grow();

    std::uint64_t &slot = last[line]; // stamp + 1; 0 = never seen
    std::uint32_t distance = mrcColdDistance;
    if (slot != 0) {
        const std::uint64_t prev = slot - 1;
        // Distinct lines since the previous access: every live stamp
        // is some line's current last access, so the count of live
        // stamps strictly after prev is exactly the intervening-line
        // count.
        std::uint64_t between = stamps.size() - stamps.rank(prev);
        distance = between >= mrcColdDistance
                       ? mrcColdDistance - 1
                       : static_cast<std::uint32_t>(between);
        stamps.erase(prev);
    }
    slot = stamp + 1;
    stamps.insert(stamp);
    return distance;
}

ShardsSampler::ShardsSampler(double rate) : samplingRate(rate)
{
    if (!(rate > 0.0) || rate > 1.0)
        panic(msg("SHARDS sampling rate must be in (0, 1], got ", rate));
    obsWeight = 1.0 / rate;
    if (rate >= 1.0) {
        threshold = std::numeric_limits<std::uint64_t>::max();
    } else {
        threshold = static_cast<std::uint64_t>(
            rate * 18446744073709551616.0 /* 2^64 */);
    }
}

bool
ShardsSampler::sampled(Addr line) const
{
    if (samplingRate >= 1.0)
        return true;
    return mixLine(line) < threshold;
}

std::uint32_t
ShardsSampler::unscale(std::uint32_t sampled_distance) const
{
    if (sampled_distance == mrcColdDistance || samplingRate >= 1.0)
        return sampled_distance;
    double scaled = static_cast<double>(sampled_distance) * obsWeight;
    if (scaled >= static_cast<double>(mrcColdDistance))
        return mrcColdDistance - 1;
    return static_cast<std::uint32_t>(scaled + 0.5);
}

double
assocHitProbability(std::uint32_t distance, std::uint32_t sets,
                    std::uint32_t ways)
{
    if (distance == mrcColdDistance)
        return 0.0;
    if (sets <= 1)
        return distance < ways ? 1.0 : 0.0;
    // Balanced modulo mapping: own set holds floor(d/sets) of the d
    // intervening distinct lines, resident iff that is <= ways - 1.
    return distance < static_cast<std::uint64_t>(sets) * ways ? 1.0
                                                              : 0.0;
}

} // namespace gpumech
