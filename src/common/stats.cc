#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gpumech
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double total = 0.0;
    for (double x : xs)
        total += x;
    return total / static_cast<double>(xs.size());
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs[0];
    double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
    auto lo_idx = static_cast<std::size_t>(rank);
    std::size_t hi_idx = std::min(lo_idx + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo_idx);
    return xs[lo_idx] * (1.0 - frac) + xs[hi_idx] * frac;
}

double
relativeError(double predicted, double reference)
{
    if (reference == 0.0) {
        return predicted == 0.0 ? 0.0
                                : std::numeric_limits<double>::infinity();
    }
    return std::abs(predicted - reference) / std::abs(reference);
}

double
fractionBelow(const std::vector<double> &xs, double threshold)
{
    if (xs.empty())
        return 0.0;
    std::size_t n = 0;
    for (double x : xs) {
        if (x < threshold)
            ++n;
    }
    return static_cast<double>(n) / static_cast<double>(xs.size());
}

} // namespace gpumech
