/**
 * @file
 * Small statistics helpers shared by the models, the harness and the
 * benches: means, percentiles and relative error.
 */

#ifndef GPUMECH_COMMON_STATS_HH
#define GPUMECH_COMMON_STATS_HH

#include <vector>

namespace gpumech
{

/** Arithmetic mean; 0 for an empty input. */
double mean(const std::vector<double> &xs);

/** Median (by sorting a copy); 0 for an empty input. */
double median(std::vector<double> xs);

/**
 * Linear-interpolated percentile, p in [0, 100]; 0 for an empty
 * input.
 */
double percentile(std::vector<double> xs, double p);

/**
 * Relative error |predicted - reference| / reference.
 *
 * A zero reference with nonzero prediction yields +inf; both zero
 * yields 0.
 */
double relativeError(double predicted, double reference);

/** Fraction of values strictly below a threshold; 0 for empty input. */
double fractionBelow(const std::vector<double> &xs, double threshold);

} // namespace gpumech

#endif // GPUMECH_COMMON_STATS_HH
