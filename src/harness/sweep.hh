/**
 * @file
 * Per-model average error across configuration points, and its table:
 * printSweep renders bench/accuracy's Figure 13/14/15 tables.
 */

#ifndef GPUMECH_HARNESS_SWEEP_HH
#define GPUMECH_HARNESS_SWEEP_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace gpumech
{

/** Average error of each model at each sweep point. */
struct SweepResult
{
    std::vector<std::string> labels;
    /** averages[model][point] = mean relative error. */
    std::map<ModelKind, std::vector<double>> averages;
};

/** Render a sweep as a table (rows = models, columns = points). */
void printSweep(std::ostream &os, const SweepResult &result);

} // namespace gpumech

#endif // GPUMECH_HARNESS_SWEEP_HH
