/**
 * @file
 * Workload registry.
 *
 * The synthetic analogs of the paper's 40 evaluated kernels (Rodinia
 * 2.1, Parboil 2.5, NVIDIA SDK; Section VI-A), plus a micro suite for
 * unit tests. Each workload generates a deterministic KernelTrace
 * sized to the target configuration (numCores * warpsPerCore warps).
 */

#ifndef GPUMECH_WORKLOADS_WORKLOAD_HH
#define GPUMECH_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/status.hh"
#include "trace/kernel_trace.hh"

namespace gpumech
{

/** One registered workload (kernel generator). */
struct Workload
{
    std::string name;        //!< e.g. "kmeans_invert_mapping"
    std::string suite;       //!< "rodinia" | "parboil" | "sdk" | "micro"
    std::string description; //!< one-line behaviour summary

    /** Warps take different control paths (Figure 7 subset). */
    bool controlDivergent = false;

    /** Has uncoalesced (divergence degree > 1) accesses. */
    bool memoryDivergent = false;

    /** Generate the kernel trace for a configuration. */
    std::function<KernelTrace(const HardwareConfig &)> generate;
};

/** All evaluation workloads (rodinia + parboil + sdk; 40 kernels). */
const std::vector<Workload> &evaluationWorkloads();

/** The micro suite used by unit tests. */
const std::vector<Workload> &microWorkloads();

/**
 * Phased stress kernels probing the contention model's steady-state
 * aggregation (not part of the evaluation suite).
 */
const std::vector<Workload> &stressWorkloads();

/** Every registered workload (evaluation + micro). */
const std::vector<Workload> &allWorkloads();

/** Look up a workload by name; fatal if absent. */
const Workload &workloadByName(const std::string &name);

/** Non-fatal lookup: nullptr when no workload has @p name. */
const Workload *findWorkload(const std::string &name);

/** Evaluation workloads of one suite. */
std::vector<Workload> workloadsBySuite(const std::string &suite);

/**
 * Status-returning suite lookup: NotFound (listing the known suites)
 * when @p suite names no registered workload.
 */
Result<std::vector<Workload>> suiteByName(const std::string &suite);

/** Evaluation workloads flagged control-divergent (Figure 7 set). */
std::vector<Workload> controlDivergentWorkloads();

// Suite factories (used by workload.cc; exposed for tests).
std::vector<Workload> makeRodiniaSuite();
std::vector<Workload> makeParboilSuite();
std::vector<Workload> makeSdkSuite();
std::vector<Workload> makeMicroSuite();
std::vector<Workload> makeStressSuite();

} // namespace gpumech

#endif // GPUMECH_WORKLOADS_WORKLOAD_HH
