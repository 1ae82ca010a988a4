#include "harness/session.hh"

namespace gpumech
{

std::vector<KernelEvaluation>
evaluateSuite(EvalSession &session,
              const std::vector<Workload> &workloads,
              const HardwareConfig &config, SchedulingPolicy policy,
              const std::vector<ModelKind> &models, bool verbose)
{
    return evaluateSuite(workloads, config, policy, models, verbose,
                         session.jobs, &session.cache,
                         session.isolation);
}

} // namespace gpumech
