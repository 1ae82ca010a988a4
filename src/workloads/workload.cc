#include "workloads/workload.hh"

#include <set>
#include <sstream>

#include "common/logging.hh"

namespace gpumech
{

const std::vector<Workload> &
evaluationWorkloads()
{
    static const std::vector<Workload> workloads = [] {
        std::vector<Workload> all;
        for (auto *maker : {makeRodiniaSuite, makeParboilSuite,
                            makeSdkSuite}) {
            auto suite = maker();
            all.insert(all.end(), suite.begin(), suite.end());
        }
        return all;
    }();
    return workloads;
}

const std::vector<Workload> &
microWorkloads()
{
    static const std::vector<Workload> workloads = makeMicroSuite();
    return workloads;
}

const std::vector<Workload> &
stressWorkloads()
{
    static const std::vector<Workload> workloads = makeStressSuite();
    return workloads;
}

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> workloads = [] {
        std::vector<Workload> all = evaluationWorkloads();
        const auto &micro = microWorkloads();
        all.insert(all.end(), micro.begin(), micro.end());
        const auto &stress = stressWorkloads();
        all.insert(all.end(), stress.begin(), stress.end());
        return all;
    }();
    return workloads;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

const Workload &
workloadByName(const std::string &name)
{
    const Workload *w = findWorkload(name);
    if (!w)
        fatal(msg("unknown workload: ", name));
    return *w;
}

std::vector<Workload>
workloadsBySuite(const std::string &suite)
{
    std::vector<Workload> result;
    for (const auto &w : allWorkloads()) {
        if (w.suite == suite)
            result.push_back(w);
    }
    return result;
}

Result<std::vector<Workload>>
suiteByName(const std::string &suite)
{
    std::vector<Workload> result = workloadsBySuite(suite);
    if (!result.empty())
        return result;
    std::set<std::string> known;
    for (const auto &w : allWorkloads())
        known.insert(w.suite);
    std::ostringstream names;
    const char *sep = "";
    for (const auto &s : known) {
        names << sep << s;
        sep = ", ";
    }
    return Status(StatusCode::NotFound,
                  msg("unknown suite '", suite, "' (known suites: ",
                      names.str(), ")"));
}

std::vector<Workload>
controlDivergentWorkloads()
{
    std::vector<Workload> result;
    for (const auto &w : evaluationWorkloads()) {
        if (w.controlDivergent)
            result.push_back(w);
    }
    return result;
}

} // namespace gpumech
