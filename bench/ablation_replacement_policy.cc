/**
 * @file
 * Ablation: cache replacement policy sensitivity.
 *
 * The paper fixes LRU caches (Table I). Because GPUMech's inputs come
 * from a functional simulation of the same caches, the model adapts
 * to any replacement policy automatically; this bench sweeps the full
 * policy zoo — LRU, FIFO, pseudo-random, and ARC — on cache-sensitive
 * kernels and checks that (a) the oracle's hit rates respond to the
 * policy and (b) GPUMech's error stays in its usual band under every
 * policy. Each policy row also reports whether the MRC fast path
 * (collector/mrc_collector.hh) models it exactly: LRU stack distances
 * are exact only for LRU; every other policy is served approximately
 * and flagged via CollectorResult::mrcApproximate.
 *
 * Kernels near DRAM saturation (rho ~= 1.0) used to straddle a
 * discontinuity in the Eq. 21-23 queuing term, where sub-percent
 * hit-rate differences between policies swung the model error; the
 * continuity clamp at kBandwidthRhoClamp (core/contention.hh)
 * removed that regime boundary, so policy deltas now move the model
 * smoothly even at saturation.
 *
 * Results go to stdout and BENCH_replacement_policy.json (see --out).
 */

#include <fstream>
#include <iostream>
#include <thread>

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "timing/gpu_timing.hh"

using namespace gpumech;

namespace
{

struct Policy
{
    std::uint32_t index;
    const char *label;
    bool mrcExact; //!< LRU stack distances model it without error
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    args.checkOptionNames({"out"}).orDie();
    std::string out_path =
        args.get("out", "BENCH_replacement_policy.json");

    std::cout << "=== Ablation: cache replacement policy ===\n\n";

    const std::vector<std::string> kernels = {
        "kmeans_kernel_c", "leukocyte_dilate",
        "hotspot_calculate_temp", "stencil_block2d",
        "convolutionRows"};
    const std::vector<Policy> policies = {{0, "LRU", true},
                                          {1, "FIFO", false},
                                          {2, "Random", false},
                                          {3, "ARC", false}};

    JsonWriter json;
    json.field("bench", "ablation_replacement_policy");
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));

    Table t({"kernel", "policy", "oracle CPI", "L1 hit rate",
             "GPUMech err"});
    std::map<std::string, std::vector<double>> errors;
    json.beginObject("kernels");
    for (const auto &name : kernels) {
        const Workload &workload = workloadByName(name);
        json.beginObject(name);
        for (const Policy &policy : policies) {
            HardwareConfig config = HardwareConfig::baseline();
            config.replacementPolicy = policy.index;
            KernelTrace kernel = workload.generate(config);

            GpuTiming oracle(kernel, config,
                             SchedulingPolicy::RoundRobin);
            TimingStats s = oracle.run();
            double hit_rate = s.l1Accesses
                ? static_cast<double>(s.l1Hits) / s.l1Accesses
                : 0.0;

            GpuMechResult model =
                runGpuMech(kernel, config, GpuMechOptions{});
            double err = relativeError(model.ipc, 1.0 / s.cpi());
            errors[policy.label].push_back(err);
            t.addRow({name, policy.label, fmtDouble(s.cpi(), 2),
                      fmtPercent(hit_rate), fmtPercent(err)});
            json.beginObject(policy.label);
            json.field("oracle_cpi", s.cpi());
            json.field("l1_hit_rate", hit_rate);
            json.field("model_error", err);
            json.endObject();
        }
        json.endObject();
    }
    json.endObject();
    t.print(std::cout);

    std::cout << "\nAverage GPUMech error per policy (MRC-exact "
                 "policies marked *):\n";
    json.beginObject("policy_summary");
    for (const Policy &policy : policies) {
        double avg = mean(errors[policy.label]);
        std::cout << "  " << policy.label
                  << (policy.mrcExact ? "*" : "") << ": "
                  << fmtPercent(avg) << "\n";
        json.beginObject(policy.label);
        json.field("avg_error", avg);
        json.field("mrc_exact", policy.mrcExact);
        json.endObject();
    }
    json.endObject();

    std::cout << "\nexpected shape: hit rates shift with the policy "
                 "and GPUMech tracks the oracle under all four, "
                 "because its inputs are collected on the same "
                 "caches. Only LRU is modeled exactly by the MRC fast "
                 "path; the others fall back to LRU stack distances "
                 "and set CollectorResult::mrcApproximate. Kernels "
                 "near DRAM saturation (stencil_block2d) stay smooth "
                 "across policies since the Eq. 21-23 queuing term "
                 "was clamped to be continuous at rho = 1.\n";

    std::ofstream out(out_path);
    if (!out)
        fatal(msg("cannot open ", out_path, " for writing"));
    out << json.finish() << "\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
