/**
 * @file
 * Extension experiment: price and prove the fault-isolation layer.
 *
 * The evaluation engine threads a per-kernel isolation frame through
 * every pipeline stage (deadline watchdog + deterministic fault
 * injection, see src/common/isolation.hh). This bench answers two
 * questions about that layer:
 *
 *  1. Overhead — a model-only stress suite is timed three ways:
 *     isolation off (default options), watchdog armed (a generous
 *     deadline, so every strided checkpoint reads the clock), and
 *     fully armed (deadline + a fault plan targeting a kernel that is
 *     not in the suite, so every stage checkpoint also takes the plan
 *     lock and misses). The armed runs must stay within ~1% of the
 *     baseline — isolation is meant to be always-on-able.
 *
 *  2. Containment — a randomized fault plan (seeded, deterministic)
 *     fails half the suite; the run must complete, fail exactly the
 *     planned kernels, and leave every survivor bit-identical to the
 *     clean run. Divergence is fatal.
 *
 * Results go to stdout and BENCH_fault_injection.json (--out FILE).
 * Options: --reps N (default 5, best-of) --seed N (default 7).
 */

#include <fstream>
#include <iostream>
#include <set>
#include <thread>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/isolation.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "harness/experiment.hh"
#include "workloads/workload.hh"

using namespace gpumech;

namespace
{

using clock_type = std::chrono::steady_clock;

/** Best-of-@p reps wall-clock time of fn(), in milliseconds. */
template <typename Fn>
double
timeMs(unsigned reps, Fn &&fn)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = clock_type::now();
        fn();
        double ms = std::chrono::duration<double, std::milli>(
                        clock_type::now() - t0)
                        .count();
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** Stress suite: medium kernels covering every checkpointed stage. */
std::vector<Workload>
stressSuite()
{
    std::vector<Workload> suite;
    for (const char *name :
         {"srad_kernel1", "cfd_step_factor", "kmeans_invert_mapping",
          "vectorAdd", "sgemm_tiled", "spmv_jds"}) {
        suite.push_back(workloadByName(name));
    }
    return suite;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    args.checkOptionNames({"out", "reps", "seed"}).orDie();
    unsigned reps = args.getUint("reps", 5);
    std::uint64_t seed = args.getUint("seed", 7);
    std::string out_path = args.get("out", "BENCH_fault_injection.json");

    std::cout << "=== Fault-isolation layer: overhead + containment ===\n";
    std::cout << "reps: " << reps << " (best-of), seed: " << seed
              << "\n\n";

    JsonWriter json;
    json.field("bench", "ext_fault_injection");
    json.field("seed", seed);
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));

    HardwareConfig config = HardwareConfig::baseline();
    std::vector<Workload> suite = stressSuite();

    // Uncached model-only prediction: the profiling/collection hot
    // loops (where the strided checkpoints live) dominate the time.
    auto run_once = [&](const IsolationOptions &isolation) {
        auto preds = predictSuite(suite, config, GpuMechOptions{}, 0,
                                  nullptr, isolation);
        for (const KernelPrediction &p : preds)
            p.status.orDie();
        return preds;
    };

    // ---- 1. overhead of the armed-but-idle layer -------------------
    IsolationOptions off;

    IsolationOptions watchdog;
    watchdog.kernelTimeoutMs = 10 * 60 * 1000; // generous: never fires

    FaultPlan miss_plan;
    miss_plan.add(
        FaultInjection{"kernel_not_in_this_suite", FaultSite::Parse, 1, 0});
    IsolationOptions armed;
    armed.kernelTimeoutMs = 10 * 60 * 1000;
    armed.faultPlan = &miss_plan;

    run_once(off); // warm up allocators and page cache
    double off_ms = timeMs(reps, [&] { run_once(off); });
    double watchdog_ms = timeMs(reps, [&] { run_once(watchdog); });
    double armed_ms = timeMs(reps, [&] { run_once(armed); });

    double watchdog_pct = (watchdog_ms / off_ms - 1.0) * 100.0;
    double armed_pct = (armed_ms / off_ms - 1.0) * 100.0;

    Table overhead({"isolation", "ms", "overhead"});
    overhead.addRow({"off", fmtDouble(off_ms, 2), "-"});
    overhead.addRow({"watchdog armed", fmtDouble(watchdog_ms, 2),
                     fmtDouble(watchdog_pct, 2) + "%"});
    overhead.addRow({"watchdog + fault plan", fmtDouble(armed_ms, 2),
                     fmtDouble(armed_pct, 2) + "%"});
    std::cout << "-- overhead: " << suite.size()
              << "-kernel model-only suite, uncached --\n";
    overhead.print(std::cout);

    json.beginObject("overhead");
    json.field("kernels", static_cast<std::uint64_t>(suite.size()));
    json.field("off_ms", off_ms);
    json.field("watchdog_ms", watchdog_ms);
    json.field("armed_ms", armed_ms);
    json.field("watchdog_pct", watchdog_pct);
    json.field("armed_pct", armed_pct);
    json.field("within_1pct", armed_pct < 1.0);
    json.endObject();

    // ---- 2. containment under a randomized fault schedule ----------
    auto clean = run_once(off);

    std::vector<std::string> targets;
    for (std::size_t i = 0; i < suite.size(); i += 2)
        targets.push_back(suite[i].name);
    FaultPlan chaos = FaultPlan::randomized(seed, targets);

    IsolationOptions chaotic;
    chaotic.faultPlan = &chaos;
    auto preds = predictSuite(suite, config, GpuMechOptions{}, 0,
                              nullptr, chaotic);

    std::set<std::string> planned(targets.begin(), targets.end());
    std::size_t failed = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        const KernelPrediction &p = preds[i];
        if (planned.count(p.kernel)) {
            if (p.ok())
                fatal(msg("planned fault on ", p.kernel,
                          " did not fire"));
            failed++;
        } else {
            if (!p.ok())
                fatal(msg("unplanned failure: ",
                          p.status.toString()));
            if (p.result.cpi != clean[i].result.cpi ||
                p.result.ipc != clean[i].result.ipc)
                fatal(msg("survivor ", p.kernel,
                          " diverged from the clean run"));
        }
    }
    std::cout << "\n-- containment: randomized plan over "
              << targets.size() << "/" << suite.size()
              << " kernels --\n";
    std::cout << "failed as planned: " << failed << ", survivors "
              << "bit-identical: yes\n";
    std::cout << failureSummary(preds) << "\n";

    json.beginObject("containment");
    json.field("planned_faults",
               static_cast<std::uint64_t>(targets.size()));
    json.field("fired", static_cast<std::uint64_t>(failed));
    json.field("survivors_identical", true);
    json.endObject();

    std::cout << "\nheadline: armed isolation costs "
              << fmtDouble(armed_pct, 2)
              << "% on the stress suite (budget: 1%); a randomized "
                 "fault plan fails only its targets and leaves "
                 "survivors bit-identical.\n";

    std::ofstream out(out_path);
    if (!out)
        fatal(msg("cannot open ", out_path, " for writing"));
    out << json.finish() << "\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
