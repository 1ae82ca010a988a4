/**
 * @file
 * Extension experiment: end-to-end scaling of the parallel evaluation
 * engine.
 *
 * Section VI-D notes the interval algorithm "can be further increased
 * by running the interval algorithm of each warp in parallel, but we
 * did not explore this option". This bench explores it end to end:
 *
 *  1. per-warp profiling of one kernel: the features pass that
 *     representative selection reads (buildAllFeatures), serial vs
 *     the shared pool at 1/2/4/8 threads, next to building every
 *     warp's interval profile (buildAllProfiles, the path the profiler
 *     took before it kept only the representative's profile);
 *  2. model-only suite prediction (predictSuite) over an MSHR sweep,
 *     at 1/2/4/8 threads, with and without the shared input cache —
 *     the design-space-exploration workload the cache targets;
 *  3. observability overhead: the stress suite predicted with metrics
 *     and span tracing fully on vs fully off. The layer's contract is
 *     near-zero cost, so the bench fails if the enabled run costs more
 *     than 2% — and the enabled run's metrics snapshot feeds a
 *     "stages" stage-attribution object into the JSON output.
 *
 * Every parallel/cached result is verified identical to the serial
 * uncached baseline before times are reported. Results go to stdout
 * as a table and to BENCH_parallel.json (override with --out) so the
 * perf trajectory is tracked across PRs.
 *
 * Options: --reps N (timing repetitions, default 3; best-of is kept)
 *          --out FILE (JSON output path, default BENCH_parallel.json)
 */

#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "gates.hh"

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "core/interval_builder.hh"
#include "harness/experiment.hh"
#include "workloads/workload.hh"

using namespace gpumech;

namespace
{

using clock_type = std::chrono::steady_clock;

double
toMs(clock_type::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

/** Best-of-@p reps wall-clock time of fn(), in milliseconds. */
template <typename Fn>
double
timeMs(unsigned reps, Fn &&fn)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = clock_type::now();
        fn();
        double ms = toMs(clock_type::now() - t0);
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** Bit-identical Eq. 6 inputs. */
bool
sameFeatures(const std::vector<WarpFeatures> &a,
             const std::vector<WarpFeatures> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t w = 0; w < a.size(); ++w) {
        if (std::bit_cast<std::uint64_t>(a[w].perf) !=
                std::bit_cast<std::uint64_t>(b[w].perf) ||
            a[w].insts != b[w].insts)
            return false;
    }
    return true;
}

bool
sameResults(const std::vector<GpuMechResult> &a,
            const std::vector<GpuMechResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].cpi != b[i].cpi || a[i].ipc != b[i].ipc ||
            a[i].repWarpIndex != b[i].repWarpIndex)
            return false;
    }
    return true;
}

const std::vector<unsigned> &
threadCounts()
{
    static const std::vector<unsigned> counts = {1, 2, 4, 8};
    return counts;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    args.checkOptionNames({"out", "reps"}).orDie();
    unsigned reps = args.getUint("reps", 3);
    std::string out_path = args.get("out", "BENCH_parallel.json");

    std::cout << "=== Parallel evaluation engine: scaling bench ===\n";
    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency() << ", reps: "
              << reps << " (best-of)\n\n";

    JsonWriter json;
    json.field("bench", "ext_parallel_profiling");
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));

    // ---- 1. per-warp profiling of one kernel ------------------------
    HardwareConfig config = HardwareConfig::baseline();
    KernelTrace kernel =
        workloadByName("srad_kernel1").generate(config);
    CollectorResult inputs = collectInputs(kernel, config);

    // Reference: every warp's full interval profile, reduced to the
    // features afterwards.
    std::vector<WarpFeatures> reference;
    for (const IntervalProfile &p :
         buildAllProfiles(kernel, inputs, config))
        reference.push_back(p.features(config.issueRate));
    double all_profiles_ms = timeMs(reps, [&] {
        auto p = buildAllProfiles(kernel, inputs, config);
    });

    if (!sameFeatures(buildAllFeatures(kernel, inputs, config, 1),
                      reference))
        fatal("serial features pass diverged from the profiles");
    double serial_ms = timeMs(reps, [&] {
        auto f = buildAllFeatures(kernel, inputs, config, 1);
    });

    Table prof_table({"threads", "ms", "speedup", "identical"});
    prof_table.addRow({"all profiles", fmtDouble(all_profiles_ms, 2),
                       fmtDouble(serial_ms / all_profiles_ms, 2), "-"});
    prof_table.addRow({"serial", fmtDouble(serial_ms, 2), "1.00",
                       "yes"});
    json.beginObject("profiling");
    json.field("kernel", "srad_kernel1");
    json.field("warps", static_cast<std::uint64_t>(kernel.numWarps()));
    json.field("all_profiles_ms", all_profiles_ms);
    json.field("serial_ms", serial_ms);
    double prof_t4_ms = serial_ms;
    for (unsigned t : threadCounts()) {
        setDefaultJobs(t);
        if (!sameFeatures(buildAllFeatures(kernel, inputs, config, t),
                          reference))
            fatal(msg("parallel features pass diverged at ", t,
                      " threads"));
        double ms = timeMs(reps, [&] {
            auto f = buildAllFeatures(kernel, inputs, config, t);
        });
        if (t == 4)
            prof_t4_ms = ms;
        prof_table.addRow({std::to_string(t), fmtDouble(ms, 2),
                           fmtDouble(serial_ms / ms, 2), "yes"});
        json.field(msg("t", t, "_ms"), ms);
    }
    json.field("features_vs_all_profiles", all_profiles_ms / serial_ms);
    json.field("speedup_t4", serial_ms / prof_t4_ms);
    json.endObject();

    std::cout << "-- per-warp features pass (srad_kernel1, "
              << kernel.numWarps()
              << " warps; speedup vs the serial pass) --\n";
    prof_table.print(std::cout);

    // ---- 2. suite prediction over an MSHR sweep --------------------
    // Model-only prediction (the use case the paper's 97x speedup
    // serves). The sweep varies MSHR count only, so with the input
    // cache enabled, every point after the first reuses each kernel's
    // trace, collector result, and profiler.
    std::vector<Workload> suite;
    for (const char *name :
         {"srad_kernel1", "cfd_step_factor", "kmeans_invert_mapping",
          "vectorAdd", "sgemm_tiled"}) {
        suite.push_back(workloadByName(name));
    }
    std::vector<HardwareConfig> points;
    for (std::uint32_t mshrs : {8u, 16u, 32u, 64u}) {
        HardwareConfig p = HardwareConfig::baseline();
        p.numMshrs = mshrs;
        points.push_back(p);
    }

    auto run_suite = [&](unsigned jobs, bool cached) {
        InputCache cache;
        std::vector<GpuMechResult> all;
        for (const HardwareConfig &point : points) {
            auto r = predictSuite(suite, point, GpuMechOptions{}, jobs,
                                  cached ? &cache : nullptr);
            for (const KernelPrediction &p : r) {
                p.status.orDie();
                all.push_back(p.result);
            }
        }
        return all;
    };

    setDefaultJobs(1);
    auto baseline_results = run_suite(1, false);
    double suite_serial_ms = timeMs(reps, [&] { run_suite(1, false); });

    Table suite_table(
        {"threads", "cache", "ms", "speedup", "identical"});
    suite_table.addRow({"serial", "off", fmtDouble(suite_serial_ms, 2),
                        "1.00", "-"});

    json.beginObject("suite");
    json.field("kernels", static_cast<std::uint64_t>(suite.size()));
    json.field("sweep_points",
               static_cast<std::uint64_t>(points.size()));
    json.field("sweep_param", "mshrs 8/16/32/64");
    json.field("serial_nocache_ms", suite_serial_ms);

    double speedup_t4_cache = 0.0;
    for (bool cached : {false, true}) {
        for (unsigned t : threadCounts()) {
            setDefaultJobs(t);
            auto check = run_suite(t, cached);
            if (!sameResults(check, baseline_results))
                fatal(msg("suite prediction diverged (", t,
                          " threads, cache ",
                          cached ? "on" : "off", ")"));
            double ms =
                timeMs(reps, [&] { run_suite(t, cached); });
            double speedup = suite_serial_ms / ms;
            if (cached && t == 4)
                speedup_t4_cache = speedup;
            suite_table.addRow({std::to_string(t),
                                cached ? "on" : "off",
                                fmtDouble(ms, 2),
                                fmtDouble(speedup, 2), "yes"});
            json.field(msg(cached ? "cache" : "nocache", "_t", t,
                           "_ms"),
                       ms);
        }
    }
    json.field("speedup_t4_cache_vs_serial", speedup_t4_cache);
    // Thread-scaling claim: vacuous on a 1-thread machine, where it
    // records "skipped" rather than a hollow "pass".
    json.field("speedup_gate",
               threadScalingGate(speedup_t4_cache >= 1.0));
    json.endObject();
    setDefaultJobs(0);

    std::cout << "\n-- suite prediction: " << suite.size()
              << " kernels x " << points.size()
              << " MSHR sweep points --\n";
    suite_table.print(std::cout);
    std::cout << "\nheadline: 4-thread cached sweep is "
              << fmtDouble(speedup_t4_cache, 2)
              << "x the serial uncached baseline (cache removes "
                 "repeated trace generation, cache simulation and "
                 "warp profiling; threads add on multi-core hosts).\n";

    // ---- 3. observability overhead on the stress suite -------------
    // Model-only prediction of the whole stress suite with metrics and
    // span tracing fully on vs fully off. The layer's contract is one
    // relaxed load + branch when off and shard-local writes when on;
    // neither may move the needle on real work, so >= 2% fails the
    // bench. Best-of timing keeps scheduler noise out of the ratio.
    std::vector<Workload> stress = suiteByName("stress").valueOrDie();
    HardwareConfig stress_cfg = HardwareConfig::baseline();
    auto run_stress = [&] {
        InputCache cache;
        auto r = predictSuite(stress, stress_cfg, GpuMechOptions{}, 4,
                              &cache);
        for (const KernelPrediction &p : r)
            p.status.orDie();
    };
    setDefaultJobs(4);
    double off_ms = timeMs(reps, run_stress);
    Metrics::enable(true);
    TraceLog::enable(true);
    Metrics::reset();
    TraceLog::clear();
    double on_ms = timeMs(reps, run_stress);
    std::vector<MetricSnapshot> snap = Metrics::snapshot();
    std::size_t num_events = TraceLog::collect().size();
    Metrics::enable(false);
    TraceLog::enable(false);
    setDefaultJobs(0);

    double overhead = off_ms > 0.0 ? (on_ms - off_ms) / off_ms : 0.0;
    std::cout << "\n-- observability overhead (stress suite, "
              << stress.size() << " kernels, metrics+tracing) --\n";
    Table obs_table({"observability", "ms"});
    obs_table.addRow({"off", fmtDouble(off_ms, 2)});
    obs_table.addRow({"on", fmtDouble(on_ms, 2)});
    obs_table.print(std::cout);
    std::cout << "overhead: " << fmtPercent(overhead) << " ("
              << num_events << " spans buffered)\n";

    json.beginObject("observability");
    json.field("suite", "stress");
    json.field("off_ms", off_ms);
    json.field("on_ms", on_ms);
    json.field("overhead", overhead);
    json.field("spans", static_cast<std::uint64_t>(num_events));
    // Stage attribution from the enabled run: where the wall time of
    // the last timed repetition's pipeline actually went.
    json.beginObject("stages");
    for (const MetricSnapshot &m : snap) {
        if (m.name.rfind("stage.", 0) != 0 ||
            m.kind != MetricKind::Histogram || m.hist.count == 0)
            continue;
        json.beginObject(m.name);
        json.field("count", m.hist.count);
        json.field("total_ms", m.hist.sum);
        json.field("mean_ms", m.hist.mean());
        json.endObject();
    }
    json.endObject();
    json.endObject();

    if (overhead >= 0.02)
        fatal(msg("observability overhead ", fmtPercent(overhead),
                  " exceeds the 2% budget"));

    std::ofstream out(out_path);
    if (!out)
        fatal(msg("cannot open ", out_path, " for writing"));
    out << json.finish() << "\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
