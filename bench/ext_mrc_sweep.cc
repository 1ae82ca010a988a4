/**
 * @file
 * MRC fast-path bench: one-pass reuse-distance profiling vs per-cell
 * functional re-simulation on an MSHR-fixed cache-geometry sweep.
 *
 * For every micro-suite kernel, an 8x12 L1/L2-size grid is evaluated
 * two ways and timed end to end (profiling included):
 *
 *   rerun  profile once at the base configuration, then evaluateAt()
 *          per cell — each distinct cache geometry re-runs the
 *          functional cache simulation (the pre-MRC engine, and still
 *          the --sweep-mode=rerun reference);
 *   mrc    collect one reuse-distance profile, then evaluateAt() per
 *          cell — each geometry is derived from the profile in
 *          O(histogram) time (--sweep-mode=mrc).
 *
 * Reported per kernel and for the suite: wall time of both paths, the
 * speedup, and the per-cell model-CPI drift of the MRC path against
 * the rerun reference (max over cells is the headline accuracy
 * number). A SHARDS sampling-rate ablation (rate 0.1) reports how far
 * sampled profiles drift. MSHRs and every non-cache axis stay fixed,
 * so the comparison isolates the cache-geometry work.
 *
 * Gates (BENCH_mrc.json): suite_speedup >= 5, suite_max_drift <= 0.02.
 *
 * Options: --reps N (timing repetitions, default 3; best-of is kept)
 *          --out FILE (JSON path, default BENCH_mrc.json)
 */

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "collector/mrc_collector.hh"
#include "gates.hh"

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/gpumech.hh"
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

/** One labeled cache-geometry cell. */
struct Cell
{
    std::string label;
    std::uint32_t l1Kb;
    std::uint32_t l2Kb;
};

std::vector<Cell>
geometryGrid()
{
    std::vector<Cell> cells;
    for (std::uint32_t l1 : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
        for (std::uint32_t l2 :
             {4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u, 64u, 96u, 128u,
              192u}) {
            cells.push_back(Cell{msg("l1-", l1, "k/l2-", l2, "k"), l1,
                                 l2});
        }
    }
    return cells;
}

HardwareConfig
cellConfig(const HardwareConfig &base, const Cell &cell)
{
    HardwareConfig config = base;
    config.l1SizeBytes = cell.l1Kb * 1024;
    config.l2SizeBytes = cell.l2Kb * 1024;
    return config;
}

/** Full-model CPI at every cell through the rerun path (one profile at
 *  base, functional re-collection per geometry). */
std::vector<double>
sweepRerun(const KernelTrace &kernel, const HardwareConfig &base,
           const std::vector<Cell> &cells)
{
    GpuMechProfiler profiler(kernel, base);
    std::vector<double> cpis;
    cpis.reserve(cells.size());
    for (const Cell &cell : cells) {
        cpis.push_back(profiler
                           .evaluateAt(cellConfig(base, cell),
                                       SchedulingPolicy::RoundRobin)
                           .cpi);
    }
    return cpis;
}

/** Full-model CPI at every cell through the MRC path (one
 *  reuse-distance profile, derivation per geometry). */
std::vector<double>
sweepMrc(const KernelTrace &kernel, const HardwareConfig &base,
         const std::vector<Cell> &cells, double rate)
{
    auto profile = std::make_shared<const MrcProfile>(
        collectMrcProfile(kernel, base, rate));
    GpuMechProfiler profiler(kernel, base, RepSelection::Clustering, 2,
                             1, nullptr, profile);
    std::vector<double> cpis;
    cpis.reserve(cells.size());
    for (const Cell &cell : cells) {
        cpis.push_back(profiler
                           .evaluateAt(cellConfig(base, cell),
                                       SchedulingPolicy::RoundRobin)
                           .cpi);
    }
    return cpis;
}

double
relDrift(double mrc, double rerun)
{
    return rerun > 0.0 ? std::abs(mrc - rerun) / rerun : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    args.checkOptionNames({"out", "reps"}).orDie();
    unsigned reps = args.getUint("reps", 3);
    std::string out_path = args.get("out", "BENCH_mrc.json");

    // Cache-sensitive regime: few warps so memory latency shows in the
    // CPI, and the small per-core footprints actually fit (or miss) in
    // the swept kilobyte-scale geometries. MSHRs and every other
    // non-cache parameter stay at baseline across all cells.
    HardwareConfig base = HardwareConfig::baseline();
    base.numCores = 2;
    base.warpsPerCore = 4;

    const std::vector<Cell> cells = geometryGrid();
    const std::vector<Workload> &suite = microWorkloads();

    std::cout << "=== MRC fast path: cache-geometry sweep bench ===\n";
    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency() << ", reps: "
              << reps << " (best-of), grid: " << cells.size()
              << " cells (L1 1-16 KB x L2 4-192 KB), MSHRs fixed at "
              << base.numMshrs << "\n\n";

    JsonWriter json;
    json.field("bench", "ext_mrc_sweep");
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));
    json.field("grid_cells", static_cast<std::uint64_t>(cells.size()));
    json.field("kernels", static_cast<std::uint64_t>(suite.size()));

    Table t({"kernel", "rerun ms", "mrc ms", "speedup", "max drift"});
    double rerun_sum = 0.0, mrc_sum = 0.0;
    double suite_max_drift = 0.0;
    std::string worst_cell;
    json.beginObject("kernels_detail");
    for (const Workload &w : suite) {
        KernelTrace kernel = w.generate(base);

        std::vector<double> rerun_cpis = sweepRerun(kernel, base, cells);
        std::vector<double> mrc_cpis =
            sweepMrc(kernel, base, cells, 1.0);

        double max_drift = 0.0;
        json.beginObject(w.name);
        json.beginObject("cells");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            double drift = relDrift(mrc_cpis[i], rerun_cpis[i]);
            json.beginObject(cells[i].label);
            json.field("rerun_cpi", rerun_cpis[i]);
            json.field("mrc_cpi", mrc_cpis[i]);
            json.field("drift", drift);
            json.endObject();
            if (drift > max_drift)
                max_drift = drift;
            if (drift > suite_max_drift) {
                suite_max_drift = drift;
                worst_cell = msg(w.name, " @ ", cells[i].label);
            }
        }
        json.endObject();

        double rerun_ms =
            timeMs(reps, [&] { sweepRerun(kernel, base, cells); });
        double mrc_ms =
            timeMs(reps, [&] { sweepMrc(kernel, base, cells, 1.0); });

        t.addRow({w.name, fmtDouble(rerun_ms, 2), fmtDouble(mrc_ms, 2),
                  fmtDouble(rerun_ms / mrc_ms, 2),
                  fmtPercent(max_drift)});
        json.field("rerun_ms", rerun_ms);
        json.field("mrc_ms", mrc_ms);
        json.field("speedup", rerun_ms / mrc_ms);
        json.field("max_drift", max_drift);
        json.endObject();
        rerun_sum += rerun_ms;
        mrc_sum += mrc_ms;
    }
    json.endObject();

    double suite_speedup = rerun_sum / mrc_sum;
    json.field("suite_rerun_ms", rerun_sum);
    json.field("suite_mrc_ms", mrc_sum);
    json.field("suite_speedup", suite_speedup);
    json.field("suite_max_drift", suite_max_drift);
    json.field("suite_max_drift_cell", worst_cell);
    // Both sweep paths use the shared pool only for their per-core
    // cache walks, so the 5x claim is algorithmic (one reuse-distance
    // profile vs per-cell re-simulation) and the gate holds at any
    // thread count, GPUMECH_JOBS=1 included -- it is never skipped.
    json.field("speedup_gate", gateVerdict(suite_speedup >= 5.0));
    json.field("drift_gate", gateVerdict(suite_max_drift <= 0.02));

    t.print(std::cout);
    std::cout << "\nsuite: " << fmtDouble(rerun_sum, 1)
              << " ms rerun vs " << fmtDouble(mrc_sum, 1) << " ms mrc ("
              << fmtDouble(suite_speedup, 2) << "x), max CPI drift "
              << fmtPercent(suite_max_drift) << " (" << worst_cell
              << ")\n\n";

    // ---- SHARDS sampling-rate ablation ------------------------------
    // Drift vs the rerun reference when only 1 line in 10 is profiled.
    // The micro kernels' footprints are small, so sampling is noisy
    // here — this bounds the worst case, production traces fare better.
    std::cout << "-- sampling ablation (rate 0.1 vs rerun) --\n";
    Table st({"kernel", "mrc ms", "max drift"});
    json.beginObject("rate_ablation");
    json.field("rate", 0.1);
    double sampled_sum = 0.0, sampled_max_drift = 0.0;
    json.beginObject("kernels_detail");
    for (const Workload &w : suite) {
        KernelTrace kernel = w.generate(base);
        std::vector<double> rerun_cpis = sweepRerun(kernel, base, cells);
        std::vector<double> mrc_cpis =
            sweepMrc(kernel, base, cells, 0.1);
        double max_drift = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i)
            max_drift = std::max(
                max_drift, relDrift(mrc_cpis[i], rerun_cpis[i]));
        double mrc_ms =
            timeMs(reps, [&] { sweepMrc(kernel, base, cells, 0.1); });
        st.addRow({w.name, fmtDouble(mrc_ms, 2),
                   fmtPercent(max_drift)});
        json.beginObject(w.name);
        json.field("mrc_ms", mrc_ms);
        json.field("max_drift", max_drift);
        json.endObject();
        sampled_sum += mrc_ms;
        sampled_max_drift = std::max(sampled_max_drift, max_drift);
    }
    json.endObject();
    json.field("suite_mrc_ms", sampled_sum);
    json.field("suite_max_drift", sampled_max_drift);
    json.endObject();
    st.print(std::cout);
    std::cout << "suite: " << fmtDouble(sampled_sum, 1)
              << " ms at rate 0.1 (" << fmtDouble(
                     rerun_sum / sampled_sum, 2)
              << "x vs rerun), max drift "
              << fmtPercent(sampled_max_drift) << "\n";

    std::cout << "\nheadline: one reuse-distance profile prices the "
              << cells.size() << "-cell geometry grid "
              << fmtDouble(suite_speedup, 2)
              << "x faster than per-cell functional re-simulation, "
                 "with max model-CPI drift "
              << fmtPercent(suite_max_drift) << " ("
              << (suite_speedup >= 5.0 && suite_max_drift <= 0.02
                      ? "gates PASS"
                      : "gates FAIL")
              << ": speedup >= 5x, drift <= 2%).\n";

    std::ofstream out(out_path);
    if (!out)
        fatal(msg("cannot open ", out_path, " for writing"));
    out << json.finish() << "\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
