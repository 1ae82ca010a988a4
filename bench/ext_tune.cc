/**
 * @file
 * Guided design-space exploration bench: `tune` vs exhaustive search
 * on the ext_mrc_sweep cache-geometry grid.
 *
 * For every micro kernel, price all 96 L1 x L2 geometry cells
 * exhaustively through the shared reuse-distance profile (the same
 * evaluation path tune uses), then run the coordinate-descent tuner
 * over the same two ladders and compare:
 *
 *  1. optimum — tune's best CPI must land within 2% of the
 *     exhaustive 96-cell optimum;
 *  2. budget — tune must spend at most 1/5 of the exhaustive
 *     evaluation count doing it;
 *  3. explained — every Pareto-frontier point must carry a
 *     CPI-stack-delta explanation;
 *  4. repro — the report must be byte-identical at --jobs 1 and
 *     --jobs 8 (fresh sessions, same seed).
 *
 * All four gates are search-quality claims, not thread-scaling
 * claims, so they record pass/fail at any hardware_threads count.
 * Results go to stdout and BENCH_tune.json (see --out).
 *
 * Options: --out FILE (default BENCH_tune.json)
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gates.hh"

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/gpumech.hh"
#include "harness/tune.hh"
#include "workloads/workload.hh"

using namespace gpumech;

namespace
{

/** The ext_mrc_sweep geometry grid as two tune ladders. */
const std::vector<double> kL1Ladder = {1, 2, 3, 4, 6, 8, 12, 16};
const std::vector<double> kL2Ladder = {4,  6,  8,  12, 16,  24,
                                       32, 48, 64, 96, 128, 192};

TuneOptions
gridOptions(unsigned jobs)
{
    TuneOptions options;
    options.dims = {{"l1-kb", kL1Ladder}, {"l2-kb", kL2Ladder}};
    options.restarts = 1;
    options.seed = 1;
    options.jobs = jobs;
    return options;
}

/**
 * Exhaustive minimum CPI over the full grid, mirroring tune's
 * evaluation path exactly (shared reuse-distance profile at the base
 * trace shape, evaluateAt per cell).
 */
double
exhaustiveBestCpi(EvalSession &session, const Workload &w,
                  const HardwareConfig &base)
{
    std::shared_ptr<const GpuMechProfiler> profiler =
        session.cache.mrcProfiler(w, base, 1.0);
    double best = std::numeric_limits<double>::infinity();
    for (double l1 : kL1Ladder) {
        for (double l2 : kL2Ladder) {
            HardwareConfig config = base;
            config.l1SizeBytes = static_cast<std::uint32_t>(l1) * 1024;
            config.l2SizeBytes = static_cast<std::uint32_t>(l2) * 1024;
            config.validate().orDie();
            double cpi = profiler
                             ->evaluateAt(config,
                                          SchedulingPolicy::RoundRobin,
                                          ModelLevel::MT_MSHR_BAND,
                                          false)
                             .cpi;
            if (cpi < best)
                best = cpi;
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    args.checkOptionNames({"out"}).orDie();
    std::string out_path = args.get("out", "BENCH_tune.json");

    HardwareConfig base = HardwareConfig::baseline();
    base.numCores = 2;
    base.warpsPerCore = 4;

    const std::vector<Workload> &suite = microWorkloads();
    const std::size_t grid_cells = kL1Ladder.size() * kL2Ladder.size();
    const double eval_budget =
        static_cast<double>(grid_cells) / 5.0;

    std::cout << "=== Guided design-space exploration: tune vs "
                 "exhaustive ===\n";
    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency() << ", grid: "
              << grid_cells << " cells (L1 1-16 KB x L2 4-192 KB), "
              << "budget: " << eval_budget << " evaluations\n\n";

    JsonWriter json;
    json.field("bench", "ext_tune");
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));
    json.field("grid_cells", static_cast<std::uint64_t>(grid_cells));
    json.field("eval_budget", eval_budget);
    json.field("kernels", static_cast<std::uint64_t>(suite.size()));

    Table t({"kernel", "exhaustive cpi", "tune cpi", "gap", "evals",
             "frontier"});
    bool optimum_ok = true, budget_ok = true, explained_ok = true;
    bool repro_ok = true;
    double worst_gap = 0.0;
    std::uint64_t max_evals = 0;

    json.beginObject("kernels_detail");
    for (const Workload &w : suite) {
        EvalSession exhaustive_session;
        double best_cpi = exhaustiveBestCpi(exhaustive_session, w, base);

        EvalSession session;
        Result<TuneResult> run =
            runTune(session, w, base, gridOptions(1));
        run.status().orDie();
        const TuneResult &result = run.value();

        // Reproducibility: a fresh session at 8 workers must emit the
        // same report bytes the 1-worker run did.
        EvalSession session8;
        Result<TuneResult> run8 =
            runTune(session8, w, base, gridOptions(8));
        run8.status().orDie();
        bool identical =
            tuneResultToJson(result, w.name, gridOptions(1)) ==
            tuneResultToJson(run8.value(), w.name, gridOptions(8));

        double gap = result.best.cpi / best_cpi - 1.0;
        bool explained = !result.frontier.empty();
        for (const TunePoint &p : result.frontier) {
            if (p.explanation.text.empty())
                explained = false;
        }

        optimum_ok = optimum_ok && gap <= 0.02;
        budget_ok = budget_ok &&
                    static_cast<double>(result.evaluations) <=
                        eval_budget;
        explained_ok = explained_ok && explained;
        repro_ok = repro_ok && identical;
        worst_gap = std::max(worst_gap, gap);
        max_evals = std::max(
            max_evals,
            static_cast<std::uint64_t>(result.evaluations));

        t.addRow({w.name, fmtDouble(best_cpi, 4),
                  fmtDouble(result.best.cpi, 4), fmtPercent(gap),
                  msg(result.evaluations),
                  msg(result.frontier.size())});
        json.beginObject(w.name);
        json.field("exhaustive_best_cpi", best_cpi);
        json.field("tune_best_cpi", result.best.cpi);
        json.field("gap", gap);
        json.field("evaluations",
                   static_cast<std::uint64_t>(result.evaluations));
        json.field("frontier_points",
                   static_cast<std::uint64_t>(result.frontier.size()));
        json.field("jobs_identical", identical);
        json.endObject();
    }
    json.endObject();

    json.field("worst_gap", worst_gap);
    json.field("max_evaluations", max_evals);
    json.field("optimum_gate", gateVerdict(optimum_ok));
    json.field("budget_gate", gateVerdict(budget_ok));
    json.field("explained_gate", gateVerdict(explained_ok));
    json.field("repro_gate", gateVerdict(repro_ok));

    t.print(std::cout);
    bool all_ok = optimum_ok && budget_ok && explained_ok && repro_ok;
    std::cout << "\nheadline: coordinate descent recovers the "
              << grid_cells << "-cell optimum to within "
              << fmtPercent(worst_gap) << " using at most "
              << max_evals << " evaluations ("
              << (all_ok ? "gates PASS" : "gates FAIL")
              << ": gap <= 2%, evals <= " << eval_budget
              << ", frontier explained, jobs-reproducible).\n";

    std::ofstream out(out_path);
    if (!out)
        fatal(msg("cannot open ", out_path, " for writing"));
    out << json.finish() << "\n";
    std::cout << "wrote " << out_path << "\n";

    if (!all_ok)
        fatal("ext_tune gates failed");
    return 0;
}
