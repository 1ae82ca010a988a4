/**
 * @file
 * The paper's evaluation as one ledger: Figs. 4, 7 and 11-16, the
 * Section III-C (k = 2 suffices) and IV-B (one contention model serves
 * both policies) ablations, phased-kernel sensitivity, and the
 * issue-width, measured-stack and SFU extensions.
 *
 * Each section is data: a kernel set, machines (Table I with at most
 * one knob moved), scheduling policies and model variants. Every
 * distinct (kernel, machine, policy) cell the sections name runs the
 * timing oracle once, on one EvalSession's cached trace, and every
 * variant its sections ask for evaluates through the session's cached
 * profilers (evaluateAt). Cells run grouped by trace and the cache is
 * dropped between groups, so only one warp count's traces are held at
 * a time. Each section's text is rendered from that ledger, which is
 * also written to --out. The ledger holds no timings: two runs write
 * the same file at any --jobs, apart from hardware_threads.
 *
 * usage: accuracy [--jobs N] [--out FILE]   (FILE: BENCH_accuracy.json)
 */

#include <atomic>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "harness/session.hh"
#include "harness/sweep.hh"

using namespace gpumech;

namespace
{

/**
 * A machine: Table I with at most one knob moved. "issue-width" moves
 * issueWidth and issueRate together (HardwareConfig::withIssueWidth);
 * any other name is a knobTable row.
 */
struct Point
{
    const char *knob = nullptr; //!< null: Table I itself
    double value = 0.0;

    HardwareConfig
    config() const
    {
        HardwareConfig c = HardwareConfig::baseline();
        if (knob == nullptr)
            return c;
        if (const Knob *row = findKnob(knob)) {
            row->set(c, value);
            return c;
        }
        return c.withIssueWidth(static_cast<std::uint32_t>(value));
    }

    /** "knob=value", or "" for Table I however it is named. */
    std::string
    key() const
    {
        if (knob == nullptr)
            return "";
        HardwareConfig table1 = HardwareConfig::baseline();
        const Knob *row = findKnob(knob);
        double at_table1 = row ? row->get(table1) : table1.issueWidth;
        return value == at_table1 ? "" : msg(knob, '=', fmtShortest(value));
    }
};

/** A Table II model, with its representative selection, cluster
 *  count and SFU term. */
struct Variant
{
    ModelKind model = ModelKind::MT_MSHR_BAND;
    RepSelection selection = RepSelection::Clustering;
    std::uint32_t k = 2;
    bool sfu = false;   //!< add the SFU contention term
    bool stack = false; //!< write the CPI stack to the ledger file

    std::string
    name() const
    {
        std::string n = toString(model);
        if (selection != RepSelection::Clustering)
            n += "/" + toString(selection);
        if (k != 2)
            n += msg("/k=", k);
        if (sfu)
            n += "+SFU";
        if (stack)
            n += "+stack";
        return n;
    }
};

struct Prediction
{
    Variant variant;
    GpuMechResult result;
};

/** One (kernel, machine, policy) cell: its oracle run and the
 *  prediction of every variant its sections ask for. */
struct Cell
{
    const Workload *workload = nullptr;
    Point point;
    SchedulingPolicy policy = SchedulingPolicy::RoundRobin;
    TimingStats oracle;
    std::map<std::string, Prediction> models; //!< by Variant::name()

    double oracleIpc() const { return 1.0 / oracle.cpi(); }

    const GpuMechResult &
    at(const Variant &v) const
    {
        return models.at(v.name()).result;
    }

    double
    error(const Variant &v) const
    {
        return relativeError(at(v).ipc, oracleIpc());
    }
};

std::string
cellKey(const Workload &w, const Point &p, SchedulingPolicy policy)
{
    return msg(w.name, '|', p.key(), '|', toString(policy));
}

struct Ledger
{
    std::vector<Cell> cells; //!< in the order the sections name them
    std::map<std::string, std::size_t> slots; //!< cellKey -> cells
    std::uint64_t oracleRuns = 0;

    const Cell &
    at(const Workload &w, const Point &p, SchedulingPolicy policy) const
    {
        return cells[slots.at(cellKey(w, p, policy))];
    }
};

/** The numbers a section's text reports, by name. */
using Reported = std::vector<std::pair<std::string, double>>;

struct Section;
using Render = void (*)(const Section &, const Ledger &, std::ostream &,
                        Reported &);

struct Section
{
    const char *name;  //!< key in the ledger file
    const char *title; //!< text heading
    bool showConfig;   //!< print Table I under the heading
    std::vector<const Workload *> kernels;
    std::vector<Point> points;
    std::vector<SchedulingPolicy> policies;
    std::vector<Variant> variants;
    Render render;
    const char *note;        //!< the paper's claim or expected shape
    const char *unit = "";   //!< sweep column label after the value
};

std::vector<const Workload *>
pointers(const std::vector<Workload> &set)
{
    std::vector<const Workload *> out;
    for (const Workload &w : set)
        out.push_back(&workloadByName(w.name));
    return out;
}

std::vector<const Workload *>
named(std::initializer_list<const char *> names)
{
    std::vector<const Workload *> out;
    for (const char *name : names)
        out.push_back(&workloadByName(name));
    return out;
}

std::vector<Point>
sweep(const char *knob, std::initializer_list<double> values)
{
    std::vector<Point> out;
    for (double v : values)
        out.push_back({knob, v});
    return out;
}

std::vector<Variant>
tableII()
{
    std::vector<Variant> out;
    for (ModelKind kind : allModels())
        out.push_back({.model = kind});
    return out;
}

/** Every cell the sections name, each asked for the union of its
 *  sections' variants. */
Ledger
plan(const std::vector<Section> &sections)
{
    Ledger ledger;
    for (const Section &s : sections) {
        for (const Workload *w : s.kernels) {
            for (const Point &p : s.points) {
                for (SchedulingPolicy policy : s.policies) {
                    auto [slot, fresh] = ledger.slots.try_emplace(
                        cellKey(*w, p, policy), ledger.cells.size());
                    if (fresh) {
                        ledger.cells.push_back(
                            {w, p.key().empty() ? Point{} : p, policy, {},
                             {}});
                    }
                    for (const Variant &v : s.variants) {
                        ledger.cells[slot->second].models.try_emplace(
                            v.name(), Prediction{v, {}});
                    }
                }
            }
        }
    }
    return ledger;
}

/**
 * Run every cell's oracle once and evaluate its variants. Cells that
 * share a trace run together; the cache is dropped after each group.
 */
void
run(Ledger &ledger, EvalSession &session)
{
    std::map<std::string, std::vector<Cell *>> groups;
    for (Cell &cell : ledger.cells)
        groups[cell.point.config().traceKey()].push_back(&cell);

    std::atomic<std::uint64_t> oracle_runs{0};
    for (const auto &group : groups) {
        const std::vector<Cell *> &cells = group.second;
        parallelFor(
            cells.size(),
            [&](std::size_t i) {
                Cell &cell = *cells[i];
                HardwareConfig config = cell.point.config();
                std::shared_ptr<const KernelTrace> trace =
                    session.cache.trace(*cell.workload, config);
                cell.oracle = GpuTiming(*trace, config, cell.policy).run();
                ++oracle_runs;
                for (auto &[name, p] : cell.models) {
                    const Variant &v = p.variant;
                    p.result = predictModel(
                        *session.cache.profiler(*cell.workload, config,
                                                v.selection, v.k),
                        config, cell.policy, v.model, v.sfu);
                }
            },
            1, session.jobs);
        session.cache.clear();
    }
    ledger.oracleRuns = oracle_runs;
}

// --- renderers: one per kind of section -------------------------------

/** Fig. 4: each variant's IPC against the oracle's on one cell. */
void
caseStudy(const Section &s, const Ledger &ledger, std::ostream &os,
          Reported &sum)
{
    const Cell &cell = ledger.at(*s.kernels[0], s.points[0], s.policies[0]);
    Table t({"model", "predicted IPC", "oracle IPC", "error"});
    for (const Variant &v : s.variants) {
        t.addRow({v.name(), fmtDouble(cell.at(v).ipc, 4),
                  fmtDouble(cell.oracleIpc(), 4),
                  fmtPercent(cell.error(v))});
        sum.emplace_back("error." + v.name(), cell.error(v));
    }
    t.print(os);
}

/** Each variant's error per kernel at one machine and policy, then
 *  each variant's mean; @p labels name the variants. */
void
variantErrors(const Section &s, const Ledger &ledger, std::ostream &os,
              Reported &sum, const std::vector<std::string> &labels,
              bool oracle_column, const char *per)
{
    std::vector<std::string> header{"kernel"};
    if (oracle_column)
        header.push_back("oracle CPI");
    header.insert(header.end(), labels.begin(), labels.end());
    Table t(header);
    std::vector<std::vector<double>> errors(s.variants.size());
    for (const Workload *w : s.kernels) {
        const Cell &cell = ledger.at(*w, s.points[0], s.policies[0]);
        std::vector<std::string> row{w->name};
        if (oracle_column)
            row.push_back(fmtDouble(cell.oracle.cpi(), 2));
        for (std::size_t i = 0; i < s.variants.size(); ++i) {
            errors[i].push_back(cell.error(s.variants[i]));
            row.push_back(fmtPercent(errors[i].back()));
        }
        t.addRow(std::move(row));
    }
    t.print(os);

    os << "\nAverage error per " << per << ":\n";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        os << "  " << labels[i] << ": " << fmtPercent(mean(errors[i]))
           << "\n";
        sum.emplace_back("average." + labels[i], mean(errors[i]));
    }
}

/** Fig. 7: GPUMech under each representative-warp selection. */
void
selection(const Section &s, const Ledger &ledger, std::ostream &os,
          Reported &sum)
{
    std::vector<std::string> labels;
    for (const Variant &v : s.variants)
        labels.push_back(toString(v.selection));
    variantErrors(s, ledger, os, sum, labels, true, "selection method");
}

/** Section III-C: GPUMech at each cluster count k. */
void
clusterCount(const Section &s, const Ledger &ledger, std::ostream &os,
             Reported &sum)
{
    std::vector<std::string> labels;
    for (const Variant &v : s.variants)
        labels.push_back(msg("k=", v.k));
    variantErrors(s, ledger, os, sum, labels, false, "k");
}

/** Figs. 11 and 12: the five Table II models on every kernel. */
void
models(const Section &s, const Ledger &ledger, std::ostream &os,
       Reported &sum)
{
    Table t({"kernel", "oracle CPI", "Naive", "Markov", "MT", "MT_MSHR",
             "GPUMech"});
    std::vector<std::vector<double>> errors(s.variants.size());
    for (const Workload *w : s.kernels) {
        const Cell &cell = ledger.at(*w, s.points[0], s.policies[0]);
        std::vector<std::string> row{w->name,
                                     fmtDouble(cell.oracle.cpi(), 2)};
        for (std::size_t i = 0; i < s.variants.size(); ++i) {
            errors[i].push_back(cell.error(s.variants[i]));
            bool gpumech = s.variants[i].model == ModelKind::MT_MSHR_BAND;
            row.push_back(fmtPercent(errors[i].back(), gpumech ? 1 : 0));
        }
        t.addRow(std::move(row));
    }
    t.print(os);

    os << "\nAverage error per model:\n";
    for (std::size_t i = 0; i < s.variants.size(); ++i) {
        std::string name = s.variants[i].name();
        os << "  " << name << ": " << fmtPercent(mean(errors[i])) << "\n";
        sum.emplace_back("average." + name, mean(errors[i]));
    }
    os << "\nKernels with <20% error:\n";
    for (std::size_t i = 0; i < s.variants.size(); ++i) {
        ModelKind kind = s.variants[i].model;
        if (kind != ModelKind::MarkovChain &&
            kind != ModelKind::MT_MSHR_BAND)
            continue;
        double within = fractionBelow(errors[i], 0.20);
        os << "  " << toString(kind) << ": " << fmtPercent(within) << "\n";
        sum.emplace_back("under_20pct." + toString(kind), within);
    }
}

/** Figs. 13-15: each model's mean error at each machine. */
void
machineSweep(const Section &s, const Ledger &ledger, std::ostream &os,
             Reported &sum)
{
    SweepResult result;
    for (const Point &p : s.points)
        result.labels.push_back(fmtShortest(p.value) + s.unit);
    for (const Variant &v : s.variants) {
        for (std::size_t p = 0; p < s.points.size(); ++p) {
            std::vector<double> errors;
            for (const Workload *w : s.kernels) {
                errors.push_back(
                    ledger.at(*w, s.points[p], s.policies[0]).error(v));
            }
            result.averages[v.model].push_back(mean(errors));
            sum.emplace_back(
                msg("average.", v.name(), '.', result.labels[p]),
                mean(errors));
        }
    }
    printSweep(os, result);
}

/** Fig. 16: GPUMech's CPI stack and the oracle CPI at each warp
 *  count, normalized by the oracle CPI at the first. */
void
cpiStacks(const Section &s, const Ledger &ledger, std::ostream &os,
          Reported &)
{
    for (const Workload *w : s.kernels) {
        if (w != s.kernels.front())
            os << "\n";
        os << "--- " << w->name << " (" << w->description << ") ---\n";
        Table t({"warps", "BASE", "DEP", "L1", "L2", "DRAM", "MSHR",
                 "QUEUE", "model CPI", "oracle CPI", "norm model",
                 "norm oracle"});
        double base_oracle =
            ledger.at(*w, s.points[0], s.policies[0]).oracle.cpi();
        for (const Point &p : s.points) {
            const Cell &cell = ledger.at(*w, p, s.policies[0]);
            const CpiStack &stack = cell.at(s.variants[0]).stack;
            double oracle_cpi = cell.oracle.cpi();
            std::vector<std::string> row{fmtShortest(p.value)};
            for (StallType type :
                 {StallType::Base, StallType::Dep, StallType::L1,
                  StallType::L2, StallType::Dram, StallType::Mshr,
                  StallType::Queue})
                row.push_back(fmtDouble(stack[type], 2));
            row.insert(row.end(),
                       {fmtDouble(stack.total(), 2),
                        fmtDouble(oracle_cpi, 2),
                        fmtDouble(stack.total() / base_oracle, 2),
                        fmtDouble(oracle_cpi / base_oracle, 2)});
            t.addRow(std::move(row));
        }
        t.print(os);
    }
}

/** Section IV-B: how far the oracle CPI moves between the two
 *  policies, split by GPUMech's contention CPI under RR. */
void
contentionPolicy(const Section &s, const Ledger &ledger,
                 std::ostream &os, Reported &sum)
{
    Table t({"kernel", "oracle CPI (RR)", "oracle CPI (GTO)",
             "policy delta", "model contention CPI"});
    std::vector<double> deltas_low, deltas_high;
    for (const Workload *w : s.kernels) {
        const Cell &rr = ledger.at(*w, s.points[0], s.policies[0]);
        const Cell &gto = ledger.at(*w, s.points[0], s.policies[1]);
        double delta = relativeError(gto.oracle.cpi(), rr.oracle.cpi());
        double contention = rr.at(s.variants[0]).cpiContention;
        (contention > 1.0 ? deltas_high : deltas_low).push_back(delta);
        t.addRow({w->name, fmtDouble(rr.oracle.cpi(), 2),
                  fmtDouble(gto.oracle.cpi(), 2), fmtPercent(delta),
                  fmtDouble(contention, 2)});
    }
    t.print(os);

    os << "\nMean |CPI(GTO) - CPI(RR)| / CPI(RR):\n";
    os << "  low-contention kernels  (model contention <= 1 CPI): "
       << fmtPercent(mean(deltas_low)) << "\n";
    os << "  high-contention kernels (model contention >  1 CPI): "
       << fmtPercent(mean(deltas_high)) << "\n";
    sum.emplace_back("policy_delta.low_contention", mean(deltas_low));
    sum.emplace_back("policy_delta.high_contention", mean(deltas_high));
}

/** GPUMech on the phased stress kernels against uniform ones. */
void
phaseSensitivity(const Section &s, const Ledger &ledger,
                 std::ostream &os, Reported &sum)
{
    std::vector<double> errors[2];
    for (bool phased : {true, false}) {
        Table t({"kernel", "oracle CPI", "GPUMech CPI", "error"});
        for (const Workload *w : s.kernels) {
            if ((w->suite == "stress") != phased)
                continue;
            const Cell &cell = ledger.at(*w, s.points[0], s.policies[0]);
            errors[phased].push_back(cell.error(s.variants[0]));
            t.addRow({w->name, fmtDouble(cell.oracle.cpi(), 2),
                      fmtDouble(1.0 / cell.at(s.variants[0]).ipc, 2),
                      fmtPercent(errors[phased].back())});
        }
        os << "-- "
           << (phased ? "phased stress kernels" : "uniform comparators")
           << " --\n";
        t.print(os);
        os << "\n";
    }
    os << "Average GPUMech error: phased " << fmtPercent(mean(errors[1]))
       << " vs uniform " << fmtPercent(mean(errors[0])) << "\n";
    sum.emplace_back("average.phased", mean(errors[1]));
    sum.emplace_back("average.uniform", mean(errors[0]));
}

/** GPUMech against the oracle as the issue width grows. */
void
issueWidth(const Section &s, const Ledger &ledger, std::ostream &os,
           Reported &sum)
{
    Table t({"kernel", "width", "oracle CPI", "model CPI", "error"});
    std::vector<std::vector<double>> errors(s.points.size());
    for (const Workload *w : s.kernels) {
        for (std::size_t p = 0; p < s.points.size(); ++p) {
            const Cell &cell = ledger.at(*w, s.points[p], s.policies[0]);
            errors[p].push_back(cell.error(s.variants[0]));
            t.addRow({w->name, fmtShortest(s.points[p].value),
                      fmtDouble(cell.oracle.cpi(), 3),
                      fmtDouble(cell.at(s.variants[0]).cpi, 3),
                      fmtPercent(errors[p].back())});
        }
    }
    t.print(os);

    os << "\nAverage model error per issue width:\n";
    for (std::size_t p = 0; p < s.points.size(); ++p) {
        std::string width = fmtShortest(s.points[p].value);
        os << "  width " << width << ": " << fmtPercent(mean(errors[p]))
           << "\n";
        sum.emplace_back("average.width=" + width, mean(errors[p]));
    }
}

/** GPUMech's stack against the oracle's measured stall cycles. */
void
measuredStacks(const Section &s, const Ledger &ledger, std::ostream &os,
               Reported &)
{
    Table t({"kernel", "category", "model CPI", "measured CPI"});
    for (const Workload *w : s.kernels) {
        const Cell &cell = ledger.at(*w, s.points[0], s.policies[0]);
        const CpiStack &stack = cell.at(s.variants[0]).stack;
        const TimingStats &o = cell.oracle;
        double model_mem = stack[StallType::L1] + stack[StallType::L2] +
                           stack[StallType::Dram] +
                           stack[StallType::Queue];
        t.addRow({w->name, "BASE", fmtDouble(stack[StallType::Base], 2),
                  "1.00"});
        t.addRow({"", "DEP", fmtDouble(stack[StallType::Dep], 2),
                  fmtDouble(o.computeStallCpi(), 2)});
        t.addRow({"", "mem (L1+L2+DRAM+QUEUE)", fmtDouble(model_mem, 2),
                  fmtDouble(o.memStallCpi(), 2)});
        t.addRow({"", "MSHR", fmtDouble(stack[StallType::Mshr], 2),
                  fmtDouble(o.mshrStallCpi(), 2)});
        t.addRow({"", "total", fmtDouble(stack.total(), 2),
                  fmtDouble(o.cpi(), 2)});
    }
    t.print(os);
}

/** GPUMech with and without the SFU term as SFU lanes shrink. */
void
sfuContention(const Section &s, const Ledger &ledger, std::ostream &os,
              Reported &sum)
{
    const Variant &base = s.variants[0];
    const Variant &ext = s.variants[1];
    Table t({"kernel", "SFU lanes", "oracle CPI", "GPUMech err",
             "GPUMech+SFU err", "model SFU CPI"});
    std::vector<std::vector<double>> base_err(s.points.size()),
        ext_err(s.points.size());
    for (const Workload *w : s.kernels) {
        for (std::size_t p = 0; p < s.points.size(); ++p) {
            const Cell &cell = ledger.at(*w, s.points[p], s.policies[0]);
            base_err[p].push_back(cell.error(base));
            ext_err[p].push_back(cell.error(ext));
            t.addRow({w->name, fmtShortest(s.points[p].value),
                      fmtDouble(cell.oracle.cpi(), 2),
                      fmtPercent(base_err[p].back()),
                      fmtPercent(ext_err[p].back()),
                      fmtDouble(cell.at(ext).contention.sfuCpi, 2)});
        }
    }
    t.print(os);

    os << "\nAverage error on SFU-heavy kernels:\n";
    for (std::size_t p = 0; p < s.points.size(); ++p) {
        std::string lanes = fmtShortest(s.points[p].value);
        os << "  " << lanes << " lanes: GPUMech "
           << fmtPercent(mean(base_err[p])) << " -> GPUMech+SFU "
           << fmtPercent(mean(ext_err[p])) << "\n";
        sum.emplace_back(msg("average.", base.name(), ".lanes=", lanes),
                         mean(base_err[p]));
        sum.emplace_back(msg("average.", ext.name(), ".lanes=", lanes),
                         mean(ext_err[p]));
    }
}

std::vector<Section>
sections()
{
    const std::vector<Point> table1{Point{}};
    const std::vector<SchedulingPolicy> rr{SchedulingPolicy::RoundRobin};
    const std::vector<const Workload *> evaluation =
        pointers(evaluationWorkloads());
    const std::vector<const Workload *> divergent =
        pointers(controlDivergentWorkloads());
    std::vector<const Workload *> phased = pointers(stressWorkloads());
    for (const Workload *w : named({"micro_stream", "micro_divergent8",
                                    "micro_divergent32",
                                    "micro_write_burst"}))
        phased.push_back(w);
    const Variant gpumech;

    return {
        {"fig04", "Figure 4: SRAD case study", true,
         named({"srad_kernel1"}), table1, rr,
         {{.model = ModelKind::NaiveInterval}, {.model = ModelKind::MT},
          {.model = ModelKind::MT_MSHR}, gpumech},
         caseStudy,
         "paper shape: error drops monotonically as MT, MSHR and DRAM "
         "bandwidth modeling are added."},
        {"fig07",
         "Figure 7: representative-warp selection on control-divergent "
         "kernels",
         true, divergent, table1, rr,
         {{.selection = RepSelection::MaxPerf},
          {.selection = RepSelection::MinPerf}, gpumech},
         selection,
         "paper shape: Clustering has the best (or tied) average accuracy "
         "across control-divergent kernels."},
        {"fig11", "Figure 11: model comparison, round-robin", true,
         evaluation, table1, rr, tableII(), models,
         "paper: GPUMech avg 13.2% (RR), Markov_Chain avg 62.9%; 75% of "
         "kernels <20% (GPUMech) vs 50% (Markov_Chain)."},
        {"fig12", "Figure 12: model comparison, greedy-then-oldest", true,
         evaluation, table1, {SchedulingPolicy::GreedyThenOldest},
         tableII(), models,
         "paper: GPUMech avg 14.0% (GTO), Markov_Chain avg 65.3%."},
        {"fig13", "Figure 13: error vs warps per core (RR)", false,
         evaluation, sweep("warps", {8, 16, 32, 48}), rr, tableII(),
         machineSweep,
         "paper shape: errors of Naive/Markov/MT grow with warp count; "
         "MT_MSHR_BAND stays low (13.2% at 32 warps).",
         " warps"},
        {"fig14", "Figure 14: error vs MSHR entries (RR)", false,
         evaluation, sweep("mshrs", {64, 96, 128, 256}), rr, tableII(),
         machineSweep,
         "paper shape: every model except MT_MSHR_BAND gets worse as MSHR "
         "entries increase (DRAM congestion grows).",
         " MSHRs"},
        {"fig15", "Figure 15: error vs DRAM bandwidth (RR)", false,
         evaluation, sweep("bw", {64, 128, 192, 256}), rr, tableII(),
         machineSweep,
         "paper shape: all models improve with more bandwidth; "
         "MT_MSHR_BAND dominates, with its largest error at 64 GB/s.",
         " GB/s"},
        {"fig16", "Figure 16: CPI stacks vs warps per core", false,
         named({"cfd_step_factor", "cfd_compute_flux",
                "kmeans_invert_mapping"}),
         sweep("warps", {8, 16, 32, 48}), rr, {{.stack = true}},
         cpiStacks,
         "paper shape: step_factor scales (DRAM-latency dominated, "
         "negligible MSHR/QUEUE until 48 warps); compute_flux saturates "
         "~32 warps (MSHR dominates); invert_mapping is QUEUE-dominated "
         "via divergent writes despite high L1 hit rates."},
        {"contention_policy",
         "Ablation: contention model vs scheduling policy", true,
         evaluation, table1,
         {SchedulingPolicy::RoundRobin,
          SchedulingPolicy::GreedyThenOldest},
         {gpumech}, contentionPolicy,
         "paper claim: when contention is high, scheduling policy barely "
         "moves the queuing delays, so one contention model serves both "
         "policies."},
        {"kmeans_k", "Ablation: k-means cluster count", true, divergent,
         table1, rr,
         {{.k = 1}, {.k = 2}, {.k = 3}, {.k = 4}, {.k = 6}},
         clusterCount,
         "paper choice: k=2; the sweep shows whether larger k changes "
         "accuracy on control-divergent kernels."},
        {"phase_sensitivity", "Ablation: phased-kernel sensitivity", true,
         phased, table1, rr, {gpumech}, phaseSensitivity,
         "interpretation: most of the phased penalty is an oracle "
         "artifact. The oracle ends a kernel at its last instruction, "
         "before its writes drain, so the DRAM time the model charges "
         "for stress_write_burst_tail's writes never shows in the "
         "oracle's CPI."},
        {"issue_width", "Extension: issue-width scaling", false,
         named({"micro_compute_chain", "vectorAdd", "sgemm_tiled",
                "hotspot_calculate_temp", "srad_kernel1",
                "kmeans_invert_mapping"}),
         sweep("issue-width", {1, 2, 4}), rr, {gpumech}, issueWidth,
         "expected shape: compute-bound kernels approach CPI 1/width; "
         "contention-bound kernels barely move; model error stays in the "
         "width-1 band."},
        {"measured_stacks",
         "Extension: predicted vs measured CPI stacks", true,
         named({"micro_compute_chain", "cfd_step_factor",
                "cfd_compute_flux", "kmeans_invert_mapping",
                "srad_kernel1", "sgemm_tiled"}),
         table1, rr, {{.stack = true}}, measuredStacks,
         "expected shape: totals agree (that is Fig. 11's claim) and the "
         "dominant category matches for compute- and MSHR-bound kernels. "
         "Attribution caveat: when DRAM queuing delays fills, MSHR "
         "entries are held longer and the oracle's proximate cause is "
         "'MSHR full' while the model's root cause is QUEUE "
         "(kmeans_invert_mapping) — compare mem+MSHR+QUEUE as one pool "
         "for such kernels."},
        {"sfu_contention", "Extension: SFU structural contention", false,
         named({"micro_sfu_heavy", "mri_q_computeQ", "blackscholes",
                "montecarlo", "tpacf_gen_hists"}),
         sweep("sfu-lanes", {32, 8, 4}), rr, {gpumech, {.sfu = true}},
         sfuContention,
         "expected shape: identical at 32 lanes (balanced design); the "
         "+SFU variant wins as lanes shrink."},
    };
}

void
writeLedger(const std::string &path, const Ledger &ledger,
            const std::vector<Section> &sections,
            const std::vector<Reported> &summaries)
{
    JsonWriter json;
    json.field("bench", "accuracy");
    json.field("hardware_threads",
               std::uint64_t{std::thread::hardware_concurrency()});
    json.field("table1", HardwareConfig::baseline().summary());
    json.field("oracle_runs", ledger.oracleRuns);
    json.beginObject("sections");
    for (std::size_t i = 0; i < sections.size(); ++i) {
        json.beginObject(sections[i].name);
        for (const auto &[name, value] : summaries[i])
            json.field(name, value);
        json.endObject();
    }
    json.endObject();
    json.beginArray("cells");
    for (const Cell &cell : ledger.cells) {
        json.beginArrayObject();
        json.field("kernel", cell.workload->name);
        json.field("machine", cell.point.key());
        json.field("policy", toString(cell.policy));
        json.field("oracle_cpi", cell.oracle.cpi());
        json.beginObject("models");
        for (const auto &[name, p] : cell.models) {
            const Variant &v = p.variant;
            const GpuMechResult &r = p.result;
            json.beginObject(name);
            json.field("cpi", r.cpi);
            json.field("error", cell.error(v));
            if (v.model == ModelKind::MT_MSHR_BAND)
                json.field("contention_cpi", r.cpiContention);
            if (v.sfu)
                json.field("sfu_cpi", r.contention.sfuCpi);
            if (v.stack) {
                json.beginObject("stack");
                for (std::size_t t = 0; t < numStallTypes; ++t) {
                    json.field(toString(static_cast<StallType>(t)),
                               r.stack.cpi[t]);
                }
                json.endObject();
                json.beginObject("oracle_stalls");
                json.field("compute", cell.oracle.computeStallCpi());
                json.field("mem", cell.oracle.memStallCpi());
                json.field("mshr", cell.oracle.mshrStallCpi());
                json.endObject();
            }
            json.endObject();
        }
        json.endObject();
        json.endObject();
    }
    json.endArray();

    std::ofstream out(path);
    out << json.finish() << "\n";
    if (!out)
        fatal(msg("cannot write ", path));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "usage: accuracy [--jobs N] [--out FILE]\n";
    ArgParser args(argc, argv);
    if (Status known = args.checkOptionNames({"jobs", "out"});
        !known.ok()) {
        std::cerr << "accuracy: " << known.message() << "\n" << usage;
        return 1;
    }
    if (args.numPositional() != 0) {
        std::cerr << usage;
        return 1;
    }
    Result<std::uint32_t> jobs = args.getPositiveUint("jobs", 0);
    if (!jobs.ok()) {
        std::cerr << "accuracy: " << jobs.status().toString() << "\n";
        return 1;
    }
    if (jobs.value() != 0)
        setDefaultJobs(jobs.value());
    std::string out_path = args.get("out", "BENCH_accuracy.json");

    std::vector<Section> all = sections();
    Ledger ledger = plan(all);
    EvalSession session;
    run(ledger, session);

    std::vector<Reported> summaries(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Section &s = all[i];
        if (i != 0)
            std::cout << "\n";
        std::cout << "=== " << s.title << " ===\n";
        if (s.showConfig)
            std::cout << "config: " << HardwareConfig::baseline().summary()
                      << "\n";
        std::cout << "\n";
        s.render(s, ledger, std::cout, summaries[i]);
        std::cout << "\n" << s.note << "\n";
    }
    writeLedger(out_path, ledger, all, summaries);
    std::cerr << "accuracy: " << ledger.cells.size() << " cells, "
              << ledger.oracleRuns << " oracle runs; wrote " << out_path
              << "\n";
    return 0;
}
