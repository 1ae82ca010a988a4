#include "harness/tune.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"

namespace gpumech
{

namespace
{

/** Tune's one dimension that is no knob: it sets the policy, 1 = gto. */
constexpr char kScheduler[] = "scheduler";

/** Compact value formatting for moves / coords ("96.5", "32"). */
std::string
fmtValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** MODEL.md: the knob that relieves each CPI-stack component. */
std::string
advisorKnob(StallType type)
{
    switch (type) {
      case StallType::Base:
        return "issue width (BASE is the issue floor; not a tune "
               "dimension)";
      case StallType::Dep:
        return "warps";
      case StallType::L1:
        return "l1-kb";
      case StallType::L2:
        return "l2-kb";
      case StallType::Dram:
        return "warps or bw";
      case StallType::Mshr:
        return "mshrs";
      case StallType::Queue:
        return "bw";
      case StallType::Sfu:
        return "sfu-lanes (not a tune dimension)";
    }
    return "?";
}

} // namespace

bool
isTuneDimension(const std::string &name)
{
    const Knob *knob = findKnob(name);
    return name == kScheduler || (knob && knob->accepts(Knob::Tune));
}

std::vector<double>
defaultTuneValues(const std::string &name)
{
    if (!isTuneDimension(name))
        panic(msg("defaultTuneValues: unknown dimension '", name, "'"));
    if (name == kScheduler)
        return {0, 1};
    return findKnob(name)->tuneLadder;
}

std::string
tuneDimensionNames()
{
    return msg(knobNames(Knob::Tune, ','), ",", kScheduler);
}

std::string
toString(TuneObjective objective)
{
    switch (objective) {
      case TuneObjective::MinCpi:
        return "cpi";
      case TuneObjective::MinCpiCost:
        return "cpi-cost";
    }
    return "?";
}

TuneCostModel::TuneCostModel()
{
    for (const Knob &knob : knobTable) {
        if (knob.tuneWeight > 0.0)
            weights[knob.name] = knob.tuneWeight;
    }
}

double
TuneCostModel::cost(const HardwareConfig &config,
                    const HardwareConfig &baseline) const
{
    // Summed in the map's key order, which fixes each cost's rounding.
    // The scheduler is no knob: a policy choice costs no silicon.
    double total = 0.0;
    for (const auto &[name, weight] : weights) {
        const Knob *knob = findKnob(name);
        if (weight <= 0.0 || knob == nullptr)
            continue;
        double b = knob->get(baseline);
        if (b > 0.0)
            total += weight * (knob->get(config) / b);
    }
    return total;
}

namespace
{

/** One memoized grid cell. */
struct Cell
{
    bool valid = false; //!< false: validate() rejected the config
    TunePoint point;
};

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

double
objectiveOf(const Cell &cell)
{
    return cell.valid && cell.point.feasible ? cell.point.objective
                                             : kInfeasible;
}

/** The search state shared by every restart. */
struct TuneSearch
{
    EvalSession &session;
    const Workload &workload;
    const HardwareConfig &base;
    const TuneOptions &options;
    const std::vector<TuneDimension> &dims;
    std::vector<const Knob *> knobs; //!< per dim; nullptr: scheduler

    /**
     * Whether a cell re-collects at a new cache geometry in rerun
     * mode, which reads the whole trace: the trace of each trace
     * configuration is then fetched through trace() before its
     * profile build, so it is generated once.
     */
    bool keepTrace = false;
    std::set<std::string> fetchedTraces; //!< trace keys fetched so far

    std::map<std::vector<std::size_t>, Cell> memo;
    std::size_t modelEvals = 0;

    TuneSearch(EvalSession &s, const Workload &w,
               const HardwareConfig &b, const TuneOptions &o)
        : session(s), workload(w), base(b), options(o), dims(o.dims)
    {
        for (const TuneDimension &dim : dims) {
            const Knob *knob = findKnob(dim.name);
            knobs.push_back(knob);
            keepTrace |= knob && recollectsTrace(*knob, base, dim.values,
                                                 options.mode);
        }
    }

    /** Configuration/policy of a grid index vector. */
    void
    configAt(const std::vector<std::size_t> &idx, HardwareConfig &config,
             SchedulingPolicy &policy, HardwareConfig &trace_config) const
    {
        config = base;
        trace_config = base;
        policy = options.policy;
        for (std::size_t d = 0; d < dims.size(); ++d) {
            double v = dims[d].values[idx[d]];
            if (knobs[d] == nullptr) {
                policy = v != 0.0 ? SchedulingPolicy::GreedyThenOldest
                                  : SchedulingPolicy::RoundRobin;
                continue;
            }
            knobs[d]->set(config, v);
            // The profiler is keyed by the trace-shaping fields only:
            // like handleSweep, non-trace dimensions re-evaluate the
            // one profile selected at the base configuration, so
            // tune's CPI at a cell is bit-identical to a sweep's.
            if (knobs[d]->reshapesTrace)
                knobs[d]->set(trace_config, v);
        }
    }

    /** Evaluate one cell (thread-safe; exceptions become invalid). */
    Cell
    evaluateCell(const std::vector<std::size_t> &idx) const
    {
        Cell cell;
        HardwareConfig config, trace_config;
        SchedulingPolicy policy;
        configAt(idx, config, policy, trace_config);
        if (!config.validate().ok())
            return cell;
        try {
            std::shared_ptr<const GpuMechProfiler> profiler =
                options.mode == SweepMode::Mrc
                    ? session.cache.mrcProfiler(workload, trace_config,
                                                options.mrcRate)
                    : session.cache.profiler(workload, trace_config);
            GpuMechResult r = profiler->evaluateAt(
                config, policy, ModelLevel::MT_MSHR_BAND,
                options.modelSfu);
            TunePoint &p = cell.point;
            for (std::size_t d = 0; d < dims.size(); ++d)
                p.coords.push_back(dims[d].values[idx[d]]);
            p.config = config;
            p.policy = policy;
            p.cpi = r.cpi;
            p.ipc = r.ipc;
            p.stack = r.stack;
            p.cost = options.cost.cost(config, base);
            p.objective = options.objective == TuneObjective::MinCpi
                              ? p.cpi
                              : p.cpi * p.cost;
            p.feasible = !(options.constraints.maxCost > 0.0 &&
                           p.cost > options.constraints.maxCost) &&
                         !(options.constraints.maxCpi > 0.0 &&
                           p.cpi > options.constraints.maxCpi);
            cell.valid = true;
        } catch (const std::exception &) {
            cell.valid = false;
        }
        return cell;
    }

    /**
     * Evaluate every not-yet-memoized index in @p wanted, fanning the
     * misses onto the pool in order (deterministic at any job count).
     */
    void
    ensure(const std::vector<std::vector<std::size_t>> &wanted)
    {
        std::vector<std::vector<std::size_t>> pending;
        for (const auto &idx : wanted) {
            if (memo.find(idx) == memo.end() &&
                std::find(pending.begin(), pending.end(), idx) ==
                    pending.end())
                pending.push_back(idx);
        }
        if (pending.empty())
            return;
        if (keepTrace)
            fetchTraces(pending);
        std::vector<Cell> cells = parallelMap<Cell>(
            pending.size(),
            [&](std::size_t i) { return evaluateCell(pending[i]); }, 1,
            options.jobs);
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (cells[i].valid)
                ++modelEvals;
            memo.emplace(pending[i], std::move(cells[i]));
        }
    }

    /**
     * With keepTrace, fetch the trace of each trace configuration
     * among @p pending that has none yet, in parallel, before the
     * fan-out builds its profiler. A failed fetch is left to the
     * cell, whose own profile build then fails and marks it invalid.
     */
    void
    fetchTraces(const std::vector<std::vector<std::size_t>> &pending)
    {
        std::vector<HardwareConfig> fresh;
        for (const auto &idx : pending) {
            HardwareConfig config, trace_config;
            SchedulingPolicy policy;
            configAt(idx, config, policy, trace_config);
            if (config.validate().ok() &&
                fetchedTraces.insert(trace_config.traceKey()).second)
                fresh.push_back(trace_config);
        }
        parallelFor(
            fresh.size(),
            [&](std::size_t i) {
                try {
                    session.cache.trace(workload, fresh[i]);
                } catch (const std::exception &) {
                }
            },
            1, options.jobs);
    }

    /**
     * One coordinate descent from @p start: sweep each dimension's
     * full line, take the strictly best feasible move (ties toward the
     * lowest candidate index), repeat until a full pass stands still.
     */
    void
    descend(std::vector<std::size_t> start)
    {
        ensure({start});
        std::vector<std::size_t> cur = std::move(start);
        double cur_obj = objectiveOf(memo.at(cur));
        // A strict-improvement rule cannot cycle; the pass cap is a
        // safety net, not a tuning knob.
        for (int pass = 0; pass < 64; ++pass) {
            bool moved = false;
            for (std::size_t d = 0; d < dims.size(); ++d) {
                std::vector<std::vector<std::size_t>> line;
                for (std::size_t j = 0; j < dims[d].values.size();
                     ++j) {
                    std::vector<std::size_t> idx = cur;
                    idx[d] = j;
                    line.push_back(std::move(idx));
                }
                ensure(line);
                std::size_t best_j = cur[d];
                double best_obj = cur_obj;
                for (std::size_t j = 0; j < line.size(); ++j) {
                    double obj = objectiveOf(memo.at(line[j]));
                    if (obj < best_obj) {
                        best_obj = obj;
                        best_j = j;
                    }
                }
                if (best_j != cur[d]) {
                    cur[d] = best_j;
                    cur_obj = best_obj;
                    moved = true;
                }
            }
            if (!moved)
                break;
        }
    }
};

} // namespace

Result<TuneResult>
runTune(EvalSession &session, const Workload &workload,
        const HardwareConfig &base, const TuneOptions &options_in)
{
    TuneOptions options = options_in;
    options.jobs = session.jobsFor(options.jobs);

    // --- validate the search specification -------------------------
    if (options.dims.empty()) {
        return Status(StatusCode::InvalidArgument,
                      "tune: no search dimensions declared");
    }
    std::set<std::string> seen;
    for (TuneDimension &dim : options.dims) {
        if (!isTuneDimension(dim.name)) {
            return Status(StatusCode::InvalidArgument,
                          msg("tune: unknown dimension '", dim.name,
                              "' (use ", tuneDimensionNames(), ")"));
        }
        if (!seen.insert(dim.name).second) {
            return Status(StatusCode::InvalidArgument,
                          msg("tune: dimension '", dim.name,
                              "' declared twice"));
        }
        if (dim.values.empty())
            dim.values = defaultTuneValues(dim.name);
        const Knob *knob = findKnob(dim.name);
        for (double v : dim.values) {
            if (knob != nullptr)
                GPUMECH_TRY(knob->check(v).withContext("tune"));
            else if (v != 0.0 && v != 1.0)
                return Status(StatusCode::InvalidArgument,
                              msg("tune: bad value ", fmtValue(v),
                                  " for '", kScheduler,
                                  "' (must be 0 for rr or 1 for gto)"));
        }
    }
    for (const auto &entry : options.cost.weights) {
        if (!isTuneDimension(entry.first)) {
            return Status(StatusCode::InvalidArgument,
                          msg("tune: cost weight for unknown "
                              "dimension '", entry.first, "'"));
        }
        if (!std::isfinite(entry.second) || entry.second < 0.0) {
            return Status(StatusCode::InvalidArgument,
                          msg("tune: cost weight for '", entry.first,
                              "' must be finite and >= 0"));
        }
    }
    if (options.mode == SweepMode::Mrc &&
        !(options.mrcRate > 0.0 && options.mrcRate <= 1.0)) {
        return Status(StatusCode::InvalidArgument,
                      msg("tune: mrc rate must be in (0, 1], got ",
                          options.mrcRate));
    }
    GPUMECH_TRY(base.validate());

    TuneSearch search(session, workload, base, options);
    const std::vector<TuneDimension> &dims = options.dims;

    TuneResult result;
    result.dims = dims;
    result.spaceSize = 1;
    for (const TuneDimension &dim : dims)
        result.spaceSize *= dim.values.size();

    // Snap the base configuration onto the grid: per dimension, the
    // candidate closest to the base value (ties toward the smaller).
    std::vector<std::size_t> snapped(dims.size(), 0);
    for (std::size_t d = 0; d < dims.size(); ++d) {
        const Knob *knob = search.knobs[d];
        double want =
            knob ? knob->get(base)
                 : options.policy == SchedulingPolicy::GreedyThenOldest;
        std::size_t best = 0;
        for (std::size_t j = 1; j < dims[d].values.size(); ++j) {
            if (std::abs(dims[d].values[j] - want) <
                std::abs(dims[d].values[best] - want))
                best = j;
        }
        snapped[d] = best;
    }

    // --- MRC approximation policy (satellite 2) --------------------
    // The approximation reasons depend on rate / geometry / policy,
    // none of which the snapped baseline and the search cells differ
    // on in a way that changes the non-LRU refusal, so one probe at
    // the snapped baseline decides for the whole run.
    if (options.mode == SweepMode::Mrc) {
        HardwareConfig config, trace_config;
        SchedulingPolicy policy;
        search.configAt(snapped, config, policy, trace_config);
        GPUMECH_TRY(trace_config.validate());
        std::shared_ptr<const GpuMechProfiler> probe =
            session.cache.mrcProfiler(workload, trace_config,
                                      options.mrcRate);
        const CollectorResult &inputs = probe->inputs();
        if (inputs.mrcApproximate) {
            result.mrcApproximate = true;
            result.mrcApproximation = inputs.mrcApproximation;
            if (base.replacementPolicy != 0) {
                if (!options.allowApprox) {
                    return Status(
                        StatusCode::FailedValidation,
                        msg("tune: MRC-derived inputs are approximate "
                            "under a non-LRU replacement policy (",
                            inputs.mrcApproximation,
                            "); use --sweep-mode rerun, or accept "
                            "with --allow-approx"));
                }
                warn(msg("tune: continuing on approximate MRC inputs "
                         "(--allow-approx): ",
                         inputs.mrcApproximation));
            }
        }
    }

    // --- search ----------------------------------------------------
    result.restartsRun = std::max<std::uint32_t>(options.restarts, 1);
    for (std::uint32_t r = 0; r < result.restartsRun; ++r) {
        std::vector<std::size_t> start = snapped;
        if (r > 0) {
            // Deterministic restart points: an owned generator seeded
            // by (seed, restart), drawn serially — independent of the
            // job count and of every other restart.
            Rng rng(options.seed +
                    0x9e3779b97f4a7c15ULL * (r + 1));
            for (std::size_t d = 0; d < dims.size(); ++d)
                start[d] = rng.nextBelow(dims[d].values.size());
        }
        search.descend(std::move(start));
    }
    result.evaluations = search.modelEvals;

    // --- baseline / best / frontier --------------------------------
    const Cell &base_cell = search.memo.at(snapped);
    if (!base_cell.valid) {
        HardwareConfig config, trace_config;
        SchedulingPolicy policy;
        search.configAt(snapped, config, policy, trace_config);
        Status status = config.validate();
        if (status.ok()) {
            status = Status(StatusCode::Internal,
                            "tune: baseline evaluation failed");
        }
        return status.withContext("tune baseline");
    }
    result.baseline = base_cell.point;

    const Cell *best = nullptr;
    for (const auto &entry : search.memo) {
        // Map order is lexicographic in grid indices, so the first
        // strict minimum is the deterministic tie-break winner.
        if (objectiveOf(entry.second) <
            (best ? objectiveOf(*best) : kInfeasible))
            best = &entry.second;
    }
    if (best == nullptr) {
        return Status(StatusCode::NotFound,
                      msg("tune: no feasible configuration among ",
                          search.memo.size(),
                          " evaluated points (relax --max-cost / "
                          "--max-cpi)"));
    }

    // A move's values; the scheduler's read rr or gto.
    auto label = [&](std::size_t d, double v) -> std::string {
        return search.knobs[d] ? fmtValue(v) : v != 0.0 ? "gto" : "rr";
    };
    auto explain = [&](TunePoint &point) {
        StackDelta delta =
            stackDelta(result.baseline.stack, point.stack);
        TuneExplanation &e = point.explanation;
        e.relieved = delta.mostRelieved;
        e.reliefCpi = delta.relief;
        e.totalDeltaCpi = delta.totalDelta;
        std::string moves;
        for (std::size_t d = 0; d < point.coords.size(); ++d) {
            if (point.coords[d] == result.baseline.coords[d])
                continue;
            if (!moves.empty())
                moves += ", ";
            moves += dims[d].name;
            moves += " ";
            moves += label(d, result.baseline.coords[d]);
            moves += "->";
            moves += label(d, point.coords[d]);
        }
        e.moves = moves;
        e.text = moves.empty()
                     ? "baseline"
                     : msg(moves, ": ", describeRelief(delta));
    };

    explain(result.baseline);
    result.best = best->point;
    explain(result.best);

    // Pareto frontier: among every evaluated feasible point, keep the
    // cost-ascending sequence of strict CPI improvements.
    std::vector<const TunePoint *> feasible;
    for (const auto &entry : search.memo) {
        if (entry.second.valid && entry.second.point.feasible)
            feasible.push_back(&entry.second.point);
    }
    std::stable_sort(feasible.begin(), feasible.end(),
                     [](const TunePoint *a, const TunePoint *b) {
                         if (a->cost != b->cost)
                             return a->cost < b->cost;
                         return a->cpi < b->cpi;
                     });
    double best_cpi = kInfeasible;
    for (const TunePoint *p : feasible) {
        if (p->cpi < best_cpi) {
            best_cpi = p->cpi;
            result.frontier.push_back(*p);
            explain(result.frontier.back());
        }
    }

    // --- advisor ---------------------------------------------------
    TuneAdvisor &advisor = result.advisor;
    advisor.bottleneck = dominantComponent(result.best.stack);
    double total = result.best.stack.total();
    advisor.share =
        total > 0.0 ? result.best.stack[advisor.bottleneck] / total
                    : 0.0;
    advisor.knob = advisorKnob(advisor.bottleneck);
    advisor.text = msg("residual bottleneck ",
                       toString(advisor.bottleneck), " (",
                       fmtPercent(advisor.share), " of CPI ",
                       fmtDouble(result.best.cpi, 3),
                       "); relieve via ", advisor.knob);
    return result;
}

namespace
{

void
writePoint(JsonWriter &json, const TunePoint &point,
           const std::vector<TuneDimension> &dims)
{
    json.beginObject("coords");
    for (std::size_t d = 0; d < dims.size(); ++d)
        json.field(dims[d].name, point.coords[d]);
    json.endObject();
    json.field("policy", toString(point.policy));
    json.field("cpi", point.cpi);
    json.field("ipc", point.ipc);
    json.field("cost", point.cost);
    json.field("objective", point.objective);
    json.field("feasible", point.feasible);
    json.beginObject("stack");
    for (std::size_t i = 0; i < numStallTypes; ++i)
        json.field(toString(static_cast<StallType>(i)),
                   point.stack.cpi[i]);
    json.endObject();
    json.beginObject("explanation");
    json.field("relieves", toString(point.explanation.relieved));
    json.field("relief_cpi", point.explanation.reliefCpi);
    json.field("total_delta_cpi", point.explanation.totalDeltaCpi);
    json.field("moves", point.explanation.moves);
    json.field("text", point.explanation.text);
    json.endObject();
}

} // namespace

std::string
tuneResultToJson(const TuneResult &result, const std::string &kernel,
                 const TuneOptions &options)
{
    JsonWriter json;
    json.field("kernel", kernel);
    json.field("objective", toString(options.objective));
    json.field("policy", toString(options.policy));
    json.field("sweep_mode", toString(options.mode));
    if (options.mode == SweepMode::Mrc)
        json.field("mrc_rate", options.mrcRate);
    json.field("seed", static_cast<std::uint64_t>(options.seed));
    json.field("restarts",
               static_cast<std::uint64_t>(result.restartsRun));
    json.beginArray("dims");
    for (const TuneDimension &dim : result.dims) {
        json.beginArrayObject();
        json.field("name", dim.name);
        json.beginArray("values");
        for (double v : dim.values)
            json.element(v);
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.field("space_size",
               static_cast<std::uint64_t>(result.spaceSize));
    json.field("evaluations",
               static_cast<std::uint64_t>(result.evaluations));
    json.field("eval_fraction",
               result.spaceSize
                   ? static_cast<double>(result.evaluations) /
                         static_cast<double>(result.spaceSize)
                   : 0.0);
    json.field("mrc_approximate", result.mrcApproximate);
    if (result.mrcApproximate)
        json.field("mrc_approximation", result.mrcApproximation);
    json.beginObject("baseline");
    writePoint(json, result.baseline, result.dims);
    json.endObject();
    json.beginObject("best");
    writePoint(json, result.best, result.dims);
    json.endObject();
    json.beginArray("frontier");
    for (const TunePoint &point : result.frontier) {
        json.beginArrayObject();
        writePoint(json, point, result.dims);
        json.endObject();
    }
    json.endArray();
    json.beginObject("advisor");
    json.field("bottleneck", toString(result.advisor.bottleneck));
    json.field("share", result.advisor.share);
    json.field("knob", result.advisor.knob);
    json.field("text", result.advisor.text);
    json.endObject();
    return json.finish();
}

} // namespace gpumech
