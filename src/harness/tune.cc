#include "harness/tune.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"

namespace gpumech
{

namespace
{

/** Static description of one searchable knob. */
struct DimSpec
{
    const char *name;
    double weight;               //!< default resource-cost weight
    std::vector<double> ladder;  //!< default candidate values
    bool shapesTrace;            //!< participates in traceKey()
    bool integral;               //!< values must be whole numbers
};

const std::vector<DimSpec> &
dimSpecs()
{
    // Ladders bracket the Table I baseline (16 cores, 32 warps/core,
    // 32 MSHRs, 192 GB/s, 32KB L1, 768KB L2, RR) so restart 0 snaps
    // onto the grid exactly. Cache sizes stay multiples of
    // line x assoc = 1KB, which validate() requires.
    static const std::vector<DimSpec> specs = {
        {"cores", 1.0, {4, 8, 16, 24, 32}, true, true},
        {"warps", 0.25, {8, 16, 24, 32, 48}, true, true},
        {"mshrs", 0.1, {8, 16, 32, 64, 128}, false, true},
        {"bw", 0.5, {96, 192, 288, 384, 512}, false, false},
        {"l1-kb", 0.15, {8, 16, 32, 64}, false, true},
        {"l2-kb", 0.3, {192, 384, 768, 1536}, false, true},
        {"scheduler", 0.0, {0, 1}, false, true},
    };
    return specs;
}

const DimSpec *
findSpec(const std::string &name)
{
    for (const DimSpec &spec : dimSpecs()) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

/** Apply one dimension's value onto a configuration. */
void
applyDim(const std::string &name, double v, HardwareConfig &config,
         SchedulingPolicy &policy)
{
    auto u32 = [](double x) { return static_cast<std::uint32_t>(x); };
    if (name == "cores") {
        config.numCores = u32(v);
    } else if (name == "warps") {
        config.warpsPerCore = u32(v);
    } else if (name == "mshrs") {
        config.numMshrs = u32(v);
    } else if (name == "bw") {
        config.dramBandwidthGBs = v;
    } else if (name == "l1-kb") {
        config.l1SizeBytes = u32(v) * 1024;
    } else if (name == "l2-kb") {
        config.l2SizeBytes = u32(v) * 1024;
    } else if (name == "scheduler") {
        policy = v != 0.0 ? SchedulingPolicy::GreedyThenOldest
                          : SchedulingPolicy::RoundRobin;
    } else {
        panic(msg("applyDim: unknown tune dimension '", name, "'"));
    }
}

/** Current value of a knob in a configuration (snapping / cost). */
double
knobValue(const std::string &name, const HardwareConfig &config,
          SchedulingPolicy policy)
{
    if (name == "cores")
        return config.numCores;
    if (name == "warps")
        return config.warpsPerCore;
    if (name == "mshrs")
        return config.numMshrs;
    if (name == "bw")
        return config.dramBandwidthGBs;
    if (name == "l1-kb")
        return config.l1SizeBytes / 1024.0;
    if (name == "l2-kb")
        return config.l2SizeBytes / 1024.0;
    if (name == "scheduler")
        return policy == SchedulingPolicy::GreedyThenOldest ? 1.0 : 0.0;
    panic(msg("knobValue: unknown tune dimension '", name, "'"));
}

/** Compact value formatting for moves / coords ("96.5", "32"). */
std::string
fmtValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Value label in a moves string (scheduler shows rr/gto). */
std::string
valueLabel(const std::string &dim, double v)
{
    if (dim == "scheduler")
        return v != 0.0 ? "gto" : "rr";
    return fmtValue(v);
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
    return findSpec(name) != nullptr;
}

std::vector<double>
defaultTuneValues(const std::string &name)
{
    const DimSpec *spec = findSpec(name);
    if (spec == nullptr)
        panic(msg("defaultTuneValues: unknown dimension '", name, "'"));
    return spec->ladder;
}

std::string
tuneDimensionNames()
{
    std::string names;
    for (const DimSpec &spec : dimSpecs()) {
        if (!names.empty())
            names += ",";
        names += spec.name;
    }
    return names;
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
    for (const DimSpec &spec : dimSpecs()) {
        if (spec.weight > 0.0)
            weights[spec.name] = spec.weight;
    }
}

double
TuneCostModel::cost(const HardwareConfig &config,
                    const HardwareConfig &baseline) const
{
    // The policy argument to knobValue is irrelevant here: scheduler
    // carries no weight (a policy choice costs no silicon).
    double total = 0.0;
    for (const auto &entry : weights) {
        if (entry.second <= 0.0 || entry.first == "scheduler")
            continue;
        double b = knobValue(entry.first, baseline,
                             SchedulingPolicy::RoundRobin);
        double v = knobValue(entry.first, config,
                             SchedulingPolicy::RoundRobin);
        if (b > 0.0)
            total += entry.second * (v / b);
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

    std::map<std::vector<std::size_t>, Cell> memo;
    std::size_t modelEvals = 0;

    TuneSearch(EvalSession &s, const Workload &w,
               const HardwareConfig &b, const TuneOptions &o)
        : session(s), workload(w), base(b), options(o), dims(o.dims)
    {}

    /** Configuration/policy of a grid index vector. */
    void
    configAt(const std::vector<std::size_t> &idx, HardwareConfig &config,
             SchedulingPolicy &policy, HardwareConfig &trace_config) const
    {
        config = base;
        trace_config = base;
        policy = options.policy;
        SchedulingPolicy ignored = options.policy;
        for (std::size_t d = 0; d < dims.size(); ++d) {
            double v = dims[d].values[idx[d]];
            applyDim(dims[d].name, v, config, policy);
            // The profiler is keyed by the trace-shaping fields only:
            // like handleSweep, non-trace dimensions re-evaluate the
            // one profile selected at the base configuration, so
            // tune's CPI at a cell is bit-identical to a sweep's.
            const DimSpec *spec = findSpec(dims[d].name);
            if (spec != nullptr && spec->shapesTrace)
                applyDim(dims[d].name, v, trace_config, ignored);
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
            ProfiledKernel pk =
                options.mode == SweepMode::Mrc
                    ? session.cache.mrcProfiler(workload, trace_config,
                                                options.mrcRate)
                    : session.cache.profiler(workload, trace_config);
            GpuMechResult r = pk.profiler->evaluateAt(
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
        const DimSpec *spec = findSpec(dim.name);
        if (spec == nullptr) {
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
            dim.values = spec->ladder;
        const double max_value =
            dim.name == "l1-kb" || dim.name == "l2-kb" ? maxCacheKb
                                                        : 4294967295.0;
        for (double v : dim.values) {
            bool ok = std::isfinite(v);
            if (dim.name == "scheduler")
                ok = ok && (v == 0.0 || v == 1.0);
            else
                ok = ok && v > 0.0 && v <= max_value &&
                     (!spec->integral || v == std::floor(v));
            if (!ok) {
                return Status(StatusCode::InvalidArgument,
                              msg("tune: bad value ", fmtValue(v),
                                  " for dimension '", dim.name, "'"));
            }
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
        double want = knobValue(dims[d].name, base, options.policy);
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
        ProfiledKernel probe = session.cache.mrcProfiler(
            workload, trace_config, options.mrcRate);
        const CollectorResult &inputs = probe.profiler->inputs();
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
            moves += valueLabel(dims[d].name,
                                result.baseline.coords[d]);
            moves += "->";
            moves += valueLabel(dims[d].name, point.coords[d]);
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
