#include "service/request.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"

namespace gpumech
{

/** One option's value, read from either front-end's token. */
struct OptionValue
{
    bool flag = false;
    std::uint32_t count = 0; //!< Count, Count0; Enum: the choice's index
    double number = 0.0;
    std::string text; //!< Text, Enum; DimValues: the dimension's name
    std::vector<double> numbers; //!< NumberList, DimValues
    std::vector<std::string> paths;
    std::vector<TuneDimension> dims;
    std::vector<std::pair<std::string, double>> weights;
};

namespace
{

using T = Target;

/** The verb table, in Verb order (toString indexes it). */
constexpr VerbSpec kVerbs[] = {
    {"list", Verb::List, T::None, "", "list registered workloads"},
    {"model", Verb::Model, T::Kernel, "<kernel>", "GPUMech CPI + CPI stack"},
    {"simulate", Verb::Simulate, T::Kernel, "<kernel>", "timing simulation"},
    {"compare", Verb::Compare, T::Kernel, "<kernel>", "all models vs oracle"},
    {"sweep", Verb::Sweep, T::Kernel, "<kernel>", "sweep one parameter"},
    {"tune", Verb::Tune, T::Kernel, "<kernel>", "design-space search"},
    {"stack", Verb::Stack, T::Kernel, "<kernel>", "CPI stacks vs warps"},
    {"dump-trace", Verb::DumpTrace, T::KernelAndOutput, "<kernel> <file>",
     "write the kernel trace (binary if *.gmt)"},
    {"pack", Verb::Pack, T::InputAndOutput, "<in> <out.gmt>",
     "convert a trace file to binary .gmt"},
    {"unpack", Verb::Unpack, T::InputAndOutput, "<in.gmt> <out>",
     "convert a binary trace to text"},
    {"model-trace", Verb::ModelTrace, T::Paths, "<file...>",
     "model trace files (text or .gmt)"},
    {"suite", Verb::Suite, T::Suite, "<suite>", "a suite, failures contained"},
    {"ping", Verb::Ping, T::None, "", "liveness probe"},
    {"stats", Verb::Stats, T::None, "", "request and cache counters"},
    {"health", Verb::Health, T::None, "", "supervisor health"},
};

/** Split @p text on @p sep, dropping empty pieces unless @p keep_empty. */
std::vector<std::string>
split(const std::string &text, char sep, bool keep_empty = false)
{
    std::vector<std::string> out;
    std::istringstream in(text + sep);
    for (std::string item; std::getline(in, item, sep);) {
        if (keep_empty || !item.empty())
            out.push_back(item);
    }
    return out;
}

/** Store function landing the value in the member at @p path, as in
 *  land<&Request::json> or land<&Request::tune, &TuneOptions::seed>. */
template <auto... path>
Status
land(Request &r, OptionValue &v)
{
    auto &field = (r .* ... .* path);
    using F = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<F, bool>)
        field = v.flag;
    else if constexpr (std::is_same_v<F, double>)
        field = v.number;
    else if constexpr (std::is_same_v<F, std::string>)
        field = std::move(v.text);
    else if constexpr (std::is_same_v<F, std::vector<std::string>>)
        field = std::move(v.paths);
    else if constexpr (std::is_same_v<F, std::vector<double>>) {
        if (!v.numbers.empty())
            field = std::move(v.numbers);
    } else {
        field = static_cast<F>(v.count); // a count or an Enum's index
    }
    return Status();
}

/** The knobTable row of the knob named @p name, at compile time. */
consteval std::size_t
knobRow(std::string_view name)
{
    return findKnob(name) - knobTable;
}

/** Store function of a machine override: knobTable[row]'s setter. */
template <std::size_t row>
Status
landKnob(Request &r, OptionValue &v)
{
    const Knob &knob = knobTable[row];
    knob.set(r.config, knob.integral() ? v.count : v.number);
    return Status();
}

/** --param's choices: the knobs sweep accepts. */
const std::string kSweepParams = knobNames(Knob::Sweep, '|');

/** Store function of a tune bound: a number >= 0, where 0 is none. */
template <double TuneConstraints::*bound>
Status
landBound(Request &r, OptionValue &v)
{
    if (v.number < 0.0) {
        return Status(StatusCode::InvalidArgument,
                      msg("must be >= 0, got ", v.number));
    }
    return land<&Request::tune, &TuneOptions::constraints, bound>(r, v);
}

using K = OptionKind;
using V = OptionValue;
using R = Request;
using TO = TuneOptions;
constexpr std::uint32_t kAll = ~0u;
constexpr std::uint32_t kSweep = verbBit(Verb::Sweep);
constexpr std::uint32_t kTune = verbBit(Verb::Tune);

/** The option table. Stores see the value in the row's kind (an Enum
 *  as its choice's index and text) and the verb's defaults (begin()). */
const OptionSpec kOptions[] = {
    // Machine overrides, under "config" in JSON.
    {"warps", "warps", true, K::Count, kAll, "N",
     "warps per core, default 32", landKnob<knobRow("warps")>},
    {"cores", "cores", true, K::Count, kAll, "N",
     "number of cores, default 16", landKnob<knobRow("cores")>},
    {"mshrs", "mshrs", true, K::Count, kAll, "N",
     "L1 MSHRs per core, default 32", landKnob<knobRow("mshrs")>},
    {"bw", "bw", true, K::Number, kAll, "GBs",
     "DRAM bandwidth in GB/s, default 192", landKnob<knobRow("bw")>},
    {"sfu-lanes", "sfu_lanes", true, K::Count, kAll, "N",
     "SFU lanes per core, default 32", landKnob<knobRow("sfu-lanes")>},
    // Model and engine options.
    {"policy", "policy", false, K::Enum, kAll, "rr|gto",
     "warp scheduler, default rr", land<&R::policy>},
    {"level", "level", false, K::Enum, kAll, "mt|mshr|band",
     "model level, default band", land<&R::level>},
    {"model-sfu", "model_sfu", false, K::Flag, kAll, "",
     "model SFU contention", land<&R::modelSfu>},
    {"json", "json", false, K::Flag, kAll, "",
     "JSON report (model, simulate)", land<&R::json>},
    {"jobs", "jobs", false, K::Count, kAll, "N",
     "threads, default GPUMECH_JOBS or all cores", land<&R::jobs>},
    // Targets; argv gives kernels and paths as positionals.
    {nullptr, "kernel", false, K::Text, kAll, "", "the kernel",
     land<&R::kernel>},
    {"suite", "suite", false, K::Text, kAll, "S",
     "the suite; `--suite S` alone runs it", land<&R::suite>},
    {nullptr, "paths", false, K::Paths, kAll, "",
     "trace files: [in, out] or the inputs", land<&R::paths>},
    // Suites, fault isolation and trace files.
    {"predict", "predict", false, K::Flag, kAll, "",
     "model only, no oracle (suite)", land<&R::predict>},
    {"verbose", "verbose", false, K::Flag, kAll, "",
     "per-kernel progress on stderr (suite)", land<&R::verbose>},
    {"kernel-timeout-ms", "timeout_ms", false, K::Count0, kAll, "N",
     "per-kernel deadline in ms; 0 = off", land<&R::timeoutMs>},
    {"inject", "inject", false, K::Text, kAll,
     "kernel:site[:attempt[:stallMs]],...",
     "faults; sites parse, collect, profile, cache",
     [](R &r, V &v) {
         GPUMECH_ASSIGN_OR_RETURN(r.faultPlan, parseInjectSpec(v.text));
         return Status();
     }},
    {"varint", "varint", false, K::Flag, kAll, "",
     "varint line pool (dump-trace, pack)", land<&R::varint>},
    // Sweeps; --sweep-mode and --mrc-rate shape tune too.
    {"param", "param", false, K::Enum, kSweep, kSweepParams.c_str(),
     "swept parameter, default warps", land<&R::sweepParam>},
    {"values", "values", false, K::NumberList, kSweep, "a,b,c",
     "sweep points, default 8,16,24,32,48", land<&R::sweepValues>},
    {"oracle", "oracle", false, K::Flag, kAll, "",
     "add oracle columns (sweep)", land<&R::oracle>},
    {"sweep-mode", "sweep_mode", false, K::Enum, kSweep | kTune,
     "rerun|mrc", "default rerun; tune's default mrc",
     [](R &r, V &v) {
         return r.verb == Verb::Tune ? land<&R::tune, &TO::mode>(r, v)
                                     : land<&R::sweepMode>(r, v);
     }},
    {"mrc-rate", "mrc_rate", false, K::Number, kSweep | kTune, "R",
     "SHARDS rate in (0, 1], default 1", [](R &r, V &v) {
         return r.verb == Verb::Tune ? land<&R::tune, &TO::mrcRate>(r, v)
                                     : land<&R::mrcRate>(r, v);
     }},
    // Tune.
    {"dims", "dims", false, K::Dims, kTune, "d1,d2,...",
     "search dims, default mshrs,bw,l1-kb,l2-kb",
     [](R &r, V &v) {
         for (const TuneDimension &dim : v.dims) {
             if (!isTuneDimension(dim.name)) {
                 return Status(StatusCode::InvalidArgument,
                               msg("unknown tune dimension '", dim.name,
                                   "' (use ", tuneDimensionNames(), ")"));
             }
         }
         if (!v.dims.empty())
             r.tune.dims = std::move(v.dims);
         return Status();
     }},
    {"<dim>-values", nullptr, false, K::DimValues, kTune, "a,b,c",
     "one dim's candidates; JSON {name, values}",
     [](R &r, V &v) {
         for (TuneDimension &dim : r.tune.dims) {
             if (dim.name == v.text)
                 dim.values = v.numbers;
         }
         return Status();
     }},
    {"objective", "objective", false, K::Enum, kTune, "cpi|cpi-cost",
     "what to minimize, default cpi", land<&R::tune, &TO::objective>},
    {"restarts", "restarts", false, K::Count, kTune, "N",
     "search restarts, default 4", land<&R::tune, &TO::restarts>},
    {"seed", "seed", false, K::Count, kTune, "N",
     "restart seed, default 1", land<&R::tune, &TO::seed>},
    {"max-cost", "max_cost", false, K::Number, kTune, "C",
     "skip points costing more", landBound<&TuneConstraints::maxCost>},
    {"max-cpi", "max_cpi", false, K::Number, kTune, "C",
     "skip points of higher CPI", landBound<&TuneConstraints::maxCpi>},
    {"cost-weights", "cost_weights", false, K::Weights, kTune,
     "dim=w,...", "cost weight per dimension", [](R &r, V &v) {
         for (const auto &[name, w] : v.weights) {
             if (!isTuneDimension(name) || w < 0.0) {
                 return Status(StatusCode::InvalidArgument,
                               msg("bad weight ", w, " for '", name,
                                   "' (a dimension of ",
                                   tuneDimensionNames(), ", >= 0)"));
             }
             r.tune.cost.weights[name] = w;
         }
         return Status();
     }},
    {"allow-approx", "allow_approx", false, K::Flag, kTune, "",
     "accept MRC-approximate inputs", land<&R::tune, &TO::allowApprox>},
    // One front-end only; the CLI reads its own flags (no store).
    {nullptr, "id", false, K::Text, kAll, "",
     "correlation id, echoed in the response", land<&R::id>},
    {nullptr, "metrics", false, K::Flag, kAll, "",
     "attach this request's metrics delta", land<&R::wantMetrics>},
    {"metrics", nullptr, false, K::Flag, kAll, "",
     "print a metrics summary on stderr", nullptr},
    {"metrics-json", nullptr, false, K::Text, kAll, "FILE",
     "write the metrics registry as JSON", nullptr},
    {"trace-out", nullptr, false, K::Text, kAll, "FILE",
     "write stage spans as Chrome trace JSON", nullptr},
};
static_assert(std::size(kOptions) <= 64, "readJson tracks rows in a mask");

constexpr std::string_view kValuesSuffix = "-values";

/** The row spelled @p name in argv (@p json false) or in JSON. */
const OptionSpec *
findRow(bool json, std::string_view name)
{
    using Index = std::map<std::string_view, const OptionSpec *>;
    static const std::array<Index, 2> indexes = [] {
        std::array<Index, 2> out;
        for (const OptionSpec &row : kOptions) {
            if (row.flag != nullptr)
                out[0][row.flag] = &row;
            if (row.key != nullptr)
                out[1][row.key] = &row;
        }
        return out;
    }();
    auto it = indexes[json].find(name);
    return it == indexes[json].end() ? nullptr : it->second;
}

/** The argv row of --@p name; every --<dim>-values shares one. */
const OptionSpec *
argvRow(const std::string &name)
{
    const std::size_t dim = name.size() - kValuesSuffix.size();
    if (name.ends_with(kValuesSuffix) && isTuneDimension(name.substr(0, dim)))
        return findRow(false, "<dim>-values");
    return findRow(false, name);
}

/** What a value of each OptionKind must be, for error messages. */
constexpr const char *kWanted[] = {
    "a boolean", "a positive integer up to 4294967295",
    "an integer from 0 to 4294967295", "a finite number", "a string",
    "a string", "a list of finite numbers", "a list of strings",
    "a list of names or {name, values} objects",
    "a list of finite numbers", "a dim=weight list or object"};

/** The error for a value that is not of @p kind; argv quotes @p text. */
Status
badValue(OptionKind kind, const std::string &text = "")
{
    const bool argv = !text.empty();
    const char *want = argv && kind == K::Flag
                           ? "given without a value"
                           : kWanted[static_cast<std::size_t>(kind)];
    return Status(StatusCode::InvalidArgument,
                  argv ? msg("must be ", want, ", got '", text, "'")
                       : msg("must be ", want));
}

/** argv: @p text, the value of --@p name, in the row's kind; false if
 *  it is not one. */
bool
fromArgv(const OptionSpec &row, const std::string &name,
         const std::string &text, OptionValue &v)
{
    switch (row.kind) {
      case K::Flag:
        v.flag = true;
        return text.empty();
      case K::Count:
      case K::Count0: {
        const std::optional<std::uint32_t> n = parseUint32(text);
        v.count = n.value_or(0);
        return n && (*n > 0 || row.kind == K::Count0);
      }
      case K::Number: {
        const std::optional<double> x = parseFiniteDouble(text);
        v.number = x.value_or(0.0);
        return x.has_value();
      }
      case K::Text:
      case K::Enum:
        v.text = text;
        return true;
      case K::DimValues:
        v.text = name.substr(0, name.size() - kValuesSuffix.size());
        [[fallthrough]];
      case K::NumberList:
        for (const std::string &item : split(text, ',')) {
            const std::optional<double> x = parseFiniteDouble(item);
            if (!x)
                return false;
            v.numbers.push_back(*x);
        }
        return true;
      case K::Dims:
        for (std::string &dim : split(text, ','))
            v.dims.push_back({std::move(dim), {}});
        return true;
      case K::Weights:
        for (const std::string &pair : split(text, ',')) {
            const std::size_t eq = pair.find('=');
            const std::optional<double> w =
                eq == 0 || eq == std::string::npos
                    ? std::nullopt
                    : parseFiniteDouble(pair.substr(eq + 1));
            if (!w)
                return false;
            v.weights.emplace_back(pair.substr(0, eq), *w);
        }
        return true;
      case K::Paths:
        break; // argv gives paths as positionals
    }
    return false;
}

/** JSON: @p j as a list of finite numbers; false on anything else. */
bool
numbersFromJson(const JsonValue &j, std::vector<double> &out)
{
    if (!j.isArray())
        return false;
    for (const JsonValue &item : j.items()) {
        if (!item.isNumber() || !std::isfinite(item.number()))
            return false;
        out.push_back(item.number());
    }
    return true;
}

/** JSON: the member value @p j in the row's kind; false if it is not
 *  one. */
bool
fromJson(const OptionSpec &row, const JsonValue &j, OptionValue &v)
{
    const bool finite = j.isNumber() && std::isfinite(j.number());
    const double d = finite ? j.number() : -1.0;
    switch (row.kind) {
      case K::Flag:
        v.flag = j.isBool() && j.boolean();
        return j.isBool();
      case K::Count:
      case K::Count0:
        v.count = static_cast<std::uint32_t>(
            d >= 0.0 && d <= 4294967295.0 ? d : 0.0);
        return d == std::floor(d) && d <= 4294967295.0 &&
               d >= (row.kind == K::Count ? 1.0 : 0.0);
      case K::Number:
        v.number = d;
        return finite;
      case K::Text:
      case K::Enum:
        v.text = j.isString() ? j.string() : "";
        return j.isString();
      case K::NumberList:
        return numbersFromJson(j, v.numbers);
      case K::Paths:
        if (!j.isArray())
            return false;
        for (const JsonValue &path : j.items()) {
            if (!path.isString())
                return false;
            v.paths.push_back(path.string());
        }
        return true;
      case K::Dims:
        if (!j.isArray())
            return false;
        for (const JsonValue &item : j.items()) {
            TuneDimension &dim = v.dims.emplace_back();
            if (item.isString()) {
                dim.name = item.string();
                continue;
            }
            if (!item.isObject())
                return false;
            for (const auto &[key, member] : item.members()) {
                if (key == "name" && member.isString())
                    dim.name = member.string();
                else if (key != "values" ||
                         !numbersFromJson(member, dim.values))
                    return false;
            }
        }
        return true;
      case K::Weights:
        if (!j.isObject())
            return false;
        for (const auto &[dim, w] : j.members()) {
            if (!w.isNumber() || !std::isfinite(w.number()))
                return false;
            v.weights.emplace_back(dim, w.number());
        }
        return true;
      case K::DimValues:
        break; // JSON gives a dimension's values inside "dims"
    }
    return false;
}

/** Resolve an Enum to its choice's index, then land the value. */
Status
apply(Request &req, const OptionSpec &row, OptionValue &v)
{
    for (std::string_view rest = row.arg; row.kind == K::Enum; ++v.count) {
        const std::size_t bar = rest.find('|');
        if (rest.substr(0, bar) == v.text)
            break;
        if (bar == std::string_view::npos) {
            return Status(StatusCode::InvalidArgument,
                          msg("must be one of ", row.arg, ", got '",
                              v.text, "'"));
        }
        rest.remove_prefix(bar + 1);
    }
    return row.store != nullptr ? row.store(req, v) : Status();
}

/** A request for the verb named @p name, holding the verb's defaults. */
Result<const VerbSpec *>
begin(Request &req, const std::string &name)
{
    GPUMECH_ASSIGN_OR_RETURN(req.verb, verbFromString(name));
    if (req.verb == Verb::Sweep)
        req.sweepValues = {8, 16, 24, 32, 48};
    if (req.verb == Verb::Tune) {
        for (const char *dim : {"mshrs", "bw", "l1-kb", "l2-kb"})
            req.tune.dims.push_back({dim, {}});
    }
    return &kVerbs[static_cast<std::size_t>(req.verb)];
}

/**
 * The checks that span rows, run once whichever front-end filled
 * @p req, then the verb's target. Only a missing target's message is
 * spelled per front-end.
 */
Status
finish(const Request &req, const VerbSpec &verb, bool json)
{
    GPUMECH_TRY(req.config.validate());
    if (req.verb == Verb::Sweep) {
        // --param admits sweep knobs only, so the row exists.
        const Knob *param = findKnob(req.sweepParam);
        for (double v : req.sweepValues)
            GPUMECH_TRY(param->check(v).withContext("sweep"));
    }
    // Sweeps check the MRC rate in either mode, tune in MRC mode only.
    const double rate = req.verb == Verb::Sweep ? req.mrcRate
                        : req.tune.mode == SweepMode::Mrc ? req.tune.mrcRate
                                                          : 1.0;
    if (!(rate > 0.0 && rate <= 1.0)) {
        return Status(StatusCode::InvalidArgument,
                      msg("mrc rate must be in (0, 1], got ", rate));
    }

    const std::vector<std::string> &p = req.paths;
    const bool ok[] = {// by Target
                       true, !req.kernel.empty(), !req.suite.empty(),
                       !req.kernel.empty() && p.size() == 1 && !p[0].empty(),
                       p.size() == 2 && !p[0].empty() && !p[1].empty(),
                       !p.empty()};
    static const char *const needs[] = {
        "", "\"kernel\"", "\"suite\"",
        "\"kernel\" and one output path in \"paths\"",
        "\"paths\":[in,out]", "a non-empty \"paths\" array"};
    const std::size_t target = static_cast<std::size_t>(verb.target);
    if (ok[target])
        return Status();
    return Status(StatusCode::InvalidArgument,
                  json ? msg("'", verb.name, "' requires ", needs[target])
                       : msg("usage: gpumech ", verb.name, " ",
                             verb.synopsis, " [options]"));
}

/**
 * JSON: member @p key of the request, or of its "config" object when
 * @p config. A repeated key keeps its first value, as with find().
 */
Status
readJson(Request &req, bool config, const std::string &key,
         const JsonValue &value, std::uint64_t &seen)
{
    const OptionSpec *row = findRow(true, key);
    if (row == nullptr || row->inConfig != config) {
        const char *hint = config ? " in \"config\""
                           : row  ? " (it belongs in \"config\")"
                                  : "";
        return Status(StatusCode::InvalidArgument,
                      msg("unknown field '", key, "'", hint));
    }
    const std::uint64_t mask = std::uint64_t{1} << (row - kOptions);
    const bool repeat = (seen & mask) != 0;
    seen |= mask;
    if (repeat || value.isNull() || !(row->verbs & verbBit(req.verb)))
        return Status();
    OptionValue v;
    Status s = fromJson(*row, value, v) ? apply(req, *row, v)
                                        : badValue(row->kind);
    return s.ok() ? s : s.withContext(msg("field '", key, "'"));
}

} // namespace

std::span<const VerbSpec>
verbTable()
{
    return kVerbs;
}

std::string
toString(Verb verb)
{
    return kVerbs[static_cast<std::size_t>(verb)].name;
}

Result<Verb>
verbFromString(const std::string &name)
{
    for (const VerbSpec &spec : kVerbs) {
        if (name == spec.name)
            return spec.verb;
    }
    return Status(StatusCode::NotFound,
                  msg("unknown command '", name, "'"));
}

std::span<const OptionSpec>
optionTable()
{
    return kOptions;
}

const std::vector<std::string> &
requestFlagNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const OptionSpec &row : kOptions) {
            if (row.flag != nullptr && row.kind == K::Flag)
                out.emplace_back(row.flag);
        }
        return out;
    }();
    return names;
}

std::string
argvCommand(const ArgParser &args)
{
    const std::string suite = toString(Verb::Suite);
    if (args.numPositional() == 0 && args.has(suite))
        return suite;
    return args.positional(0);
}

Result<std::shared_ptr<FaultPlan>>
parseInjectSpec(const std::string &specs)
{
    if (specs.empty())
        return std::shared_ptr<FaultPlan>();
    auto plan = std::make_shared<FaultPlan>();
    for (const std::string &spec : split(specs, ',')) {
        const std::vector<std::string> parts = split(spec, ':', true);
        if (parts.size() < 2 || parts.size() > 4 || parts[0].empty()) {
            return Status(
                StatusCode::InvalidArgument,
                msg("bad inject spec '", spec,
                    "' (use kernel:site[:attempt[:stallMs]])"));
        }
        FaultInjection injection;
        injection.kernel = parts[0];
        GPUMECH_ASSIGN_OR_RETURN(injection.site,
                                 faultSiteFromString(parts[1]));
        // Digits only: strtoul would wrap "-1" and truncate 2^32 + 1.
        const std::optional<std::uint32_t> attempt =
            parts.size() > 2 ? parseUint32(parts[2]) : 1;
        const std::optional<std::uint32_t> stall =
            parts.size() > 3 ? parseUint32(parts[3]) : 0;
        if (!attempt || *attempt == 0 || !stall) {
            return Status(StatusCode::InvalidArgument,
                          msg("bad inject attempt or stall in '", spec,
                              "' (attempt >= 1; both up to 4294967295)"));
        }
        injection.attempt = *attempt;
        injection.stallMs = *stall;
        plan->add(std::move(injection));
    }
    return plan;
}

Result<Request>
requestFromArgs(const ArgParser &args)
{
    // An unknown option is named before the command is looked up.
    // Rows apply in table order, so --dims lands before --<dim>-values.
    std::vector<std::pair<const OptionSpec *, std::string>> given;
    for (const std::string &name : args.optionNames()) {
        const OptionSpec *row = argvRow(name);
        if (row == nullptr) {
            return Status(StatusCode::InvalidArgument,
                          msg("unknown option '--", name, "'"));
        }
        given.emplace_back(row, name);
    }
    std::stable_sort(given.begin(), given.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    Request req;
    const VerbSpec *verb = nullptr;
    GPUMECH_ASSIGN_OR_RETURN(verb, begin(req, argvCommand(args)));
    for (const auto &[row, name] : given) {
        const std::string text = args.get(name);
        if (!(row->verbs & verbBit(req.verb)) ||
            (text.empty() && row->kind != K::Flag))
            continue; // another verb's option, or no value: not given
        OptionValue v;
        Status s = fromArgv(*row, name, text, v)
                       ? apply(req, *row, v)
                       : badValue(row->kind, text);
        if (!s.ok())
            return s.withContext("--" + name);
    }

    // The positionals after the command are the verb's target.
    const Target target = verb->target;
    const std::string first = args.positional(1);
    if (target == T::Kernel || target == T::KernelAndOutput)
        req.kernel = first;
    if (target == T::Suite && !first.empty())
        req.suite = first; // else --suite S
    if (target == T::KernelAndOutput)
        req.paths = {args.positional(2)};
    if (target == T::InputAndOutput)
        req.paths = {first, args.positional(2)};
    if (target == T::Paths) {
        for (std::size_t i = 1; i < args.numPositional(); ++i)
            req.paths.push_back(args.positional(i));
    }
    GPUMECH_TRY(finish(req, *verb, /*json=*/false));
    return req;
}

Result<Request>
requestFromJson(const std::string &line)
{
    Result<JsonValue> parsed = parseJson(line);
    if (!parsed.ok())
        return parsed.status().withContext("request");
    const JsonValue &doc = parsed.value();
    const JsonValue *cmd = doc.find("cmd"); // nullptr unless an object
    if (cmd == nullptr || !cmd->isString() || cmd->string().empty()) {
        return Status(StatusCode::InvalidArgument,
                      "request must be an object with a \"cmd\" string");
    }

    Request req;
    const VerbSpec *verb = nullptr;
    GPUMECH_ASSIGN_OR_RETURN(verb, begin(req, cmd->string()));
    std::uint64_t seen = 0;
    bool config_seen = false;
    for (const auto &[key, value] : doc.members()) {
        if (key == "cmd")
            continue;
        if (key != "config") {
            GPUMECH_TRY(readJson(req, false, key, value, seen));
            continue;
        }
        if (std::exchange(config_seen, true) || value.isNull())
            continue;
        if (!value.isObject()) {
            return Status(StatusCode::InvalidArgument,
                          "field 'config' must be an object");
        }
        for (const auto &[name, member] : value.members())
            GPUMECH_TRY(readJson(req, true, name, member, seen));
    }
    GPUMECH_TRY(finish(req, *verb, /*json=*/true));
    return req;
}

std::string
responseToJsonLine(const Response &response, const std::string &id,
                   std::uint64_t seq, bool include_output)
{
    JsonWriter json;
    if (!id.empty())
        json.field("id", id);
    json.field("seq", seq);
    json.field("ok", response.status.ok());
    json.field("code", static_cast<std::uint64_t>(
                           static_cast<unsigned>(response.exitCode)));
    json.field("status", toString(response.status.code()));
    if (!response.status.ok())
        json.field("error", response.status.message());
    if (response.shed)
        json.field("shed", true);
    if (response.retryAfterMs)
        json.field("retry_after_ms", response.retryAfterMs);
    json.field("kernels",
               static_cast<std::uint64_t>(response.stats.kernels));
    json.field("failed",
               static_cast<std::uint64_t>(response.stats.failed));
    json.beginObject("cache");
    json.field("trace_hits", response.stats.traceHits);
    json.field("trace_misses", response.stats.traceMisses);
    json.field("collector_hits", response.stats.collectorHits);
    json.field("collector_misses", response.stats.collectorMisses);
    json.field("profiler_hits", response.stats.profilerHits);
    json.field("profiler_misses", response.stats.profilerMisses);
    json.endObject();
    json.field("wall_ms", response.stats.wallMs);
    if (response.mrcApproximate) {
        json.field("mrc_approximate", true);
        json.field("mrc_approximation", response.mrcApproximation);
    }
    if (!response.metricsJson.empty())
        json.field("metrics", response.metricsJson);
    if (include_output)
        json.field("output", response.output);
    return json.finish();
}

std::string
salvageRequestId(const std::string &line)
{
    Result<JsonValue> doc = parseJson(line);
    if (!doc.ok() || !doc.value().isObject())
        return "";
    const JsonValue *id = doc.value().find("id");
    return (id && id->isString()) ? id->string() : "";
}

} // namespace gpumech
