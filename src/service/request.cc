#include "service/request.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"

namespace gpumech
{

std::string
toString(Verb verb)
{
    switch (verb) {
      case Verb::List: return "list";
      case Verb::Model: return "model";
      case Verb::Simulate: return "simulate";
      case Verb::Compare: return "compare";
      case Verb::Sweep: return "sweep";
      case Verb::Tune: return "tune";
      case Verb::Stack: return "stack";
      case Verb::DumpTrace: return "dump-trace";
      case Verb::Pack: return "pack";
      case Verb::Unpack: return "unpack";
      case Verb::ModelTrace: return "model-trace";
      case Verb::Suite: return "suite";
      case Verb::Ping: return "ping";
      case Verb::Stats: return "stats";
      case Verb::Health: return "health";
    }
    return "?";
}

Result<Verb>
verbFromString(const std::string &name)
{
    static const std::pair<const char *, Verb> table[] = {
        {"list", Verb::List},
        {"model", Verb::Model},
        {"simulate", Verb::Simulate},
        {"compare", Verb::Compare},
        {"sweep", Verb::Sweep},
        {"tune", Verb::Tune},
        {"stack", Verb::Stack},
        {"dump-trace", Verb::DumpTrace},
        {"pack", Verb::Pack},
        {"unpack", Verb::Unpack},
        {"model-trace", Verb::ModelTrace},
        {"suite", Verb::Suite},
        {"ping", Verb::Ping},
        {"stats", Verb::Stats},
        {"health", Verb::Health},
    };
    for (const auto &entry : table) {
        if (name == entry.first)
            return entry.second;
    }
    return Status(StatusCode::NotFound,
                  msg("unknown command '", name, "'"));
}

namespace
{

/** Split @p text on @p sep, dropping empty pieces. */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string item;
    for (char c : text + std::string(1, sep)) {
        if (c == sep) {
            if (!item.empty())
                out.push_back(item);
            item.clear();
        } else {
            item += c;
        }
    }
    return out;
}

Result<SchedulingPolicy>
policyFromString(const std::string &p)
{
    if (p == "rr")
        return SchedulingPolicy::RoundRobin;
    if (p == "gto")
        return SchedulingPolicy::GreedyThenOldest;
    return Status(StatusCode::InvalidArgument,
                  msg("unknown policy '", p, "' (use rr or gto)"));
}

Result<ModelLevel>
levelFromString(const std::string &l)
{
    if (l == "mt")
        return ModelLevel::MT;
    if (l == "mshr")
        return ModelLevel::MT_MSHR;
    if (l == "band")
        return ModelLevel::MT_MSHR_BAND;
    return Status(StatusCode::InvalidArgument,
                  msg("unknown model level '", l,
                      "' (use mt, mshr or band)"));
}

Result<std::vector<double>>
sweepValuesFromString(const std::string &values)
{
    std::vector<double> points;
    for (const std::string &tok : split(values, ',')) {
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            return Status(StatusCode::InvalidArgument,
                          msg("bad sweep value '", tok, "'"));
        }
        points.push_back(v);
    }
    if (points.empty()) {
        return Status(StatusCode::InvalidArgument,
                      "--values produced no sweep points");
    }
    return points;
}

Status
checkSweepParam(const std::string &param)
{
    if (param == "warps" || param == "mshrs" || param == "bw" ||
        param == "sfu-lanes" || param == "l1-kb" || param == "l2-kb")
        return Status();
    return Status(StatusCode::InvalidArgument,
                  msg("unknown sweep parameter '", param, "'"));
}

/**
 * Values a sweep parameter can take: positive finite bandwidths, and
 * positive integers elsewhere — up to maxCacheKb for the cache sizes,
 * whose byte counts must fit 32 bits, and up to 2^32 - 1 for counts.
 */
Status
checkSweepValues(const std::string &param,
                 const std::vector<double> &values)
{
    const bool kb = param == "l1-kb" || param == "l2-kb";
    const double max = kb ? maxCacheKb : 4294967295.0;
    for (double v : values) {
        bool ok = std::isfinite(v) && v > 0.0;
        if (param != "bw")
            ok = ok && v == std::floor(v) && v <= max;
        if (!ok) {
            char value[32];
            std::snprintf(value, sizeof(value), "%.17g", v);
            std::string want = param == "bw" ? "a positive number"
                                             : "a positive integer";
            if (kb)
                want += msg(" up to ", maxCacheKb);
            return Status(StatusCode::InvalidArgument,
                          msg("bad value ", value, " for sweep parameter '",
                              param, "' (must be ", want, ")"));
        }
    }
    return Status();
}

Result<SweepMode>
sweepModeFromString(const std::string &mode)
{
    SweepMode out = SweepMode::Rerun;
    if (!parseSweepMode(mode, out)) {
        return Status(StatusCode::InvalidArgument,
                      msg("unknown sweep mode '", mode,
                          "' (use rerun or mrc)"));
    }
    return out;
}

Status
checkMrcRate(double rate)
{
    if (rate > 0.0 && rate <= 1.0)
        return Status();
    return Status(StatusCode::InvalidArgument,
                  msg("mrc rate must be in (0, 1], got ", rate));
}

Status
usageError(const std::string &usage)
{
    return Status(StatusCode::InvalidArgument, usage);
}

/** Tune dimension names ("--dims" / "dims"), ladders left default. */
Result<std::vector<TuneDimension>>
tuneDimsFromString(const std::string &names)
{
    std::vector<TuneDimension> dims;
    for (const std::string &name : split(names, ',')) {
        if (!isTuneDimension(name)) {
            return Status(StatusCode::InvalidArgument,
                          msg("unknown tune dimension '", name,
                              "' (use ", tuneDimensionNames(), ")"));
        }
        TuneDimension dim;
        dim.name = name;
        dims.push_back(std::move(dim));
    }
    if (dims.empty()) {
        return Status(StatusCode::InvalidArgument,
                      "tune needs at least one dimension");
    }
    return dims;
}

/** "--cost-weights dim=w,..." / "cost_weights" values, merged in. */
Status
applyCostWeight(TuneCostModel &cost, const std::string &name, double w)
{
    if (!isTuneDimension(name)) {
        return Status(StatusCode::InvalidArgument,
                      msg("cost weight names an unknown dimension '",
                          name, "' (use ", tuneDimensionNames(), ")"));
    }
    if (!std::isfinite(w) || w < 0.0) {
        return Status(StatusCode::InvalidArgument,
                      msg("cost weight for '", name,
                          "' must be finite and >= 0, got ", w));
    }
    cost.weights[name] = w;
    return Status();
}

Result<TuneObjective>
tuneObjectiveFromString(const std::string &text)
{
    TuneObjective objective = TuneObjective::MinCpi;
    if (!parseTuneObjective(text, objective)) {
        return Status(StatusCode::InvalidArgument,
                      msg("unknown objective '", text,
                          "' (use cpi or cpi-cost)"));
    }
    return objective;
}

Status
checkTuneBound(const char *name, double bound)
{
    if (std::isfinite(bound) && bound >= 0.0)
        return Status();
    return Status(StatusCode::InvalidArgument,
                  msg(name, " must be finite and >= 0, got ", bound));
}

} // namespace

Result<std::shared_ptr<FaultPlan>>
parseInjectSpec(const std::string &specs)
{
    if (specs.empty())
        return std::shared_ptr<FaultPlan>();
    auto plan = std::make_shared<FaultPlan>();
    for (const std::string &spec : split(specs, ',')) {
        std::vector<std::string> parts;
        std::string part;
        for (char c : spec + ":") {
            if (c == ':') {
                parts.push_back(part);
                part.clear();
            } else {
                part += c;
            }
        }
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
        if (parts.size() > 2) {
            injection.attempt = static_cast<unsigned>(
                std::strtoul(parts[2].c_str(), nullptr, 10));
            if (injection.attempt == 0) {
                return Status(StatusCode::InvalidArgument,
                              msg("bad inject attempt in '", spec,
                                  "' (1-based)"));
            }
        }
        if (parts.size() > 3) {
            injection.stallMs =
                std::strtoull(parts[3].c_str(), nullptr, 10);
        }
        plan->add(std::move(injection));
    }
    return plan;
}

Result<Request>
requestFromArgs(const ArgParser &args)
{
    Request req;

    std::string cmd = args.positional(0);
    if (cmd.empty() && args.has("suite"))
        cmd = "suite"; // `gpumech --suite stress` alias
    GPUMECH_ASSIGN_OR_RETURN(req.verb, verbFromString(cmd));

    // Hardware overrides. Count-valued options go through the checked
    // parser: "--warps -1" and "--warps 0" must be an InvalidArgument
    // here, not a silently wrapped ~4e9 (strtoul) deep in the engine.
    GPUMECH_ASSIGN_OR_RETURN(
        req.config.warpsPerCore,
        args.getPositiveUint("warps", req.config.warpsPerCore));
    GPUMECH_ASSIGN_OR_RETURN(
        req.config.numCores,
        args.getPositiveUint("cores", req.config.numCores));
    GPUMECH_ASSIGN_OR_RETURN(
        req.config.numMshrs,
        args.getPositiveUint("mshrs", req.config.numMshrs));
    GPUMECH_ASSIGN_OR_RETURN(
        req.config.sfuLanes,
        args.getPositiveUint("sfu-lanes", req.config.sfuLanes));
    GPUMECH_ASSIGN_OR_RETURN(
        req.config.dramBandwidthGBs,
        args.getDouble("bw", req.config.dramBandwidthGBs));
    GPUMECH_TRY(req.config.validate());

    GPUMECH_ASSIGN_OR_RETURN(req.policy,
                             policyFromString(args.get("policy", "rr")));
    GPUMECH_ASSIGN_OR_RETURN(req.level,
                             levelFromString(args.get("level", "band")));
    req.modelSfu = args.has("model-sfu");
    req.predict = args.has("predict");
    req.oracle = args.has("oracle");
    req.verbose = args.has("verbose");
    req.json = args.has("json");
    req.varint = args.has("varint");

    GPUMECH_ASSIGN_OR_RETURN(req.jobs, args.getPositiveUint("jobs", 0));
    req.timeoutMs = args.getUint("kernel-timeout-ms", 0);
    GPUMECH_ASSIGN_OR_RETURN(req.faultPlan,
                             parseInjectSpec(args.get("inject", "")));

    // Per-verb targets, preserving the old CLI's usage messages.
    switch (req.verb) {
      case Verb::List:
      case Verb::Ping:
      case Verb::Stats:
      case Verb::Health:
        break;
      case Verb::Model:
        req.kernel = args.positional(1);
        if (req.kernel.empty())
            return usageError("usage: gpumech model <kernel> [options]");
        break;
      case Verb::Simulate:
        req.kernel = args.positional(1);
        if (req.kernel.empty())
            return usageError(
                "usage: gpumech simulate <kernel> [options]");
        break;
      case Verb::Compare:
        req.kernel = args.positional(1);
        if (req.kernel.empty())
            return usageError(
                "usage: gpumech compare <kernel> [options]");
        break;
      case Verb::Stack:
        req.kernel = args.positional(1);
        if (req.kernel.empty())
            return usageError("usage: gpumech stack <kernel> [options]");
        break;
      case Verb::Sweep: {
        req.kernel = args.positional(1);
        if (req.kernel.empty()) {
            return usageError(
                "usage: gpumech sweep <kernel> --param "
                "warps|mshrs|bw|sfu-lanes|l1-kb|l2-kb "
                "[--values a,b,c] [--sweep-mode rerun|mrc] "
                "[--mrc-rate r] [--oracle]");
        }
        req.sweepParam = args.get("param", "warps");
        GPUMECH_TRY(checkSweepParam(req.sweepParam));
        GPUMECH_ASSIGN_OR_RETURN(
            req.sweepValues,
            sweepValuesFromString(args.get("values", "8,16,24,32,48")));
        GPUMECH_TRY(checkSweepValues(req.sweepParam, req.sweepValues));
        GPUMECH_ASSIGN_OR_RETURN(
            req.sweepMode,
            sweepModeFromString(args.get("sweep-mode", "rerun")));
        GPUMECH_ASSIGN_OR_RETURN(req.mrcRate,
                                 args.getDouble("mrc-rate", 1.0));
        GPUMECH_TRY(checkMrcRate(req.mrcRate));
        break;
      }
      case Verb::Tune: {
        req.kernel = args.positional(1);
        if (req.kernel.empty()) {
            return usageError(
                "usage: gpumech tune <kernel> [--dims d1,d2,...] "
                "[--<dim>-values a,b,c] [--objective cpi|cpi-cost] "
                "[--restarts n] [--seed s] [--max-cost c] "
                "[--max-cpi c] [--cost-weights dim=w,...] "
                "[--sweep-mode mrc|rerun] [--mrc-rate r] "
                "[--allow-approx]");
        }
        GPUMECH_ASSIGN_OR_RETURN(
            req.tune.dims,
            tuneDimsFromString(args.get("dims", "mshrs,bw,l1-kb,l2-kb")));
        for (TuneDimension &dim : req.tune.dims) {
            std::string values = args.get(dim.name + "-values", "");
            if (!values.empty()) {
                GPUMECH_ASSIGN_OR_RETURN(dim.values,
                                         sweepValuesFromString(values));
            }
        }
        GPUMECH_ASSIGN_OR_RETURN(
            req.tune.objective,
            tuneObjectiveFromString(args.get("objective", "cpi")));
        GPUMECH_ASSIGN_OR_RETURN(
            req.tune.restarts,
            args.getPositiveUint("restarts", req.tune.restarts));
        std::uint32_t seed = 1;
        GPUMECH_ASSIGN_OR_RETURN(seed, args.getPositiveUint("seed", 1));
        req.tune.seed = seed;
        GPUMECH_ASSIGN_OR_RETURN(req.tune.constraints.maxCost,
                                 args.getDouble("max-cost", 0.0));
        GPUMECH_TRY(checkTuneBound("--max-cost",
                                   req.tune.constraints.maxCost));
        GPUMECH_ASSIGN_OR_RETURN(req.tune.constraints.maxCpi,
                                 args.getDouble("max-cpi", 0.0));
        GPUMECH_TRY(checkTuneBound("--max-cpi",
                                   req.tune.constraints.maxCpi));
        for (const std::string &pair :
             split(args.get("cost-weights", ""), ',')) {
            auto eq = pair.find('=');
            char *end = nullptr;
            double w = eq == std::string::npos
                           ? 0.0
                           : std::strtod(pair.c_str() + eq + 1, &end);
            if (eq == std::string::npos || eq == 0 || end == nullptr ||
                *end != '\0' || pair.c_str() + eq + 1 == end) {
                return Status(StatusCode::InvalidArgument,
                              msg("bad cost weight '", pair,
                                  "' (use dim=weight)"));
            }
            GPUMECH_TRY(applyCostWeight(req.tune.cost,
                                        pair.substr(0, eq), w));
        }
        req.tune.allowApprox = args.has("allow-approx");
        GPUMECH_ASSIGN_OR_RETURN(
            req.tune.mode,
            sweepModeFromString(args.get("sweep-mode", "mrc")));
        GPUMECH_ASSIGN_OR_RETURN(req.tune.mrcRate,
                                 args.getDouble("mrc-rate", 1.0));
        if (req.tune.mode == SweepMode::Mrc)
            GPUMECH_TRY(checkMrcRate(req.tune.mrcRate));
        break;
      }
      case Verb::DumpTrace:
        req.kernel = args.positional(1);
        req.paths = {args.positional(2)};
        if (req.kernel.empty() || req.paths[0].empty()) {
            return usageError("usage: gpumech dump-trace <kernel> "
                              "<file> [--varint] [options]");
        }
        break;
      case Verb::Pack:
        req.paths = {args.positional(1), args.positional(2)};
        if (req.paths[0].empty() || req.paths[1].empty()) {
            return usageError("usage: gpumech pack <trace-in> "
                              "<trace-out.gmt> [--varint]");
        }
        break;
      case Verb::Unpack:
        req.paths = {args.positional(1), args.positional(2)};
        if (req.paths[0].empty() || req.paths[1].empty()) {
            return usageError(
                "usage: gpumech unpack <trace-in.gmt> <trace-out.txt>");
        }
        break;
      case Verb::ModelTrace:
        for (std::size_t i = 1; i < args.numPositional(); ++i)
            req.paths.push_back(args.positional(i));
        if (req.paths.empty()) {
            return usageError(
                "usage: gpumech model-trace <file...> [options]");
        }
        break;
      case Verb::Suite:
        req.suite = args.positional(1);
        if (req.suite.empty())
            req.suite = args.get("suite");
        if (req.suite.empty()) {
            return usageError(
                "usage: gpumech suite <suite> [--predict] "
                "[--kernel-timeout-ms N] [--inject spec] [options]");
        }
        break;
    }
    return req;
}

namespace
{

/** Positive-integer JSON field (counts); fallback when absent. */
Result<std::uint32_t>
getPositiveCount(const JsonValue &object, const std::string &key,
                 std::uint32_t fallback)
{
    const JsonValue *v = object.find(key);
    if (v == nullptr || v->isNull())
        return fallback;
    if (!v->isNumber()) {
        return Status(StatusCode::InvalidArgument,
                      msg("field '", key, "' must be a number"));
    }
    double d = v->number();
    if (!(d >= 1.0) || d != std::floor(d) || d > 4294967295.0) {
        return Status(StatusCode::InvalidArgument,
                      msg("field '", key,
                          "' must be a positive integer, got ", d));
    }
    return static_cast<std::uint32_t>(d);
}

} // namespace

Result<Request>
requestFromJson(const std::string &line)
{
    JsonValue doc;
    {
        Result<JsonValue> parsed = parseJson(line);
        if (!parsed.ok())
            return parsed.status().withContext("request");
        doc = std::move(parsed).value();
    }
    if (!doc.isObject()) {
        return Status(StatusCode::InvalidArgument,
                      "request must be a JSON object");
    }

    Request req;
    std::string cmd;
    GPUMECH_ASSIGN_OR_RETURN(cmd, doc.getString("cmd"));
    if (cmd.empty()) {
        return Status(StatusCode::InvalidArgument,
                      "request is missing \"cmd\"");
    }
    GPUMECH_ASSIGN_OR_RETURN(req.verb, verbFromString(cmd));
    GPUMECH_ASSIGN_OR_RETURN(req.id, doc.getString("id"));
    GPUMECH_ASSIGN_OR_RETURN(req.kernel, doc.getString("kernel"));
    GPUMECH_ASSIGN_OR_RETURN(req.suite, doc.getString("suite"));

    if (const JsonValue *paths = doc.find("paths")) {
        if (!paths->isArray()) {
            return Status(StatusCode::InvalidArgument,
                          "field 'paths' must be an array of strings");
        }
        for (const JsonValue &p : paths->items()) {
            if (!p.isString()) {
                return Status(
                    StatusCode::InvalidArgument,
                    "field 'paths' must be an array of strings");
            }
            req.paths.push_back(p.string());
        }
    }

    if (const JsonValue *config = doc.find("config")) {
        if (!config->isObject()) {
            return Status(StatusCode::InvalidArgument,
                          "field 'config' must be an object");
        }
        GPUMECH_ASSIGN_OR_RETURN(
            req.config.warpsPerCore,
            getPositiveCount(*config, "warps",
                             req.config.warpsPerCore));
        GPUMECH_ASSIGN_OR_RETURN(
            req.config.numCores,
            getPositiveCount(*config, "cores", req.config.numCores));
        GPUMECH_ASSIGN_OR_RETURN(
            req.config.numMshrs,
            getPositiveCount(*config, "mshrs", req.config.numMshrs));
        GPUMECH_ASSIGN_OR_RETURN(
            req.config.sfuLanes,
            getPositiveCount(*config, "sfu_lanes",
                             req.config.sfuLanes));
        GPUMECH_ASSIGN_OR_RETURN(
            req.config.dramBandwidthGBs,
            config->getNumber("bw", req.config.dramBandwidthGBs));
    }
    GPUMECH_TRY(req.config.validate());

    std::string policy, level;
    GPUMECH_ASSIGN_OR_RETURN(policy, doc.getString("policy", "rr"));
    GPUMECH_ASSIGN_OR_RETURN(req.policy, policyFromString(policy));
    GPUMECH_ASSIGN_OR_RETURN(level, doc.getString("level", "band"));
    GPUMECH_ASSIGN_OR_RETURN(req.level, levelFromString(level));

    GPUMECH_ASSIGN_OR_RETURN(req.modelSfu,
                             doc.getBool("model_sfu", false));
    GPUMECH_ASSIGN_OR_RETURN(req.predict, doc.getBool("predict", false));
    GPUMECH_ASSIGN_OR_RETURN(req.oracle, doc.getBool("oracle", false));
    GPUMECH_ASSIGN_OR_RETURN(req.verbose, doc.getBool("verbose", false));
    GPUMECH_ASSIGN_OR_RETURN(req.json, doc.getBool("json", false));
    GPUMECH_ASSIGN_OR_RETURN(req.varint, doc.getBool("varint", false));
    GPUMECH_ASSIGN_OR_RETURN(req.wantMetrics,
                             doc.getBool("metrics", false));

    GPUMECH_ASSIGN_OR_RETURN(req.jobs,
                             getPositiveCount(doc, "jobs", 0));

    double timeout = 0.0;
    GPUMECH_ASSIGN_OR_RETURN(timeout, doc.getNumber("timeout_ms", 0.0));
    // The same range as argv's getUint; 1e999 parses to infinity,
    // which the cast below could not represent.
    if (timeout < 0.0 || timeout != std::floor(timeout) ||
        timeout > 4294967295.0) {
        return Status(StatusCode::InvalidArgument,
                      msg("field 'timeout_ms' must be an integer from 0 "
                          "to 4294967295, got ", timeout));
    }
    req.timeoutMs = static_cast<std::uint64_t>(timeout);

    std::string inject;
    GPUMECH_ASSIGN_OR_RETURN(inject, doc.getString("inject"));
    GPUMECH_ASSIGN_OR_RETURN(req.faultPlan, parseInjectSpec(inject));

    if (req.verb == Verb::Sweep) {
        GPUMECH_ASSIGN_OR_RETURN(req.sweepParam,
                                 doc.getString("param", "warps"));
        GPUMECH_TRY(checkSweepParam(req.sweepParam));
        if (const JsonValue *values = doc.find("values")) {
            if (!values->isArray()) {
                return Status(
                    StatusCode::InvalidArgument,
                    "field 'values' must be an array of numbers");
            }
            for (const JsonValue &v : values->items()) {
                if (!v.isNumber()) {
                    return Status(
                        StatusCode::InvalidArgument,
                        "field 'values' must be an array of numbers");
                }
                req.sweepValues.push_back(v.number());
            }
        }
        if (req.sweepValues.empty()) {
            GPUMECH_ASSIGN_OR_RETURN(
                req.sweepValues,
                sweepValuesFromString("8,16,24,32,48"));
        }
        GPUMECH_TRY(checkSweepValues(req.sweepParam, req.sweepValues));
        std::string mode;
        GPUMECH_ASSIGN_OR_RETURN(mode,
                                 doc.getString("sweep_mode", "rerun"));
        GPUMECH_ASSIGN_OR_RETURN(req.sweepMode,
                                 sweepModeFromString(mode));
        GPUMECH_ASSIGN_OR_RETURN(req.mrcRate,
                                 doc.getNumber("mrc_rate", 1.0));
        GPUMECH_TRY(checkMrcRate(req.mrcRate));
    }

    if (req.verb == Verb::Tune) {
        if (const JsonValue *dims = doc.find("dims")) {
            if (!dims->isArray()) {
                return Status(StatusCode::InvalidArgument,
                              "field 'dims' must be an array of "
                              "names or {name, values} objects");
            }
            for (const JsonValue &d : dims->items()) {
                TuneDimension dim;
                if (d.isString()) {
                    dim.name = d.string();
                } else if (d.isObject()) {
                    GPUMECH_ASSIGN_OR_RETURN(dim.name,
                                             d.getString("name"));
                    if (const JsonValue *values = d.find("values")) {
                        if (!values->isArray()) {
                            return Status(
                                StatusCode::InvalidArgument,
                                msg("dimension '", dim.name,
                                    "' \"values\" must be an array "
                                    "of numbers"));
                        }
                        for (const JsonValue &v : values->items()) {
                            if (!v.isNumber()) {
                                return Status(
                                    StatusCode::InvalidArgument,
                                    msg("dimension '", dim.name,
                                        "' \"values\" must be an "
                                        "array of numbers"));
                            }
                            dim.values.push_back(v.number());
                        }
                    }
                } else {
                    return Status(StatusCode::InvalidArgument,
                                  "field 'dims' must be an array of "
                                  "names or {name, values} objects");
                }
                if (!isTuneDimension(dim.name)) {
                    return Status(StatusCode::InvalidArgument,
                                  msg("unknown tune dimension '",
                                      dim.name, "' (use ",
                                      tuneDimensionNames(), ")"));
                }
                req.tune.dims.push_back(std::move(dim));
            }
        }
        if (req.tune.dims.empty()) {
            GPUMECH_ASSIGN_OR_RETURN(
                req.tune.dims,
                tuneDimsFromString("mshrs,bw,l1-kb,l2-kb"));
        }
        std::string objective;
        GPUMECH_ASSIGN_OR_RETURN(objective,
                                 doc.getString("objective", "cpi"));
        GPUMECH_ASSIGN_OR_RETURN(req.tune.objective,
                                 tuneObjectiveFromString(objective));
        GPUMECH_ASSIGN_OR_RETURN(
            req.tune.restarts,
            getPositiveCount(doc, "restarts", req.tune.restarts));
        std::uint32_t seed = 1;
        GPUMECH_ASSIGN_OR_RETURN(seed, getPositiveCount(doc, "seed", 1));
        req.tune.seed = seed;
        GPUMECH_ASSIGN_OR_RETURN(req.tune.constraints.maxCost,
                                 doc.getNumber("max_cost", 0.0));
        GPUMECH_TRY(checkTuneBound("field 'max_cost'",
                                   req.tune.constraints.maxCost));
        GPUMECH_ASSIGN_OR_RETURN(req.tune.constraints.maxCpi,
                                 doc.getNumber("max_cpi", 0.0));
        GPUMECH_TRY(checkTuneBound("field 'max_cpi'",
                                   req.tune.constraints.maxCpi));
        if (const JsonValue *weights = doc.find("cost_weights")) {
            if (!weights->isObject()) {
                return Status(StatusCode::InvalidArgument,
                              "field 'cost_weights' must be an "
                              "object of dim: weight");
            }
            for (const auto &member : weights->members()) {
                if (!member.second.isNumber()) {
                    return Status(StatusCode::InvalidArgument,
                                  msg("cost weight '", member.first,
                                      "' must be a number"));
                }
                GPUMECH_TRY(applyCostWeight(req.tune.cost, member.first,
                                            member.second.number()));
            }
        }
        GPUMECH_ASSIGN_OR_RETURN(req.tune.allowApprox,
                                 doc.getBool("allow_approx", false));
        std::string mode;
        GPUMECH_ASSIGN_OR_RETURN(mode,
                                 doc.getString("sweep_mode", "mrc"));
        GPUMECH_ASSIGN_OR_RETURN(req.tune.mode,
                                 sweepModeFromString(mode));
        GPUMECH_ASSIGN_OR_RETURN(req.tune.mrcRate,
                                 doc.getNumber("mrc_rate", 1.0));
        if (req.tune.mode == SweepMode::Mrc)
            GPUMECH_TRY(checkMrcRate(req.tune.mrcRate));
    }

    // Target presence, mirroring requestFromArgs.
    switch (req.verb) {
      case Verb::Model:
      case Verb::Simulate:
      case Verb::Compare:
      case Verb::Sweep:
      case Verb::Tune:
      case Verb::Stack:
        if (req.kernel.empty()) {
            return Status(StatusCode::InvalidArgument,
                          msg("'", cmd, "' requires \"kernel\""));
        }
        break;
      case Verb::DumpTrace:
        if (req.kernel.empty() || req.paths.size() != 1 ||
            req.paths[0].empty()) {
            return Status(StatusCode::InvalidArgument,
                          "'dump-trace' requires \"kernel\" and one "
                          "output path in \"paths\"");
        }
        break;
      case Verb::Pack:
      case Verb::Unpack:
        if (req.paths.size() != 2 || req.paths[0].empty() ||
            req.paths[1].empty()) {
            return Status(StatusCode::InvalidArgument,
                          msg("'", cmd, "' requires \"paths\":[in,out]"));
        }
        break;
      case Verb::ModelTrace:
        if (req.paths.empty()) {
            return Status(StatusCode::InvalidArgument,
                          "'model-trace' requires a non-empty "
                          "\"paths\" array");
        }
        break;
      case Verb::Suite:
        if (req.suite.empty()) {
            return Status(StatusCode::InvalidArgument,
                          "'suite' requires \"suite\"");
        }
        break;
      case Verb::List:
      case Verb::Ping:
      case Verb::Stats:
      case Verb::Health:
        break;
    }
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
