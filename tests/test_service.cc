/**
 * @file
 * Service-layer tests: the typed request model (argv and JSON-lines
 * parsers, including the checked count-valued options, and the
 * option table both read, pair by pair), the
 * EngineSession front-end contract (warm-cache reuse, containment,
 * exit-code semantics), the response serialization, and the
 * connection supervisor: stdin/stdout mode as one fd-pair connection
 * (ordering, malformed lines, admission control, drain, a dead
 * writer) and socket mode (per-client ordering/routing, fairness
 * quotas with retry hints, misbehaving-client isolation, exclusive
 * metrics requests, graceful drain with work in flight).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <set>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json_value.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "service/engine_session.hh"
#include "service/supervisor.hh"
#include "workloads/workload.hh"

using namespace gpumech;

namespace
{

Request
mustParseArgs(const std::vector<std::string> &tokens)
{
    Result<Request> r =
        requestFromArgs(ArgParser(tokens, requestFlagNames()));
    EXPECT_TRUE(r.ok()) << r.status().toString();
    return r.ok() ? std::move(r).value() : Request{};
}

StatusCode
argsCode(const std::vector<std::string> &tokens)
{
    Result<Request> r =
        requestFromArgs(ArgParser(tokens, requestFlagNames()));
    return r.ok() ? StatusCode::Ok : r.status().code();
}

StatusCode
jsonCode(const std::string &line)
{
    Result<Request> r = requestFromJson(line);
    return r.ok() ? StatusCode::Ok : r.status().code();
}

TEST(RequestFromArgs, ParsesModelWithOverrides)
{
    Request req = mustParseArgs({"model", "vectorAdd", "--warps", "16",
                                 "--cores", "8", "--mshrs", "64",
                                 "--bw", "256", "--policy", "gto",
                                 "--level", "mshr", "--model-sfu",
                                 "--json"});
    EXPECT_EQ(req.verb, Verb::Model);
    EXPECT_EQ(req.kernel, "vectorAdd");
    EXPECT_EQ(req.config.warpsPerCore, 16u);
    EXPECT_EQ(req.config.numCores, 8u);
    EXPECT_EQ(req.config.numMshrs, 64u);
    EXPECT_DOUBLE_EQ(req.config.dramBandwidthGBs, 256.0);
    EXPECT_EQ(req.policy, SchedulingPolicy::GreedyThenOldest);
    EXPECT_EQ(req.level, ModelLevel::MT_MSHR);
    EXPECT_TRUE(req.modelSfu);
    EXPECT_TRUE(req.json);
}

TEST(RequestFromArgs, RejectsNonPositiveCounts)
{
    // The old getUint would strtoul-wrap "-1" to ~4e9; the checked
    // parser must reject zero, negatives, and junk for every
    // count-valued option (the --jobs case used to try to spawn
    // billions of threads).
    for (const char *flag : {"--warps", "--cores", "--mshrs", "--jobs"}) {
        EXPECT_EQ(argsCode({"model", "vectorAdd", flag, "0"}),
                  StatusCode::InvalidArgument)
            << flag << " 0";
        EXPECT_EQ(argsCode({"model", "vectorAdd", flag, "-1"}),
                  StatusCode::InvalidArgument)
            << flag << " -1";
        EXPECT_EQ(argsCode({"model", "vectorAdd", flag, "abc"}),
                  StatusCode::InvalidArgument)
            << flag << " abc";
        EXPECT_EQ(argsCode({"model", "vectorAdd", flag, "5000000000"}),
                  StatusCode::InvalidArgument)
            << flag << " overflow";
    }
    // Absent flags still mean "default".
    EXPECT_EQ(argsCode({"model", "vectorAdd"}), StatusCode::Ok);
}

TEST(RequestFromArgs, RejectsBadEnumsAndSpecs)
{
    EXPECT_EQ(argsCode({"model", "vectorAdd", "--policy", "x"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"model", "vectorAdd", "--level", "x"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"suite", "micro", "--inject", "nosite"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"suite", "micro", "--inject", "k:parse:0"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"sweep", "vectorAdd", "--param", "bogus"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"bogus-command"}), StatusCode::NotFound);
    EXPECT_EQ(argsCode({"model"}), StatusCode::InvalidArgument);
    // Names outside the option table used to be ignored: "--wraps 4"
    // ran at the default 32 warps per core.
    EXPECT_EQ(argsCode({"model", "micro_stream", "--wraps", "4", "--cores",
                        "2"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"model", "micro_stream", "--warp", "4"}),
              StatusCode::InvalidArgument);
    // Inject attempts and stalls are digits only: strtoul fired
    // attempt 2^32 + 1 on attempt 1, never fired -1, and read "abc" as
    // no stall.
    for (const char *spec :
         {"micro_stream:collect:4294967297", "micro_stream:collect:-1",
          "micro_stream:collect:1:abc"}) {
        EXPECT_EQ(argsCode({"suite", "micro", "--inject", spec}),
                  StatusCode::InvalidArgument)
            << spec;
    }
}

TEST(RequestFromArgs, FlagsNeverTakeAValue)
{
    // A bare flag used to swallow the next token as its value.
    Request suite = mustParseArgs(
        {"suite", "--predict", "micro", "--warps", "4", "--cores", "2"});
    EXPECT_EQ(suite.verb, Verb::Suite);
    EXPECT_EQ(suite.suite, "micro");
    EXPECT_TRUE(suite.predict);
    EXPECT_EQ(suite.config.warpsPerCore, 4u);

    Request model = mustParseArgs({"model", "--json", "micro_stream"});
    EXPECT_EQ(model.kernel, "micro_stream");
    EXPECT_TRUE(model.json);

    // "--json=false" used to switch JSON output on.
    EXPECT_EQ(argsCode({"model", "micro_stream", "--json=false"}),
              StatusCode::InvalidArgument);
}

TEST(RequestFromArgs, MalformedNumericOptionsAreInvalidArgument)
{
    // The old getDouble called fatal() on junk: one "--bw fast" took
    // the whole process down. Every numeric option must now come back
    // as a parse error the front-end owns.
    EXPECT_EQ(argsCode({"model", "vectorAdd", "--bw", "fast"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"model", "vectorAdd", "--bw", "inf"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"model", "vectorAdd", "--bw", "nan"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"sweep", "vectorAdd", "--mrc-rate", "lots",
                        "--sweep-mode", "mrc"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"tune", "vectorAdd", "--max-cost", "cheap"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"tune", "vectorAdd", "--max-cpi", "-1"}),
              StatusCode::InvalidArgument);
    // A count that may be 0; junk used to reach getUint's fatal().
    EXPECT_EQ(argsCode({"model", "vectorAdd", "--kernel-timeout-ms",
                        "abc"}),
              StatusCode::InvalidArgument);
}

TEST(RequestFromArgs, ParsesTune)
{
    Request req = mustParseArgs(
        {"tune", "vectorAdd", "--dims", "mshrs,bw",
         "--mshrs-values", "16,32,64", "--objective", "cpi-cost",
         "--restarts", "2", "--seed", "7", "--max-cost", "3.5",
         "--cost-weights", "mshrs=0.2,bw=1", "--allow-approx"});
    EXPECT_EQ(req.verb, Verb::Tune);
    EXPECT_EQ(req.kernel, "vectorAdd");
    ASSERT_EQ(req.tune.dims.size(), 2u);
    EXPECT_EQ(req.tune.dims[0].name, "mshrs");
    EXPECT_EQ(req.tune.dims[0].values,
              (std::vector<double>{16, 32, 64}));
    EXPECT_EQ(req.tune.dims[1].name, "bw");
    EXPECT_TRUE(req.tune.dims[1].values.empty()); // default ladder
    EXPECT_EQ(req.tune.objective, TuneObjective::MinCpiCost);
    EXPECT_EQ(req.tune.restarts, 2u);
    EXPECT_EQ(req.tune.seed, 7u);
    EXPECT_DOUBLE_EQ(req.tune.constraints.maxCost, 3.5);
    EXPECT_DOUBLE_EQ(req.tune.cost.weights.at("mshrs"), 0.2);
    EXPECT_DOUBLE_EQ(req.tune.cost.weights.at("bw"), 1.0);
    EXPECT_TRUE(req.tune.allowApprox);
    EXPECT_EQ(req.tune.mode, SweepMode::Mrc); // the default

    EXPECT_EQ(argsCode({"tune"}), StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"tune", "vectorAdd", "--dims", "voltage"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"tune", "vectorAdd", "--objective", "best"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"tune", "vectorAdd", "--cost-weights",
                        "mshrs"}),
              StatusCode::InvalidArgument);
    EXPECT_EQ(argsCode({"tune", "vectorAdd", "--cost-weights",
                        "mshrs=-1"}),
              StatusCode::InvalidArgument);
}

TEST(RequestFromArgs, SuiteAliasAndIsolation)
{
    Request req = mustParseArgs({"--suite", "micro",
                                 "--kernel-timeout-ms", "250",
                                 "--inject",
                                 "micro_stream:collect:2:10"});
    EXPECT_EQ(req.verb, Verb::Suite);
    EXPECT_EQ(req.suite, "micro");
    EXPECT_EQ(req.timeoutMs, 250u);
    ASSERT_NE(req.faultPlan, nullptr);
    ASSERT_EQ(req.faultPlan->injections().size(), 1u);
    EXPECT_EQ(req.faultPlan->injections()[0].kernel, "micro_stream");
    EXPECT_EQ(req.faultPlan->injections()[0].site,
              FaultSite::Collect);
    EXPECT_EQ(req.faultPlan->injections()[0].attempt, 2u);
    EXPECT_EQ(req.faultPlan->injections()[0].stallMs, 10u);
}

TEST(RequestFromJson, ParsesDocumentedShape)
{
    Result<Request> r = requestFromJson(
        R"({"cmd":"model","kernel":"vectorAdd",)"
        R"("config":{"warps":16,"cores":8,"mshrs":64,"bw":256},)"
        R"("policy":"gto","level":"band","model_sfu":true,)"
        R"("timeout_ms":500,"jobs":2,"json":false,"id":"req-1"})");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const Request &req = r.value();
    EXPECT_EQ(req.verb, Verb::Model);
    EXPECT_EQ(req.id, "req-1");
    EXPECT_EQ(req.config.warpsPerCore, 16u);
    EXPECT_EQ(req.config.numCores, 8u);
    EXPECT_DOUBLE_EQ(req.config.dramBandwidthGBs, 256.0);
    EXPECT_EQ(req.policy, SchedulingPolicy::GreedyThenOldest);
    EXPECT_TRUE(req.modelSfu);
    EXPECT_EQ(req.timeoutMs, 500u);
    EXPECT_EQ(req.jobs, 2u);
}

TEST(RequestFromJson, RejectsBadRequests)
{
    EXPECT_EQ(jsonCode("not json"), StatusCode::ParseError);
    EXPECT_EQ(jsonCode("[1,2]"), StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode("{}"), StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(R"({"cmd":"bogus"})"), StatusCode::NotFound);
    EXPECT_EQ(jsonCode(R"({"cmd":"model"})"),
              StatusCode::InvalidArgument); // no kernel
    EXPECT_EQ(jsonCode(R"({"cmd":"model","kernel":1})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(
        jsonCode(R"({"cmd":"model","kernel":"k","config":{"warps":0}})"),
        StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(
                  R"({"cmd":"model","kernel":"k","config":{"warps":-4}})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(
                  R"({"cmd":"model","kernel":"k","config":{"warps":1.5}})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(R"({"cmd":"model","kernel":"k","timeout_ms":-1})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(
        jsonCode(R"({"cmd":"model","kernel":"k","timeout_ms":1e999})"),
        StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(R"({"cmd":"pack","paths":["only-one"]})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(R"({"cmd":"sweep","kernel":"k","values":["x"]})"),
              StatusCode::InvalidArgument);
    // Unknown fields used to be ignored: the override belongs under
    // "config", and "warp" is not one.
    EXPECT_EQ(jsonCode(R"({"cmd":"model","kernel":"micro_stream",)"
                       R"("warps":4,"config":{"cores":2}})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(R"({"cmd":"model","kernel":"micro_stream",)"
                       R"("config":{"cores":2,"warp":4}})"),
              StatusCode::InvalidArgument);
    // +inf bandwidth used to be served as "DRAM inf GB/s".
    EXPECT_EQ(jsonCode(R"({"cmd":"model","kernel":"k",)"
                       R"("config":{"bw":1e999}})"),
              StatusCode::InvalidArgument);
    for (const char *spec :
         {"micro_stream:collect:4294967297", "micro_stream:collect:-1",
          "micro_stream:collect:1:abc"}) {
        EXPECT_EQ(jsonCode(msg(R"({"cmd":"suite","suite":"micro",)",
                               R"("inject":")", spec, R"("})")),
                  StatusCode::InvalidArgument)
            << spec;
    }
}

TEST(RequestFromJson, ParsesTune)
{
    Result<Request> r = requestFromJson(
        R"({"cmd":"tune","kernel":"vectorAdd",)"
        R"("dims":["mshrs",{"name":"bw","values":[96,192]}],)"
        R"("objective":"cpi-cost","restarts":3,"seed":9,)"
        R"("max_cost":4,"cost_weights":{"bw":0.75},)"
        R"("allow_approx":true,"sweep_mode":"rerun"})");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const Request &req = r.value();
    EXPECT_EQ(req.verb, Verb::Tune);
    ASSERT_EQ(req.tune.dims.size(), 2u);
    EXPECT_EQ(req.tune.dims[0].name, "mshrs");
    EXPECT_TRUE(req.tune.dims[0].values.empty());
    EXPECT_EQ(req.tune.dims[1].name, "bw");
    EXPECT_EQ(req.tune.dims[1].values, (std::vector<double>{96, 192}));
    EXPECT_EQ(req.tune.objective, TuneObjective::MinCpiCost);
    EXPECT_EQ(req.tune.restarts, 3u);
    EXPECT_EQ(req.tune.seed, 9u);
    EXPECT_DOUBLE_EQ(req.tune.constraints.maxCost, 4.0);
    EXPECT_DOUBLE_EQ(req.tune.cost.weights.at("bw"), 0.75);
    EXPECT_TRUE(req.tune.allowApprox);
    EXPECT_EQ(req.tune.mode, SweepMode::Rerun);

    // Defaults: dims filled, mrc mode.
    Result<Request> d =
        requestFromJson(R"({"cmd":"tune","kernel":"vectorAdd"})");
    ASSERT_TRUE(d.ok()) << d.status().toString();
    EXPECT_EQ(d.value().tune.dims.size(), 4u);
    EXPECT_EQ(d.value().tune.mode, SweepMode::Mrc);

    EXPECT_EQ(jsonCode(R"({"cmd":"tune"})"),
              StatusCode::InvalidArgument); // no kernel
    EXPECT_EQ(jsonCode(R"({"cmd":"tune","kernel":"k","dims":["x"]})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(R"({"cmd":"tune","kernel":"k",)"
                       R"("cost_weights":{"mshrs":"heavy"}})"),
              StatusCode::InvalidArgument);
    EXPECT_EQ(jsonCode(R"({"cmd":"tune","kernel":"k",)"
                       R"("mrc_rate":1e999})"),
              StatusCode::InvalidArgument); // inf rate
}

/** Every field of @p r, rendered so that two requests compare. */
std::string
describe(const Request &r)
{
    std::ostringstream os;
    os.precision(17);
    const HardwareConfig &c = r.config;
    const LatencyTable &l = c.latency;
    os << toString(r.verb) << "|" << r.id << "|" << r.kernel << "|"
       << r.suite << "|";
    for (const std::string &path : r.paths)
        os << path << ",";
    os << "|" << c.numCores << " " << c.coreFreqGhz << " " << c.simtWidth
       << " " << c.warpSize << " " << c.warpsPerCore << " "
       << c.issueWidth << " " << c.issueRate << " " << l.intAlu << " "
       << l.fpAlu << " " << l.sfu << " " << l.sharedMem << " "
       << l.branch << " " << c.sfuLanes << " " << c.l1SizeBytes << " "
       << c.l1LineBytes << " " << c.l1Assoc << " " << c.l1HitLatency
       << " " << c.numMshrs << " " << c.replacementPolicy << " "
       << c.l2SizeBytes << " " << c.l2LineBytes << " " << c.l2Assoc
       << " " << c.l2HitLatency << " " << c.dramBandwidthGBs << " "
       << c.dramAccessLatency << "|" << static_cast<int>(r.policy)
       << static_cast<int>(r.level) << r.modelSfu << r.predict << r.oracle
       << r.verbose << r.json << r.varint << "|" << r.sweepParam << ":";
    for (double v : r.sweepValues)
        os << v << ",";
    os << "|" << static_cast<int>(r.sweepMode) << " " << r.mrcRate << "|";
    const TuneOptions &t = r.tune;
    for (const TuneDimension &dim : t.dims) {
        os << dim.name << "=";
        for (double v : dim.values)
            os << v << ",";
        os << ";";
    }
    for (const auto &[dim, w] : t.cost.weights)
        os << dim << ":" << w << ",";
    os << "|" << static_cast<int>(t.objective) << " " << t.restarts << " "
       << t.seed << " " << t.constraints.maxCost << " "
       << t.constraints.maxCpi << " " << static_cast<int>(t.mode) << " "
       << t.mrcRate << " " << t.allowApprox << " "
       << static_cast<int>(t.policy) << " " << t.modelSfu << " " << t.jobs
       << "|" << r.jobs << " " << r.timeoutMs << " " << r.wantMetrics
       << "|";
    if (r.faultPlan) {
        for (const FaultInjection &f : r.faultPlan->injections()) {
            os << f.kernel << ":" << toString(f.site) << ":" << f.attempt
               << ":" << f.stallMs << ",";
        }
    }
    return os.str();
}

/** An option row's name: its argv flag, or its JSON key if it has none. */
std::string
rowName(const OptionSpec &row)
{
    return row.flag != nullptr ? msg("--", row.flag) : row.key;
}

TEST(RequestSchema, ArgvAndJsonSpellingsParseAlike)
{
    // One pair per option row: the same value in each front-end's
    // spelling must parse to the same Request, field for field.
    // JSON-only rows set their field on the argv side by hand.
    struct Case
    {
        std::string row;
        std::vector<std::string> argv;
        std::string json;
        void (*only_json)(Request &) = nullptr;
    };
    const std::string bare = R"({"cmd":"model","kernel":"k"})";
    const std::string model = R"({"cmd":"model","kernel":"k",)";
    const std::string sweep = R"({"cmd":"sweep","kernel":"k",)";
    const std::string tune = R"({"cmd":"tune","kernel":"k",)";
    const Case cases[] = {
        {"--warps", {"model", "k", "--warps", "8"},
         model + R"("config":{"warps":8}})"},
        {"--cores", {"model", "k", "--cores", "4"},
         model + R"("config":{"cores":4}})"},
        {"--mshrs", {"model", "k", "--mshrs", "64"},
         model + R"("config":{"mshrs":64}})"},
        {"--bw", {"model", "k", "--bw", "96.5"},
         model + R"("config":{"bw":96.5}})"},
        {"--sfu-lanes", {"model", "k", "--sfu-lanes", "8"},
         model + R"("config":{"sfu_lanes":8}})"},
        {"--policy", {"model", "k", "--policy", "gto"},
         model + R"("policy":"gto"})"},
        {"--level", {"model", "k", "--level", "mshr"},
         model + R"("level":"mshr"})"},
        {"--model-sfu", {"model", "k", "--model-sfu"},
         model + R"("model_sfu":true})"},
        {"--json", {"model", "--json", "k"}, model + R"("json":true})"},
        {"--jobs", {"model", "k", "--jobs", "3"}, model + R"("jobs":3})"},
        {"kernel", {"stack", "vectorAdd"},
         R"({"cmd":"stack","kernel":"vectorAdd"})"},
        {"--suite", {"--suite", "micro"},
         R"({"cmd":"suite","suite":"micro"})"},
        {"--suite", {"suite", "micro"}, R"({"cmd":"suite","suite":"micro"})"},
        {"paths", {"pack", "a.trace", "b.gmt"},
         R"({"cmd":"pack","paths":["a.trace","b.gmt"]})"},
        {"paths", {"dump-trace", "k", "k.gmt"},
         R"({"cmd":"dump-trace","kernel":"k","paths":["k.gmt"]})"},
        {"paths", {"model-trace", "a.gmt", "b.trace"},
         R"({"cmd":"model-trace","paths":["a.gmt","b.trace"]})"},
        {"--predict", {"suite", "micro", "--predict"},
         R"({"cmd":"suite","suite":"micro","predict":true})"},
        {"--verbose", {"suite", "micro", "--verbose"},
         R"({"cmd":"suite","suite":"micro","verbose":true})"},
        {"--kernel-timeout-ms", {"suite", "micro", "--kernel-timeout-ms",
                                 "250"},
         R"({"cmd":"suite","suite":"micro","timeout_ms":250})"},
        {"--inject", {"suite", "micro", "--inject",
                      "micro_stream:collect:2:10,k:parse"},
         R"({"cmd":"suite","suite":"micro",)"
         R"("inject":"micro_stream:collect:2:10,k:parse"})"},
        {"--varint", {"pack", "a", "b", "--varint"},
         R"({"cmd":"pack","paths":["a","b"],"varint":true})"},
        {"--param", {"sweep", "k", "--param", "l1-kb"},
         sweep + R"("param":"l1-kb"})"},
        {"--values",
         {"sweep", "k", "--param", "bw", "--values", "96,192.5,5000000000"},
         sweep + R"("param":"bw","values":[96,192.5,5000000000]})"},
        {"--values", {"sweep", "k", "--values", ","},
         sweep + R"("values":[]})"}, // empty: the default ladder
        {"--oracle", {"sweep", "k", "--oracle"}, sweep + R"("oracle":true})"},
        {"--sweep-mode", {"sweep", "k", "--sweep-mode", "mrc"},
         sweep + R"("sweep_mode":"mrc"})"},
        {"--sweep-mode", {"tune", "k", "--sweep-mode", "rerun"},
         tune + R"("sweep_mode":"rerun"})"},
        {"--mrc-rate", {"sweep", "k", "--mrc-rate", "0.5"},
         sweep + R"("mrc_rate":0.5})"},
        {"--mrc-rate", {"tune", "k", "--mrc-rate", "0.25"},
         tune + R"("mrc_rate":0.25})"},
        {"--dims", {"tune", "k", "--dims", "mshrs,scheduler"},
         tune + R"("dims":["mshrs","scheduler"]})"},
        {"--<dim>-values",
         {"tune", "k", "--dims", "mshrs,bw", "--bw-values", "96,192"},
         tune + R"("dims":["mshrs",{"name":"bw","values":[96,192]}]})"},
        {"--<dim>-values", {"tune", "k", "--l2-kb-values", "256,512"},
         tune + R"("dims":["mshrs","bw","l1-kb",)"
                R"({"values":[256,512],"name":"l2-kb"}]})"},
        {"--objective", {"tune", "k", "--objective", "cpi-cost"},
         tune + R"("objective":"cpi-cost"})"},
        {"--restarts", {"tune", "k", "--restarts", "2"},
         tune + R"("restarts":2})"},
        {"--seed", {"tune", "k", "--seed", "7"}, tune + R"("seed":7})"},
        {"--max-cost", {"tune", "k", "--max-cost", "3.5"},
         tune + R"("max_cost":3.5})"},
        {"--max-cpi", {"tune", "k", "--max-cpi", "20"},
         tune + R"("max_cpi":20})"},
        {"--cost-weights", {"tune", "k", "--cost-weights", "mshrs=0.2,bw=1"},
         tune + R"("cost_weights":{"mshrs":0.2,"bw":1}})"},
        {"--allow-approx", {"tune", "k", "--allow-approx"},
         tune + R"("allow_approx":true})"},
        {"id", {"model", "k"}, model + R"("id":"r1"})",
         [](Request &r) { r.id = "r1"; }},
        {"metrics", {"model", "k"}, model + R"("metrics":true})",
         [](Request &r) { r.wantMetrics = true; }},
        {"--metrics", {"model", "k", "--metrics"}, bare},
        {"--metrics-json", {"model", "k", "--metrics-json", "m.json"}, bare},
        {"--trace-out", {"model", "k", "--trace-out", "t.json"}, bare},
    };

    std::set<std::string> covered;
    for (const Case &c : cases) {
        Request from_argv = mustParseArgs(c.argv);
        if (c.only_json)
            c.only_json(from_argv);
        Result<Request> from_json = requestFromJson(c.json);
        ASSERT_TRUE(from_json.ok())
            << c.json << ": " << from_json.status().toString();
        EXPECT_EQ(describe(from_argv), describe(from_json.value()))
            << c.row << ": " << c.json;
        covered.insert(c.row);
    }
    for (const OptionSpec &row : optionTable())
        EXPECT_EQ(covered.count(rowName(row)), 1u) << rowName(row);
}

TEST(RequestSchema, VerbTableFollowsTheVerbEnum)
{
    // toString indexes the verb table by Verb.
    for (const VerbSpec &spec : verbTable()) {
        EXPECT_EQ(toString(spec.verb), spec.name);
        Result<Verb> verb = verbFromString(spec.name);
        ASSERT_TRUE(verb.ok());
        EXPECT_EQ(verb.value(), spec.verb);
    }
}

TEST(ResponseToJsonLine, RoundTripsThroughParser)
{
    Response resp;
    resp.status = Status(StatusCode::NotFound, "unknown workload: x");
    resp.exitCode = 1;
    resp.output = "line \"quoted\"\n";
    resp.stats.kernels = 3;
    resp.stats.failed = 1;
    resp.stats.profilerHits = 2;
    resp.stats.wallMs = 1.25;

    Result<JsonValue> parsed =
        parseJson(responseToJsonLine(resp, "id-1", 7, true));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const JsonValue &v = parsed.value();
    EXPECT_EQ(v.find("id")->string(), "id-1");
    EXPECT_DOUBLE_EQ(v.find("seq")->number(), 7.0);
    EXPECT_FALSE(v.find("ok")->boolean());
    EXPECT_EQ(v.find("status")->string(), "not_found");
    EXPECT_EQ(v.find("error")->string(), "unknown workload: x");
    EXPECT_DOUBLE_EQ(v.find("kernels")->number(), 3.0);
    EXPECT_DOUBLE_EQ(v.find("failed")->number(), 1.0);
    EXPECT_DOUBLE_EQ(v.find("cache")->find("profiler_hits")->number(),
                     2.0);
    EXPECT_EQ(v.find("output")->string(), "line \"quoted\"\n");

    // include_output=false drops the report but keeps the stats.
    Result<JsonValue> bare =
        parseJson(responseToJsonLine(resp, "id-1", 7, false));
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(bare.value().find("output"), nullptr);
}

Request
modelRequest(const std::string &kernel)
{
    Request req;
    req.verb = Verb::Model;
    req.kernel = kernel;
    req.config.warpsPerCore = 4;
    req.config.numCores = 2;
    return req;
}

TEST(EngineSession, WarmRepeatSkipsInputRebuild)
{
    EngineSession engine;
    Response first = engine.handle(modelRequest("micro_stream"));
    ASSERT_TRUE(first.ok()) << first.status.toString();
    EXPECT_EQ(first.exitCode, 0);
    EXPECT_GT(first.stats.collectorMisses, 0u);
    EXPECT_GT(first.stats.profilerMisses, 0u);

    Response second = engine.handle(modelRequest("micro_stream"));
    ASSERT_TRUE(second.ok());
    // The warm request re-evaluates the model only: no new trace /
    // collector / profiler artifacts, and the same rendered bytes.
    EXPECT_EQ(second.stats.traceMisses, 0u);
    EXPECT_EQ(second.stats.collectorMisses, 0u);
    EXPECT_EQ(second.stats.profilerMisses, 0u);
    EXPECT_GT(second.stats.profilerHits, 0u);
    EXPECT_EQ(second.output, first.output);
    EXPECT_EQ(engine.requestsHandled(), 2u);
}

TEST(EngineSession, UnknownTargetsFailClosed)
{
    EngineSession engine;
    Response resp = engine.handle(modelRequest("no_such_kernel"));
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.status.code(), StatusCode::NotFound);
    EXPECT_EQ(resp.exitCode, 1);

    Request suite;
    suite.verb = Verb::Suite;
    suite.suite = "no_such_suite";
    Response sresp = engine.handle(suite);
    EXPECT_FALSE(sresp.ok());
    EXPECT_EQ(sresp.exitCode, 1);
}

TEST(EngineSession, UnknownKernelCountsPerVerb)
{
    // Model, simulate, sweep, tune and stack count the unknown kernel
    // as one failed kernel; compare and dump-trace count none.
    EngineSession engine;
    for (Verb verb : {Verb::Model, Verb::Simulate, Verb::Sweep, Verb::Tune,
                      Verb::Stack, Verb::Compare, Verb::DumpTrace}) {
        Request req;
        req.verb = verb;
        req.kernel = "no_such_kernel";
        req.paths = {"unused.gmt"};
        Response resp = engine.handle(req);
        EXPECT_EQ(resp.status.code(), StatusCode::NotFound)
            << toString(verb);
        EXPECT_EQ(resp.status.message(),
                  "unknown workload: no_such_kernel");
        EXPECT_EQ(resp.exitCode, 1);
        const std::size_t counted =
            verb == Verb::Compare || verb == Verb::DumpTrace ? 0 : 1;
        EXPECT_EQ(resp.stats.kernels, counted) << toString(verb);
        EXPECT_EQ(resp.stats.failed, counted) << toString(verb);
    }
}

TEST(EngineSession, SuitePartialFailureKeepsExitCodeTwo)
{
    EngineSession engine;
    Request req;
    req.verb = Verb::Suite;
    req.suite = "micro";
    req.predict = true;
    req.config.warpsPerCore = 4;
    req.config.numCores = 2;
    auto plan =
        parseInjectSpec("micro_stream:collect").value();
    req.faultPlan = plan;
    Response resp = engine.handle(req);
    EXPECT_TRUE(resp.ok()); // partial success still renders a report
    EXPECT_EQ(resp.exitCode, 2);
    EXPECT_EQ(resp.stats.failed, 1u);
    EXPECT_GT(resp.stats.kernels, 1u);
    EXPECT_NE(resp.output.find("FAILED"), std::string::npos);
    EXPECT_NE(resp.output.find("fault_injected"), std::string::npos);
}

TEST(EngineSession, PerRequestDeadlineContained)
{
    EngineSession engine;
    Request req;
    req.verb = Verb::Suite;
    req.suite = "micro";
    req.predict = true;
    req.config.warpsPerCore = 4;
    req.config.numCores = 2;
    req.timeoutMs = 30;
    req.faultPlan =
        parseInjectSpec("micro_stream:collect:1:500").value();
    Response resp = engine.handle(req);
    EXPECT_EQ(resp.exitCode, 2);
    EXPECT_NE(resp.output.find("deadline_exceeded"),
              std::string::npos)
        << resp.output;
}

TEST(EngineSession, EachRequestGeneratesItsTraceOnce)
{
    // A request that reads the whole trace after profiling (the
    // oracle, a rerun-mode geometry change) fetches it once before the
    // profile build, so no request generates a trace twice. Its trace
    // hits are the profile build's and one per later read: each
    // re-collection at a new geometry, each oracle row. A sweep of a
    // knob that reshapes the trace builds one trace and one profiler
    // per row, and none at the base configuration.
    struct Case
    {
        std::vector<std::string> tokens;
        std::size_t traceHits;
        std::size_t traceMisses = 1;
        std::size_t profilerMisses = 1;
    };
    for (Case c : std::vector<Case>{
             {{"model", "micro_stream"}, 0},
             {{"sweep", "micro_stream", "--param", "l2-kb", "--values",
               "192,1536"},
              3},
             {{"sweep", "micro_stream", "--param", "bw", "--values",
               "96,384", "--oracle"},
              3},
             {{"sweep", "micro_stream", "--param", "warps", "--values",
               "8,16"},
              0, 2, 2},
             // MRC mode: the profiler is an MRC-cache entry.
             {{"tune", "micro_stream"}, 0, 1, 0},
             {{"tune", "micro_stream", "--sweep-mode", "rerun", "--dims",
               "l1-kb"},
              4}}) {
        c.tokens.insert(c.tokens.end(), {"--warps", "4", "--cores", "2"});
        EngineSession engine;
        Response resp = engine.handle(mustParseArgs(c.tokens));
        ASSERT_TRUE(resp.ok()) << c.tokens[0] << ": "
                               << resp.status.toString();
        EXPECT_EQ(resp.stats.traceMisses, c.traceMisses)
            << c.tokens[0] << " " << c.tokens[2];
        EXPECT_EQ(resp.stats.traceHits, c.traceHits)
            << c.tokens[0] << " " << c.tokens[2];
        EXPECT_EQ(resp.stats.profilerMisses, c.profilerMisses)
            << c.tokens[0] << " " << c.tokens[2];
    }
}

/** The session cache's byte gauges, read through a stats request. */
void
readCacheBytes(EngineSession &engine, double &trace_bytes,
               double &profiler_bytes)
{
    Request stats;
    stats.verb = Verb::Stats;
    Response sresp = engine.handle(stats);
    ASSERT_TRUE(sresp.ok());
    Result<JsonValue> doc = parseJson(sresp.output);
    ASSERT_TRUE(doc.ok()) << sresp.output;
    const JsonValue *cache = doc.value().find("cache");
    ASSERT_NE(cache, nullptr) << sresp.output;
    ASSERT_NE(cache->find("trace_bytes"), nullptr) << sresp.output;
    ASSERT_NE(cache->find("profiler_bytes"), nullptr) << sresp.output;
    trace_bytes = cache->find("trace_bytes")->number();
    profiler_bytes = cache->find("profiler_bytes")->number();
}

TEST(EngineSession, StatsReportsWarmStateBytes)
{
    // A warm model entry holds no trace: the cached profiler keeps
    // its representative warp's slice and interval profile, under 1%
    // of the trace it models (srad_kernel1's 512 warps).
    EngineSession engine;
    Request model;
    model.verb = Verb::Model;
    model.kernel = "srad_kernel1";
    ASSERT_EQ(model.config.numCores * model.config.warpsPerCore, 512u);
    Response mresp = engine.handle(model);
    ASSERT_TRUE(mresp.ok()) << mresp.status.toString();

    const double footprint = static_cast<double>(
        workloadByName("srad_kernel1")
            .generate(model.config)
            .memoryFootprint());
    double trace_bytes = -1.0, profiler_bytes = -1.0;
    readCacheBytes(engine, trace_bytes, profiler_bytes);
    EXPECT_EQ(trace_bytes, 0.0);
    EXPECT_GT(profiler_bytes, 0.0);
    EXPECT_LT(100.0 * profiler_bytes, footprint);

    // simulate asks for the trace itself, so the cache keeps it.
    Request simulate = model;
    simulate.verb = Verb::Simulate;
    Response sim = engine.handle(simulate);
    ASSERT_TRUE(sim.ok()) << sim.status.toString();
    readCacheBytes(engine, trace_bytes, profiler_bytes);
    EXPECT_EQ(trace_bytes, footprint);
}

TEST(EngineSession, PingAndStats)
{
    EngineSession engine;
    Request ping;
    ping.verb = Verb::Ping;
    Response presp = engine.handle(ping);
    EXPECT_TRUE(presp.ok());
    EXPECT_EQ(presp.output, "pong\n");

    engine.handle(modelRequest("micro_stream"));
    Request stats;
    stats.verb = Verb::Stats;
    Response sresp = engine.handle(stats);
    ASSERT_TRUE(sresp.ok());
    Result<JsonValue> doc = parseJson(sresp.output);
    ASSERT_TRUE(doc.ok()) << sresp.output;
    EXPECT_GE(doc.value().find("requests")->number(), 2.0);
    EXPECT_GE(doc.value()
                  .find("cache")
                  ->find("profiler_misses")
                  ->number(),
              1.0);
}

// ---------------------------------------------------------------------
// stdin/stdout mode: serveFd adopts one fd-pair connection
// ---------------------------------------------------------------------

void
writeAllTo(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
}

/**
 * serveFd over two pipes: a feeder thread writes @p input and closes
 * the pipe (EOF), a drainer thread collects every byte written into
 * @p output.
 */
SupervisorSummary
serveOverPipes(EngineSession &engine, const std::string &input,
               std::string &output,
               const SupervisorOptions &options = {})
{
    int in[2], out[2];
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    std::thread feeder([&] {
        writeAllTo(in[1], input);
        ::close(in[1]);
    });
    std::thread drainer([&] {
        char chunk[4096];
        ssize_t n;
        while ((n = ::read(out[0], chunk, sizeof chunk)) > 0)
            output.append(chunk, static_cast<std::size_t>(n));
    });
    SupervisorSummary summary =
        serveFd(engine, in[0], out[1], options);
    // The fds are the caller's: still open, still blocking.
    EXPECT_EQ(::fcntl(in[0], F_GETFL) & O_NONBLOCK, 0);
    EXPECT_EQ(::fcntl(out[1], F_GETFL) & O_NONBLOCK, 0);
    ::close(out[1]);
    feeder.join();
    drainer.join();
    ::close(in[0]);
    ::close(out[0]);
    return summary;
}

TEST(ServeFd, AnswersEveryLineInOrder)
{
    resetServeDrain();
    EngineSession engine;
    std::string out;
    SupervisorOptions options;
    options.dispatchers = 1; // serial: "c" runs after "b" warmed up
    SupervisorSummary summary = serveOverPipes(
        engine,
        R"({"cmd":"ping","id":"a"})" "\n"
        "not json\n"
        R"({"cmd":"model","kernel":"micro_stream",)"
        R"("config":{"warps":4,"cores":2},"id":"b"})" "\n"
        R"({"cmd":"model","kernel":"micro_stream",)"
        R"("config":{"warps":4,"cores":2},"id":"c"})" "\n",
        out, options);

    EXPECT_EQ(summary.received, 4u);
    EXPECT_EQ(summary.evaluated, 3u);
    EXPECT_EQ(summary.malformed, 1u);
    EXPECT_EQ(summary.shed, 0u);
    EXPECT_EQ(summary.failed, 0u);

    std::istringstream lines(out);
    std::string line;
    std::uint64_t last_seq = 0;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        Result<JsonValue> doc = parseJson(line);
        ASSERT_TRUE(doc.ok()) << line;
        std::uint64_t seq =
            static_cast<std::uint64_t>(doc.value().find("seq")->number());
        EXPECT_GT(seq, last_seq); // the writer keeps strict seq order
        last_seq = seq;
        ++count;
    }
    EXPECT_EQ(count, 4u);

    // The warm model request reused the first one's artifacts.
    EXPECT_EQ(engine.session().cache.profilerMisses(), 1u);
    EXPECT_GE(engine.session().cache.profilerHits(), 1u);
}

TEST(ServeFd, MalformedNumericsDoNotKillTheDaemon)
{
    // Regression: bad numeric fields used to reach fatal() via the
    // unchecked getDouble, killing the whole serving process. Each of
    // these must answer one error line and the loop must keep serving
    // — the trailing ping proves the daemon survived.
    resetServeDrain();
    EngineSession engine;
    std::string out;
    SupervisorOptions options;
    options.dispatchers = 1;
    SupervisorSummary summary = serveOverPipes(
        engine,
        R"({"cmd":"model","kernel":"micro_stream",)"
        R"("config":{"bw":-5},"id":"a"})" "\n"
        R"({"cmd":"sweep","kernel":"micro_stream",)"
        R"("sweep_mode":"mrc","mrc_rate":1e999,"id":"b"})" "\n"
        R"({"cmd":"tune","kernel":"micro_stream",)"
        R"("max_cost":-2,"id":"c"})" "\n"
        R"({"cmd":"sweep","kernel":"vectorAdd","param":"l1-kb",)"
        R"("values":[0.5],"id":"e"})" "\n"
        R"({"cmd":"ping","id":"d"})" "\n",
        out, options);

    EXPECT_EQ(summary.received, 5u);

    std::istringstream lines(out);
    std::string line;
    std::map<std::string, bool> ok_by_id;
    while (std::getline(lines, line)) {
        Result<JsonValue> doc = parseJson(line);
        ASSERT_TRUE(doc.ok()) << line;
        ok_by_id[doc.value().find("id")->string()] =
            doc.value().find("ok")->boolean();
    }
    ASSERT_EQ(ok_by_id.size(), 5u);
    EXPECT_FALSE(ok_by_id["a"]);
    EXPECT_FALSE(ok_by_id["b"]);
    EXPECT_FALSE(ok_by_id["c"]);
    EXPECT_FALSE(ok_by_id["e"]);
    EXPECT_TRUE(ok_by_id["d"]); // still alive
}

TEST(ServeFd, ShedsWhenQueueIsFull)
{
    resetServeDrain();
    EngineSession engine;
    // First request stalls 300ms inside the engine (injected fault),
    // with a queue bound of 1 and one dispatcher. The reader drains
    // the remaining lines while the stall holds the dispatcher, so at
    // least one later request must be shed.
    std::ostringstream feed;
    feed << R"({"cmd":"suite","suite":"micro","predict":true,)"
         << R"("config":{"warps":4,"cores":2},)"
         << R"("inject":"micro_stream:collect:1:300","id":"slow"})"
         << "\n";
    for (int i = 0; i < 4; ++i)
        feed << R"({"cmd":"ping","id":"p)" << i << R"("})" << "\n";
    std::string out;
    SupervisorOptions options;
    options.maxQueue = 1;
    options.dispatchers = 1;
    SupervisorSummary summary =
        serveOverPipes(engine, feed.str(), out, options);

    EXPECT_EQ(summary.received, 5u);
    EXPECT_GE(summary.shed, 1u);
    EXPECT_EQ(summary.evaluated + summary.shed, 5u);

    // Every shed response says so, with ResourceExhausted and a
    // back-off hint.
    std::istringstream lines(out);
    std::string line;
    std::size_t shed_seen = 0, responses = 0;
    while (std::getline(lines, line)) {
        Result<JsonValue> doc = parseJson(line);
        ASSERT_TRUE(doc.ok()) << line;
        ++responses;
        const JsonValue *shed = doc.value().find("shed");
        if (shed != nullptr && shed->boolean()) {
            ++shed_seen;
            EXPECT_EQ(doc.value().find("status")->string(),
                      "resource_exhausted");
            EXPECT_FALSE(doc.value().find("ok")->boolean());
            EXPECT_NE(doc.value().find("retry_after_ms"), nullptr);
        }
    }
    EXPECT_EQ(responses, 5u);
    EXPECT_EQ(shed_seen, summary.shed);
}

TEST(ServeFd, DrainFlagStopsIntake)
{
    resetServeDrain();
    requestServeDrain();
    EXPECT_TRUE(serveDraining());
    EngineSession engine;
    std::string out;
    SupervisorSummary summary =
        serveOverPipes(engine, R"({"cmd":"ping"})" "\n", out);
    // Intake stopped before reading anything.
    EXPECT_EQ(summary.received, 0u);
    EXPECT_TRUE(out.empty());
    resetServeDrain();
}

TEST(ServeFd, DeadWriterStopsIntake)
{
    // `gpumech_serve < big.jsonl | head -1`: once nobody reads the
    // output, intake stops at the next line instead of evaluating
    // the rest of the input.
    std::signal(SIGPIPE, SIG_IGN); // as gpumech_serve does
    resetServeDrain();
    EngineSession engine;
    int in[2], out[2];
    ASSERT_EQ(::pipe(in), 0);
    ASSERT_EQ(::pipe(out), 0);
    ::close(out[0]);
    constexpr int kRest = 20;
    std::thread feeder([&] {
        writeAllTo(in[1], R"({"cmd":"ping"})" "\n");
        // Ample time for the first answer's write to fail.
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        std::string rest;
        for (int i = 0; i < kRest; ++i)
            rest += R"({"cmd":"ping"})" "\n";
        writeAllTo(in[1], rest); // one atomic pipe write
        ::close(in[1]);
    });
    SupervisorSummary summary = serveFd(engine, in[0], out[1]);
    feeder.join();
    ::close(in[0]);
    ::close(out[1]);

    EXPECT_EQ(summary.evaluated, 1u);
    EXPECT_EQ(summary.received, 2u); // the line that found it dead
    // The lost first answer, that line, and the 19 behind it.
    EXPECT_EQ(summary.dropped, 1u + kRest);
}

// ---------------------------------------------------------------------
// Connection supervisor (socket mode)
// ---------------------------------------------------------------------

/** Fresh socket path per server (parallel ctest shards). */
std::string
freshSocketPath()
{
    static int counter = 0;
    std::ostringstream os;
    os << "/tmp/gm_sup_" << ::getpid() << "_" << ++counter << ".sock";
    return os.str();
}

/** serveSupervised on a background thread, drained on destruction. */
struct SupervisedServer
{
    explicit SupervisedServer(const SupervisorOptions &options)
        : path(freshSocketPath())
    {
        resetServeDrain();
        thread = std::thread([this, options] {
            result = serveSupervised(engine, path, options);
        });
    }

    ~SupervisedServer() { stop(); }

    /** Request a drain and wait for the run's totals. */
    SupervisorSummary
    stop()
    {
        if (thread.joinable()) {
            requestServeDrain();
            thread.join();
            resetServeDrain();
            EXPECT_TRUE(result.ok()) << result.status().toString();
        }
        return result.ok() ? result.value() : SupervisorSummary{};
    }

    std::string path;
    EngineSession engine;
    std::thread thread;
    Result<SupervisorSummary> result{SupervisorSummary{}};
};

/** Raw blocking Unix-socket client with line-buffered reads. */
struct SocketClient
{
    ~SocketClient() { disconnect(); }

    /** Connect, retrying while the server is still binding. */
    bool
    connectTo(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        for (int attempt = 0; attempt < 500; ++attempt) {
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0)
                return false;
            if (::connect(fd,
                          reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                return true;
            ::close(fd);
            fd = -1;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return false;
    }

    bool
    sendLine(const std::string &line)
    {
        std::string data = line + "\n";
        return sendRaw(data);
    }

    bool
    sendRaw(const std::string &data)
    {
        std::size_t off = 0;
        while (off < data.size()) {
            ssize_t n = ::send(fd, data.data() + off,
                               data.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Next response line; false on EOF or after @p timeout_ms. */
    bool
    readLine(std::string &line, int timeout_ms = 10000)
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
        for (;;) {
            std::size_t nl = buffer.find('\n');
            if (nl != std::string::npos) {
                line = buffer.substr(0, nl);
                buffer.erase(0, nl + 1);
                return true;
            }
            if (std::chrono::steady_clock::now() >= deadline)
                return false;
            struct pollfd pfd = {fd, POLLIN, 0};
            int rc = ::poll(&pfd, 1, 100);
            if (rc <= 0)
                continue;
            char chunk[4096];
            ssize_t n = ::read(fd, chunk, sizeof chunk);
            if (n > 0) {
                buffer.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0)
                return false; // EOF
            if (errno != EINTR)
                return false;
        }
    }

    /** Parse the next response line as JSON. */
    bool
    readJson(JsonValue &doc, int timeout_ms = 10000)
    {
        std::string line;
        if (!readLine(line, timeout_ms))
            return false;
        Result<JsonValue> parsed = parseJson(line);
        EXPECT_TRUE(parsed.ok()) << line;
        if (!parsed.ok())
            return false;
        doc = std::move(parsed).value();
        return true;
    }

    void
    disconnect()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }

    int fd = -1;
    std::string buffer;
};

TEST(Supervisor, ConcurrentClientsKeepOrderAndRouting)
{
    SupervisorOptions options;
    options.dispatchers = 4;
    options.maxQueue = 128;   // every request fits: nothing sheds,
    options.maxInflight = 32; // so ordering/routing is fully checked
    SupervisedServer server(options);

    constexpr int kClients = 4, kRequests = 10;
    SocketClient clients[kClients];
    for (int c = 0; c < kClients; ++c)
        ASSERT_TRUE(clients[c].connectTo(server.path)) << c;

    // Interleave sends across clients so requests from different
    // connections are in flight together.
    for (int r = 0; r < kRequests; ++r) {
        for (int c = 0; c < kClients; ++c) {
            std::ostringstream req;
            req << R"({"cmd":"ping","id":"c)" << c << "-" << r
                << R"("})";
            ASSERT_TRUE(clients[c].sendLine(req.str()));
        }
    }

    // Every client gets exactly its own responses, seq 1..N in order.
    for (int c = 0; c < kClients; ++c) {
        for (int r = 0; r < kRequests; ++r) {
            JsonValue doc;
            ASSERT_TRUE(clients[c].readJson(doc)) << c << "/" << r;
            EXPECT_EQ(doc.find("seq")->number(), r + 1.0);
            std::ostringstream want;
            want << "c" << c << "-" << r;
            EXPECT_EQ(doc.find("id")->string(), want.str());
            EXPECT_TRUE(doc.find("ok")->boolean());
        }
    }

    for (auto &client : clients)
        client.disconnect();
    SupervisorSummary summary = server.stop();
    EXPECT_EQ(summary.connections, 4u);
    EXPECT_EQ(summary.received, 40u);
    EXPECT_EQ(summary.evaluated, 40u);
    EXPECT_EQ(summary.shed, 0u);
    EXPECT_EQ(summary.dropped, 0u);
}

TEST(Supervisor, QuotaShedsWithRetryHint)
{
    SupervisorOptions options;
    options.dispatchers = 1;
    options.maxInflight = 1;
    SupervisedServer server(options);

    SocketClient client;
    ASSERT_TRUE(client.connectTo(server.path));
    // One slow request (300ms injected stall) fills the quota; pings
    // sent behind it must be shed with a back-off hint.
    ASSERT_TRUE(client.sendLine(
        R"({"cmd":"suite","suite":"micro","predict":true,)"
        R"("config":{"warps":4,"cores":2},)"
        R"("inject":"micro_stream:collect:1:300","id":"slow"})"));
    constexpr int kPings = 5;
    for (int i = 0; i < kPings; ++i)
        ASSERT_TRUE(client.sendLine(R"({"cmd":"ping","id":"p"})"));

    std::size_t shed_seen = 0;
    double last_seq = 0.0;
    for (int i = 0; i < 1 + kPings; ++i) {
        JsonValue doc;
        ASSERT_TRUE(client.readJson(doc)) << i;
        EXPECT_GT(doc.find("seq")->number(), last_seq);
        last_seq = doc.find("seq")->number();
        const JsonValue *shed = doc.find("shed");
        if (shed != nullptr && shed->boolean()) {
            ++shed_seen;
            EXPECT_EQ(doc.find("status")->string(),
                      "resource_exhausted");
            const JsonValue *hint = doc.find("retry_after_ms");
            ASSERT_NE(hint, nullptr);
            EXPECT_GE(hint->number(), 1.0);
        }
    }
    EXPECT_GE(shed_seen, 1u);

    client.disconnect();
    SupervisorSummary summary = server.stop();
    EXPECT_EQ(summary.shed, shed_seen);
    EXPECT_EQ(summary.evaluated + summary.shed, 1u + kPings);
}

TEST(Supervisor, GarbageLineAnswersErrorAndKeepsConnection)
{
    SupervisedServer server(SupervisorOptions{});
    SocketClient client;
    ASSERT_TRUE(client.connectTo(server.path));
    ASSERT_TRUE(client.sendLine("this is not json"));
    ASSERT_TRUE(client.sendLine(R"({"cmd":"ping","id":"after"})"));

    JsonValue doc;
    ASSERT_TRUE(client.readJson(doc));
    EXPECT_EQ(doc.find("seq")->number(), 1.0);
    EXPECT_FALSE(doc.find("ok")->boolean());
    ASSERT_TRUE(client.readJson(doc));
    EXPECT_EQ(doc.find("seq")->number(), 2.0);
    EXPECT_TRUE(doc.find("ok")->boolean());
    EXPECT_EQ(doc.find("id")->string(), "after");

    client.disconnect();
    SupervisorSummary summary = server.stop();
    EXPECT_EQ(summary.malformed, 1u);
    EXPECT_EQ(summary.evaluated, 1u);
}

TEST(Supervisor, OversizedLineEvictsOnlyThatClient)
{
    SupervisorOptions options;
    options.maxLineBytes = 64;
    SupervisedServer server(options);

    SocketClient bad, good;
    ASSERT_TRUE(bad.connectTo(server.path));
    ASSERT_TRUE(good.connectTo(server.path));

    // 1 KiB with no terminator blows the 64-byte cap mid-line.
    ASSERT_TRUE(bad.sendRaw(std::string(1024, 'x')));
    JsonValue doc;
    ASSERT_TRUE(bad.readJson(doc));
    EXPECT_FALSE(doc.find("ok")->boolean());
    EXPECT_NE(doc.find("error")->string().find("byte cap"),
              std::string::npos);
    std::string line;
    EXPECT_FALSE(bad.readLine(line, 3000)); // then EOF: evicted

    // The other client is untouched.
    ASSERT_TRUE(good.sendLine(R"({"cmd":"ping","id":"ok"})"));
    ASSERT_TRUE(good.readJson(doc));
    EXPECT_TRUE(doc.find("ok")->boolean());

    good.disconnect();
    SupervisorSummary summary = server.stop();
    EXPECT_EQ(summary.oversized, 1u);
    EXPECT_EQ(summary.connections, 2u);
}

TEST(Supervisor, MidStreamDisconnectLeavesServerHealthy)
{
    SupervisedServer server(SupervisorOptions{});

    {
        SocketClient vanishing;
        ASSERT_TRUE(vanishing.connectTo(server.path));
        // A request whose response will have nowhere to go, plus a
        // partial line cut off mid-JSON.
        ASSERT_TRUE(vanishing.sendLine(R"({"cmd":"ping","id":"v"})"));
        ASSERT_TRUE(vanishing.sendRaw(R"({"cmd":"mo)"));
        vanishing.disconnect();
    }

    SocketClient survivor;
    ASSERT_TRUE(survivor.connectTo(server.path));
    ASSERT_TRUE(survivor.sendLine(R"({"cmd":"ping","id":"s"})"));
    JsonValue doc;
    ASSERT_TRUE(survivor.readJson(doc));
    EXPECT_TRUE(doc.find("ok")->boolean());
    EXPECT_EQ(doc.find("id")->string(), "s");

    survivor.disconnect();
    SupervisorSummary summary = server.stop();
    EXPECT_EQ(summary.connections, 2u);
}

TEST(Supervisor, HealthReportsSupervisorState)
{
    SupervisedServer server(SupervisorOptions{});
    SocketClient client;
    ASSERT_TRUE(client.connectTo(server.path));
    ASSERT_TRUE(client.sendLine(R"({"cmd":"health","id":"h"})"));

    JsonValue doc;
    ASSERT_TRUE(client.readJson(doc));
    EXPECT_TRUE(doc.find("ok")->boolean());
    const JsonValue *output = doc.find("output");
    ASSERT_NE(output, nullptr);
    Result<JsonValue> inner = parseJson(output->string());
    ASSERT_TRUE(inner.ok()) << output->string();
    EXPECT_TRUE(inner.value().find("healthy")->boolean());
    EXPECT_FALSE(inner.value().find("draining")->boolean());
    EXPECT_GE(inner.value().find("connections")->number(), 1.0);

    client.disconnect();
    server.stop();
}

TEST(Supervisor, HealthPayloadSurvivesNoOutput)
{
    // Health/stats answers ARE their output: --no-output must strip
    // rendered reports from normal responses but not hollow out the
    // operational protocol into empty success lines.
    SupervisorOptions options;
    options.includeOutput = false;
    SupervisedServer server(options);
    SocketClient client;
    ASSERT_TRUE(client.connectTo(server.path));

    ASSERT_TRUE(client.sendLine(R"({"cmd":"health","id":"h"})"));
    JsonValue doc;
    ASSERT_TRUE(client.readJson(doc));
    const JsonValue *output = doc.find("output");
    ASSERT_NE(output, nullptr);
    Result<JsonValue> inner = parseJson(output->string());
    ASSERT_TRUE(inner.ok()) << output->string();
    EXPECT_TRUE(inner.value().find("healthy")->boolean());

    ASSERT_TRUE(client.sendLine(R"({"cmd":"list","id":"l"})"));
    ASSERT_TRUE(client.readJson(doc));
    EXPECT_TRUE(doc.find("ok")->boolean());
    EXPECT_EQ(doc.find("output"), nullptr);

    client.disconnect();
    server.stop();
}

TEST(Supervisor, MetricsRequestSeesOnlyItsOwnWork)
{
    // A "metrics":true request evaluates under the exclusive engine
    // lock, so its registry delta holds its own cold profiler miss and
    // none of the misses a concurrent client causes meanwhile.
    struct MetricsOn
    {
        MetricsOn() { Metrics::enable(true); }
        ~MetricsOn() { Metrics::enable(false); }
    } metrics_on;
    SupervisorOptions options;
    options.dispatchers = 2;
    SupervisedServer server(options);
    SocketClient metered, other;
    ASSERT_TRUE(metered.connectTo(server.path));
    ASSERT_TRUE(other.connectTo(server.path));

    const char *const kernels[] = {"micro_compute_chain",
                                   "micro_pointer_chase",
                                   "micro_sfu_heavy",
                                   "micro_write_burst"};
    for (const char *kernel : kernels) {
        std::ostringstream req;
        req << R"({"cmd":"model","kernel":")" << kernel
            << R"(","config":{"warps":4,"cores":2},"id":")" << kernel
            << R"("})";
        ASSERT_TRUE(other.sendLine(req.str()));
    }
    ASSERT_TRUE(metered.sendLine(
        R"({"cmd":"model","kernel":"micro_stream","metrics":true,)"
        R"("config":{"warps":4,"cores":2},"id":"m"})"));

    JsonValue doc;
    ASSERT_TRUE(metered.readJson(doc));
    EXPECT_TRUE(doc.find("ok")->boolean());
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    Result<JsonValue> delta = parseJson(metrics->string());
    ASSERT_TRUE(delta.ok()) << metrics->string();
    const JsonValue *misses =
        delta.value().find("metrics")->find("cache.profiler.misses");
    ASSERT_NE(misses, nullptr) << metrics->string();
    EXPECT_EQ(misses->find("value")->number(), 1.0);

    for (const char *kernel : kernels) {
        ASSERT_TRUE(other.readJson(doc)) << kernel;
        EXPECT_EQ(doc.find("id")->string(), kernel);
        EXPECT_TRUE(doc.find("ok")->boolean());
    }

    metered.disconnect();
    other.disconnect();
    SupervisorSummary summary = server.stop();
    EXPECT_EQ(summary.evaluated, 5u);
}

TEST(Supervisor, DrainAnswersEverythingInFlight)
{
    SupervisorOptions options;
    options.dispatchers = 2;
    SupervisedServer server(options);

    SocketClient client;
    ASSERT_TRUE(client.connectTo(server.path));
    // A batch with a 300ms stall in front, all admitted before the
    // drain lands: the drain must still answer every one of them.
    ASSERT_TRUE(client.sendLine(
        R"({"cmd":"suite","suite":"micro","predict":true,)"
        R"("config":{"warps":4,"cores":2},)"
        R"("inject":"micro_stream:collect:1:300","id":"slow"})"));
    constexpr int kTrailing = 4;
    for (int i = 0; i < kTrailing; ++i)
        ASSERT_TRUE(client.sendLine(R"({"cmd":"ping","id":"t"})"));

    // Give the reader a beat to admit everything, then drain with the
    // stall still holding a dispatcher.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    requestServeDrain();

    double last_seq = 0.0;
    for (int i = 0; i < 1 + kTrailing; ++i) {
        JsonValue doc;
        ASSERT_TRUE(client.readJson(doc)) << i;
        EXPECT_GT(doc.find("seq")->number(), last_seq);
        last_seq = doc.find("seq")->number();
    }
    std::string line;
    EXPECT_FALSE(client.readLine(line, 3000)); // clean EOF after drain

    client.disconnect();
    SupervisorSummary summary = server.stop();
    EXPECT_EQ(summary.received, 1u + kTrailing);
    EXPECT_EQ(summary.evaluated + summary.shed, 1u + kTrailing);
}

} // namespace
