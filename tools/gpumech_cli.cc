/**
 * @file
 * The `gpumech` command-line driver: model, simulate, and inspect
 * kernels without writing code.
 *
 * This is a thin front-end over the evaluation-service core
 * (src/service/): it parses argv into a service Request, hands it to
 * an EngineSession, prints the rendered report, and maps the response
 * onto the process exit code. The gpumech_serve daemon drives the same
 * engine from JSON lines, so CLI output and daemon output are the same
 * bytes (pinned by the cli_golden test).
 *
 * `gpumech` with no arguments prints every command and option, read
 * from the verb and option tables that parse them (service/request.hh).
 *
 * Exit codes (documented in README.md):
 *   0  full success
 *   1  total failure (bad arguments / config, or every kernel failed)
 *   2  partial success (suite completed but some kernels failed)
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "service/engine_session.hh"

using namespace gpumech;

namespace
{

/** One usage line; a long left column pushes the help down a line. */
void
usageLine(const std::string &left, const std::string &help)
{
    if (left.size() > 28)
        std::printf("  %s\n%31s%s\n", left.c_str(), "", help.c_str());
    else
        std::printf("  %-28s %s\n", left.c_str(), help.c_str());
}

/** Every command and argv option, with its help line. */
void
usage()
{
    std::printf("usage: gpumech <command> [options]\ncommands:\n");
    for (const VerbSpec &verb : verbTable())
        usageLine(msg(verb.name, " ", verb.synopsis), verb.help);
    std::printf("options:\n");
    for (const OptionSpec &row : optionTable()) {
        if (row.flag == nullptr)
            continue; // JSON only
        std::string scope;
        for (const VerbSpec &verb : verbTable()) {
            if (row.verbs != ~0u && (row.verbs & verbBit(verb.verb)))
                scope += msg(scope.empty() ? " (" : ", ", verb.name);
        }
        usageLine(msg("--", row.flag, " ", row.arg),
                  msg(row.help, scope, scope.empty() ? "" : ")"));
    }
    std::printf("exit codes: 0 success, 1 total failure, 2 partial "
                "(suite)\n");
}

/**
 * Write/print the observability reports the flags asked for. Runs
 * after the request (success or failure) so a partially-failed suite
 * still leaves a metrics file behind for diagnosis.
 */
void
emitObservability(const ArgParser &args)
{
    std::string metrics_path = args.get("metrics-json");
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out) {
            warn(msg("cannot open ", metrics_path, " for writing"));
        } else {
            out << metricsToJson() << "\n";
            inform(msg("wrote metrics to ", metrics_path));
        }
    }
    std::string trace_path = args.get("trace-out");
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
            warn(msg("cannot open ", trace_path, " for writing"));
        } else {
            TraceLog::writeChromeTrace(out);
            inform(msg("wrote Chrome trace to ", trace_path,
                       " (open in ui.perfetto.dev)"));
        }
    }
    if (args.has("metrics"))
        printMetricsSummary(std::cerr);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, requestFlagNames());

    // Workload-independent argument errors (unknown options, malformed
    // counts, bad policy/level/inject specs, out-of-range
    // configuration) surface here, before any evaluation starts. With
    // no unknown option, a missing or unknown command shows the usage:
    // exit 0 for a bare `gpumech`, 1 otherwise.
    Result<Request> parsed = requestFromArgs(args);
    if (parsed.status().code() == StatusCode::NotFound &&
        !verbFromString(argvCommand(args)).ok()) {
        usage();
        return argc > 1 ? 1 : 0;
    }
    if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().toString().c_str());
        return 1;
    }
    Request request = std::move(parsed).value();

    if (request.jobs != 0)
        setDefaultJobs(request.jobs);
    if (args.has("metrics") || !args.get("metrics-json").empty())
        Metrics::enable(true);
    if (!args.get("trace-out").empty())
        TraceLog::enable(true);

    EngineSession engine;
    Response response = engine.handle(request);
    std::cout << response.output;
    std::cout.flush();
    if (!response.ok() && response.output.empty()) {
        std::fprintf(stderr, "error: %s\n",
                     response.status.toString().c_str());
    }

    // Emitted on the failure path too: a half-finished run's metrics
    // and spans are exactly what you want when diagnosing it.
    emitObservability(args);
    return response.exitCode;
}
