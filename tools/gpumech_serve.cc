/**
 * @file
 * `gpumech_serve`: a JSON-lines evaluation daemon over the same engine
 * the CLI uses.
 *
 * Reads one JSON request per line (see README "Serving" and
 * service/request.hh for the schema), evaluates them on a shared
 * EngineSession — so the input cache stays warm across requests — and
 * writes one JSON response per line. By default it serves stdin to
 * stdout; --socket serves a Unix-domain stream socket instead. Both
 * run the connection supervisor (service/supervisor.hh): stdin/stdout
 * is one connection of it, a socket accepts many clients
 * concurrently. Every connection gets the same rules: per-client
 * in-flight quotas, retry_after_ms back-off hints on shed responses,
 * slow-reader/idle/oversized-line eviction, and per-client response
 * ordering.
 *
 * Usage:
 *   gpumech_serve [--socket PATH] [--max-queue N] [--dispatch N]
 *                 [--max-inflight N] [--jobs N]
 *                 [--kernel-timeout-ms N] [--write-timeout-ms N]
 *                 [--idle-timeout-ms N] [--max-line-bytes N]
 *                 [--no-output] [--metrics]
 *
 *   --socket PATH          serve a Unix socket instead of stdin
 *   --max-queue N          admission bound: requests queued across
 *                          all clients before load-shedding
 *                          (default 64)
 *   --dispatch N           requests evaluated concurrently
 *                          (dispatcher threads, default 2)
 *   --max-inflight N       per-client quota of admitted-but-
 *                          unanswered requests (default 8)
 *   --jobs N               default worker threads per request, N >= 1
 *   --kernel-timeout-ms N  default per-kernel deadline (0 = off);
 *                          a request's "timeout_ms" overrides it
 *   --write-timeout-ms N   disconnect a client that cannot absorb a
 *                          response this long (default 5000; 0 = off;
 *                          cannot fire on a blocking stdout)
 *   --idle-timeout-ms N    disconnect a client idle this long
 *                          (default 0 = never)
 *   --max-line-bytes N     per-line byte cap; an oversized line ends
 *                          that client (default 1 MiB)
 *   --no-output            omit the rendered report ("output" field)
 *                          from responses
 *   --metrics              enable the metrics registry so requests
 *                          with "metrics":true get a per-request
 *                          registry delta
 *
 * Any other option, and any positional argument, is an error at
 * startup, before a socket is bound or stdin is read.
 *
 * Draining: EOF on stdin (or SIGTERM / SIGINT) stops intake; every
 * already-admitted request is still answered before exit. Exit code 0
 * after a clean drain, 1 on setup/argument errors.
 */

#include <csignal>
#include <cstdio>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "service/supervisor.hh"

using namespace gpumech;

namespace
{

extern "C" void
onDrainSignal(int)
{
    requestServeDrain();
}

/**
 * Install SIGTERM/SIGINT handlers WITHOUT SA_RESTART: a blocking
 * read/poll must fail with EINTR so the supervisor notices the drain
 * request instead of staying parked in the kernel. SIGPIPE is ignored
 * process-wide: every write already handles a closed peer by checking
 * the write result (net_io.hh), and a client vanishing mid-response
 * must never kill the daemon.
 */
void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onDrainSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    // The documented options, as in the usage above.
    if (Status known = args.checkOptionNames(
            {"socket", "max-queue", "dispatch", "max-inflight", "jobs",
             "kernel-timeout-ms", "write-timeout-ms", "idle-timeout-ms",
             "max-line-bytes", "no-output", "metrics"});
        !known.ok()) {
        std::fprintf(stderr, "error: %s\n", known.message().c_str());
        return 1;
    }
    if (args.numPositional() > 0) {
        std::fprintf(stderr, "error: unexpected argument '%s'\n",
                     args.positional(0).c_str());
        return 1;
    }

    EngineOptions engine_options;
    SupervisorOptions options;
    {
        auto queue = args.getPositiveUint("max-queue", 64);
        auto j = args.getPositiveUint("jobs", 0);
        auto disp = args.getPositiveUint("dispatch", 2);
        auto inflight = args.getPositiveUint("max-inflight", 8);
        auto line_cap =
            args.getPositiveUint("max-line-bytes", 1 << 20);
        // Timeouts may be 0: off.
        auto write_ms = args.getCheckedUint("write-timeout-ms", 5000);
        auto idle_ms = args.getCheckedUint("idle-timeout-ms", 0);
        auto kernel_ms = args.getCheckedUint("kernel-timeout-ms", 0);
        for (const auto *status :
             {&queue.status(), &j.status(), &disp.status(),
              &inflight.status(), &line_cap.status(), &write_ms.status(),
              &idle_ms.status(), &kernel_ms.status()}) {
            if (!status->ok()) {
                std::fprintf(stderr, "error: %s\n",
                             status->toString().c_str());
                return 1;
            }
        }
        options.maxQueue = queue.value();
        engine_options.jobs = j.value();
        options.dispatchers = disp.value();
        options.maxInflight = inflight.value();
        options.maxLineBytes = line_cap.value();
        options.writeTimeoutMs = write_ms.value();
        options.idleTimeoutMs = idle_ms.value();
        engine_options.kernelTimeoutMs = kernel_ms.value();
    }
    options.includeOutput = !args.has("no-output");

    if (engine_options.jobs != 0)
        setDefaultJobs(engine_options.jobs);
    if (args.has("metrics"))
        Metrics::enable(true);

    installSignalHandlers();

    EngineSession engine(engine_options);

    std::string socket_path = args.get("socket");
    Result<SupervisorSummary> served = SupervisorSummary{};
    if (socket_path.empty()) {
        served = serveFd(engine, 0, 1, options);
    } else {
        inform(msg("serving on unix socket ", socket_path));
        served = serveSupervised(engine, socket_path, options);
    }
    if (!served.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     served.status().toString().c_str());
        return 1;
    }
    const SupervisorSummary &s = served.value();
    inform(msg("drained: ", s.connections, " connections, ",
               s.received, " received, ", s.evaluated, " evaluated (",
               s.failed, " failed), ", s.shed, " shed, ", s.malformed,
               " malformed, ", s.dropped, " dropped, ",
               s.slowDisconnects, " slow / ", s.idleDisconnects,
               " idle / ", s.oversized, " oversized evictions"));
    return 0;
}
