/**
 * @file
 * The evaluation-service core: one long-lived engine shared by every
 * front-end (the CLI, the gpumech_serve daemon, tests, benches).
 *
 * EngineSession owns the harness-level EvalSession (warm InputCache +
 * session defaults) and turns Requests into Responses. Handlers render
 * exactly the bytes the pre-split CLI printed to stdout — the
 * cli_golden test pins this — while routing every artifact through the
 * session cache, so a repeat request evaluates model-only instead of
 * regenerating its trace, collector result, and profiler.
 *
 * handle() is a containment boundary: a handler's StatusException or
 * unexpected std::exception becomes a failed Response (exit-code 1),
 * never a dead process. Thread-safe: concurrent handle() calls share
 * the compute-once cache; per-response cache counters are exact when a
 * request runs alone and attributionally approximate under overlap.
 *
 * Constructing the first engine sets glibc's malloc thresholds for the
 * whole process, so the heap pages of a trace a request dropped are
 * reused by the next request instead of returned to the kernel (see
 * retainFreedHeap() in engine_session.cc).
 */

#ifndef GPUMECH_SERVICE_ENGINE_SESSION_HH
#define GPUMECH_SERVICE_ENGINE_SESSION_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "harness/session.hh"
#include "service/request.hh"

namespace gpumech
{

/** Construction-time defaults for an engine. */
struct EngineOptions
{
    /** Default fan-out threads; 0 = defaultJobs(). */
    unsigned jobs = 0;

    /** Default per-kernel deadline (ms); 0 = no watchdog. */
    std::uint64_t kernelTimeoutMs = 0;
};

/** The shared evaluation engine behind every front-end. */
class EngineSession
{
  public:
    explicit EngineSession(const EngineOptions &options = {});

    EngineSession(const EngineSession &) = delete;
    EngineSession &operator=(const EngineSession &) = delete;

    /**
     * Execute one request. Never throws; the response's status /
     * exitCode carry the old CLI semantics (0 full success, 1 total
     * failure, 2 partial suite).
     */
    Response handle(const Request &request);

    /** Requests handled so far (including failed ones). */
    std::uint64_t requestsHandled() const { return handled.load(); }

    /** The underlying harness session (cache access for tests/stats). */
    EvalSession &session() { return eval; }

  private:
    Response dispatch(const Request &request);

    /** Run one verb's handler; @p workload is set for kernel verbs. */
    Response run(const Request &request, const Workload *workload,
                 std::ostream &os);

    EvalSession eval;
    std::atomic<std::uint64_t> handled{0};
};

} // namespace gpumech

#endif // GPUMECH_SERVICE_ENGINE_SESSION_HH
