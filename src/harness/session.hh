/**
 * @file
 * Long-lived evaluation session state for the harness.
 *
 * The harness entry points (evaluateSuite / predictSuite)
 * take their cross-cutting state — input cache, thread count,
 * isolation knobs — as trailing parameters. EvalSession bundles that
 * state into one object with the lifetime a serving process wants:
 * construct once, keep the InputCache warm across requests, and pass
 * per-request overrides alongside.
 *
 * EvalSession is the harness-level half of the engine/front-end split;
 * the service layer's EngineSession (src/service/) owns one and adds
 * the request/response model on top. evaluateSuite also takes a
 * session directly; it is a thin wrapper over the parameter-style
 * overload.
 */

#ifndef GPUMECH_HARNESS_SESSION_HH
#define GPUMECH_HARNESS_SESSION_HH

#include <cstdint>

#include "harness/experiment.hh"
#include "harness/input_cache.hh"

namespace gpumech
{

/**
 * Cross-request harness state: the warm artifact cache plus the
 * session-wide defaults a request inherits unless it overrides them.
 * Thread-safe to share across concurrently-handled requests (the
 * cache is compute-once; the defaults are read-only after setup).
 */
struct EvalSession
{
    /** Memoized trace / collector / profiler artifacts. */
    InputCache cache;

    /**
     * Default worker-thread count for suite and tune fan-out;
     * 0 = defaultJobs(). A request's explicit jobs value wins.
     */
    unsigned jobs = 0;

    /** Default per-kernel deadline / fault plan. */
    IsolationOptions isolation;

    /**
     * Effective isolation for one request: the request's deadline (ms)
     * when nonzero, else the session default; the session fault plan
     * is kept either way.
     */
    IsolationOptions
    isolationFor(std::uint64_t request_timeout_ms) const
    {
        IsolationOptions opts = isolation;
        if (request_timeout_ms != 0)
            opts.kernelTimeoutMs = request_timeout_ms;
        return opts;
    }

    /** Effective jobs for one request (request value wins when set). */
    unsigned
    jobsFor(unsigned request_jobs) const
    {
        return request_jobs != 0 ? request_jobs : jobs;
    }
};

/**
 * Session-based suite evaluation: evaluateSuite with the session's
 * cache, jobs, and isolation defaults. Bit-identical to the
 * parameter-style overload with the same effective arguments.
 */
std::vector<KernelEvaluation>
evaluateSuite(EvalSession &session,
              const std::vector<Workload> &workloads,
              const HardwareConfig &config, SchedulingPolicy policy,
              const std::vector<ModelKind> &models = allModels(),
              bool verbose = false);

} // namespace gpumech

#endif // GPUMECH_HARNESS_SESSION_HH
