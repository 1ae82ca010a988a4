#include "common/isolation.hh"

#include <optional>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace gpumech
{

std::string
toString(FaultSite site)
{
    switch (site) {
      case FaultSite::Parse:
        return "parse";
      case FaultSite::Collect:
        return "collect";
      case FaultSite::Profile:
        return "profile";
      case FaultSite::Cache:
        return "cache";
    }
    return "?";
}

Result<FaultSite>
faultSiteFromString(const std::string &name)
{
    for (FaultSite site : {FaultSite::Parse, FaultSite::Collect,
                           FaultSite::Profile, FaultSite::Cache}) {
        if (toString(site) == name)
            return site;
    }
    return Status(StatusCode::NotFound,
                  msg("unknown fault site '", name,
                      "' (use parse, collect, profile or cache)"));
}

CancelToken
CancelToken::withTimeoutMs(std::uint64_t ms)
{
    CancelToken token;
    if (ms > 0) {
        token.deadline = std::make_shared<
            const std::chrono::steady_clock::time_point>(
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(ms));
    }
    return token;
}

double
CancelToken::remainingMs() const
{
    if (!deadline)
        return 0.0;
    return std::chrono::duration<double, std::milli>(
               *deadline - std::chrono::steady_clock::now())
        .count();
}

FaultPlan::FaultPlan(FaultPlan &&other) noexcept
{
    std::lock_guard<std::mutex> lock(other.mu);
    planned = std::move(other.planned);
    hits = std::move(other.hits);
}

void
FaultPlan::add(FaultInjection injection)
{
    std::lock_guard<std::mutex> lock(mu);
    planned.push_back(std::move(injection));
    hits.push_back(0);
}

FaultPlan
FaultPlan::randomized(std::uint64_t seed,
                      const std::vector<std::string> &kernels)
{
    static const FaultSite sites[] = {FaultSite::Parse,
                                      FaultSite::Collect,
                                      FaultSite::Profile,
                                      FaultSite::Cache};
    FaultPlan plan;
    Rng rng(seed);
    for (const std::string &kernel : kernels) {
        FaultInjection injection;
        injection.kernel = kernel;
        injection.site = sites[rng.next() % 4];
        plan.add(std::move(injection));
    }
    return plan;
}

void
FaultPlan::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (unsigned &h : hits)
        h = 0;
}

void
FaultPlan::onCheckpoint(const std::string &kernel, FaultSite site) const
{
    std::uint64_t stall_ms = 0;
    bool fail = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < planned.size(); ++i) {
            const FaultInjection &injection = planned[i];
            if (injection.site != site || injection.kernel != kernel)
                continue;
            if (++hits[i] != injection.attempt)
                continue;
            if (injection.stallMs > 0)
                stall_ms = injection.stallMs;
            else
                fail = true;
        }
    }
    if (stall_ms > 0) {
        // Simulated pathological stage; the deadline check following
        // this call (evalCheckpoint) turns it into DeadlineExceeded
        // when a watchdog is armed.
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    if (fail) {
        throw StatusException(
            Status(StatusCode::FaultInjected,
                   msg("injected fault at site ", toString(site),
                       " (kernel ", kernel, ")")));
    }
}

namespace
{

thread_local const EvalContext *current_frame = nullptr;

[[noreturn]] void
throwDeadline(const EvalContext &ctx)
{
    throw StatusException(
        Status(StatusCode::DeadlineExceeded,
               msg("kernel deadline exceeded (kernel ", ctx.kernel,
                   ")")));
}

} // namespace

ScopedEvalContext::ScopedEvalContext(std::string kernel,
                                     CancelToken token,
                                     const FaultPlan *plan)
    : frame{std::move(kernel), std::move(token), plan},
      previous(current_frame)
{
    current_frame = &frame;
}

ScopedEvalContext::~ScopedEvalContext()
{
    current_frame = previous;
}

const EvalContext *
currentEvalContext()
{
    return current_frame;
}

void
evalCheckpoint(FaultSite site)
{
    const EvalContext *ctx = current_frame;
    if (!ctx)
        return;
    if (ctx->plan)
        ctx->plan->onCheckpoint(ctx->kernel, site);
    if (ctx->token.expired())
        throwDeadline(*ctx);
}

void
deadlineCheckpoint()
{
    const EvalContext *ctx = current_frame;
    if (!ctx || !ctx->token.active())
        return;
    if (ctx->token.expired())
        throwDeadline(*ctx);
}

void
parallelForInContext(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     std::size_t grain, unsigned jobs)
{
    const EvalContext *caller = current_frame;
    parallelFor(
        n,
        [&](std::size_t i) {
            std::optional<ScopedEvalContext> scope;
            if (caller)
                scope.emplace(caller->kernel, caller->token,
                              caller->plan);
            body(i);
        },
        grain, jobs);
}

} // namespace gpumech
