/**
 * @file
 * Fault-isolation primitives for the evaluation engine.
 *
 * Three pieces cooperate to turn a misbehaving kernel into one failed
 * result instead of a dead process or a hung run:
 *
 *  - CancelToken: a per-kernel deadline. Cooperative — pipeline loops
 *    call deadlineCheckpoint() at iteration boundaries and the check
 *    throws StatusException(DeadlineExceeded) once the deadline
 *    passes, so a pathological kernel degrades to a structured
 *    failure (there is no preemption; a stage that never reaches a
 *    checkpoint cannot be interrupted).
 *
 *  - FaultPlan: a deterministic injection hook — fail kernel N at
 *    site S on checkpoint hit K, or stall there for a fixed time.
 *    Tests use it to prove per-kernel containment; the
 *    ext_fault_injection bench uses it to price the error layer.
 *
 *  - ScopedEvalContext: a thread-local frame installed by the harness
 *    around each per-kernel task, carrying the kernel name, its
 *    CancelToken, and the active FaultPlan. Checkpoints read it and
 *    are no-ops when no frame is installed (or on pool workers
 *    running nested fan-out chunks, unless the fan-out goes through
 *    parallelForInContext()), so library users who never configure
 *    isolation pay one thread-local load per checkpoint.
 */

#ifndef GPUMECH_COMMON_ISOLATION_HH
#define GPUMECH_COMMON_ISOLATION_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"

namespace gpumech
{

/** Pipeline stages at which faults can be injected / observed. */
enum class FaultSite
{
    Parse,   //!< trace generation / trace-file parsing
    Collect, //!< functional cache simulation (input collector)
    Profile, //!< per-warp interval profiling
    Cache,   //!< InputCache lookup
};

/** Stable lower-case site name ("parse", "collect", ...). */
std::string toString(FaultSite site);

/** Parse a site name (the CLI's --inject syntax). */
Result<FaultSite> faultSiteFromString(const std::string &name);

/**
 * Copyable handle on one absolute deadline. A default-constructed
 * token never expires; copies share the deadline, so the token can
 * cross threads and stages of one kernel's evaluation.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** Deadline @p ms from now; ms == 0 returns a never-expiring token. */
    static CancelToken withTimeoutMs(std::uint64_t ms);

    /** True when a deadline is configured. */
    bool active() const { return deadline != nullptr; }

    /** True when the deadline has passed. */
    bool expired() const
    {
        return deadline &&
               std::chrono::steady_clock::now() >= *deadline;
    }

    /**
     * Milliseconds until the deadline (negative once past it). Only
     * meaningful when active(); feeds the harness's deadline-margin
     * histogram so near-timeout kernels are visible before they fail.
     */
    double remainingMs() const;

  private:
    std::shared_ptr<const std::chrono::steady_clock::time_point>
        deadline;
};

/** One planned fault. */
struct FaultInjection
{
    std::string kernel; //!< kernel name the fault targets
    FaultSite site = FaultSite::Parse;

    /** Trigger on the K-th checkpoint hit of (kernel, site); 1-based. */
    unsigned attempt = 1;

    /**
     * 0: the checkpoint throws StatusCode::FaultInjected. >0: the
     * checkpoint stalls this many milliseconds instead — simulates a
     * pathological stage so tests can trip the deadline watchdog
     * deterministically.
     */
    std::uint64_t stallMs = 0;
};

/**
 * Deterministic fault schedule. Thread-safe: per-injection hit
 * counters are guarded, so parallel suite runs see exactly the
 * planned faults. reset() re-arms every injection for a fresh run.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Movable (fresh mutex); needed by the randomized() factory. */
    FaultPlan(FaultPlan &&other) noexcept;
    FaultPlan &operator=(FaultPlan &&) = delete;
    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    void add(FaultInjection injection);

    /**
     * Seeded schedule for stress runs: one throwing injection per
     * chosen kernel at a pseudo-randomly chosen site. Deterministic
     * for a given (seed, kernels).
     */
    static FaultPlan randomized(std::uint64_t seed,
                                const std::vector<std::string> &kernels);

    /** Planned injections (for reporting). */
    const std::vector<FaultInjection> &injections() const
    {
        return planned;
    }

    /** Re-arm: zero every injection's hit counter. */
    void reset();

    /**
     * Checkpoint body: counts the hit and either throws
     * StatusException(FaultInjected) or stalls, when an armed
     * injection matches (kernel, site, attempt).
     */
    void onCheckpoint(const std::string &kernel, FaultSite site) const;

  private:
    std::vector<FaultInjection> planned;
    mutable std::vector<unsigned> hits; //!< per-injection, guarded
    mutable std::mutex mu;
};

/** The per-kernel isolation frame checkpoints read. */
struct EvalContext
{
    std::string kernel;
    CancelToken token;
    const FaultPlan *plan = nullptr;
};

/**
 * RAII installer of the calling thread's EvalContext. The harness
 * wraps each per-kernel task in one; nesting restores the previous
 * frame on destruction.
 */
class ScopedEvalContext
{
  public:
    ScopedEvalContext(std::string kernel, CancelToken token,
                      const FaultPlan *plan);
    ~ScopedEvalContext();

    ScopedEvalContext(const ScopedEvalContext &) = delete;
    ScopedEvalContext &operator=(const ScopedEvalContext &) = delete;

  private:
    EvalContext frame;
    const EvalContext *previous;
};

/** The calling thread's frame, or nullptr outside any scope. */
const EvalContext *currentEvalContext();

/**
 * Stage-boundary checkpoint: runs the fault plan for @p site, then
 * the deadline check. Call once per pipeline stage per kernel.
 */
void evalCheckpoint(FaultSite site);

/**
 * Loop-boundary checkpoint: deadline only (no fault-plan lock), cheap
 * enough for strided use inside hot loops.
 */
void deadlineCheckpoint();

/**
 * Suggested iteration stride between deadlineCheckpoint() calls in
 * per-instruction loops: frequent enough for millisecond-scale
 * timeouts, rare enough to be free (<1% — pinned by the
 * ext_fault_injection bench).
 */
inline constexpr std::size_t deadlineCheckStride = 8192;

/**
 * parallelFor (common/thread_pool.hh) whose tasks run under the
 * calling thread's EvalContext, so the checkpoints a pool worker
 * reaches see the caller's deadline and fault plan.
 */
void parallelForInContext(std::size_t n,
                          const std::function<void(std::size_t)> &body,
                          std::size_t grain = 1, unsigned jobs = 0);

} // namespace gpumech

#endif // GPUMECH_COMMON_ISOLATION_HH
