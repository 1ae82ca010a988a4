/**
 * @file
 * Shared thread pool with chunked dynamic scheduling.
 *
 * The evaluation pipeline fans independent work out across a fixed
 * worker set instead of spawning threads per call (the per-call
 * std::thread spawning the original parallel warp profiler used).
 * The calling thread always participates in draining its own job, so
 * nested parallelFor calls cannot deadlock and a pool of concurrency 1
 * degenerates to a plain serial loop.
 *
 * Work distribution is dynamic: iterations are claimed in chunks from
 * an atomic cursor, so long-running items (e.g. long warps of one
 * phase) no longer pin to a single worker the way static stride
 * partitioning did.
 *
 * Determinism: parallelFor(n, body) invokes body exactly once per
 * index, and parallelMap writes result i into slot i, so outputs are
 * ordered and bit-identical to a serial loop as long as the body is a
 * pure function of its index.
 */

#ifndef GPUMECH_COMMON_THREAD_POOL_HH
#define GPUMECH_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace gpumech
{

/** Fixed-size worker pool executing chunked parallel loops. */
class ThreadPool
{
  public:
    /**
     * @param concurrency total parallelism including the calling
     *        thread (so N spawns N-1 workers); 0 uses defaultJobs().
     */
    explicit ThreadPool(unsigned concurrency = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + the calling thread). */
    unsigned concurrency() const;

    /**
     * Run body(i) for every i in [0, n). Blocks until every index has
     * completed; the calling thread participates. Iterations are
     * claimed dynamically in chunks of at least @p grain indices. The
     * first exception thrown by the body is rethrown here (remaining
     * chunks are skipped, already-running ones finish).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     std::size_t grain = 1);

    /**
     * Ordered map: out[i] = fn(i) for every i in [0, n). Result order
     * is independent of scheduling. T must be default-constructible.
     */
    template <typename T>
    std::vector<T>
    parallelMap(std::size_t n, const std::function<T(std::size_t)> &fn,
                std::size_t grain = 1)
    {
        std::vector<T> out(n);
        parallelFor(
            n, [&](std::size_t i) { out[i] = fn(i); }, grain);
        return out;
    }

  private:
    struct Job;
    struct State;

    static void drain(Job &job);
    void workerLoop();

    State *state; //!< pimpl: queue, mutex, cv, worker threads
};

/**
 * Effective job count: the setDefaultJobs() override if set, else the
 * GPUMECH_JOBS environment variable, else hardware_concurrency (min 1).
 */
unsigned defaultJobs();

/**
 * Override the default job count (the CLI's --jobs knob); 0 restores
 * auto-detection. Takes effect on the next globalPool() access; do not
 * call while parallel work is in flight.
 */
void setDefaultJobs(unsigned jobs);

/**
 * The process-wide shared pool, sized to defaultJobs(). Rebuilt
 * transparently when setDefaultJobs() changes the target size.
 */
ThreadPool &globalPool();

/**
 * Convenience front end: run a parallel loop with @p jobs total
 * threads. jobs == 0 uses the shared global pool at its current size;
 * jobs == 1 runs serially inline; any other count uses the global pool
 * when it matches, else a temporary pool of that size.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 std::size_t grain = 1, unsigned jobs = 0);

/** Ordered parallelMap with the same job-count routing as parallelFor. */
template <typename T>
std::vector<T>
parallelMap(std::size_t n, const std::function<T(std::size_t)> &fn,
            std::size_t grain = 1, unsigned jobs = 0)
{
    std::vector<T> out(n);
    parallelFor(
        n, [&](std::size_t i) { out[i] = fn(i); }, grain, jobs);
    return out;
}

} // namespace gpumech

#endif // GPUMECH_COMMON_THREAD_POOL_HH
