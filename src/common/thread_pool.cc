#include "common/thread_pool.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/metrics.hh"

namespace gpumech
{

namespace
{

/**
 * Pool instrumentation (all no-ops while metrics are disabled):
 *  - pool.jobs / pool.chunks / pool.items: dispatched parallelFor
 *    calls, dynamic chunks claimed, and loop iterations executed;
 *  - pool.queue_wait.ms: submit-to-first-claim latency per job (how
 *    long work sat before any thread picked it up);
 *  - pool.drain.ms: busy time per drain call — the per-thread work
 *    share, whose spread across calls exposes utilization imbalance;
 *  - pool.concurrency: total parallelism of the most recent dispatch.
 */
struct PoolMetrics
{
    Counter jobs{"pool.jobs"};
    Counter chunks{"pool.chunks"};
    Counter items{"pool.items"};
    Histogram queueWaitMs{"pool.queue_wait.ms"};
    Histogram drainMs{"pool.drain.ms"};
    Gauge concurrency{"pool.concurrency"};
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics m;
    return m;
}

} // namespace

/**
 * One parallelFor invocation. Iterations are claimed in chunks from
 * `next`; a job is complete when every chunk has been claimed and
 * finished (chunksDone == totalChunks). The submitting thread waits on
 * `done` after draining its own share, so completion never depends on
 * a worker being available.
 */
struct ThreadPool::Job
{
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t totalChunks = 0;
    const std::function<void(std::size_t)> *body = nullptr;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> chunksDone{0};
    std::atomic<bool> failed{false};

    /** Submission timestamp (0 when metrics were off at submit). */
    std::uint64_t submitNs = 0;
    std::atomic<bool> waitRecorded{false};

    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error; //!< first exception; guarded by mu
};

struct ThreadPool::State
{
    std::mutex mu;
    std::condition_variable wake;
    std::deque<std::shared_ptr<Job>> jobs;
    bool stopping = false;
    std::vector<std::thread> workers;
};

void
ThreadPool::drain(Job &job)
{
    bool measure = Metrics::enabled();
    std::uint64_t t0 = measure ? monotonicNowNs() : 0;
    std::size_t claimed_chunks = 0;
    std::size_t claimed_items = 0;
    std::size_t begin = job.next.fetch_add(job.chunk);
    while (begin < job.n) {
        std::size_t end = std::min(begin + job.chunk, job.n);
        if (measure) {
            if (job.submitNs != 0 &&
                !job.waitRecorded.exchange(
                    true, std::memory_order_relaxed)) {
                poolMetrics().queueWaitMs.observe(
                    static_cast<double>(monotonicNowNs() -
                                        job.submitNs) /
                    1e6);
            }
            ++claimed_chunks;
            claimed_items += end - begin;
        }
        if (!job.failed.load(std::memory_order_relaxed)) {
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*job.body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.mu);
                if (!job.error)
                    job.error = std::current_exception();
                job.failed.store(true, std::memory_order_relaxed);
            }
        }
        // Claim the next chunk before reporting this one done, so this
        // worker's last metric writes land before the submitter can
        // wake: a registry snapshot taken once parallelMap returns
        // must race no write.
        std::size_t next = job.next.fetch_add(job.chunk);
        if (measure && next >= job.n) {
            poolMetrics().chunks.add(claimed_chunks);
            poolMetrics().items.add(claimed_items);
            poolMetrics().drainMs.observe(
                static_cast<double>(monotonicNowNs() - t0) / 1e6);
        }
        if (job.chunksDone.fetch_add(1) + 1 == job.totalChunks) {
            // Last chunk: wake the submitter. Locking job.mu orders
            // this notify against the submitter's predicate check.
            std::lock_guard<std::mutex> lock(job.mu);
            job.done.notify_all();
        }
        begin = next;
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(state->mu);
            state->wake.wait(lock, [&] {
                return state->stopping || !state->jobs.empty();
            });
            if (state->stopping)
                return;
            job = state->jobs.front();
            if (job->next.load(std::memory_order_relaxed) >= job->n) {
                // Exhausted job still queued: retire it and re-check.
                state->jobs.pop_front();
                continue;
            }
        }
        drain(*job);
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->jobs.empty() && state->jobs.front() == job)
            state->jobs.pop_front();
    }
}

ThreadPool::ThreadPool(unsigned concurrency) : state(new State)
{
    if (concurrency == 0)
        concurrency = defaultJobs();
    state->workers.reserve(concurrency - 1);
    for (unsigned t = 1; t < concurrency; ++t)
        state->workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(state->mu);
        state->stopping = true;
    }
    state->wake.notify_all();
    for (auto &worker : state->workers)
        worker.join();
    delete state;
}

unsigned
ThreadPool::concurrency() const
{
    return static_cast<unsigned>(state->workers.size()) + 1;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        std::size_t grain)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;
    if (state->workers.empty() || n <= grain) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    auto job = std::make_shared<Job>();
    job->n = n;
    job->body = &body;
    if (Metrics::enabled()) {
        job->submitNs = monotonicNowNs();
        poolMetrics().jobs.add();
        poolMetrics().concurrency.set(concurrency());
    }
    // ~4 chunks per thread balances dynamic-scheduling overhead
    // against tail imbalance.
    std::size_t targets = static_cast<std::size_t>(concurrency()) * 4;
    job->chunk = std::max(grain, (n + targets - 1) / targets);
    job->totalChunks = (n + job->chunk - 1) / job->chunk;

    {
        std::lock_guard<std::mutex> lock(state->mu);
        state->jobs.push_back(job);
    }
    state->wake.notify_all();

    drain(*job);

    {
        std::unique_lock<std::mutex> lock(job->mu);
        job->done.wait(lock, [&] {
            return job->chunksDone.load() == job->totalChunks;
        });
    }
    {
        // Retire the job if a worker has not already done so.
        std::lock_guard<std::mutex> lock(state->mu);
        for (auto it = state->jobs.begin(); it != state->jobs.end();
             ++it) {
            if (*it == job) {
                state->jobs.erase(it);
                break;
            }
        }
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

namespace
{

std::atomic<unsigned> jobs_override{0};

} // namespace

unsigned
defaultJobs()
{
    unsigned forced = jobs_override.load(std::memory_order_relaxed);
    if (forced != 0)
        return forced;
    if (const char *env = std::getenv("GPUMECH_JOBS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

void
setDefaultJobs(unsigned jobs)
{
    jobs_override.store(jobs, std::memory_order_relaxed);
}

ThreadPool &
globalPool()
{
    static std::mutex mu;
    static std::unique_ptr<ThreadPool> pool;
    std::lock_guard<std::mutex> lock(mu);
    unsigned want = defaultJobs();
    if (!pool || pool->concurrency() != want)
        pool = std::make_unique<ThreadPool>(want);
    return *pool;
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &body,
            std::size_t grain, unsigned jobs)
{
    if (jobs == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    if (jobs == 0) {
        globalPool().parallelFor(n, body, grain);
        return;
    }
    ThreadPool &shared = globalPool();
    if (shared.concurrency() == jobs) {
        shared.parallelFor(n, body, grain);
    } else {
        ThreadPool scoped(jobs);
        scoped.parallelFor(n, body, grain);
    }
}

} // namespace gpumech
