/**
 * @file
 * Low-overhead metrics registry for the evaluation engine.
 *
 * The simulator's own pitch is decomposition (the paper's CPI stacks);
 * this applies the same philosophy to the simulator itself: monotonic
 * counters, gauges, and histogram timers that attribute where wall
 * time and work go across the parallel pipeline (thread pool, input
 * cache, per-kernel stages, trace parser).
 *
 * Design constraints, in priority order:
 *
 *  - Zero-cost when disabled. Handle operations reduce to one relaxed
 *    atomic load and a predictable branch; no allocation, no clock
 *    read, no lock. Metrics are off by default and enabled explicitly
 *    (the CLI's --metrics / --metrics-json flags, the bench).
 *
 *  - No hot-loop locks when enabled. Counter and histogram updates go
 *    to thread-local shards (plain, unsynchronized writes); shards are
 *    merged at report time. Registration (name -> id) is the only
 *    locking path and happens once per call site via a function-local
 *    static handle.
 *
 *  - Deterministic totals. Shard merging is pure addition, so a
 *    snapshot taken after a parallel region equals the serial total at
 *    any thread count (asserted by tests/test_metrics.cc).
 *
 * Snapshot consistency: snapshot()/reset() must be called while no
 * instrumented work is in flight (after a suite/sweep returns). The
 * pool's job-completion handshake orders worker writes before the
 * submitter's return, so a post-run snapshot reads fully published
 * shards.
 */

#ifndef GPUMECH_COMMON_METRICS_HH
#define GPUMECH_COMMON_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gpumech
{

/** Kinds a metric can be registered as. */
enum class MetricKind
{
    Counter,   //!< monotonic event count
    Gauge,     //!< last-set value (registry-level, not sharded)
    Histogram, //!< value distribution: count/sum/min/max + log2 buckets
};

/** Stable lower-case kind name ("counter", ...). */
std::string toString(MetricKind kind);

/** Opaque registered-metric index; invalid when default-constructed. */
class MetricId
{
  public:
    MetricId() = default;

    bool valid() const { return index != invalid; }

  private:
    friend class Metrics;
    static constexpr std::uint32_t invalid = 0xffffffff;

    explicit MetricId(std::uint32_t index) : index(index) {}

    std::uint32_t index = invalid;
};

/**
 * Merged histogram state. Buckets are log2-spaced: bucket b counts
 * observations v with floor(log2(max(v, 1))) == b (clamped to the last
 * bucket), enough for p50/p95-style tail estimates of timer values
 * without per-observation allocation.
 */
struct HistogramData
{
    static constexpr std::size_t numBuckets = 48;

    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0; //!< meaningful only when count > 0
    double max = 0.0; //!< meaningful only when count > 0
    std::array<std::uint64_t, numBuckets> buckets{};

    void observe(double value);
    void merge(const HistogramData &other);

    double mean() const { return count ? sum / count : 0.0; }

    /**
     * Estimated value at quantile @p q in [0, 1]: the upper bound of
     * the bucket holding the q-th observation, clamped to [min, max].
     * 0 when empty.
     */
    double quantile(double q) const;
};

/** One merged metric at snapshot time. */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0; //!< counter total or gauge value
    HistogramData hist; //!< populated for histograms only
};

/**
 * Process-wide metric registry. All members are static: the registry
 * is a singleton by construction (metrics name a process-wide fact).
 */
class Metrics
{
  public:
    /** Global enable flag; one relaxed load on every hot-path call. */
    static bool enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /** Turn collection on/off (does not clear recorded values). */
    static void enable(bool on);

    /**
     * Register (or look up) a metric by name. Re-registering the same
     * name returns the same id; the kind must match the first
     * registration (panic otherwise). Slow path — call sites cache the
     * result in a function-local static handle.
     */
    static MetricId counter(const std::string &name);
    static MetricId gauge(const std::string &name);
    static MetricId histogram(const std::string &name);

    /** Hot-path updates. No-ops on an invalid id. */
    static void add(MetricId id, std::uint64_t delta = 1);
    static void set(MetricId id, double value);
    static void observe(MetricId id, double value);

    /** Merged view of every registered metric, sorted by name. */
    static std::vector<MetricSnapshot> snapshot();

    /** Zero every recorded value (registrations are kept). */
    static void reset();

  private:
    friend struct MetricsShard;

    static std::atomic<bool> enabledFlag;
};

/**
 * Counter handle. Constructing one registers the name; add() is safe
 * to call from any thread and is a no-op while metrics are disabled.
 */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(const std::string &name)
        : id(Metrics::counter(name))
    {}

    void
    add(std::uint64_t delta = 1) const
    {
        if (Metrics::enabled())
            Metrics::add(id, delta);
    }

  private:
    MetricId id;
};

/** Gauge handle (set is registry-level: rare, lightly locked). */
class Gauge
{
  public:
    Gauge() = default;
    explicit Gauge(const std::string &name) : id(Metrics::gauge(name))
    {}

    void
    set(double value) const
    {
        if (Metrics::enabled())
            Metrics::set(id, value);
    }

  private:
    MetricId id;
};

/** Histogram handle. */
class Histogram
{
  public:
    Histogram() = default;
    explicit Histogram(const std::string &name)
        : id(Metrics::histogram(name))
    {}

    void
    observe(double value) const
    {
        if (Metrics::enabled())
            Metrics::observe(id, value);
    }

  private:
    MetricId id;
};

/**
 * RAII timer: observes the scope's elapsed milliseconds into a
 * histogram. One branch when disabled (no clock read).
 */
class ScopedTimerMs
{
  public:
    explicit ScopedTimerMs(const Histogram &hist);
    ~ScopedTimerMs();

    ScopedTimerMs(const ScopedTimerMs &) = delete;
    ScopedTimerMs &operator=(const ScopedTimerMs &) = delete;

  private:
    const Histogram &hist;
    std::uint64_t startNs = 0;
    bool armed = false;
};

/** Nanoseconds since an arbitrary process-local epoch (steady). */
std::uint64_t monotonicNowNs();

/**
 * Per-interval view: subtract @p before from @p after (both from
 * Metrics::snapshot()). Counters and histogram count/sum/buckets
 * subtract entrywise; gauges keep the after value (a gauge is a level,
 * not a flow); histogram min/max are kept from @p after (extrema are
 * not invertible). Metrics registered only in @p after appear as-is.
 * The connection supervisor uses this to attribute registry activity
 * to one request; like snapshot(), both endpoints must be taken while
 * no instrumented work is in flight.
 */
std::vector<MetricSnapshot>
snapshotDelta(const std::vector<MetricSnapshot> &before,
              const std::vector<MetricSnapshot> &after);

/**
 * Render the current snapshot as a JSON document:
 * {"metrics":{"<name>":{"kind":...,...}}}. Valid JSON by construction
 * (JsonWriter escaping + non-finite -> null).
 */
std::string metricsToJson();

/** Render an explicit (e.g. delta) snapshot as the same document. */
std::string metricsToJson(const std::vector<MetricSnapshot> &snapshot);

/**
 * Render the current snapshot as human-readable tables (counters and
 * gauges, then histograms with count/total/mean/p50/p95/max). The
 * CLI's --metrics summary, printed to stderr so it never corrupts
 * machine-readable stdout.
 */
void printMetricsSummary(std::ostream &os);

} // namespace gpumech

#endif // GPUMECH_COMMON_METRICS_HH
