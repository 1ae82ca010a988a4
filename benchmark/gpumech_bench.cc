/**
 * @file
 * `gpumech_bench`: the end-to-end benchmark driver.
 *
 * Runs one benchmark workload against the library's public entry
 * points and the gpumech_serve daemon, checks every answer, and prints
 * one JSON result document. benchmark/run.py builds this program and
 * runs it once per workload; benchmark/README.md describes the
 * workloads and metrics. The benchmark workloads are:
 *
 *   model_cold  one `model` request per kernel, each on a fresh
 *               EngineSession (every input is built cold)
 *   validate    evaluateSuite under RR then GTO: the oracle plus all
 *               five models (the paper's accuracy experiment)
 *   explore     one `tune` request per kernel, each on a fresh engine
 *   serve_warm  a warmed gpumech_serve daemon under two closed-loop
 *               client connections
 *
 * Modes:
 *   (default)     time the workload end to end, tracing off
 *   --trace       time one untraced pass, replay the same inputs one
 *                 public call at a time, and time each layer's public
 *                 entry point on the workload's first inputs
 *   --setup-only  do the workload's set-up, report readiness, exit
 *
 * Options: --workload NAME --seed N --seconds S --jobs J
 *          --serve-bin PATH --socket PATH (serve_warm and --trace)
 *          --max-kernels N (0 = all) --min-passes N (default 2)
 *
 * stdout: "ready <CLOCK_MONOTONIC ns>" once set-up is done (just before
 * the first timed request), then one JSON document on the last line.
 * Exit code 0 when every check passed, 1 when any failed, 2 on a usage
 * or infrastructure error.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/markov_chain.hh"
#include "baselines/naive_interval.hh"
#include "collector/input_collector.hh"
#include "collector/mrc_collector.hh"
#include "common/args.hh"
#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "core/gpumech.hh"
#include "harness/experiment.hh"
#include "harness/session.hh"
#include "harness/tune.hh"
#include "service/engine_session.hh"
#include "service/request.hh"
#include "timing/gpu_timing.hh"
#include "workloads/workload.hh"

#ifndef GPUMECH_BENCH_BUILD_TYPE
#define GPUMECH_BENCH_BUILD_TYPE "unknown"
#endif

using namespace gpumech;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Mean GPUMech IPC error against the oracle over the 40 evaluation
 * kernels at the Table I configuration, measured when this benchmark
 * was defined. validate fails a build that is less accurate: a faster
 * model that drifts in accuracy is a regression, not a gain.
 */
constexpr double kCpiErrCeilingRrPct = 7.133716118;
constexpr double kCpiErrCeilingGtoPct = 17.34122876;

/** Evaluation-only request fields model_cold and serve_warm vary. */
constexpr std::uint32_t kMshrLadder[] = {8, 16, 32, 64, 128};
constexpr double kBwLadder[] = {96, 192, 288, 384};

/** Inputs the per-layer ladder replays (the first items of a run). */
constexpr std::size_t kLadderItems = 6;

/** The seed of every `tune` search the benchmark runs. */
constexpr std::uint32_t kTuneSeed = 1;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

std::int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t
fnv1a(std::uint64_t h, std::string_view bytes)
{
    for (char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, double value)
{
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    return fnv1a(h, std::string_view(bytes, sizeof bytes));
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

double
peakRssMbSelf()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

/** Pass/fail accounting: every checked operation counts once. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< the first few messages

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    void
    merge(const Checks &other)
    {
        attempted += other.attempted;
        failed += other.failed;
        for (const std::string &f : other.failures) {
            if (failures.size() < 20)
                failures.push_back(f);
        }
    }
};

/** Named numbers reported in the result document. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, double>> info;
    std::vector<std::pair<std::string, std::string>> infoText;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    unsigned jobs = 1;
    bool trace = false;
    bool setupOnly = false;
    std::string serveBin;
    std::string socket;
    std::size_t maxKernels = 0;
    unsigned minPasses = 2;
};

void
announceReady()
{
    std::cout << "ready " << monotonicNs() << std::endl;
}

// ---------------------------------------------------------------------
// Generated inputs

/** One request the benchmark sends: its JSON line and parsed form. */
struct Item
{
    std::string line;
    Request request;
    const Workload *workload = nullptr;
};

Item
makeItem(std::string line)
{
    Result<Request> parsed = requestFromJson(line);
    if (!parsed.ok())
        throw std::runtime_error(msg("generated request does not parse: ",
                                     parsed.status().toString(), ": ",
                                     line));
    Item item;
    item.line = std::move(line);
    item.request = std::move(parsed).value();
    item.workload = &workloadByName(item.request.kernel);
    return item;
}

/** Kernel set K: the 40 evaluation kernels, plus the 3 stress kernels. */
std::vector<const Workload *>
kernelSet(bool with_stress, std::size_t max_kernels)
{
    std::vector<const Workload *> out;
    for (const Workload &w : evaluationWorkloads())
        out.push_back(&w);
    if (with_stress) {
        for (const Workload &w : stressWorkloads())
            out.push_back(&w);
    }
    if (max_kernels != 0 && max_kernels < out.size())
        out.resize(max_kernels);
    return out;
}

/** A `model` request line (JSON report on) without its closing brace. */
std::string
modelLineBody(const std::string &kernel, std::uint32_t mshrs, double bw,
              SchedulingPolicy policy)
{
    JsonWriter json;
    json.field("cmd", "model");
    json.field("kernel", kernel);
    json.beginObject("config");
    json.field("mshrs", static_cast<std::uint64_t>(mshrs));
    json.field("bw", bw);
    json.endObject();
    json.field("policy",
               policy == SchedulingPolicy::RoundRobin ? "rr" : "gto");
    json.field("json", true);
    std::string line = json.finish();
    line.pop_back();
    return line;
}

std::string
withId(const std::string &body, const std::string &id)
{
    return body + ",\"id\":\"" + id + "\"}";
}

/**
 * model_cold: each kernel of K once, with seeded MSHR / bandwidth /
 * policy values. Those are evaluation-only fields, so a pass does the
 * same work at every seed. The kernel order is fixed: the allocator's
 * history, and with it peak RSS, then repeats from run to run.
 */
std::vector<Item>
modelColdItems(const Options &o)
{
    Rng rng(o.seed);
    std::vector<Item> items;
    for (const Workload *w : kernelSet(true, o.maxKernels)) {
        const std::uint32_t mshrs = kMshrLadder[rng.nextBelow(5)];
        const double bw = kBwLadder[rng.nextBelow(4)];
        const SchedulingPolicy policy = rng.nextBelow(2)
            ? SchedulingPolicy::GreedyThenOldest
            : SchedulingPolicy::RoundRobin;
        items.push_back(makeItem(withId(
            modelLineBody(w->name, mshrs, bw, policy),
            msg("m", items.size()))));
    }
    return items;
}

/**
 * validate: the evaluation kernels at the Table I configuration, RR
 * then GTO. Fixed order and no seed, so error numbers compare bit for
 * bit across runs. The ladder's model requests use these items.
 */
std::vector<Item>
validateItems(const Options &o)
{
    const HardwareConfig base = HardwareConfig::baseline();
    std::vector<Item> items;
    for (SchedulingPolicy policy : {SchedulingPolicy::RoundRobin,
                                    SchedulingPolicy::GreedyThenOldest}) {
        for (const Workload *w : kernelSet(false, o.maxKernels)) {
            items.push_back(makeItem(withId(
                modelLineBody(w->name, base.numMshrs, base.dramBandwidthGBs,
                              policy),
                msg("v", items.size()))));
        }
    }
    return items;
}

/**
 * explore: one `tune` request per kernel of K, in fixed order as in
 * model_cold. The search's seed is fixed too, and the benchmark seed
 * is ignored: the tune seed sets where restarts begin, and with it how
 * many cells a search evaluates, so a seeded search would make host
 * time vary by 40% between benchmark seeds.
 */
std::vector<Item>
exploreItems(const Options &o)
{
    std::vector<Item> items;
    for (const Workload *w : kernelSet(true, o.maxKernels)) {
        JsonWriter json;
        json.field("cmd", "tune");
        json.field("id", msg("t", items.size()));
        json.field("kernel", w->name);
        json.field("seed", static_cast<std::uint64_t>(kTuneSeed));
        items.push_back(makeItem(json.finish()));
    }
    return items;
}

/**
 * serve_warm's key space: evaluation kernel x MSHRs x bandwidth x
 * policy. Request bodies are rendered once; a request appends its id.
 */
class ServeKeys
{
  public:
    explicit ServeKeys(const Options &o)
    {
        for (const Workload *w : kernelSet(false, o.maxKernels)) {
            kernels.push_back(w);
            for (std::uint32_t mshrs : kMshrLadder) {
                for (double bw : kBwLadder) {
                    for (SchedulingPolicy policy :
                         {SchedulingPolicy::RoundRobin,
                          SchedulingPolicy::GreedyThenOldest}) {
                        bodies.push_back(
                            modelLineBody(w->name, mshrs, bw, policy));
                    }
                }
            }
        }
    }

    std::size_t size() const { return bodies.size(); }

    std::string
    line(std::size_t key, const std::string &id) const
    {
        return withId(bodies[key], id);
    }

    /** Warm-up: one request per kernel at the Table I configuration. */
    std::vector<std::string>
    warmupLines() const
    {
        const HardwareConfig base = HardwareConfig::baseline();
        std::vector<std::string> lines;
        for (const Workload *w : kernels) {
            lines.push_back(withId(
                modelLineBody(w->name, base.numMshrs, base.dramBandwidthGBs,
                              SchedulingPolicy::RoundRobin),
                msg("w", lines.size())));
        }
        return lines;
    }

  private:
    std::vector<const Workload *> kernels;
    std::vector<std::string> bodies;
};

/** The seeded request stream of one serve_warm client connection. */
Rng
clientRng(std::uint64_t seed, unsigned client)
{
    return Rng(seed * 0x9e3779b97f4a7c15ULL + client + 1);
}

std::vector<Item>
serveItems(const Options &o, const ServeKeys &keys, std::size_t n)
{
    Rng rng = clientRng(o.seed, 0);
    std::vector<Item> items;
    for (std::size_t i = 0; i < n; ++i)
        items.push_back(makeItem(
            keys.line(rng.nextBelow(keys.size()), msg("s", i))));
    return items;
}

// ---------------------------------------------------------------------
// The daemon and its clients

/**
 * A gpumech_serve child process serving a Unix socket. The child is
 * killed if this process dies first, so a crashed run leaves no daemon
 * behind.
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, std::string socket_path,
           unsigned jobs)
        : path(std::move(socket_path))
    {
        ::unlink(path.c_str());
        std::vector<std::string> args = {
            binary, "--socket", path, "--dispatch", "2", "--jobs",
            std::to_string(jobs)};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const pid_t parent = ::getpid();
        pid = ::fork();
        if (pid < 0)
            throw std::runtime_error(
                msg("cannot start ", binary, ": ", std::strerror(errno)));
        if (pid == 0) {
            // Only async-signal-safe calls between fork and exec.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() == parent)
                ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        waitUntilServing();
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return path; }

    /**
     * Ask for a drain (SIGTERM) and reap the process. True when it
     * drained and exited 0; peakRssMb() is valid afterwards.
     */
    bool
    stop()
    {
        if (pid <= 0)
            return false;
        ::kill(pid, SIGTERM);
        int status = 0;
        rusage ru{};
        pid_t reaped;
        while ((reaped = ::wait4(pid, &status, 0, &ru)) < 0 &&
               errno == EINTR) {
        }
        pid = -1;
        rssMb = ru.ru_maxrss / 1024.0;
        return reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    /** The daemon's peak resident set (VmHWM), valid after stop(). */
    double peakRssMb() const { return rssMb; }

  private:
    void
    waitUntilServing()
    {
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (Clock::now() < deadline) {
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                throw std::runtime_error("gpumech_serve exited at start");
            }
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, path.c_str(),
                         sizeof(addr.sun_path) - 1);
            const bool up =
                ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) == 0;
            ::close(fd);
            if (up)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        stop();
        throw std::runtime_error("gpumech_serve did not start serving");
    }

    std::string path;
    pid_t pid = -1;
    double rssMb = 0.0;
};

/** One client connection with one request outstanding at a time. */
class Client
{
  public:
    explicit Client(const std::string &socket_path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                                sizeof addr) != 0) {
            if (fd >= 0)
                ::close(fd);
            throw std::runtime_error(
                msg("cannot connect to ", socket_path));
        }
    }

    ~Client() { ::close(fd); }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request line and block for its response line. */
    std::string
    roundTrip(const std::string &request)
    {
        const std::string out = request + "\n";
        for (std::size_t sent = 0; sent < out.size();) {
            const ssize_t n = ::send(fd, out.data() + sent,
                                     out.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection lost (send)");
            sent += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t eol = pending.find('\n');
            if (eol != std::string::npos) {
                std::string line = pending.substr(0, eol);
                pending.erase(0, eol + 1);
                return line;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection lost (recv)");
            pending.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd = -1;
    std::string pending; //!< bytes received past the last line
};

/**
 * Check a daemon response line: ok, and correlated with the request
 * by id and by this connection's seq. On success @p output is the
 * (JSON-escaped) rendered report.
 */
bool
servedOk(const std::string &line, const std::string &id,
         std::uint64_t seq, std::string_view &output)
{
    const std::string head =
        msg("{\"id\":\"", id, "\",\"seq\":", seq, ",\"ok\":true,");
    static const std::string field = ",\"output\":\"";
    if (line.compare(0, head.size(), head) != 0 || line.size() < 2 ||
        line.compare(line.size() - 2, 2, "\"}") != 0)
        return false;
    const std::size_t at = line.find(field);
    if (at == std::string::npos)
        return false;
    const std::size_t begin = at + field.size();
    output = std::string_view(line).substr(begin, line.size() - 2 - begin);
    return true;
}

/**
 * Run @p body on one thread per client connection. A lost connection
 * ends that thread's work and counts as one failed check.
 */
void
onEachClient(std::size_t clients, std::vector<Checks> &per,
             const std::function<void(std::size_t, Checks &)> &body)
{
    per.assign(clients, Checks{});
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                body(c, per[c]);
            } catch (const std::exception &e) {
                per[c].check(false, e.what());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/** Warm a daemon with @p lines over @p clients connections. */
void
warmDaemon(std::vector<std::unique_ptr<Client>> &clients,
           std::vector<std::uint64_t> &seqs,
           const std::vector<std::string> &lines, Checks &checks)
{
    std::vector<Checks> per;
    onEachClient(clients.size(), per, [&](std::size_t c, Checks &mine) {
        for (std::size_t i = c; i < lines.size(); i += clients.size()) {
            const std::string id = msg("w", i);
            const std::string resp = clients[c]->roundTrip(lines[i]);
            std::string_view output;
            mine.check(servedOk(resp, id, ++seqs[c], output),
                       msg("warm-up response ", id, ": ", resp));
        }
    });
    for (const Checks &c : per)
        checks.merge(c);
}

// ---------------------------------------------------------------------
// End-to-end runs (tracing off)
//
// The host's speed drifts: a fixed loop of integer work can take 70%
// longer for seconds at a time. A run therefore repeats the same work
// and keeps each item's best time over the repeats. Work that is the
// same in every repeat only reads slower when the program is slower.

/**
 * Percentile of latency_tail_ms over one kernel's best latencies: the
 * highest with at least ten of the 43 samples beyond it.
 */
constexpr double kKernelTailPct = 75.0;

/** What one timed run reports. */
struct Measured
{
    double throughput = 0.0; //!< items per second
    double p50Ms = 0.0;
    double tailMs = 0.0; //!< latency at the workload's tail percentile
    double peakRssMb = 0.0;
    unsigned passes = 0; //!< repeats of the work
    double wallS = 0.0;  //!< time spent in them
};

/** Item-wise best (lowest) time over passes of the same items. */
std::vector<double>
bestOf(const std::vector<std::vector<double>> &passes)
{
    std::vector<double> best = passes.front();
    for (const std::vector<double> &pass : passes) {
        for (std::size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], pass[i]);
    }
    return best;
}

double
sum(const std::vector<double> &xs)
{
    double total = 0.0;
    for (double x : xs)
        total += x;
    return total;
}

/**
 * Run passes while the time budget lasts: at least o.minPasses, then
 * more while one more pass as long as the last still fits. @p pass
 * returns its wall time in seconds. Peak RSS is read at the end: after
 * one pass it still depends on which pool threads' malloc arenas took
 * the allocations (68 or 78 MB for model_cold), after several it
 * repeats to 0.3%.
 */
void
runPasses(const Options &o, Measured &m,
          const std::function<double()> &pass)
{
    double last = 0.0;
    while (m.passes < o.minPasses || m.wallS + last <= o.seconds) {
        last = pass();
        m.wallS += last;
        ++m.passes;
    }
    m.peakRssMb = peakRssMbSelf();
}

void
checkDigests(const std::vector<std::uint64_t> &digests, Checks &checks,
             Report &report)
{
    for (std::size_t i = 1; i < digests.size(); ++i)
        checks.check(digests[i] == digests[0],
                     msg("pass ", i, " output digest differs from pass 0"));
    if (!digests.empty())
        report.infoText.emplace_back("digest",
                                     msg(std::hex, digests[0]));
}

/** The "cpi" field of a `model` JSON report; NaN when absent. */
double
reportCpi(const std::string &output)
{
    Result<JsonValue> doc = parseJson(output);
    if (!doc.ok())
        return std::nan("");
    const JsonValue *cpi = doc.value().find("cpi");
    return cpi && cpi->isNumber() ? cpi->number() : std::nan("");
}

/** InputCache lookups so far, as (hits, misses). */
std::pair<double, double>
cacheLookups(const InputCache &c)
{
    return {static_cast<double>(c.traceHits() + c.collectorHits() +
                                c.profilerHits() + c.mrcHits()),
            static_cast<double>(c.traceMisses() + c.collectorMisses() +
                                c.profilerMisses() + c.mrcMisses())};
}

double
hitRatio(double hits, double misses)
{
    return hits / std::max(1.0, hits + misses);
}

/** Per-item times of one engine pass. */
struct PassTiming
{
    std::vector<double> latencyMs; //!< handle() alone
    std::vector<double> costMs;    //!< session set-up to tear-down
};

/**
 * One engine pass over @p items: each request is handled by a fresh
 * EngineSession, so nothing is shared and every input is built cold.
 * (Kernels share no cache keys, so one session per pass would do the
 * same work while holding every kernel's inputs at once.) Returns the
 * outputs.
 */
std::vector<std::string>
enginePass(const Options &o, const std::vector<Item> &items,
           PassTiming &timing, Checks &checks,
           double *cache_hit_ratio = nullptr)
{
    std::vector<std::string> outputs;
    outputs.reserve(items.size());
    EngineOptions engine_options;
    engine_options.jobs = o.jobs;
    std::vector<bool> ok;
    double hits = 0.0, misses = 0.0;
    for (const Item &item : items) {
        const auto begin = Clock::now();
        {
            EngineSession engine(engine_options);
            const auto t = Clock::now();
            Response resp = engine.handle(item.request);
            timing.latencyMs.push_back(msSince(t));
            ok.push_back(resp.ok() && resp.exitCode == 0);
            outputs.push_back(std::move(resp.output));
            const auto [h, mi] = cacheLookups(engine.session().cache);
            hits += h;
            misses += mi;
        }
        timing.costMs.push_back(msSince(begin));
    }
    for (std::size_t i = 0; i < items.size(); ++i)
        checks.check(ok[i] && !outputs[i].empty(),
                     msg(items[i].request.kernel, ": request failed"));
    if (cache_hit_ratio)
        *cache_hit_ratio = hitRatio(hits, misses);
    return outputs;
}

/**
 * model_cold and explore: engine passes over fixed items. Latency
 * percentiles are over the items' best latencies; throughput is items
 * over the sum of their best costs.
 */
Measured
runEngineWorkload(const Options &o, const std::vector<Item> &items,
                  bool model_reports, Checks &checks, Report &report)
{
    announceReady();
    Measured m;
    std::vector<std::vector<double>> latency, cost;
    std::vector<std::uint64_t> digests;
    runPasses(o, m, [&] {
        PassTiming timing;
        const std::vector<std::string> outputs =
            enginePass(o, items, timing, checks);
        std::uint64_t digest = kFnvBasis;
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            digest = fnv1a(digest, outputs[i]);
            if (model_reports) {
                const double cpi = reportCpi(outputs[i]);
                checks.check(std::isfinite(cpi) && cpi > 0.0,
                             msg(items[i].request.kernel,
                                 ": report has no positive cpi"));
            }
        }
        digests.push_back(digest);
        latency.push_back(timing.latencyMs);
        cost.push_back(timing.costMs);
        return sum(timing.costMs) / 1e3;
    });
    const std::vector<double> best = bestOf(latency);
    m.p50Ms = percentile(best, 50);
    m.tailMs = percentile(best, kKernelTailPct);
    m.throughput = items.size() / (sum(bestOf(cost)) / 1e3);
    checkDigests(digests, checks, report);
    return m;
}

std::vector<Workload>
workloadCopies(const std::vector<Item> &items, std::size_t n)
{
    std::vector<Workload> out;
    for (std::size_t i = 0; i < n && i < items.size(); ++i)
        out.push_back(*items[i].workload);
    return out;
}

/** evaluateSuite results of one validate pass, RR then GTO. */
struct ValidatePass
{
    std::vector<KernelEvaluation> rr, gto;
    std::vector<double> callMs; //!< the RR call, then the GTO call
};

/**
 * One validate pass on a fresh EvalSession: evaluateSuite under RR,
 * then under GTO on the warm session.
 */
ValidatePass
validatePass(const Options &o, const std::vector<Workload> &kernels,
             double *cache_hit_ratio = nullptr)
{
    const HardwareConfig base = HardwareConfig::baseline();
    EvalSession session;
    session.jobs = o.jobs;
    ValidatePass pass;
    auto start = Clock::now();
    pass.rr = evaluateSuite(session, kernels, base,
                            SchedulingPolicy::RoundRobin);
    pass.callMs.push_back(msSince(start));
    start = Clock::now();
    pass.gto = evaluateSuite(session, kernels, base,
                             SchedulingPolicy::GreedyThenOldest);
    pass.callMs.push_back(msSince(start));
    if (cache_hit_ratio) {
        const auto [hits, misses] = cacheLookups(session.cache);
        *cache_hit_ratio = hitRatio(hits, misses);
    }
    return pass;
}

/**
 * validate: the user waits for the whole report, so a pass is one
 * latency sample: the best RR call plus the best GTO call. An item is
 * one kernel evaluated under one policy.
 */
Measured
runValidate(const Options &o, const std::vector<Item> &items,
            Checks &checks, Report &report)
{
    const std::vector<Workload> kernels =
        workloadCopies(items, items.size() / 2);
    announceReady();
    Measured m;
    std::vector<std::vector<double>> calls;
    std::vector<std::uint64_t> digests;
    double err_rr = 0.0, err_gto = 0.0;
    runPasses(o, m, [&] {
        ValidatePass pass = validatePass(o, kernels);
        std::uint64_t digest = kFnvBasis;
        for (const auto *evals : {&pass.rr, &pass.gto}) {
            for (const KernelEvaluation &e : *evals) {
                checks.check(e.ok(), msg(e.kernel, " (", toString(e.policy),
                                         "): ", e.status.toString()));
                digest = fnv1a(fnv1a(digest, e.kernel), e.oracleCpi);
                for (const auto &[kind, ipc] : e.predictedIpc)
                    digest = fnv1a(digest, ipc);
            }
        }
        digests.push_back(digest);
        err_rr = 100.0 * averageError(pass.rr, ModelKind::MT_MSHR_BAND);
        err_gto = 100.0 * averageError(pass.gto, ModelKind::MT_MSHR_BAND);
        calls.push_back(pass.callMs);
        return sum(pass.callMs) / 1e3;
    });
    const double pass_ms = sum(bestOf(calls));
    m.p50Ms = m.tailMs = pass_ms;
    m.throughput = items.size() / (pass_ms / 1e3);
    checkDigests(digests, checks, report);
    report.info.emplace_back("cpi_err_rr_pct", err_rr);
    report.info.emplace_back("cpi_err_gto_pct", err_gto);
    // The ceiling holds for the full kernel set only.
    if (o.maxKernels == 0) {
        checks.check(err_rr <= kCpiErrCeilingRrPct + 1e-6,
                     msg("RR CPI error ", err_rr, "% exceeds the ",
                         kCpiErrCeilingRrPct, "% ceiling"));
        checks.check(err_gto <= kCpiErrCeilingGtoPct + 1e-6,
                     msg("GTO CPI error ", err_gto, "% exceeds the ",
                         kCpiErrCeilingGtoPct, "% ceiling"));
    }
    return m;
}

/** Spawn a daemon and warm it over two client connections. */
struct WarmDaemon
{
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::uint64_t> seqs; //!< last seq seen per connection
};

WarmDaemon
startWarmDaemon(const Options &o, const ServeKeys &keys, Checks &checks)
{
    WarmDaemon w;
    w.daemon = std::make_unique<Daemon>(o.serveBin, o.socket, o.jobs);
    for (int c = 0; c < 2; ++c)
        w.clients.push_back(std::make_unique<Client>(o.socket));
    w.seqs.assign(w.clients.size(), 0);
    warmDaemon(w.clients, w.seqs, keys.warmupLines(), checks);
    return w;
}

/** serve_warm's repeats: fixed windows of the closed-loop run. */
constexpr double kServeWindowS = 0.5;

/**
 * serve_warm: two closed-loop connections (each sends its next request
 * only after the previous response arrived) for o.seconds. Each metric
 * is its best-decile value over the run's windows.
 */
Measured
runServeWarm(const Options &o, Checks &checks, Report &report)
{
    const ServeKeys keys(o);
    WarmDaemon w = startWarmDaemon(o, keys, checks);
    announceReady();

    struct Served
    {
        std::vector<std::pair<double, double>> done; //!< (at s, ms)
        std::map<std::size_t, std::string> firstOutput;
    };
    std::vector<Served> served(w.clients.size());
    std::vector<Checks> per;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(o.seconds));
    onEachClient(w.clients.size(), per, [&](std::size_t c, Checks &mine) {
        Served &me = served[c];
        Rng rng = clientRng(o.seed, static_cast<unsigned>(c));
        for (std::uint64_t n = 0; Clock::now() < deadline; ++n) {
            const std::size_t key = rng.nextBelow(keys.size());
            const std::string id = msg("c", c, "-", n);
            const std::string line = keys.line(key, id);
            const auto t = Clock::now();
            const std::string resp = w.clients[c]->roundTrip(line);
            const double ms = msSince(t);
            me.done.emplace_back(msSince(start) / 1e3, ms);
            std::string_view output;
            if (!servedOk(resp, id, ++w.seqs[c], output)) {
                mine.check(false, msg("response ", id, ": ", resp));
                continue;
            }
            auto [it, fresh] =
                me.firstOutput.try_emplace(key, std::string(output));
            mine.check(fresh || it->second == output,
                       msg("key ", key, " output changed"));
        }
    });

    Measured m;
    m.wallS = msSince(start) / 1e3;
    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(o.seconds / kServeWindowS));
    std::vector<std::vector<double>> window_ms(windows);
    std::map<std::size_t, std::string> outputs;
    for (std::size_t c = 0; c < served.size(); ++c) {
        for (const auto &[at, ms] : served[c].done) {
            const auto wi = static_cast<std::size_t>(at / kServeWindowS);
            if (wi < windows)
                window_ms[wi].push_back(ms);
        }
        checks.merge(per[c]);
        for (auto &[key, output] : served[c].firstOutput) {
            auto [it, fresh] = outputs.try_emplace(key, output);
            checks.check(fresh || it->second == output,
                         msg("key ", key, " differs across connections"));
        }
    }
    // The best decile of windows rather than the best window: a single
    // lucky window moved the best-window p50 by 10% between runs. A
    // window holds ~15000 responses, so its p99 has ~150 beyond it.
    m.passes = static_cast<unsigned>(windows);
    std::vector<double> rate, p50, p99;
    for (const std::vector<double> &ms : window_ms) {
        rate.push_back(ms.size() / kServeWindowS);
        if (ms.empty())
            continue;
        p50.push_back(percentile(ms, 50));
        p99.push_back(percentile(ms, 99));
    }
    m.throughput = percentile(rate, 90);
    m.p50Ms = percentile(p50, 10);
    m.tailMs = percentile(p99, 10);

    // A seeded sample of keys must match an in-process engine.
    Rng pick(o.seed + 7);
    std::vector<std::size_t> sample;
    for (int i = 0; i < 8; ++i)
        sample.push_back(pick.nextBelow(keys.size()));
    for (std::size_t key : sample) {
        if (outputs.count(key))
            continue;
        const std::string id = msg("k", key);
        const std::string resp = w.clients[0]->roundTrip(keys.line(key, id));
        std::string_view output;
        checks.check(servedOk(resp, id, ++w.seqs[0], output),
                     msg("sample response ", id, ": ", resp));
        outputs.emplace(key, std::string(output));
    }
    w.clients.clear();
    checks.check(w.daemon->stop(), "gpumech_serve did not drain cleanly");
    m.peakRssMb = w.daemon->peakRssMb();

    EngineOptions engine_options;
    engine_options.jobs = o.jobs;
    EngineSession local(engine_options);
    for (std::size_t key : sample) {
        const Item item = makeItem(keys.line(key, "x"));
        const Response resp = local.handle(item.request);
        checks.check(resp.ok() && jsonEscape(resp.output) == outputs[key],
                     msg("key ", key, ": daemon output differs from an ",
                         "in-process EngineSession"));
    }
    report.info.emplace_back("distinct_keys",
                             static_cast<double>(outputs.size()));
    return m;
}

// ---------------------------------------------------------------------
// Traced runs

/**
 * Timed spans of one replay, possibly recorded from several threads.
 * Only their union matters: it is the wall time some timed public
 * call covered.
 */
class SpanLog
{
  public:
    template <typename Fn>
    auto
    time(Fn &&fn) -> decltype(fn())
    {
        const std::int64_t start = monotonicNs();
        struct Close
        {
            SpanLog &log;
            std::int64_t start;
            ~Close() { log.add(start, monotonicNs()); }
        } close{*this, start};
        return fn();
    }

    /** Milliseconds covered by at least one span. */
    double
    coveredMs()
    {
        std::lock_guard<std::mutex> lock(mu);
        std::sort(spans.begin(), spans.end());
        std::int64_t covered = 0, end = INT64_MIN;
        for (const auto &[s, e] : spans) {
            if (s > end) {
                covered += e - s;
                end = e;
            } else if (e > end) {
                covered += e - end;
                end = e;
            }
        }
        return covered / 1e6;
    }

  private:
    void
    add(std::int64_t start, std::int64_t end)
    {
        std::lock_guard<std::mutex> lock(mu);
        spans.emplace_back(start, end);
    }

    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
};

/** One traced pass: its wall time and the untraced pass's. */
struct Replay
{
    double untracedMs = 0.0;
    double tracedMs = 0.0;
    double coveredShare = 0.0; //!< of tracedMs, covered by some span
    double cacheHitRatio = 0.0;
};

/** The `"name":value` text a JSON report renders for @p value. */
std::string
jsonNumberField(const std::string &name, double value)
{
    JsonWriter json;
    json.field(name, value);
    std::string doc = json.finish();
    return doc.substr(1, doc.size() - 2);
}

/**
 * model_cold replayed: generate, collect, profile and evaluate each
 * request through their public calls. The step-by-step CPI must be
 * bit-identical to the CPI handle() rendered.
 */
Replay
replayModelCold(const Options &o, const std::vector<Item> &items,
                Checks &checks)
{
    Replay r;
    PassTiming timing;
    const std::vector<std::string> outputs =
        enginePass(o, items, timing, checks, &r.cacheHitRatio);
    r.untracedMs = sum(timing.costMs);

    SpanLog log;
    std::vector<GpuMechResult> results;
    const auto start = Clock::now();
    for (const Item &item : items) {
        const Request &req = item.request;
        const KernelTrace trace =
            log.time([&] { return item.workload->generate(req.config); });
        auto collected = log.time([&] {
            return std::make_shared<const CollectorResult>(
                collectInputsParallel(trace, req.config));
        });
        auto profiler = log.time([&] {
            return std::make_unique<const GpuMechProfiler>(
                trace, req.config, RepSelection::Clustering, 2, 1,
                collected);
        });
        results.push_back(log.time([&] {
            return profiler->evaluateAt(req.config, req.policy, req.level,
                                        req.modelSfu);
        }));
    }
    r.tracedMs = msSince(start);
    r.coveredShare = log.coveredMs() / r.tracedMs;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string want =
            jsonNumberField("cpi", results[i].cpi) + ",";
        checks.check(outputs[i].find(want) != std::string::npos,
                     msg(items[i].request.kernel, ": step-by-step ", want,
                         " not in handle() report"));
    }
    return r;
}

/** Every model's IPC for one kernel, as evaluateKernel computes them. */
std::map<ModelKind, double>
modelIpcs(const GpuMechProfiler &profiler, const HardwareConfig &config,
          SchedulingPolicy policy)
{
    const IntervalProfile &rep = profiler.repProfile();
    return {
        {ModelKind::NaiveInterval,
         naiveInterval(rep, config.warpsPerCore, config).ipc},
        {ModelKind::MarkovChain,
         markovChain(rep, config.warpsPerCore, config).ipc},
        {ModelKind::MT,
         profiler.evaluateAt(config, policy, ModelLevel::MT).ipc},
        {ModelKind::MT_MSHR,
         profiler.evaluateAt(config, policy, ModelLevel::MT_MSHR).ipc},
        {ModelKind::MT_MSHR_BAND,
         profiler.evaluateAt(config, policy, ModelLevel::MT_MSHR_BAND)
             .ipc},
    };
}

bool
sameEvaluation(const KernelEvaluation &e, double oracle_cpi,
               const std::map<ModelKind, double> &ipcs)
{
    if (!sameBits(e.oracleCpi, oracle_cpi) ||
        e.predictedIpc.size() != ipcs.size())
        return false;
    for (const auto &[kind, ipc] : ipcs) {
        auto it = e.predictedIpc.find(kind);
        if (it == e.predictedIpc.end() || !sameBits(it->second, ipc))
            return false;
    }
    return true;
}

/**
 * validate replayed across kernels on J threads, as evaluateSuite fans
 * out: generate, oracle, collect, profile and the five models under
 * RR, then the oracle and models again under GTO on the same inputs.
 */
Replay
replayValidate(const Options &o, const std::vector<Item> &items,
               Checks &checks)
{
    const std::vector<Workload> kernels =
        workloadCopies(items, items.size() / 2);
    const HardwareConfig base = HardwareConfig::baseline();
    Replay r;
    const ValidatePass pass = validatePass(o, kernels, &r.cacheHitRatio);
    r.untracedMs = sum(pass.callMs);

    struct Slot
    {
        KernelTrace trace;
        std::unique_ptr<const GpuMechProfiler> profiler;
        double oracleCpi[2] = {0.0, 0.0};
        std::map<ModelKind, double> ipcs[2];
    };
    std::vector<Slot> slots(kernels.size());
    const SchedulingPolicy policies[2] = {
        SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest};
    SpanLog log;
    const auto start = Clock::now();
    for (int p = 0; p < 2; ++p) {
        parallelFor(
            kernels.size(),
            [&](std::size_t i) {
                Slot &s = slots[i];
                if (p == 0)
                    s.trace = log.time(
                        [&] { return kernels[i].generate(base); });
                s.oracleCpi[p] = log.time([&] {
                    return GpuTiming(s.trace, base, policies[p]).run().cpi();
                });
                if (p == 0) {
                    auto collected = log.time([&] {
                        return std::make_shared<const CollectorResult>(
                            collectInputsParallel(s.trace, base));
                    });
                    s.profiler = log.time([&] {
                        return std::make_unique<const GpuMechProfiler>(
                            s.trace, base, RepSelection::Clustering, 2, 1,
                            collected);
                    });
                }
                s.ipcs[p] = log.time([&] {
                    return modelIpcs(*s.profiler, base, policies[p]);
                });
            },
            1, o.jobs);
    }
    r.tracedMs = msSince(start);
    r.coveredShare = log.coveredMs() / r.tracedMs;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        checks.check(sameEvaluation(pass.rr[i], slots[i].oracleCpi[0],
                                    slots[i].ipcs[0]) &&
                         sameEvaluation(pass.gto[i], slots[i].oracleCpi[1],
                                        slots[i].ipcs[1]),
                     msg(kernels[i].name,
                         ": step-by-step evaluation differs from "
                         "evaluateSuite"));
    }
    return r;
}

/**
 * explore replayed: the trace, MRC profile and profiler a tune needs
 * are built through the InputCache's public calls, then runTune
 * searches on the warm cache and its report is rendered.
 */
Replay
replayExplore(const Options &o, const std::vector<Item> &items,
              Checks &checks)
{
    Replay r;
    PassTiming timing;
    const std::vector<std::string> outputs =
        enginePass(o, items, timing, checks, &r.cacheHitRatio);
    r.untracedMs = sum(timing.costMs);

    SpanLog log;
    std::vector<std::string> reports;
    const auto start = Clock::now();
    for (const Item &item : items) {
        EvalSession session;
        session.jobs = o.jobs;
        const Request &req = item.request;
        const Workload &w = *item.workload;
        const double rate = req.tune.mrcRate;
        log.time([&] { return session.cache.trace(w, req.config); });
        log.time([&] { return session.cache.mrc(w, req.config, rate); });
        log.time(
            [&] { return session.cache.mrcProfiler(w, req.config, rate); });
        TuneOptions options = req.tune;
        options.policy = req.policy;
        options.modelSfu = req.modelSfu;
        options.jobs = session.jobsFor(req.jobs);
        Result<TuneResult> tuned = log.time(
            [&] { return runTune(session, w, req.config, options); });
        reports.push_back(
            tuned.ok() ? log.time([&] {
                return tuneResultToJson(tuned.value(), req.kernel,
                                        options) +
                       "\n";
            })
                       : tuned.status().toString());
    }
    r.tracedMs = msSince(start);
    r.coveredShare = log.coveredMs() / r.tracedMs;
    for (std::size_t i = 0; i < items.size(); ++i)
        checks.check(reports[i] == outputs[i],
                     msg(items[i].request.kernel,
                         ": step-by-step tune report differs from "
                         "handle()"));
    return r;
}

/**
 * serve_warm's engine side replayed in process: parse, handle and
 * encode each request on a warmed EngineSession, untraced and then
 * traced. The daemon's transport is the ladder's service probe.
 */
Replay
replayServeWarm(const Options &o, Checks &checks)
{
    const ServeKeys keys(o);
    EngineOptions engine_options;
    engine_options.jobs = o.jobs;
    EngineSession engine(engine_options);
    for (const std::string &line : keys.warmupLines()) {
        const Item item = makeItem(line);
        checks.check(engine.handle(item.request).ok(),
                     msg("warm-up ", item.request.kernel, " failed"));
    }
    const std::vector<Item> items = serveItems(o, keys, 4000);

    auto serve = [&](const Item &item, std::uint64_t seq) {
        Result<Request> req = requestFromJson(item.line);
        const Response resp = engine.handle(req.value());
        return responseToJsonLine(resp, req.value().id, seq, true);
    };

    // Each loop takes ~0.1 s, so alternate three of each and keep the
    // medians; the first loop would otherwise pay every first touch.
    Replay r;
    const auto [hits0, misses0] = cacheLookups(engine.session().cache);
    std::vector<double> untraced_ms, traced_ms;
    std::vector<std::string> untraced, traced;
    for (int rep = 0; rep < 3; ++rep) {
        untraced.clear();
        auto start = Clock::now();
        for (std::size_t i = 0; i < items.size(); ++i)
            untraced.push_back(serve(items[i], i + 1));
        untraced_ms.push_back(msSince(start));

        SpanLog log;
        traced.clear();
        start = Clock::now();
        for (std::size_t i = 0; i < items.size(); ++i) {
            Result<Request> req =
                log.time([&] { return requestFromJson(items[i].line); });
            const Response resp =
                log.time([&] { return engine.handle(req.value()); });
            traced.push_back(log.time([&] {
                return responseToJsonLine(resp, req.value().id, i + 1,
                                          true);
            }));
        }
        traced_ms.push_back(msSince(start));
        r.coveredShare = log.coveredMs() / traced_ms.back();
    }
    r.untracedMs = median(untraced_ms);
    r.tracedMs = median(traced_ms);
    const auto [hits, misses] = cacheLookups(engine.session().cache);
    r.cacheHitRatio = hitRatio(hits - hits0, misses - misses0);

    // Lines differ only in wall_ms; compare what the client keeps.
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::string_view a, b;
        const std::string id = items[i].request.id;
        checks.check(servedOk(untraced[i], id, i + 1, a) &&
                         servedOk(traced[i], id, i + 1, b) && a == b,
                     msg("request ", id, ": traced response differs"));
    }
    return r;
}

/** Time @p fn once, in milliseconds. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    const auto start = Clock::now();
    fn();
    return msSince(start);
}

/** Mean microseconds per call of @p fn over @p reps calls. */
template <typename Fn>
double
perCallUs(std::size_t reps, Fn &&fn)
{
    return timeMs([&] {
               for (std::size_t i = 0; i < reps; ++i)
                   fn();
           }) *
           1e3 / reps;
}

bool
sameCollectorResult(const CollectorResult &a, const CollectorResult &b)
{
    if (a.pcLatency.size() != b.pcLatency.size() ||
        !sameBits(a.avgMissLatency, b.avgMissLatency) ||
        !sameBits(a.l1HitRate, b.l1HitRate) ||
        !sameBits(a.l2HitRate, b.l2HitRate))
        return false;
    for (std::size_t i = 0; i < a.pcLatency.size(); ++i) {
        if (!sameBits(a.pcLatency[i], b.pcLatency[i]))
            return false;
    }
    return true;
}

/**
 * The layer ladder: time each layer's public entry point on the first
 * kLadderItems inputs of the workload, one call at a time.
 */
void
layerLadder(const Options &o, const std::vector<Item> &all, Checks &checks,
            Report &report)
{
    const std::vector<Item> items(
        all.begin(), all.begin() + std::min(kLadderItems, all.size()));
    std::vector<double> generate, collect, collect_j1, mrc_profile,
        mrc_derive, profile, evaluate, naive, markov, oracle, parse,
        handle, encode, bytes;
    double warp_kinsts = 0.0, trace_mb = 0.0, l1 = 0.0, l2 = 0.0;
    double cycles = 0.0, oracle_s = 0.0, err = 0.0, tune_evals = 0.0;
    volatile double sink = 0.0;

    EngineOptions engine_options;
    engine_options.jobs = o.jobs;
    EngineSession engine(engine_options);
    std::vector<std::string> model_lines;

    for (const Item &item : items) {
        const Request &req = item.request;
        const HardwareConfig &cfg = req.config;
        KernelTrace trace;
        generate.push_back(
            timeMs([&] { trace = item.workload->generate(cfg); }));
        warp_kinsts += trace.totalInsts() / 1e3;
        trace_mb += trace.memoryFootprint() / (1024.0 * 1024.0);

        std::shared_ptr<const CollectorResult> collected;
        collect.push_back(timeMs([&] {
            collected = std::make_shared<const CollectorResult>(
                collectInputsParallel(trace, cfg, o.jobs));
        }));
        CollectorResult serial;
        collect_j1.push_back(
            timeMs([&] { serial = collectInputs(trace, cfg); }));
        checks.check(sameCollectorResult(*collected, serial),
                     msg(req.kernel, ": parallel collector differs from ",
                         "the serial engine"));
        l1 += collected->l1HitRate;
        l2 += collected->l2HitRate;

        MrcProfile mrc;
        mrc_profile.push_back(
            timeMs([&] { mrc = collectMrcProfile(trace, cfg); }));
        for (std::uint32_t kb : {16u, 64u}) {
            HardwareConfig geometry = cfg;
            geometry.l1SizeBytes = kb * 1024;
            mrc_derive.push_back(perCallUs(1, [&] {
                sink = sink + deriveCollectorResult(mrc, trace, geometry)
                                  .l1HitRate;
            }));
        }

        std::unique_ptr<const GpuMechProfiler> profiler;
        profile.push_back(timeMs([&] {
            profiler = std::make_unique<const GpuMechProfiler>(
                trace, cfg, RepSelection::Clustering, 2, 1, collected);
        }));
        const GpuMechResult model = profiler->evaluateAt(
            cfg, req.policy, req.level, req.modelSfu);
        for (std::uint32_t mshrs : kMshrLadder) {
            for (double bw : kBwLadder) {
                HardwareConfig point = cfg;
                point.numMshrs = mshrs;
                point.dramBandwidthGBs = bw;
                evaluate.push_back(perCallUs(1, [&] {
                    sink = sink +
                           profiler->evaluateAt(point, req.policy).cpi;
                }));
            }
        }
        const IntervalProfile &rep = profiler->repProfile();
        naive.push_back(perCallUs(1000, [&] {
            sink = sink + naiveInterval(rep, cfg.warpsPerCore, cfg).ipc;
        }));
        markov.push_back(perCallUs(1000, [&] {
            sink = sink + markovChain(rep, cfg.warpsPerCore, cfg).ipc;
        }));

        TimingStats stats;
        oracle.push_back(timeMs(
            [&] { stats = GpuTiming(trace, cfg, req.policy).run(); }));
        cycles += static_cast<double>(stats.totalCycles);
        oracle_s += oracle.back() / 1e3;
        err += relativeError(model.ipc, 1.0 / stats.cpi());

        // The search a `tune` request runs on this kernel.
        {
            const Item tune = makeItem(
                msg("{\"cmd\":\"tune\",\"kernel\":\"", req.kernel,
                    "\",\"seed\":", kTuneSeed, "}"));
            EvalSession session;
            session.jobs = o.jobs;
            TuneOptions options = tune.request.tune;
            options.jobs = o.jobs;
            Result<TuneResult> tuned =
                runTune(session, *item.workload, cfg, options);
            checks.check(tuned.ok(), msg(req.kernel, ": tune failed"));
            if (tuned.ok())
                tune_evals += tuned.value().evaluations;
        }

        // The service layer on this input's `model` request.
        const std::string line = withId(
            modelLineBody(req.kernel, cfg.numMshrs, cfg.dramBandwidthGBs,
                          req.policy),
            msg("l", model_lines.size()));
        model_lines.push_back(line);
        parse.push_back(perCallUs(200, [&] {
            sink = sink + requestFromJson(line).value().config.numMshrs;
        }));
        const Request parsed = requestFromJson(line).value();
        Response resp = engine.handle(parsed);
        checks.check(resp.ok(), msg(req.kernel, ": model request failed"));
        handle.push_back(
            perCallUs(50, [&] { resp = engine.handle(parsed); }));
        std::string encoded;
        encode.push_back(perCallUs(200, [&] {
            encoded = responseToJsonLine(resp, parsed.id, 1, true);
        }));
        bytes.push_back(static_cast<double>(encoded.size()));
    }

    // Thread-pool scaling: the same model-only batch at J and 1 threads.
    const std::vector<Workload> batch = workloadCopies(items, items.size());
    const HardwareConfig base = HardwareConfig::baseline();
    std::vector<KernelPrediction> serial_preds, pooled_preds;
    const double serial_ms = timeMs(
        [&] { serial_preds = predictSuite(batch, base, {}, 1, nullptr); });
    const double pooled_ms = timeMs([&] {
        pooled_preds = predictSuite(batch, base, {}, o.jobs, nullptr);
    });
    for (std::size_t i = 0; i < batch.size(); ++i)
        checks.check(serial_preds[i].ok() && pooled_preds[i].ok() &&
                         sameBits(serial_preds[i].result.cpi,
                                  pooled_preds[i].result.cpi),
                     msg(batch[i].name, ": predictSuite differs at ",
                         o.jobs, " threads"));

    // Transport: the daemon round trip beyond parse + handle + encode.
    std::vector<double> round_trip;
    {
        Daemon daemon(o.serveBin, o.socket, o.jobs);
        Client client(daemon.socket());
        std::uint64_t seq = 0;
        std::vector<std::string> first;
        for (int rep = 0; rep < 51; ++rep) {
            for (std::size_t i = 0; i < model_lines.size(); ++i) {
                const std::string id = msg("l", i);
                const auto t = Clock::now();
                const std::string resp = client.roundTrip(model_lines[i]);
                const double us = msSince(t) * 1e3;
                std::string_view output;
                const bool ok = servedOk(resp, id, ++seq, output);
                checks.check(ok && (rep == 0 || first[i] == output),
                             msg("transport probe ", id, ": ", resp));
                if (rep == 0)
                    first.emplace_back(output);
                else
                    round_trip.push_back(us);
            }
        }
        checks.check(daemon.stop(), "gpumech_serve did not drain cleanly");
    }
    const double n = static_cast<double>(items.size());

    report.metric("workloads.generate_ms", median(generate), "ms");
    report.metric("trace.warp_kinsts", warp_kinsts, "count");
    report.metric("trace.mb", trace_mb, "MB");
    report.metric("collector.collect_ms", median(collect), "ms");
    report.metric("collector.collect_j1_ms", median(collect_j1), "ms");
    report.metric("collector.mrc_profile_ms", median(mrc_profile), "ms");
    report.metric("collector.mrc_derive_us", median(mrc_derive), "us");
    report.metric("mem.l1_hit_rate", l1 / n, "ratio");
    report.metric("mem.l2_hit_rate", l2 / n, "ratio");
    report.metric("core.profile_ms", median(profile), "ms");
    report.metric("core.evaluate_us", median(evaluate), "us");
    report.metric("core.cpi_err_pct", 100.0 * err / n, "%");
    report.metric("baselines.naive_us", median(naive), "us");
    report.metric("baselines.markov_us", median(markov), "us");
    report.metric("timing.oracle_ms", median(oracle), "ms");
    report.metric("timing.sim_mcycles_per_s", cycles / oracle_s / 1e6,
                  "Mcycles/s");
    report.metric("timing.cycles", cycles, "count");
    report.metric("harness.tune_evals", tune_evals, "count");
    report.metric("common.pool_speedup", serial_ms / pooled_ms, "x");
    report.metric("service.parse_us", median(parse), "us");
    report.metric("service.handle_us", median(handle), "us");
    report.metric("service.encode_us", median(encode), "us");
    report.metric("service.response_bytes", median(bytes), "bytes");
    report.metric("service.transport_us",
                  median(round_trip) - median(parse) - median(handle) -
                      median(encode),
                  "us");
    report.info.emplace_back("ladder_items", n);
}

void
runTraced(const Options &o, const std::vector<Item> &items, Checks &checks,
          Report &report)
{
    announceReady();
    Replay r;
    if (o.workload == "model_cold")
        r = replayModelCold(o, items, checks);
    else if (o.workload == "validate")
        r = replayValidate(o, items, checks);
    else if (o.workload == "explore")
        r = replayExplore(o, items, checks);
    else
        r = replayServeWarm(o, checks);
    layerLadder(o, items, checks, report);
    report.metric("harness.cache_hit_ratio", r.cacheHitRatio, "ratio");
    report.metric("unattributed_pct",
                  100.0 * (1.0 - r.coveredShare), "%");
    report.metric("trace_overhead_pct",
                  100.0 * (r.tracedMs / r.untracedMs - 1.0), "%");
    report.info.emplace_back("untraced_ms", r.untracedMs);
    report.info.emplace_back("traced_ms", r.tracedMs);
}

// ---------------------------------------------------------------------

void
emit(const Options &o, const Checks &checks, const Report &report)
{
    JsonWriter json;
    json.field("workload", o.workload);
    json.field("mode", o.trace ? "trace" : "e2e");
    json.field("correct", checks.failed == 0);
    json.field("attempted", checks.attempted);
    json.field("failed", checks.failed);
    json.beginArray("failures");
    for (const std::string &f : checks.failures)
        json.element(f);
    json.endArray();
    json.beginObject("metrics");
    for (const Report::Metric &m : report.metrics) {
        json.beginObject(m.name);
        json.field("value", m.value);
        json.field("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.beginObject("info");
    json.field("seed", o.seed);
    json.field("jobs", static_cast<std::uint64_t>(o.jobs));
    json.field("build_type", GPUMECH_BENCH_BUILD_TYPE);
    for (const auto &[name, value] : report.info)
        json.field(name, value);
    for (const auto &[name, value] : report.infoText)
        json.field(name, value);
    json.endObject();
    std::cout << json.finish() << std::endl;
}

Result<Options>
parseOptions(const ArgParser &args)
{
    Options o;
    o.workload = args.get("workload");
    if (o.workload != "model_cold" && o.workload != "validate" &&
        o.workload != "explore" && o.workload != "serve_warm")
        return Status(StatusCode::InvalidArgument,
                      msg("unknown --workload '", o.workload, "'"));
    std::uint32_t jobs = 1, passes = 2;
    GPUMECH_ASSIGN_OR_RETURN(jobs, args.getPositiveUint("jobs", 1));
    GPUMECH_ASSIGN_OR_RETURN(passes, args.getPositiveUint("min-passes", 2));
    GPUMECH_ASSIGN_OR_RETURN(o.seconds, args.getDouble("seconds", 20.0));
    if (o.seconds <= 0.0)
        return Status(StatusCode::InvalidArgument,
                      "--seconds must be positive");
    o.seed = args.getUint("seed", 1);
    o.jobs = jobs;
    o.minPasses = passes;
    o.maxKernels = args.getUint("max-kernels", 0);
    o.trace = args.has("trace");
    o.setupOnly = args.has("setup-only");
    o.serveBin = args.get("serve-bin");
    o.socket = args.get("socket");
    if ((o.trace || o.workload == "serve_warm") &&
        (o.serveBin.empty() || o.socket.empty()))
        return Status(StatusCode::InvalidArgument,
                      "--serve-bin and --socket are required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Result<Options> parsed = parseOptions(ArgParser(argc, argv));
    if (!parsed.ok()) {
        std::cerr << "error: " << parsed.status().toString() << "\n";
        return 2;
    }
    const Options o = parsed.value();
    try {
        setDefaultJobs(o.jobs);
        globalPool();

        Checks checks;
        Report report;
        std::vector<Item> items;
        if (o.workload == "model_cold")
            items = modelColdItems(o);
        else if (o.workload == "validate")
            items = validateItems(o);
        else if (o.workload == "explore")
            items = exploreItems(o);
        else
            items = serveItems(o, ServeKeys(o), kLadderItems);

        if (o.setupOnly) {
            if (o.workload == "serve_warm") {
                WarmDaemon w = startWarmDaemon(o, ServeKeys(o), checks);
                announceReady();
                w.clients.clear();
                checks.check(w.daemon->stop(), "daemon did not drain");
            } else {
                announceReady();
            }
            return checks.failed == 0 ? 0 : 1;
        }

        if (o.trace) {
            runTraced(o, items, checks, report);
        } else {
            Measured m;
            if (o.workload == "model_cold")
                m = runEngineWorkload(o, items, true, checks, report);
            else if (o.workload == "validate")
                m = runValidate(o, items, checks, report);
            else if (o.workload == "explore")
                m = runEngineWorkload(o, items, false, checks, report);
            else
                m = runServeWarm(o, checks, report);
            report.metric("throughput", m.throughput, "items/s");
            report.metric("latency_p50_ms", m.p50Ms, "ms");
            report.metric("latency_tail_ms", m.tailMs, "ms");
            report.metric("peak_rss_mb", m.peakRssMb, "MB");
            report.info.emplace_back("passes", m.passes);
            report.info.emplace_back("wall_s", m.wallS);
        }
        emit(o, checks, report);
        return checks.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
