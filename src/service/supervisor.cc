#include "service/supervisor.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "service/net_io.hh"

namespace gpumech
{

namespace
{

std::atomic<bool> drainRequested{false};

/** Accept-loop poll / reap granularity. */
constexpr int kAcceptTickMs = 200;

/** Poll period while waiting on writers or on an adopted fd pair. */
constexpr auto kWaitTick = std::chrono::milliseconds(10);

/** Ceiling on the retry_after_ms back-off hint. */
constexpr std::uint64_t kMaxRetryHintMs = 30000;

/**
 * Drain-time bound on flushing writers whose own write timeout is
 * disabled (writeTimeoutMs 0 = wait forever): past this grace the
 * stalled peer's fd is shut down so the daemon can exit.
 */
constexpr std::uint64_t kDrainWriterGraceMs = 5000;

/** One client connection: its fds, its two threads, writer state. */
struct Conn
{
    int fd = -1;    //!< read side; a socket client's only fd
    int outFd = -1; //!< write side (fd itself for a socket client)

    /**
     * An accepted socket client: the supervisor owns and closes fd,
     * writes with send() and wakes the reader with shutdown(). An
     * adopted fd pair stays the caller's and gets none of these.
     */
    bool socket = true;

    std::thread reader;
    std::thread writer;

    std::mutex mu; //!< outbox, issued, intakeDone, dead
    std::condition_variable cv;

    /** Rendered response lines keyed by seq (reorder buffer). */
    std::map<std::uint64_t, std::string> outbox;
    std::uint64_t nextWrite = 1; //!< seq the writer emits next
    std::uint64_t issued = 0;    //!< seqs assigned by the reader
    bool intakeDone = false;     //!< reader finished (EOF/evicted)
    bool dead = false;           //!< peer gone; stop delivering

    /** Admitted-but-unanswered requests (the fairness quota). */
    std::atomic<std::size_t> inflight{0};

    std::atomic<bool> readerExited{false};
    std::atomic<bool> writerExited{false};
};

/** One admitted request waiting for a dispatcher. */
struct WorkItem
{
    std::shared_ptr<Conn> conn;
    std::uint64_t seq = 0;
    Request request;
};

class Supervisor
{
  public:
    Supervisor(EngineSession &engine, const SupervisorOptions &options)
        : engine(engine), options(options)
    {
        this->options.maxQueue = std::max<std::size_t>(
            this->options.maxQueue, 1);
        this->options.dispatchers =
            std::max(this->options.dispatchers, 1u);
        this->options.maxInflight = std::max<std::size_t>(
            this->options.maxInflight, 1);
        this->options.maxLineBytes = std::max<std::size_t>(
            this->options.maxLineBytes, 1);
    }

    Result<SupervisorSummary> serveSocket(const std::string &socket_path);
    SupervisorSummary serveFds(int in_fd, int out_fd);

  private:
    void readerMain(std::shared_ptr<Conn> conn);
    void writerMain(std::shared_ptr<Conn> conn);
    void dispatcherMain();

    /** Start serving a connection on its own reader and writer. */
    void adopt(int in_fd, int out_fd, bool socket);

    /** Join and forget finished connections (all, if @p force). */
    void reap(bool force);

    /**
     * Full teardown, shared by the normal drain and the fatal
     * accept-loop exits (returning with joinable reader/writer/
     * dispatcher threads alive would std::terminate): stop intake
     * everywhere, answer everything admitted, flush every writer
     * within a bounded grace, and join everything.
     */
    void shutdownAll();

    Response evaluate(const Request &request);
    Response healthResponse();
    std::uint64_t retryHintMs();

    /** Hand a rendered response line to @p conn's writer. */
    void deliver(const std::shared_ptr<Conn> &conn, std::uint64_t seq,
                 std::string line, bool admitted);

    void bump(std::uint64_t SupervisorSummary::*field,
              std::uint64_t by = 1)
    {
        std::lock_guard<std::mutex> lock(statsMu);
        totals.*field += by;
    }

    EngineSession &engine;
    SupervisorOptions options;

    std::mutex queueMu;
    std::condition_variable queueCv;
    std::deque<WorkItem> queue;
    bool stopDispatch = false;

    /**
     * Metrics-snapshot exclusivity: normal requests evaluate under a
     * shared lock, wantMetrics requests under an exclusive one so the
     * registry delta is attributable.
     */
    std::shared_mutex engineMu;

    std::mutex statsMu; //!< totals + ewmaWallMs
    SupervisorSummary totals;
    double ewmaWallMs = 0.0;

    std::atomic<bool> connStop{false};
    std::atomic<std::size_t> liveConns{0};

    /** Touched only by the serving thread (the entry's caller). */
    std::vector<std::thread> dispatchers;
    std::vector<std::shared_ptr<Conn>> conns;
};

std::uint64_t
Supervisor::retryHintMs()
{
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lock(queueMu);
        depth = queue.size();
    }
    double ewma;
    {
        std::lock_guard<std::mutex> lock(statsMu);
        ewma = ewmaWallMs;
    }
    double per_slot = std::max(ewma, 1.0);
    double hint = (static_cast<double>(depth) + 1.0) * per_slot /
                  static_cast<double>(options.dispatchers);
    return std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(hint), 1, kMaxRetryHintMs);
}

void
Supervisor::deliver(const std::shared_ptr<Conn> &conn,
                    std::uint64_t seq, std::string line, bool admitted)
{
    bool dropped = false;
    {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->dead)
            dropped = true;
        else
            conn->outbox.emplace(seq, std::move(line));
    }
    if (admitted)
        conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    conn->cv.notify_all();
    if (dropped)
        bump(&SupervisorSummary::dropped);
}

void
Supervisor::readerMain(std::shared_ptr<Conn> conn)
{
    FdLineReader lines(conn->fd, options.maxLineBytes,
                       options.idleTimeoutMs);
    std::string line;
    for (;;) {
        ReadResult r = lines.readLine(line, connStop);
        if (r != ReadResult::Line) {
            // Intake ends. Evictions get a best-effort final error
            // response explaining why (the writer flushes it along
            // with everything already admitted).
            std::uint64_t drop = lines.bufferedLines();
            if (r == ReadResult::Oversized) {
                bump(&SupervisorSummary::oversized);
                Response resp;
                resp.status = Status(
                    StatusCode::InvalidArgument,
                    msg("input line exceeds ", options.maxLineBytes,
                        "-byte cap; closing connection"));
                resp.exitCode = 1;
                std::uint64_t seq;
                {
                    std::lock_guard<std::mutex> lock(conn->mu);
                    seq = ++conn->issued;
                }
                deliver(conn, seq,
                        responseToJsonLine(resp, "", seq,
                                           options.includeOutput) +
                            "\n",
                        false);
            } else if (r == ReadResult::Idle) {
                bump(&SupervisorSummary::idleDisconnects);
            }
            if (drop)
                bump(&SupervisorSummary::dropped, drop);
            break;
        }
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue; // blank keep-alive line
        bump(&SupervisorSummary::received);
        std::uint64_t seq;
        bool dead;
        {
            std::lock_guard<std::mutex> lock(conn->mu);
            seq = ++conn->issued;
            dead = conn->dead;
        }
        if (dead) {
            // A dead writer ends intake at the next line: no answer
            // can be delivered, and shutdown() wakes only a socket's
            // reader, not a pipe's.
            bump(&SupervisorSummary::dropped,
                 1 + lines.bufferedLines());
            break;
        }

        Result<Request> parsed = requestFromJson(line);
        if (!parsed.ok()) {
            bump(&SupervisorSummary::malformed);
            Response resp;
            resp.status = parsed.status();
            resp.exitCode = 1;
            deliver(conn, seq,
                    responseToJsonLine(resp, salvageRequestId(line),
                                       seq, options.includeOutput) +
                        "\n",
                    false);
            continue;
        }
        Request req = std::move(parsed).value();

        // Health is answered inline — never queued, never shed — so
        // it keeps working under overload and during drain. Its
        // payload IS the output, so it ignores --no-output.
        if (req.verb == Verb::Health) {
            deliver(conn, seq,
                    responseToJsonLine(healthResponse(), req.id, seq,
                                       /*include_output=*/true) +
                        "\n",
                    false);
            continue;
        }

        // Admission: the client's own in-flight quota first (reader
        // is the sole incrementer, so check-then-add cannot overrun),
        // then the shared queue bound.
        bool shed = false;
        if (conn->inflight.load(std::memory_order_relaxed) >=
            options.maxInflight) {
            shed = true;
        } else {
            std::lock_guard<std::mutex> lock(queueMu);
            if (queue.size() >= options.maxQueue) {
                shed = true;
            } else {
                conn->inflight.fetch_add(1,
                                         std::memory_order_relaxed);
                queue.push_back({conn, seq, std::move(req)});
            }
        }
        if (shed) {
            bump(&SupervisorSummary::shed);
            Response resp;
            resp.status =
                Status(StatusCode::ResourceExhausted,
                       msg("admission limit reached (max ",
                           options.maxInflight, " in flight, queue ",
                           options.maxQueue, "); request shed"));
            resp.exitCode = 1;
            resp.shed = true;
            resp.retryAfterMs = retryHintMs();
            deliver(conn, seq,
                    responseToJsonLine(resp, req.id, seq,
                                       options.includeOutput) +
                        "\n",
                    false);
        } else {
            queueCv.notify_one();
        }
    }
    {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->intakeDone = true;
    }
    conn->cv.notify_all();
    conn->readerExited.store(true);
}

void
Supervisor::writerMain(std::shared_ptr<Conn> conn)
{
    std::uint64_t undelivered = 0;
    std::unique_lock<std::mutex> lock(conn->mu);
    for (;;) {
        conn->cv.wait(lock, [&] {
            return conn->dead ||
                   conn->outbox.count(conn->nextWrite) != 0 ||
                   (conn->intakeDone && conn->outbox.empty() &&
                    conn->nextWrite > conn->issued);
        });
        if (conn->dead)
            break;
        if (conn->outbox.count(conn->nextWrite) == 0)
            break; // intake done, everything written
        std::string line = std::move(conn->outbox[conn->nextWrite]);
        conn->outbox.erase(conn->nextWrite);
        lock.unlock();
        WriteResult r =
            writeAllFd(conn->outFd, line.data(), line.size(),
                       options.writeTimeoutMs, conn->socket);
        lock.lock();
        if (r != WriteResult::Ok) {
            conn->dead = true;
            undelivered = 1; // the response in hand was lost too
            // Wake the reader promptly: its next poll sees HUP/EOF.
            if (conn->socket)
                ::shutdown(conn->fd, SHUT_RDWR);
            if (r == WriteResult::Timeout)
                bump(&SupervisorSummary::slowDisconnects);
            break;
        }
        ++conn->nextWrite;
    }
    // Anything still buffered will never reach the peer.
    undelivered += conn->outbox.size();
    conn->outbox.clear();
    conn->dead = true;
    lock.unlock();
    if (undelivered)
        bump(&SupervisorSummary::dropped, undelivered);
    conn->writerExited.store(true);
}

Response
Supervisor::healthResponse()
{
    SupervisorSummary now;
    {
        std::lock_guard<std::mutex> lock(statsMu);
        now = totals;
    }
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lock(queueMu);
        depth = queue.size();
    }
    JsonWriter json;
    json.field("healthy", true);
    json.field("draining", serveDraining());
    json.field("connections", static_cast<std::uint64_t>(
                                  liveConns.load()));
    json.field("queue_depth", static_cast<std::uint64_t>(depth));
    json.field("evaluated", now.evaluated);
    json.field("shed", now.shed);
    json.field("malformed", now.malformed);
    json.field("dropped", now.dropped);
    Response resp;
    resp.output = json.finish() + "\n";
    return resp;
}

Response
Supervisor::evaluate(const Request &request)
{
    if (request.wantMetrics) {
        std::unique_lock<std::shared_mutex> exclusive(engineMu);
        const bool with_metrics = Metrics::enabled();
        std::vector<MetricSnapshot> before;
        if (with_metrics)
            before = Metrics::snapshot();
        Response resp = engine.handle(request);
        if (with_metrics) {
            resp.metricsJson = metricsToJson(
                snapshotDelta(before, Metrics::snapshot()));
        }
        return resp;
    }
    std::shared_lock<std::shared_mutex> shared(engineMu);
    return engine.handle(request);
}

void
Supervisor::dispatcherMain()
{
    for (;;) {
        WorkItem item;
        {
            std::unique_lock<std::mutex> lock(queueMu);
            queueCv.wait(lock, [&] {
                return !queue.empty() || stopDispatch;
            });
            if (queue.empty())
                break; // stopDispatch and drained
            item = std::move(queue.front());
            queue.pop_front();
        }
        Response resp = evaluate(item.request);
        {
            std::lock_guard<std::mutex> lock(statsMu);
            ++totals.evaluated;
            if (!resp.ok())
                ++totals.failed;
            // EWMA of handling wall time feeds the retry hint.
            constexpr double alpha = 0.2;
            ewmaWallMs = ewmaWallMs == 0.0
                             ? resp.stats.wallMs
                             : alpha * resp.stats.wallMs +
                                   (1.0 - alpha) * ewmaWallMs;
        }
        // Stats answers ARE their output (as health's, answered by
        // the reader); --no-output must not strip them down to an
        // empty success line.
        const bool include_output =
            options.includeOutput || item.request.verb == Verb::Stats;
        deliver(item.conn, item.seq,
                responseToJsonLine(resp, item.request.id, item.seq,
                                   include_output) +
                    "\n",
                true);
    }
}

void
Supervisor::adopt(int in_fd, int out_fd, bool socket)
{
    auto conn = std::make_shared<Conn>();
    conn->fd = in_fd;
    conn->outFd = out_fd;
    conn->socket = socket;
    liveConns.fetch_add(1);
    bump(&SupervisorSummary::connections);
    conn->reader = std::thread([this, conn] { readerMain(conn); });
    conn->writer = std::thread([this, conn] { writerMain(conn); });
    conns.push_back(std::move(conn));
}

void
Supervisor::reap(bool force)
{
    for (auto it = conns.begin(); it != conns.end();) {
        Conn &c = **it;
        if (force || (c.readerExited.load() && c.writerExited.load())) {
            if (c.reader.joinable())
                c.reader.join();
            if (c.writer.joinable())
                c.writer.join();
            if (c.socket)
                ::close(c.fd);
            liveConns.fetch_sub(1);
            it = conns.erase(it);
        } else {
            ++it;
        }
    }
}

void
Supervisor::shutdownAll()
{
    connStop.store(true);
    for (auto &conn : conns)
        if (conn->reader.joinable())
            conn->reader.join();
    {
        std::lock_guard<std::mutex> lock(queueMu);
        stopDispatch = true;
    }
    queueCv.notify_all();
    for (auto &t : dispatchers)
        t.join();
    for (auto &conn : conns)
        conn->cv.notify_all();
    // Writers with writeTimeoutMs 0 can block forever on a peer that
    // never reads; past the grace, force a stalled socket shut so
    // writeAllFd fails and the writer exits (its undelivered lines
    // are counted as dropped on the way out).
    const std::uint64_t grace = options.writeTimeoutMs > 0
                                    ? options.writeTimeoutMs +
                                          kAcceptTickMs
                                    : kDrainWriterGraceMs;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(grace);
    auto writers_pending = [&] {
        for (const auto &conn : conns)
            if (!conn->writerExited.load())
                return true;
        return false;
    };
    while (writers_pending() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(kWaitTick);
    }
    for (auto &conn : conns) {
        if (conn->writerExited.load())
            continue;
        {
            std::lock_guard<std::mutex> lock(conn->mu);
            conn->dead = true;
        }
        if (conn->socket)
            ::shutdown(conn->fd, SHUT_RDWR);
        conn->cv.notify_all();
    }
    reap(true);
}

Result<SupervisorSummary>
Supervisor::serveSocket(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        return Status(StatusCode::InvalidArgument,
                      msg("socket path too long (",
                          socket_path.size(), " bytes, max ",
                          sizeof(addr.sun_path) - 1,
                          "): ", socket_path));
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);

    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        return Status(StatusCode::Internal,
                      msg("socket(): ", std::strerror(errno)));
    }
    ::unlink(socket_path.c_str()); // replace a stale socket file
    if (::bind(listen_fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        Status s(StatusCode::InvalidArgument,
                 msg("bind(", socket_path,
                     "): ", std::strerror(errno)));
        ::close(listen_fd);
        return s;
    }
    if (::listen(listen_fd, 64) != 0) {
        Status s(StatusCode::Internal,
                 msg("listen(", socket_path,
                     "): ", std::strerror(errno)));
        ::close(listen_fd);
        ::unlink(socket_path.c_str());
        return s;
    }
    ::fcntl(listen_fd, F_SETFL,
            ::fcntl(listen_fd, F_GETFL, 0) | O_NONBLOCK);

    for (unsigned i = 0; i < options.dispatchers; ++i)
        dispatchers.emplace_back([this] { dispatcherMain(); });

    auto stop = [&] {
        ::close(listen_fd);
        ::unlink(socket_path.c_str());
        shutdownAll();
    };

    int last_accept_errno = 0; // rate-limits exhaustion warnings

    while (!serveDraining()) {
        struct pollfd pfd = {listen_fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, kAcceptTickMs);
        reap(false);
        if (rc < 0) {
            if (errno == EINTR)
                continue; // drain flag re-checked above
            Status s(StatusCode::Internal,
                     msg("poll(): ", std::strerror(errno)));
            stop();
            return s;
        }
        if (rc == 0 || !(pfd.revents & POLLIN))
            continue;
        int client = ::accept(listen_fd, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK || errno == ECONNABORTED)
                continue; // transient; ECONNABORTED = peer bailed
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOBUFS || errno == ENOMEM) {
                // Resource exhaustion is load, not a server bug:
                // keep serving the clients we have and retry after a
                // tick (reap above frees fds as connections finish).
                if (errno != last_accept_errno) {
                    last_accept_errno = errno;
                    warn(msg("accept(): ", std::strerror(errno),
                             "; retrying"));
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kAcceptTickMs));
                continue;
            }
            Status s(StatusCode::Internal,
                     msg("accept(): ", std::strerror(errno)));
            stop();
            return s;
        }
        last_accept_errno = 0;
        ::fcntl(client, F_SETFL,
                ::fcntl(client, F_GETFL, 0) | O_NONBLOCK);
        adopt(client, client, /*socket=*/true);
    }

    stop();

    std::lock_guard<std::mutex> lock(statsMu);
    return totals;
}

SupervisorSummary
Supervisor::serveFds(int in_fd, int out_fd)
{
    for (unsigned i = 0; i < options.dispatchers; ++i)
        dispatchers.emplace_back([this] { dispatcherMain(); });

    // Checked before the reader exists, so a drain requested before
    // the start can never lose a race to a first read.
    if (!serveDraining())
        adopt(in_fd, out_fd, /*socket=*/false);
    while (!serveDraining() && !conns.empty()) {
        std::this_thread::sleep_for(kWaitTick);
        reap(false);
    }
    shutdownAll();

    std::lock_guard<std::mutex> lock(statsMu);
    return totals;
}

} // namespace

Result<SupervisorSummary>
serveSupervised(EngineSession &engine, const std::string &socket_path,
                const SupervisorOptions &options)
{
    Supervisor supervisor(engine, options);
    return supervisor.serveSocket(socket_path);
}

SupervisorSummary
serveFd(EngineSession &engine, int in_fd, int out_fd,
        const SupervisorOptions &options)
{
    Supervisor supervisor(engine, options);
    return supervisor.serveFds(in_fd, out_fd);
}

void
requestServeDrain()
{
    drainRequested.store(true, std::memory_order_relaxed);
}

bool
serveDraining()
{
    return drainRequested.load(std::memory_order_relaxed);
}

void
resetServeDrain()
{
    drainRequested.store(false, std::memory_order_relaxed);
}

} // namespace gpumech
