/**
 * @file
 * Connection supervisor: the gpumech_serve daemon's one serving path.
 *
 * serveSupervised() accepts many Unix-socket clients concurrently;
 * serveFd() adopts one connection made of a separate read and write
 * fd (the daemon's stdin/stdout mode). Either way every connection
 * shares one engine — and its warm cache — and runs the same
 * machinery:
 *
 *   accept loop   (socket mode) non-blocking listen fd polled in
 *                 short ticks; reaps finished connections and
 *                 notices a drain request within one tick
 *   per conn      a reader thread (hardened line intake: byte cap,
 *                 idle timeout, cooperative stop) and a writer thread
 *                 (responses written strictly in that client's seq
 *                 order via a reorder buffer, bounded write timeout)
 *   dispatchers   N threads popping a shared admission queue and
 *                 evaluating requests on the engine; metrics-snapshot
 *                 requests run exclusively
 *
 * Fairness and backpressure are per client: each connection has a
 * bounded in-flight quota, so one firehose client is shed with
 * ResourceExhausted (carrying a "retry_after_ms" back-off hint
 * derived from queue depth and recent service times) while others
 * keep being admitted. Misbehaving clients are isolated, never fatal:
 * an oversized line or an idle timeout disconnects that client; a
 * write timeout (slow reader) disconnects that client; everyone else
 * is untouched. The accept loop shrugs off client-induced errno too:
 * ECONNABORTED is skipped and fd exhaustion (EMFILE/ENFILE) retries
 * after a tick rather than shutting the daemon down.
 *
 * Draining (requestServeDrain(), typically SIGTERM): the supervisor
 * stops accepting, stops intake on every connection, finishes and
 * answers everything already admitted, counts buffered-but-unread
 * lines as dropped, flushes every writer within a bounded grace
 * (a stalled peer is cut off and its undelivered responses counted
 * as dropped, so drain terminates even with writeTimeoutMs 0), and
 * returns. Fatal listen-socket errors run the same teardown before
 * reporting the Status, so no thread is ever left running.
 */

#ifndef GPUMECH_SERVICE_SUPERVISOR_HH
#define GPUMECH_SERVICE_SUPERVISOR_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "service/engine_session.hh"

namespace gpumech
{

/** Serving knobs; each maps to one gpumech_serve flag. */
struct SupervisorOptions
{
    /** Shared admission queue bound before load shedding. Min 1. */
    std::size_t maxQueue = 64;

    /** Dispatcher threads evaluating admitted requests. Min 1. */
    unsigned dispatchers = 2;

    /**
     * Per-client bound on requests admitted but not yet answered;
     * beyond it the client is shed (fairness quota). Min 1.
     */
    std::size_t maxInflight = 8;

    /**
     * Per-response write deadline; a client that cannot absorb its
     * responses this long is disconnected. 0 = wait forever. Only a
     * non-blocking fd can time out: a blocking stdout just waits.
     */
    std::uint64_t writeTimeoutMs = 5000;

    /** Disconnect a client idle this long. 0 = never. */
    std::uint64_t idleTimeoutMs = 0;

    /** Per-line byte cap; an oversized line ends that client. Min 1. */
    std::size_t maxLineBytes = 1 << 20;

    /** Echo the rendered report in each response's "output" field. */
    bool includeOutput = true;
};

/** Totals of one supervised serving run. */
struct SupervisorSummary
{
    std::uint64_t connections = 0; //!< clients accepted
    std::uint64_t received = 0;    //!< request lines read
    std::uint64_t evaluated = 0;   //!< requests handled by the engine
    std::uint64_t failed = 0;      //!< evaluated with a non-ok status
    std::uint64_t shed = 0;        //!< rejected by admission control
    std::uint64_t malformed = 0;   //!< lines that failed to parse

    std::uint64_t slowDisconnects = 0; //!< write-timeout evictions
    std::uint64_t idleDisconnects = 0; //!< idle-timeout evictions
    std::uint64_t oversized = 0;       //!< byte-cap evictions

    /**
     * Lines a client had already sent that were never admitted
     * (buffered at drain, or trailing an eviction) plus admitted
     * responses that could not be delivered to a vanished client.
     */
    std::uint64_t dropped = 0;
};

/**
 * Serve connections on a Unix-domain stream socket at @p socket_path
 * (an existing file there is replaced), concurrently, until a drain
 * is requested. Returns the accumulated totals, or a Status when the
 * socket cannot be set up.
 */
Result<SupervisorSummary>
serveSupervised(EngineSession &engine, const std::string &socket_path,
                const SupervisorOptions &options = {});

/**
 * Serve one connection that reads @p in_fd and writes @p out_fd (the
 * daemon's stdin/stdout mode) under the same rules as a socket
 * client. Returns once the input reached EOF (or intake ended early)
 * and every admitted answer was written, or after a drain. The fds
 * stay the caller's: they are never closed, their O_NONBLOCK flag is
 * left as it is, and output goes through write(). A drain requested
 * before the call reads and writes nothing.
 */
SupervisorSummary serveFd(EngineSession &engine, int in_fd, int out_fd,
                          const SupervisorOptions &options = {});

/**
 * Ask the serving entry to drain and return (async-signal-safe; the
 * daemon's SIGTERM/SIGINT handler calls this). Intake stops at the
 * next read; admitted requests are still answered.
 */
void requestServeDrain();

/** True once a drain has been requested. */
bool serveDraining();

/** Re-arm serving after a drain (tests serve several times per process). */
void resetServeDrain();

} // namespace gpumech

#endif // GPUMECH_SERVICE_SUPERVISOR_HH
