/**
 * @file
 * Hardened POSIX fd line I/O for the connection supervisor's readers
 * and writers, in both daemon modes: Unix-socket clients and the
 * stdin/stdout fd pair.
 *
 * Writes loop over partial writes and EINTR, use MSG_NOSIGNAL on
 * sockets (no SIGPIPE from a vanished peer), and can bound their
 * total wall time with a poll()-based deadline so one slow reader
 * cannot wedge a writer thread forever. Reads enforce a maximum line
 * length (a garbage client cannot balloon the buffer), an optional
 * idle timeout, and check a caller-supplied stop flag between polls
 * so a drain request interrupts a parked reader within one tick.
 */

#ifndef GPUMECH_SERVICE_NET_IO_HH
#define GPUMECH_SERVICE_NET_IO_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace gpumech
{

/** Outcome of a timed fd write. */
enum class WriteResult
{
    Ok,      //!< everything written
    Timeout, //!< deadline expired with bytes still pending
    Closed,  //!< peer gone (EPIPE/ECONNRESET) or unrecoverable error
};

/**
 * Write all @p size bytes of @p data to @p fd, looping over partial
 * writes, EINTR, and EAGAIN. @p timeout_ms bounds the total wall time
 * (0 = block until done or the peer closes). @p is_socket selects
 * send(MSG_NOSIGNAL) over write() so a dead socket peer yields EPIPE
 * instead of a process-killing SIGPIPE; pipe/tty writers should
 * additionally ignore SIGPIPE process-wide (gpumech_serve does).
 */
WriteResult writeAllFd(int fd, const char *data, std::size_t size,
                       std::uint64_t timeout_ms, bool is_socket);

/** Outcome of one FdLineReader::readLine call. */
enum class ReadResult
{
    Line,      //!< @p line holds the next input line (no terminator)
    Eof,       //!< orderly end of input (a final partial line, if
               //!< any, was delivered as its own Line first)
    Oversized, //!< line exceeded the byte cap; intake must stop
    Idle,      //!< no input within the idle timeout
    Stopped,   //!< the stop flag was raised
    Error,     //!< unrecoverable read error
};

/**
 * Buffered line reader over a POSIX fd with a per-line byte cap, an
 * optional idle timeout, and cooperative stopping. The fd may be
 * blocking or non-blocking; polling happens in short ticks so a
 * raised stop flag is noticed promptly either way.
 */
class FdLineReader
{
  public:
    /**
     * @param fd stream to read (not owned)
     * @param max_line_bytes cap on one line's length, terminator
     *        excluded (0 = unlimited)
     * @param idle_timeout_ms return Idle after this long without
     *        input (0 = wait forever)
     */
    FdLineReader(int fd, std::size_t max_line_bytes,
                 std::uint64_t idle_timeout_ms);

    /** Next line into @p line; see ReadResult for the outcomes. */
    ReadResult readLine(std::string &line,
                        const std::atomic<bool> &stop);

    /**
     * Complete ('\n'-terminated) lines still sitting unconsumed in
     * the buffer — requests that will never be answered once intake
     * stops (drain/disconnect reporting).
     */
    std::size_t bufferedLines() const;

  private:
    int fd;
    std::size_t maxLineBytes;
    std::uint64_t idleTimeoutMs;
    std::string buffer;
    bool sawEof = false;
};

} // namespace gpumech

#endif // GPUMECH_SERVICE_NET_IO_HH
