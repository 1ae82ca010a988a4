/**
 * @file
 * Status / Result<T> error layer.
 *
 * The evaluation engine's north star is batch service over many
 * kernels x configurations, where one malformed input must not abort
 * the whole run. User-error surfaces (trace parsing, configuration
 * validation, workload lookup, the input cache) therefore *return* a
 * Status instead of calling fatal(); fatal() remains only as a thin
 * wrapper at the CLI boundary (see Status::orDie).
 *
 * Policy (see DESIGN.md section 10):
 *  - Status / Result<T>: expected, recoverable user errors.
 *  - StatusException: the same Status carried across layers that
 *    cannot change signature cheaply (pipeline internals, cooperative
 *    cancellation); contained at the per-kernel harness boundary.
 *  - panic(): internal invariant violations only. Never contained.
 */

#ifndef GPUMECH_COMMON_STATUS_HH
#define GPUMECH_COMMON_STATUS_HH

#include <exception>
#include <optional>
#include <string>
#include <utility>

namespace gpumech
{

/**
 * Error taxonomy. Codes are deliberately fine-grained on the trace
 * parsing side so tests (and batch-service clients) can distinguish
 * malformed-input classes without string matching.
 */
enum class StatusCode
{
    Ok = 0,
    InvalidArgument,  //!< out-of-range config value, bad CLI option
    NotFound,         //!< unknown workload / suite / opcode
    ParseError,       //!< malformed token where a keyword was expected
    TruncatedInput,   //!< input ended mid-record
    Overflow,         //!< numeric field exceeds its type or a sane cap
    OutOfRange,       //!< value outside the valid domain (pc, counts)
    DuplicateHeader,  //!< repeated 'kernel' header / section in a trace
    FailedValidation, //!< structurally parsed but semantically invalid
    VersionMismatch,  //!< binary trace from a foreign format version,
                      //!< endianness, or trace-layout generation
    ChecksumMismatch, //!< binary trace section bytes fail their
                      //!< recorded checksum (on-disk corruption)
    DeadlineExceeded, //!< per-kernel watchdog fired
    FaultInjected,    //!< deterministic fault-injection hook fired
    ResourceExhausted,//!< admission control shed the request
                      //!< (serve queue full)
    Internal,         //!< escaped exception mapped at a containment
                      //!< boundary
};

/** Stable lower-case name of a code ("parse_error", "ok", ...). */
std::string toString(StatusCode code);

/** An error code plus message and outermost-first context chain. */
class Status
{
  public:
    /** Default: Ok. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : statusCode(code), text(std::move(message))
    {}

    bool ok() const { return statusCode == StatusCode::Ok; }
    StatusCode code() const { return statusCode; }
    const std::string &message() const { return text; }

    /**
     * Return a copy with @p context prepended ("context: message").
     * No-op on Ok so propagation macros can annotate unconditionally.
     */
    Status withContext(const std::string &context) const;

    /** "code: message", or "ok". */
    std::string toString() const;

    /** CLI-boundary bridge: fatal(toString()) when not ok. */
    void orDie() const;

  private:
    StatusCode statusCode = StatusCode::Ok;
    std::string text;
};

/**
 * A T or the Status explaining its absence. Success is implicit when
 * constructed from a value; constructing from an Ok status panics
 * (an Ok Result must carry a value).
 */
template <typename T>
class Result
{
  public:
    Result(T value) : stored(std::move(value)) {}

    Result(Status error) : failure(std::move(error))
    {
        // A Result built from a status must describe a failure.
        if (failure.ok())
            failure = Status(StatusCode::Internal,
                             "Result constructed from Ok status");
    }

    bool ok() const { return stored.has_value(); }

    /** Ok status when a value is present, else the error. */
    const Status &status() const { return failure; }

    const T &value() const & { return *stored; }
    T &value() & { return *stored; }
    T &&value() && { return *std::move(stored); }

    /** Value, or fatal(status) at the CLI boundary. */
    T &&valueOrDie() &&
    {
        failure.orDie();
        return *std::move(stored);
    }

  private:
    Status failure;
    std::optional<T> stored;
};

/**
 * Exception carrier for a Status crossing layers whose signatures
 * stay exception-based (cooperative cancellation checkpoints, thread
 * pool task bodies, cache compute functions). Containment boundaries
 * (evaluateSuite / predictSuite) catch it and record the carried
 * Status on the failed kernel.
 */
class StatusException : public std::exception
{
  public:
    explicit StatusException(Status s)
        : carried(std::move(s)), rendered(carried.toString())
    {}

    const Status &status() const { return carried; }
    const char *what() const noexcept override
    {
        return rendered.c_str();
    }

  private:
    Status carried;
    std::string rendered;
};

/** Propagate a non-Ok Status out of the calling function. */
#define GPUMECH_TRY(expr)                                              \
    do {                                                               \
        ::gpumech::Status gpumech_try_status = (expr);                 \
        if (!gpumech_try_status.ok())                                  \
            return gpumech_try_status;                                 \
    } while (0)

#define GPUMECH_STATUS_CONCAT_INNER(a, b) a##b
#define GPUMECH_STATUS_CONCAT(a, b) GPUMECH_STATUS_CONCAT_INNER(a, b)

/**
 * Evaluate a Result<T> expression; on error return its Status, else
 * move the value into @p lhs (a declaration or assignable lvalue).
 */
#define GPUMECH_ASSIGN_OR_RETURN(lhs, rexpr)                           \
    GPUMECH_ASSIGN_OR_RETURN_IMPL(                                     \
        GPUMECH_STATUS_CONCAT(gpumech_result_, __LINE__), lhs, rexpr)

#define GPUMECH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr)                 \
    auto tmp = (rexpr);                                                \
    if (!tmp.ok())                                                     \
        return tmp.status();                                           \
    lhs = std::move(tmp).value()

} // namespace gpumech

#endif // GPUMECH_COMMON_STATUS_HH
