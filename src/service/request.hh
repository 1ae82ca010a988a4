/**
 * @file
 * Typed request/response model shared by every front-end.
 *
 * The engine/front-end split (DESIGN.md section 13) factors the old
 * monolithic CLI into three pieces:
 *
 *   front-end   parses its native surface (argv, a JSON line) into a
 *               Request and renders the Response back out
 *   Request     one evaluation order: a verb, its target (kernel /
 *               suite / trace files), hardware-configuration
 *               overrides, scheduling/model options, a per-request
 *               deadline and fault plan, and a thread budget
 *   Response    the outcome: a Status, the CLI exit-code semantics
 *               (0 full success / 1 total failure / 2 partial), the
 *               rendered report text, and per-request work counters
 *
 * One verb table and one option table describe every request. The
 * argv and JSON parsers only read their own spelling of a row's value;
 * storing and checking it is shared, and `gpumech` prints its usage
 * from the same tables. Both parsers return Status instead of dying: a
 * malformed request is one error response, never a dead process (the
 * daemon) or an unclear crash (the CLI).
 */

#ifndef GPUMECH_SERVICE_REQUEST_HH
#define GPUMECH_SERVICE_REQUEST_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/config.hh"
#include "common/isolation.hh"
#include "common/status.hh"
#include "core/gpumech.hh"
#include "harness/experiment.hh"
#include "harness/tune.hh"

namespace gpumech
{

/** Every operation the evaluation service performs. */
enum class Verb
{
    List,       //!< list registered workloads
    Model,      //!< GPUMech prediction + CPI stack for one kernel
    Simulate,   //!< detailed timing simulation for one kernel
    Compare,    //!< all five models vs the oracle for one kernel
    Sweep,      //!< sweep one hardware parameter for one kernel
    Tune,       //!< guided design-space search for one kernel
    Stack,      //!< CPI stacks across warp counts for one kernel
    DumpTrace,  //!< write a kernel's trace to disk
    Pack,       //!< convert a trace file to binary .gmt
    Unpack,     //!< convert a binary trace to text
    ModelTrace, //!< model one or more on-disk trace files
    Suite,      //!< evaluate a whole suite with fault isolation
    Ping,       //!< serve-only liveness probe
    Stats,      //!< serve-only session/cache/metrics report
    Health,     //!< serve-only supervisor health snapshot
};

/** The verb's bit in OptionSpec::verbs. */
constexpr std::uint32_t
verbBit(Verb verb)
{
    return 1u << static_cast<unsigned>(verb);
}

/** What a verb's request names besides its options. */
enum class Target
{
    None,
    Kernel,          //!< one kernel
    Suite,           //!< one suite
    KernelAndOutput, //!< a kernel plus an output path
    InputAndOutput,  //!< an input path and an output path
    Paths,           //!< one or more paths
};

/** One row of the verb table. */
struct VerbSpec
{
    const char *name;     //!< CLI subcommand and JSON "cmd" value
    Verb verb;
    Target target;
    const char *synopsis; //!< the target in argv, e.g. "<kernel>"
    const char *help;     //!< one usage line
};

/** The verb table, one row per Verb in enum order. */
std::span<const VerbSpec> verbTable();

/** Stable verb name (the CLI subcommand / JSON "cmd" value). */
std::string toString(Verb verb);

/** Parse a verb name; NotFound on an unknown command. */
Result<Verb> verbFromString(const std::string &name);

/** One evaluation order, front-end agnostic. */
struct Request
{
    Verb verb = Verb::List;

    /** Client correlation id, echoed in the daemon's response. */
    std::string id;

    std::string kernel; //!< single-kernel verbs
    std::string suite;  //!< Suite

    /**
     * File arguments: ModelTrace inputs (one or more), or
     * [kernel-or-input, output] for DumpTrace / Pack / Unpack.
     */
    std::vector<std::string> paths;

    /** Fully-resolved, validated machine description. */
    HardwareConfig config = HardwareConfig::baseline();

    SchedulingPolicy policy = SchedulingPolicy::RoundRobin;
    ModelLevel level = ModelLevel::MT_MSHR_BAND;
    bool modelSfu = false;

    bool predict = false; //!< Suite: model-only fast path
    bool oracle = false;  //!< Sweep: add oracle columns
    bool verbose = false; //!< Suite: per-kernel progress on stderr
    bool json = false;    //!< Model/Simulate: JSON report
    bool varint = false;  //!< DumpTrace/Pack: varint line pool

    std::string sweepParam = "warps";   //!< Sweep axis
    std::vector<double> sweepValues;    //!< Sweep points

    /**
     * Sweep: how cells get collector inputs (--sweep-mode /
     * "sweep_mode"). Rerun replays the functional cache simulation per
     * cell; Mrc derives every cell from one shared reuse-distance
     * profile (fast path for the cache-geometry axes).
     */
    SweepMode sweepMode = SweepMode::Rerun;

    /** Sweep: SHARDS sampling rate in (0, 1] for SweepMode::Mrc. */
    double mrcRate = 1.0;

    /**
     * Tune (Verb::Tune): the search specification. The handler fills
     * policy/modelSfu/jobs from the request-level fields.
     */
    TuneOptions tune;

    /** Worker threads for fan-out; 0 = session default. */
    unsigned jobs = 0;

    /** Per-request cooperative deadline; 0 = session default. */
    std::uint64_t timeoutMs = 0;

    /** Deterministic fault plan (--inject / "inject"); may be null. */
    std::shared_ptr<FaultPlan> faultPlan;

    /**
     * Serve-only: attach a metrics-registry delta for this request.
     * Forces the request to run alone (snapshots are only safe with
     * no instrumented work in flight).
     */
    bool wantMetrics = false;
};

/** How an option's value is spelled and checked. */
enum class OptionKind
{
    Flag,       //!< argv: bare --name; JSON: true or false
    Count,      //!< integer from 1 to 4294967295
    Count0,     //!< integer from 0 to 4294967295
    Number,     //!< finite number
    Text,       //!< string
    Enum,       //!< one of the row's '|'-separated choices
    NumberList, //!< argv: a,b,c; JSON: array of numbers
    Paths,      //!< JSON: array of strings (argv: positionals)
    Dims,       //!< argv: d1,d2; JSON: names or {name, values}
    DimValues,  //!< argv: --<dim>-values a,b,c (JSON: inside dims)
    Weights,    //!< argv: dim=w,...; JSON: {dim: w}
};

struct OptionValue; //!< a value in a row's kind (request.cc)

/**
 * One row of the option table: a request option in both spellings. An
 * empty argv value, a JSON null or an empty list counts as not given.
 */
struct OptionSpec
{
    const char *flag;    //!< argv name after "--"; nullptr: JSON only
    const char *key;     //!< JSON key; nullptr: argv only
    bool inConfig;       //!< the JSON key sits under "config"
    OptionKind kind;
    std::uint32_t verbs; //!< verbBit of each verb that reads it
    const char *arg;     //!< usage placeholder; Enum: the choices
    const char *help;    //!< one usage line
    /** Lands the value, running the row's checks; nullptr: the CLI
     *  reads the option itself. */
    Status (*store)(Request &, OptionValue &);
};

/** The option table, in usage order. */
std::span<const OptionSpec> optionTable();

/** Argv names of the table's flags, for ArgParser. */
const std::vector<std::string> &requestFlagNames();

/** The command named in argv: positional 0, or "suite" for --suite. */
std::string argvCommand(const ArgParser &args);

/** Per-request work counters for the response. */
struct ResponseStats
{
    std::size_t kernels = 0; //!< kernels (or trace files) evaluated
    std::size_t failed = 0;  //!< contained per-kernel failures

    // InputCache activity attributable to this request.
    std::uint64_t traceHits = 0, traceMisses = 0;
    std::uint64_t collectorHits = 0, collectorMisses = 0;
    std::uint64_t profilerHits = 0, profilerMisses = 0;

    double wallMs = 0.0; //!< handling wall time
};

/** Outcome of one request. */
struct Response
{
    /**
     * Request-level outcome. Ok for exit codes 0 and 2 (a partial
     * suite still produced a report); the failure for exit code 1.
     */
    Status status;

    /** CLI exit-code semantics: 0 success, 1 total failure, 2 partial. */
    int exitCode = 0;

    /** True when admission control rejected the request unprocessed. */
    bool shed = false;

    /**
     * Shed responses only: suggested client back-off before retrying,
     * derived from the current queue depth and recent service times.
     * Rendered as "retry_after_ms"; 0 = no hint.
     */
    std::uint64_t retryAfterMs = 0;

    /** Rendered report — byte-identical to the pre-split CLI stdout. */
    std::string output;

    /**
     * Metrics-registry delta (a JSON document, carried as a string)
     * when the request asked for one; empty otherwise.
     */
    std::string metricsJson;

    /**
     * MRC fast-path approximation surface (sweep / tune): set when
     * the request's collector inputs were derived approximately, with
     * the comma-joined reasons. Rendered as "mrc_approximate" /
     * "mrc_approximation" in the JSON response line, so machine
     * consumers see the signal the text report prints.
     */
    bool mrcApproximate = false;
    std::string mrcApproximation;

    ResponseStats stats;

    bool ok() const { return status.ok(); }
};

/**
 * Parse a command line, tokenized with requestFlagNames(), into a
 * Request. Errors (an unknown option, then an unknown or missing
 * command as NotFound, a bad value, a missing target) come back as a
 * Status instead of fatal(), so the CLI front-end owns the process
 * exit.
 */
Result<Request> requestFromArgs(const ArgParser &args);

/**
 * Parse one JSON-lines request (the `gpumech_serve` protocol; see
 * README "Serving"): "cmd" names the verb, and every other member is
 * an option table row under its JSON key, the machine overrides in a
 * "config" object.
 */
Result<Request> requestFromJson(const std::string &line);

/**
 * Parse a comma-separated --inject spec list
 * (kernel:site[:attempt[:stallMs]]) into a FaultPlan. Empty input
 * yields a null plan.
 */
Result<std::shared_ptr<FaultPlan>>
parseInjectSpec(const std::string &specs);

/**
 * Render a response as one JSON line (no trailing newline): id, seq,
 * ok/code/status (+error message when failed), shed flag and
 * retry_after_ms hint when set, work counters, cache activity, wall
 * time, and the rendered report text when @p include_output.
 */
std::string responseToJsonLine(const Response &response,
                               const std::string &id,
                               std::uint64_t seq,
                               bool include_output);

/**
 * Best-effort "id" extraction from a line that failed to parse as a
 * request, so the error response still correlates with whatever the
 * client thought it sent. Returns "" when no id field is salvageable.
 */
std::string salvageRequestId(const std::string &line);

} // namespace gpumech

#endif // GPUMECH_SERVICE_REQUEST_HH
