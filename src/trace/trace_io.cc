#include "trace/trace_io.hh"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/mmap_file.hh"
#include "common/trace_span.hh"
#include "trace/gmt_format.hh"

namespace gpumech
{

namespace
{

/**
 * Parser throughput accounting (no-ops while metrics are disabled):
 * lines and bytes consumed by successful parses, plus a per-parse
 * MB/s histogram so ingestion regressions show up in --metrics.
 */
struct ParseMetrics
{
    Counter lines{"parse.lines"};
    Counter bytes{"parse.bytes"};
    Histogram mbPerS{"parse.mb_per_s"};
};

ParseMetrics &
parseMetrics()
{
    static ParseMetrics m;
    return m;
}

/**
 * Record-count cap. Counts above it are rejected as Overflow before
 * any allocation happens, so a corrupt header cannot OOM the process
 * by promising 10^18 instructions (the fuzz smoke loop exercises
 * exactly this class).
 */
constexpr std::uint64_t maxRecordCount = 1ull << 31;

/**
 * Whitespace tokenizer with 1-based line tracking. Reads the stream
 * line by line so every token (and therefore every parse error)
 * carries the line it came from.
 */
class Tokenizer
{
  public:
    explicit Tokenizer(std::istream &is) : is(is) {}

    /** Line of the most recently returned token (1-based). */
    std::size_t line() const { return lineNo; }

    /** Bytes consumed so far (line text + one newline per line). */
    std::uint64_t bytes() const { return bytesRead; }

    /**
     * Next whitespace-delimited token; TruncatedInput with @p context
     * when the stream is exhausted.
     */
    Status
    next(std::string &tok, const char *context)
    {
        while (cursor >= tokens.size()) {
            std::string text;
            if (!std::getline(is, text)) {
                return Status(
                    StatusCode::TruncatedInput,
                    msg("trace line ", lineNo,
                        ": unexpected end of input in ", context));
            }
            ++lineNo;
            bytesRead += text.size() + 1;
            tokens.clear();
            cursor = 0;
            std::istringstream split(text);
            std::string piece;
            while (split >> piece)
                tokens.push_back(piece);
        }
        tok = tokens[cursor++];
        return Status();
    }

  private:
    std::istream &is;
    std::vector<std::string> tokens;
    std::size_t cursor = 0;
    std::size_t lineNo = 0;
    std::uint64_t bytesRead = 0;
};

/** Error factory with line context. */
Status
parseError(StatusCode code, std::size_t line, const std::string &why)
{
    return Status(code, msg("trace line ", line, ": ", why));
}

/**
 * Parse an unsigned field. Distinct failures: ParseError (not a
 * number), OutOfRange (negative), Overflow (exceeds T or @p cap).
 */
template <typename T>
Status
parseUnsigned(Tokenizer &toks, T &out, const char *context,
              std::uint64_t cap = std::numeric_limits<T>::max())
{
    std::string tok;
    GPUMECH_TRY(toks.next(tok, context));
    if (tok[0] == '-') {
        return parseError(StatusCode::OutOfRange, toks.line(),
                          msg(context, " must be non-negative, got '",
                              tok, "'"));
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0') {
        return parseError(StatusCode::ParseError, toks.line(),
                          msg("expected number in ", context, ", got '",
                              tok, "'"));
    }
    std::uint64_t limit =
        std::min<std::uint64_t>(cap, std::numeric_limits<T>::max());
    if (errno == ERANGE || value > limit) {
        return parseError(StatusCode::Overflow, toks.line(),
                          msg(context, " overflows (got '", tok,
                              "', max ", limit, ")"));
    }
    out = static_cast<T>(value);
    return Status();
}

/** Parse a signed 32-bit field (dependency indices; -1 = none). */
Status
parseSigned(Tokenizer &toks, std::int32_t &out, const char *context)
{
    std::string tok;
    GPUMECH_TRY(toks.next(tok, context));
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0') {
        return parseError(StatusCode::ParseError, toks.line(),
                          msg("expected number in ", context, ", got '",
                              tok, "'"));
    }
    if (errno == ERANGE ||
        value < std::numeric_limits<std::int32_t>::min() ||
        value > std::numeric_limits<std::int32_t>::max()) {
        return parseError(StatusCode::Overflow, toks.line(),
                          msg(context, " overflows (got '", tok, "')"));
    }
    out = static_cast<std::int32_t>(value);
    return Status();
}

/**
 * Expect keyword @p want. A stray 'kernel' is classified as
 * DuplicateHeader (one trace, one header); anything else is a
 * ParseError.
 */
Status
expectKeyword(Tokenizer &toks, const char *want, const char *context)
{
    std::string tok;
    GPUMECH_TRY(toks.next(tok, context));
    if (tok == want)
        return Status();
    if (tok == "kernel") {
        return parseError(StatusCode::DuplicateHeader, toks.line(),
                          msg("duplicate 'kernel' header (expected '",
                              want, "')"));
    }
    return parseError(StatusCode::ParseError, toks.line(),
                      msg("missing '", want, "' (got '", tok, "')"));
}

} // namespace

void
writeTrace(std::ostream &os, const KernelTrace &kernel)
{
    os << "kernel " << kernel.name() << "\n";
    os << "static " << kernel.numStaticInsts() << "\n";
    for (std::uint32_t pc = 0; pc < kernel.numStaticInsts(); ++pc) {
        const auto &si = kernel.staticInsts()[pc];
        os << pc << " " << toString(si.op) << " "
           << (si.label.empty() ? "-" : si.label) << "\n";
    }
    os << "warps " << kernel.numWarps() << "\n";
    for (WarpView warp : kernel.warps()) {
        os << "warp " << warp.warpId() << " " << warp.blockId() << " "
           << warp.numInsts() << "\n";
        for (std::size_t i = 0; i < warp.numInsts(); ++i) {
            os << warp.pc(i) << " " << warp.activeThreads(i);
            for (std::int32_t d : warp.deps(i))
                os << " " << d;
            LineSpan lines = warp.lines(i);
            os << " " << lines.size();
            for (Addr a : lines)
                os << " " << a;
            os << "\n";
        }
    }
    os << "end\n";
}

Result<KernelTrace>
parseTrace(std::istream &is)
{
    evalCheckpoint(FaultSite::Parse);

    Span span("parse");
    bool measure = Metrics::enabled();
    std::uint64_t t0 = measure ? monotonicNowNs() : 0;

    Tokenizer toks(is);
    std::string tok;
    GPUMECH_TRY(toks.next(tok, "header"));
    if (tok != "kernel") {
        return parseError(StatusCode::ParseError, toks.line(),
                          "missing 'kernel' header");
    }
    GPUMECH_TRY(toks.next(tok, "kernel name"));
    KernelTrace kernel(tok);

    GPUMECH_TRY(expectKeyword(toks, "static", "static header"));
    std::uint32_t num_static = 0;
    GPUMECH_TRY(parseUnsigned(toks, num_static, "static count",
                              maxRecordCount));
    for (std::uint32_t i = 0; i < num_static; ++i) {
        std::uint32_t pc = 0;
        GPUMECH_TRY(parseUnsigned(toks, pc, "static pc"));
        if (pc != i) {
            return parseError(
                StatusCode::OutOfRange, toks.line(),
                msg("static pcs must be sequential (expected ", i,
                    ", got ", pc, ")"));
        }
        GPUMECH_TRY(toks.next(tok, "static opcode"));
        Opcode op;
        if (!tryOpcodeFromString(tok, op)) {
            return parseError(StatusCode::NotFound, toks.line(),
                              msg("unknown opcode mnemonic '", tok,
                                  "'"));
        }
        std::string label;
        GPUMECH_TRY(toks.next(label, "static label"));
        kernel.addStatic(op, label == "-" ? "" : label);
    }

    GPUMECH_TRY(expectKeyword(toks, "warps", "warps header"));
    std::uint32_t num_warps = 0;
    GPUMECH_TRY(parseUnsigned(toks, num_warps, "warp count",
                              maxRecordCount));
    if (num_warps == 0) {
        return parseError(StatusCode::OutOfRange, toks.line(),
                          "warp count must be positive");
    }
    for (std::uint32_t w = 0; w < num_warps; ++w) {
        GPUMECH_TRY(expectKeyword(toks, "warp", "warp header"));
        WarpTrace warp;
        GPUMECH_TRY(parseUnsigned(toks, warp.warpId, "warp id"));
        GPUMECH_TRY(parseUnsigned(toks, warp.blockId, "block id"));
        std::uint64_t n = 0;
        GPUMECH_TRY(parseUnsigned(toks, n, "inst count",
                                  maxRecordCount));
        if (n == 0) {
            return parseError(
                StatusCode::OutOfRange, toks.line(),
                msg("warp ", warp.warpId,
                    ": instruction count must be positive"));
        }
        warp.reserve(n, 0);
        std::vector<Addr> line_scratch;
        for (std::uint64_t i = 0; i < n; ++i) {
            WarpInst inst;
            GPUMECH_TRY(parseUnsigned(toks, inst.pc, "inst pc"));
            if (inst.pc >= kernel.numStaticInsts()) {
                return parseError(
                    StatusCode::OutOfRange, toks.line(),
                    msg("inst pc ", inst.pc,
                        " out of range (static count ",
                        kernel.numStaticInsts(), ")"));
            }
            inst.op = kernel.opcodeOf(inst.pc);
            GPUMECH_TRY(parseUnsigned(toks, inst.activeThreads,
                                      "active threads"));
            for (auto &d : inst.deps)
                GPUMECH_TRY(parseSigned(toks, d, "dep index"));
            std::uint32_t num_lines = 0;
            GPUMECH_TRY(parseUnsigned(toks, num_lines, "line count",
                                      maxRecordCount));
            line_scratch.clear();
            for (std::uint32_t l = 0; l < num_lines; ++l) {
                Addr addr = 0;
                GPUMECH_TRY(parseUnsigned(toks, addr, "line addr"));
                line_scratch.push_back(addr);
            }
            if (num_lines > 0) {
                warp.addMemInst(inst, line_scratch.data(), num_lines);
            } else {
                warp.addInst(inst);
            }
        }
        kernel.addWarp(warp);
    }

    GPUMECH_TRY(expectKeyword(toks, "end", "trailer"));
    if (!kernel.validate()) {
        return parseError(StatusCode::FailedValidation, toks.line(),
                          msg("kernel '", kernel.name(),
                              "' failed structural validation"));
    }
    if (measure) {
        parseMetrics().lines.add(toks.line());
        parseMetrics().bytes.add(toks.bytes());
        double sec =
            static_cast<double>(monotonicNowNs() - t0) / 1e9;
        if (sec > 0.0) {
            parseMetrics().mbPerS.observe(
                static_cast<double>(toks.bytes()) / 1e6 / sec);
        }
    }
    return kernel;
}

Result<KernelTrace>
parseTraceString(const std::string &text)
{
    std::istringstream is(text);
    return parseTrace(is);
}

KernelTrace
traceFromString(const std::string &text)
{
    return parseTraceString(text).valueOrDie();
}

namespace
{

/**
 * Read-only streambuf over a borrowed byte range, so text traces
 * loaded through MmapFile parse straight out of the mapping without
 * first copying the file into a string.
 */
class MemStreamBuf : public std::streambuf
{
  public:
    MemStreamBuf(const char *data, std::size_t size)
    {
        // istream never writes through a get-area-only streambuf; the
        // const_cast satisfies setg's signature.
        char *base = const_cast<char *>(data);
        setg(base, base, base + size);
    }
};

} // namespace

bool
hasGmtExtension(const std::string &path)
{
    const std::string ext = ".gmt";
    return path.size() >= ext.size() &&
           path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

Result<KernelTrace>
loadTraceFile(const std::string &path)
{
    MmapFile file;
    GPUMECH_ASSIGN_OR_RETURN(file, MmapFile::open(path));
    if (looksLikeGmt(file.data(), file.size())) {
        return parseGmtBuffer(file.data(), file.size());
    }
    MemStreamBuf buf(reinterpret_cast<const char *>(file.data()),
                     file.size());
    std::istream is(&buf);
    return parseTrace(is);
}

Status
writeTraceFile(const std::string &path, const KernelTrace &kernel,
               bool varint_lines)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        return Status(StatusCode::Internal,
                      msg("cannot open '", path, "' for writing"));
    }
    if (hasGmtExtension(path)) {
        GmtWriteOptions options;
        options.varintLines = varint_lines;
        writeGmt(os, kernel, options);
    } else {
        writeTrace(os, kernel);
    }
    os.flush();
    if (!os) {
        return Status(StatusCode::Internal,
                      msg("write to '", path, "' failed"));
    }
    return Status();
}

std::string
traceToString(const KernelTrace &kernel)
{
    std::ostringstream os;
    writeTrace(os, kernel);
    return os.str();
}

} // namespace gpumech
