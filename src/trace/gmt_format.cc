#include "trace/gmt_format.hh"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>

#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"

namespace gpumech
{

namespace
{

/**
 * Binary-loader throughput accounting (no-ops while metrics are
 * disabled), the .gmt twin of the text parser's parse.* family: bytes
 * and sections consumed by successful loads plus a per-load wall-time
 * histogram, so --metrics attributes binary ingestion the same way it
 * attributes text parsing.
 */
struct GmtMetrics
{
    Histogram loadMs{"gmt.load.ms"};
    Counter bytes{"gmt.bytes"};
    Counter sections{"gmt.sections"};
};

GmtMetrics &
gmtMetrics()
{
    static GmtMetrics m;
    return m;
}

/**
 * Record-count cap, mirroring the text parser's: element counts above
 * it are rejected as Overflow before any allocation, so a corrupt
 * section table cannot OOM the process by promising 10^18 rows.
 */
constexpr std::uint64_t maxRecordCount = 1ull << 31;

// ---- FNV-1a 64 ------------------------------------------------------

constexpr std::uint64_t fnvOffset = 1469598103934665603ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t seed = fnvOffset)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

// ---- on-disk structures ---------------------------------------------

/** Fixed file header (32 bytes, no padding). */
struct FileHeader
{
    char magic[4];
    std::uint16_t version;
    std::uint16_t endianTag;
    char layout[8]; //!< traceLayoutToken, NUL-padded
    std::uint32_t flags;
    std::uint32_t sectionCount;
    std::uint64_t tableChecksum; //!< FNV-1a over the section table
};
static_assert(sizeof(FileHeader) == 32, "packed header layout");

/** One section-table entry (40 bytes, no padding). */
struct SectionEntry
{
    std::uint32_t id;
    std::uint32_t reserved; //!< must be 0
    std::uint64_t offset;   //!< absolute payload offset
    std::uint64_t size;     //!< payload bytes on disk
    std::uint64_t count;    //!< decoded element count
    std::uint64_t checksum; //!< FNV-1a over the payload bytes
};
static_assert(sizeof(SectionEntry) == 40, "packed entry layout");

/** Section ids (every one required exactly once in version 1). */
enum SectionId : std::uint32_t
{
    SecKernelName = 1,
    SecStaticOps = 2,
    SecStaticLabels = 3,
    SecWarpIds = 4,
    SecWarpBlocks = 5,
    SecWarpInstCounts = 6,
    SecInstPcs = 7,
    SecInstActives = 8,
    SecInstDeps = 9,
    SecInstLineCounts = 10,
    SecLinePool = 11,
};

constexpr std::uint32_t numSections = 11;

const char *
sectionName(std::uint32_t id)
{
    switch (id) {
      case SecKernelName: return "kernel_name";
      case SecStaticOps: return "static_ops";
      case SecStaticLabels: return "static_labels";
      case SecWarpIds: return "warp_ids";
      case SecWarpBlocks: return "warp_blocks";
      case SecWarpInstCounts: return "warp_inst_counts";
      case SecInstPcs: return "inst_pcs";
      case SecInstActives: return "inst_actives";
      case SecInstDeps: return "inst_deps";
      case SecInstLineCounts: return "inst_line_counts";
      case SecLinePool: return "line_pool";
    }
    return "?";
}

/**
 * Fixed element width of a section, or 0 for byte-blob sections whose
 * size is not count * width (labels, varint-encoded pool).
 */
std::size_t
elementSize(std::uint32_t id, bool varint_pool)
{
    switch (id) {
      case SecKernelName:
      case SecStaticOps:
        return 1;
      case SecStaticLabels:
        return 0;
      case SecWarpIds:
      case SecWarpBlocks:
      case SecWarpInstCounts:
      case SecInstPcs:
      case SecInstActives:
      case SecInstLineCounts:
        return 4;
      case SecInstDeps:
        return sizeof(DepArray);
      case SecLinePool:
        return varint_pool ? 0 : sizeof(Addr);
    }
    return 0;
}

/** Error factory with byte-offset context (the binary twin of the
 * text parser's line numbers). */
Status
gmtError(StatusCode code, std::uint64_t offset, const std::string &why)
{
    return Status(code, msg("gmt offset ", offset, ": ", why));
}

/**
 * A fixed-width, NUL-padded header field as printable text: trailing
 * NULs dropped, any other byte outside printable ASCII (and the
 * backslash) as \xHH, so two tokens that differ print differently.
 */
std::string
escapedToken(const char *field, std::size_t width)
{
    while (width > 0 && field[width - 1] == '\0')
        --width;
    std::string out;
    for (std::size_t i = 0; i < width; ++i) {
        const auto byte = static_cast<unsigned char>(field[i]);
        if (byte >= 0x20 && byte < 0x7f && byte != '\\') {
            out.push_back(static_cast<char>(byte));
            continue;
        }
        constexpr char hex[] = "0123456789abcdef";
        out += "\\x";
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xf]);
    }
    return out;
}

// ---- varint / zigzag codec ------------------------------------------

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Delta + zigzag + varint encode the line pool. */
std::string
encodeLinePool(const std::vector<Addr> &pool)
{
    std::string out;
    out.reserve(pool.size() * 2);
    Addr prev = 0;
    for (Addr a : pool) {
        putVarint(out, zigzag(static_cast<std::int64_t>(a - prev)));
        prev = a;
    }
    return out;
}

// ---- decoder --------------------------------------------------------

/** Decoded columns plus the payload offsets their errors should cite. */
struct Columns
{
    std::string name;
    std::vector<std::uint8_t> staticOps;
    std::string labelBlob;
    std::vector<std::uint32_t> warpIds;
    std::vector<std::uint32_t> warpBlocks;
    std::vector<std::uint32_t> warpCounts;
    std::vector<std::uint32_t> instPcs;
    std::vector<std::uint32_t> instActives;
    std::vector<DepArray> instDeps;
    std::vector<std::uint32_t> instLineCnts;
    std::vector<Addr> linePool;

    std::uint64_t offStaticOps = 0;
    std::uint64_t offWarps = 0;
    std::uint64_t offInsts = 0;
};

/**
 * Assemble a KernelTrace from decoded columns: split the label blob,
 * register the static program, and adopt the instruction columns
 * (KernelTrace recomputes the derivable arrays). The section offsets
 * in @p cols anchor every rejection to the bytes that caused it.
 */
Result<KernelTrace>
assemble(Columns &&cols)
{
    KernelTrace kernel(std::move(cols.name));

    // Static program: one opcode byte + one NUL-terminated label per
    // pc; the blob must hold exactly count labels with no leftover.
    std::size_t label_at = 0;
    for (std::size_t pc = 0; pc < cols.staticOps.size(); ++pc) {
        if (cols.staticOps[pc] >= numOpcodes) {
            return gmtError(StatusCode::NotFound, cols.offStaticOps,
                            msg("unknown opcode byte ",
                                unsigned(cols.staticOps[pc]),
                                " at static pc ", pc));
        }
        std::size_t nul = cols.labelBlob.find('\0', label_at);
        if (nul == std::string::npos) {
            return gmtError(StatusCode::ParseError, cols.offStaticOps,
                            msg("label blob ends inside the label of "
                                "static pc ", pc));
        }
        kernel.addStatic(static_cast<Opcode>(cols.staticOps[pc]),
                         cols.labelBlob.substr(label_at,
                                               nul - label_at));
        label_at = nul + 1;
    }
    if (label_at != cols.labelBlob.size()) {
        return gmtError(StatusCode::ParseError, cols.offStaticOps,
                        msg(cols.labelBlob.size() - label_at,
                            " trailing bytes after the last static "
                            "label"));
    }

    if (cols.warpIds.empty()) {
        return gmtError(StatusCode::OutOfRange, cols.offWarps,
                        "warp count must be positive");
    }

    Status adopted = kernel.adoptColumns(
        std::move(cols.warpIds), std::move(cols.warpBlocks),
        std::move(cols.warpCounts), std::move(cols.instPcs),
        std::move(cols.instActives), std::move(cols.instDeps),
        std::move(cols.instLineCnts), std::move(cols.linePool));
    if (!adopted.ok()) {
        return Status(adopted.code(),
                      msg("gmt offset ", cols.offInsts, ": ",
                          adopted.message()));
    }
    if (!kernel.validate()) {
        return gmtError(StatusCode::FailedValidation, cols.offInsts,
                        msg("kernel '", kernel.name(),
                            "' failed structural validation"));
    }
    return kernel;
}

/** Payload bytes copied or decoded between deadline checkpoints. */
constexpr std::size_t stepBytes = std::size_t(1) << 22;

/**
 * The format decoder: a strictly-forward cursor over a whole in-memory
 * image. Column payloads are copied and checksummed in stepBytes
 * steps, and the varint line pool decodes in place, with one
 * deadlineCheckpoint() per step.
 */
class Decoder
{
  public:
    Decoder(const void *data, std::size_t size)
        : image(static_cast<const std::uint8_t *>(data)), size(size)
    {}

    Result<KernelTrace>
    run()
    {
        evalCheckpoint(FaultSite::Parse);
        Span span("gmt-load");
        bool measure = Metrics::enabled();
        std::uint64_t t0 = measure ? monotonicNowNs() : 0;

        GPUMECH_TRY(readHeader());
        GPUMECH_TRY(readTable());
        Columns cols;
        GPUMECH_TRY(readPayloads(cols));
        Result<KernelTrace> kernel = assemble(std::move(cols));
        if (kernel.ok() && measure) {
            gmtMetrics().bytes.add(pos);
            gmtMetrics().sections.add(numSections);
            gmtMetrics().loadMs.observe(
                static_cast<double>(monotonicNowNs() - t0) / 1e6);
        }
        return kernel;
    }

  private:
    /**
     * The next @p n bytes of the image, moving the cursor past them;
     * TruncatedInput at the cursor when fewer remain.
     */
    Result<const std::uint8_t *>
    take(std::uint64_t n)
    {
        if (size - pos < n) {
            return gmtError(StatusCode::TruncatedInput, pos,
                            msg("unexpected end of input (wanted ", n,
                                " more bytes)"));
        }
        const std::uint8_t *at = image + pos;
        pos += n;
        return at;
    }

    Status
    readHeader()
    {
        Result<const std::uint8_t *> at = take(sizeof(FileHeader));
        if (!at.ok()) {
            return gmtError(StatusCode::TruncatedInput, 0,
                            "file shorter than the .gmt header");
        }
        FileHeader hdr;
        std::memcpy(&hdr, at.value(), sizeof(hdr));
        if (std::memcmp(hdr.magic, gmtMagic, sizeof(gmtMagic)) != 0) {
            return gmtError(StatusCode::ParseError, 0,
                            "bad magic (not a .gmt trace)");
        }
        if (hdr.endianTag != gmtEndianTag) {
            // The swapped tag means a foreign-endian writer; anything
            // else is corruption.
            std::uint16_t swapped = static_cast<std::uint16_t>(
                (gmtEndianTag >> 8) | (gmtEndianTag << 8));
            if (hdr.endianTag == swapped) {
                return gmtError(StatusCode::VersionMismatch, 4,
                                "foreign endianness (file written on "
                                "an opposite-endian machine)");
            }
            return gmtError(StatusCode::ParseError, 4,
                            msg("bad endianness tag 0x", std::hex,
                                hdr.endianTag));
        }
        if (hdr.version != gmtVersion) {
            return gmtError(StatusCode::VersionMismatch, 4,
                            msg("format version ", hdr.version,
                                " (this reader handles version ",
                                gmtVersion, ")"));
        }
        char expect_layout[8] = {};
        std::memcpy(expect_layout, traceLayoutToken,
                    std::min(sizeof(expect_layout),
                             std::strlen(traceLayoutToken)));
        if (std::memcmp(hdr.layout, expect_layout,
                        sizeof(expect_layout)) != 0) {
            return gmtError(StatusCode::VersionMismatch, 8,
                            msg("trace layout generation '",
                                escapedToken(hdr.layout,
                                             sizeof(hdr.layout)),
                                "' (this engine is '", traceLayoutToken,
                                "')"));
        }
        if ((hdr.flags & ~gmtFlagVarintLines) != 0) {
            return gmtError(StatusCode::ParseError, 16,
                            msg("unknown flag bits 0x", std::hex,
                                (hdr.flags & ~gmtFlagVarintLines)));
        }
        varintPool = (hdr.flags & gmtFlagVarintLines) != 0;
        if (hdr.sectionCount > 64) {
            return gmtError(StatusCode::Overflow, 20,
                            msg("section count ", hdr.sectionCount,
                                " exceeds the sane cap (64)"));
        }
        sectionCount = hdr.sectionCount;
        tableChecksum = hdr.tableChecksum;
        return Status();
    }

    Status
    readTable()
    {
        std::uint64_t table_off = pos;
        std::vector<SectionEntry> table(sectionCount);
        Result<const std::uint8_t *> at =
            take(sectionCount * sizeof(SectionEntry));
        if (!at.ok()) {
            return gmtError(StatusCode::TruncatedInput, table_off,
                            "file ends inside the section table");
        }
        if (sectionCount > 0) {
            std::memcpy(table.data(), at.value(),
                        sectionCount * sizeof(SectionEntry));
        }
        if (fnv1a(table.data(), sectionCount * sizeof(SectionEntry)) !=
            tableChecksum) {
            return gmtError(StatusCode::ChecksumMismatch, table_off,
                            "section table fails its checksum");
        }

        std::uint64_t prev_end = pos;
        bool seen[numSections + 1] = {};
        for (std::size_t i = 0; i < table.size(); ++i) {
            const SectionEntry &e = table[i];
            std::uint64_t entry_off =
                table_off + i * sizeof(SectionEntry);
            if (e.id < 1 || e.id > numSections) {
                return gmtError(StatusCode::ParseError, entry_off,
                                msg("unknown section id ", e.id));
            }
            if (seen[e.id]) {
                return gmtError(StatusCode::DuplicateHeader, entry_off,
                                msg("duplicate section '",
                                    sectionName(e.id), "'"));
            }
            seen[e.id] = true;
            if (e.reserved != 0) {
                return gmtError(StatusCode::ParseError, entry_off,
                                "nonzero reserved field");
            }
            if (e.count > maxRecordCount) {
                return gmtError(StatusCode::Overflow, entry_off,
                                msg("section '", sectionName(e.id),
                                    "' count ", e.count,
                                    " exceeds the record cap (",
                                    maxRecordCount, ")"));
            }
            if (e.offset < prev_end) {
                return gmtError(StatusCode::ParseError, entry_off,
                                msg("section '", sectionName(e.id),
                                    "' overlaps the preceding bytes"));
            }
            if (e.size > (std::uint64_t(1) << 40) ||
                e.offset + e.size < e.offset) {
                return gmtError(StatusCode::Overflow, entry_off,
                                msg("section '", sectionName(e.id),
                                    "' extent overflows"));
            }
            std::size_t elem = elementSize(e.id, varintPool);
            if (elem != 0 && e.size != e.count * elem) {
                return gmtError(StatusCode::ParseError, entry_off,
                                msg("section '", sectionName(e.id),
                                    "' size ", e.size,
                                    " disagrees with count ", e.count,
                                    " (", elem, "-byte elements)"));
            }
            if (e.id == SecKernelName && e.size != e.count) {
                return gmtError(StatusCode::ParseError, entry_off,
                                "kernel name size/count disagree");
            }
            prev_end = e.offset + e.size;
        }
        for (std::uint32_t id = 1; id <= numSections; ++id) {
            if (!seen[id]) {
                return gmtError(StatusCode::ParseError, table_off,
                                msg("missing section '",
                                    sectionName(id), "'"));
            }
        }
        // Cross-section count agreement, checked before any payload
        // byte is read so shape lies fail fast.
        auto count_of = [&](std::uint32_t id) {
            for (const SectionEntry &e : table)
                if (e.id == id)
                    return e.count;
            return std::uint64_t(0);
        };
        if (count_of(SecStaticOps) != count_of(SecStaticLabels)) {
            return gmtError(StatusCode::ParseError, table_off,
                            "static op/label counts disagree");
        }
        if (count_of(SecWarpIds) != count_of(SecWarpBlocks) ||
            count_of(SecWarpIds) != count_of(SecWarpInstCounts)) {
            return gmtError(StatusCode::ParseError, table_off,
                            "warp column counts disagree");
        }
        std::uint64_t insts = count_of(SecInstPcs);
        if (count_of(SecInstActives) != insts ||
            count_of(SecInstDeps) != insts ||
            count_of(SecInstLineCounts) != insts) {
            return gmtError(StatusCode::ParseError, table_off,
                            "instruction column counts disagree");
        }

        sections = std::move(table);
        std::sort(sections.begin(), sections.end(),
                  [](const SectionEntry &a, const SectionEntry &b) {
                      return a.offset < b.offset;
                  });
        return Status();
    }

    /**
     * Copy section @p e's payload into @p dst in stepBytes steps,
     * checksumming each step as it lands.
     */
    Status
    copyChecked(void *dst, const SectionEntry &e)
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        std::uint64_t hash = fnvOffset;
        for (std::uint64_t done = 0; done < e.size;) {
            deadlineCheckpoint();
            std::size_t step = static_cast<std::size_t>(
                std::min<std::uint64_t>(stepBytes, e.size - done));
            GPUMECH_ASSIGN_OR_RETURN(const std::uint8_t *in, take(step));
            std::memcpy(out + done, in, step);
            hash = fnv1a(out + done, step, hash);
            done += step;
        }
        if (hash != e.checksum) {
            return gmtError(StatusCode::ChecksumMismatch, e.offset,
                            msg("section '", sectionName(e.id),
                                "' fails its checksum"));
        }
        return Status();
    }

    /**
     * Bytes of section @p e the image holds from the cursor on. A
     * buffer of this size takes every step copyChecked() can take, so
     * a table that claims more than the file allocates no more than
     * the file before the copy fails with TruncatedInput.
     */
    std::uint64_t
    held(const SectionEntry &e) const
    {
        return std::min<std::uint64_t>(e.size, size - pos);
    }

    /**
     * Varint-delta decode of the line pool, in place. The pool is
     * taken and checksummed in stepBytes steps; the next step is taken
     * before decoding a varint that starts within 10 bytes (the
     * longest varint) of the bytes taken so far.
     */
    Status
    decodeVarintPool(std::vector<Addr> &pool, const SectionEntry &e)
    {
        // Every varint takes at least one byte.
        pool.clear();
        pool.reserve(
            static_cast<std::size_t>(std::min(e.count, held(e))));
        const std::uint8_t *bytes = image + pos;
        std::uint64_t taken = 0; //!< pool bytes taken so far
        std::uint64_t at = 0;    //!< decode cursor
        std::uint64_t hash = fnvOffset;
        Addr prev = 0;

        while (pool.size() < e.count) {
            if (taken - at < 10 && taken < e.size) {
                deadlineCheckpoint();
                std::size_t step = static_cast<std::size_t>(
                    std::min<std::uint64_t>(stepBytes, e.size - taken));
                GPUMECH_ASSIGN_OR_RETURN(const std::uint8_t *in,
                                         take(step));
                hash = fnv1a(in, step, hash);
                taken += step;
            }
            // Decode one varint. Its tenth byte carries bit 63 only.
            std::uint64_t v = 0;
            unsigned shift = 0;
            bool done = false;
            while (at < taken) {
                std::uint8_t byte = bytes[at++];
                if (shift == 63 && byte > 1) {
                    return gmtError(StatusCode::Overflow, e.offset,
                                    "varint exceeds 64 bits");
                }
                v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
                if ((byte & 0x80) == 0) {
                    done = true;
                    break;
                }
                shift += 7;
            }
            if (!done) {
                return gmtError(StatusCode::TruncatedInput,
                                e.offset + e.size,
                                msg("line pool ends inside a varint "
                                    "(decoded ", pool.size(), " of ",
                                    e.count, " addresses)"));
            }
            prev += static_cast<Addr>(unzigzag(v));
            pool.push_back(prev);
        }
        if (at != taken || taken != e.size) {
            return gmtError(StatusCode::ParseError, e.offset,
                            msg("line pool has trailing bytes after ",
                                e.count, " addresses"));
        }
        if (hash != e.checksum) {
            return gmtError(StatusCode::ChecksumMismatch, e.offset,
                            "section 'line_pool' fails its checksum");
        }
        return Status();
    }

    template <typename T>
    Status
    copyColumn(std::vector<T> &out, const SectionEntry &e)
    {
        // Equal to e.count once the image holds the section.
        out.resize(static_cast<std::size_t>((held(e) + sizeof(T) - 1) /
                                            sizeof(T)));
        return copyChecked(out.data(), e);
    }

    Status
    readPayloads(Columns &cols)
    {
        for (const SectionEntry &e : sections) {
            // Skip the alignment padding in steps of at most 64
            // bytes: a file that ends inside it is truncated at the
            // step that runs past the end.
            while (pos < e.offset) {
                GPUMECH_TRY(
                    take(std::min<std::uint64_t>(e.offset - pos, 64))
                        .status());
            }
            switch (e.id) {
              case SecKernelName:
                cols.name.resize(static_cast<std::size_t>(held(e)));
                GPUMECH_TRY(copyChecked(cols.name.data(), e));
                break;
              case SecStaticOps:
                cols.offStaticOps = e.offset;
                GPUMECH_TRY(copyColumn(cols.staticOps, e));
                break;
              case SecStaticLabels:
                cols.labelBlob.resize(
                    static_cast<std::size_t>(held(e)));
                GPUMECH_TRY(copyChecked(cols.labelBlob.data(), e));
                break;
              case SecWarpIds:
                cols.offWarps = e.offset;
                GPUMECH_TRY(copyColumn(cols.warpIds, e));
                break;
              case SecWarpBlocks:
                GPUMECH_TRY(copyColumn(cols.warpBlocks, e));
                break;
              case SecWarpInstCounts:
                GPUMECH_TRY(copyColumn(cols.warpCounts, e));
                break;
              case SecInstPcs:
                cols.offInsts = e.offset;
                GPUMECH_TRY(copyColumn(cols.instPcs, e));
                break;
              case SecInstActives:
                GPUMECH_TRY(copyColumn(cols.instActives, e));
                break;
              case SecInstDeps:
                GPUMECH_TRY(copyColumn(cols.instDeps, e));
                break;
              case SecInstLineCounts:
                GPUMECH_TRY(copyColumn(cols.instLineCnts, e));
                break;
              case SecLinePool:
                if (varintPool) {
                    GPUMECH_TRY(decodeVarintPool(cols.linePool, e));
                } else {
                    GPUMECH_TRY(copyColumn(cols.linePool, e));
                }
                break;
            }
        }
        return Status();
    }

    const std::uint8_t *image;
    std::size_t size;
    std::uint64_t pos = 0; //!< the cursor: offset of the next byte
    bool varintPool = false;
    std::uint32_t sectionCount = 0;
    std::uint64_t tableChecksum = 0;
    std::vector<SectionEntry> sections;
};

} // namespace

// ---- writer ---------------------------------------------------------

namespace
{

/** One section staged for writing. */
struct Staged
{
    std::uint32_t id;
    const void *data;
    std::uint64_t size;
    std::uint64_t count;
    std::string owned; //!< backs @p data for built (non-borrowed) payloads
};

std::uint64_t
alignUp(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t(7);
}

} // namespace

bool
looksLikeGmt(const void *data, std::size_t size)
{
    return size >= sizeof(gmtMagic) &&
           std::memcmp(data, gmtMagic, sizeof(gmtMagic)) == 0;
}

void
writeGmt(std::ostream &os, const KernelTrace &kernel,
         const GmtWriteOptions &options)
{
    Span span("pack", kernel.name());

    // Built payloads (the borrowed ones point straight at the trace's
    // own columns).
    std::string static_ops;
    std::string labels;
    static_ops.reserve(kernel.numStaticInsts());
    for (const StaticInst &si : kernel.staticInsts()) {
        static_ops.push_back(static_cast<char>(si.op));
        labels.append(si.label);
        labels.push_back('\0');
    }
    std::vector<std::uint32_t> warp_ids, warp_blocks, warp_counts;
    warp_ids.reserve(kernel.numWarps());
    warp_blocks.reserve(kernel.numWarps());
    warp_counts.reserve(kernel.numWarps());
    for (WarpView w : kernel.warps()) {
        warp_ids.push_back(w.warpId());
        warp_blocks.push_back(w.blockId());
        warp_counts.push_back(
            static_cast<std::uint32_t>(w.numInsts()));
    }

    std::vector<Staged> staged;
    // Entries point into their own `owned` strings (SSO), so the
    // vector must never reallocate once populated.
    staged.reserve(numSections);
    auto borrow = [&](std::uint32_t id, const void *data,
                      std::uint64_t size, std::uint64_t count) {
        staged.push_back(Staged{id, data, size, count, {}});
    };
    auto own = [&](std::uint32_t id, std::string bytes,
                   std::uint64_t count) {
        staged.push_back(Staged{id, nullptr, bytes.size(), count,
                                std::move(bytes)});
        staged.back().data = staged.back().owned.data();
    };

    const std::string &name = kernel.name();
    borrow(SecKernelName, name.data(), name.size(), name.size());
    own(SecStaticOps, std::move(static_ops), kernel.numStaticInsts());
    own(SecStaticLabels, std::move(labels), kernel.numStaticInsts());
    borrow(SecWarpIds, warp_ids.data(), warp_ids.size() * 4,
           warp_ids.size());
    borrow(SecWarpBlocks, warp_blocks.data(), warp_blocks.size() * 4,
           warp_blocks.size());
    borrow(SecWarpInstCounts, warp_counts.data(),
           warp_counts.size() * 4, warp_counts.size());
    borrow(SecInstPcs, kernel.instPcs().data(),
           kernel.instPcs().size() * 4, kernel.instPcs().size());
    borrow(SecInstActives, kernel.instActives().data(),
           kernel.instActives().size() * 4,
           kernel.instActives().size());
    borrow(SecInstDeps, kernel.instDeps().data(),
           kernel.instDeps().size() * sizeof(DepArray),
           kernel.instDeps().size());
    borrow(SecInstLineCounts, kernel.instLineCounts().data(),
           kernel.instLineCounts().size() * 4,
           kernel.instLineCounts().size());
    if (options.varintLines) {
        own(SecLinePool, encodeLinePool(kernel.linePool()),
            kernel.linePool().size());
    } else {
        borrow(SecLinePool, kernel.linePool().data(),
               kernel.linePool().size() * sizeof(Addr),
               kernel.linePool().size());
    }

    // Lay out payloads after the table, 8-byte aligned.
    std::vector<SectionEntry> table(staged.size());
    std::uint64_t cursor =
        sizeof(FileHeader) + staged.size() * sizeof(SectionEntry);
    for (std::size_t i = 0; i < staged.size(); ++i) {
        cursor = alignUp(cursor);
        table[i].id = staged[i].id;
        table[i].reserved = 0;
        table[i].offset = cursor;
        table[i].size = staged[i].size;
        table[i].count = staged[i].count;
        table[i].checksum = fnv1a(staged[i].data, staged[i].size);
        cursor += staged[i].size;
    }

    FileHeader hdr = {};
    std::memcpy(hdr.magic, gmtMagic, sizeof(gmtMagic));
    hdr.version = gmtVersion;
    hdr.endianTag = gmtEndianTag;
    std::memcpy(hdr.layout, traceLayoutToken,
                std::min(sizeof(hdr.layout),
                         std::strlen(traceLayoutToken)));
    hdr.flags = options.varintLines ? gmtFlagVarintLines : 0;
    hdr.sectionCount = static_cast<std::uint32_t>(staged.size());
    hdr.tableChecksum =
        fnv1a(table.data(), table.size() * sizeof(SectionEntry));

    os.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    os.write(reinterpret_cast<const char *>(table.data()),
             static_cast<std::streamsize>(table.size() *
                                          sizeof(SectionEntry)));
    std::uint64_t written =
        sizeof(FileHeader) + table.size() * sizeof(SectionEntry);
    static const char zeros[8] = {};
    for (std::size_t i = 0; i < staged.size(); ++i) {
        std::uint64_t pad = table[i].offset - written;
        if (pad > 0)
            os.write(zeros, static_cast<std::streamsize>(pad));
        if (staged[i].size > 0) {
            os.write(static_cast<const char *>(staged[i].data),
                     static_cast<std::streamsize>(staged[i].size));
        }
        written = table[i].offset + staged[i].size;
    }
}

std::string
gmtToString(const KernelTrace &kernel, const GmtWriteOptions &options)
{
    std::ostringstream os;
    writeGmt(os, kernel, options);
    return os.str();
}

Result<KernelTrace>
parseGmtBuffer(const void *data, std::size_t size)
{
    return Decoder(data, size).run();
}

Result<KernelTrace>
parseGmtString(const std::string &bytes)
{
    return parseGmtBuffer(bytes.data(), bytes.size());
}

} // namespace gpumech
