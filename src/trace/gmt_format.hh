/**
 * @file
 * The `.gmt` binary columnar kernel-trace format.
 *
 * A `.gmt` file is the arena-backed SoA KernelTrace written to disk
 * column by column, so loading is mmap + a handful of column copies +
 * pointer fixup (prefix sums for the warp windows and line-slice
 * offsets, opcode lookup from the static program) instead of a text
 * parse. Full byte-level specification in DESIGN.md section 12.
 *
 * Layout (all integers little-endian, sections 8-byte aligned):
 *
 *   FileHeader   magic "GMT!", format version, endianness tag,
 *                trace-layout token (traceLayoutToken), flags,
 *                section count, section-table checksum
 *   SectionEntry[] id, payload offset/size, element count, checksum
 *   payloads     one per section, FNV-1a 64 checksummed
 *
 * Sections mirror the KernelTrace columns that cannot be derived:
 * kernel name, static opcodes + labels, per-warp ids/blocks/counts,
 * and the per-instruction pc/active/deps/line-count arrays plus the
 * line-address pool. The pool is stored raw (memcpy-able) or, with
 * GmtWriteOptions::varintLines, as zigzag-varint deltas (address
 * streams are mostly small ascending steps, so this shrinks the
 * dominant section severalfold at a modest decode cost).
 *
 * Error handling mirrors the text parser's hardening contract
 * (trace_io.hh): every malformed-input class maps to a distinct
 * StatusCode, and messages carry the absolute byte offset of the
 * offending structure the way text-parser errors carry line numbers:
 *
 *   TruncatedInput   file ends before a header/table/section extent
 *   ParseError       bad magic, unknown section id or flag, section
 *                    size/count disagreement, missing section
 *   VersionMismatch  foreign format version, endianness, or trace
 *                    layout generation
 *   ChecksumMismatch section or table bytes fail their checksum
 *   DuplicateHeader  a section id appears twice
 *   Overflow         element count above the record cap
 *   OutOfRange       zero warp/instruction counts, pc out of range,
 *                    line counts not covering the pool
 *   NotFound         opcode byte outside the ISA
 *   FailedValidation decoded trace fails KernelTrace::validate()
 *
 * There is one decode path, parseGmtBuffer over a whole in-memory
 * image: loadTraceFile maps the file (MmapFile, with a buffered-read
 * fallback) and streamTraceSet loads each file through it. It calls
 * evalCheckpoint(FaultSite::Parse) at entry and deadlineCheckpoint()
 * once per 4 MiB step, so a pathological or enormous file degrades to
 * a structured per-kernel failure under the harness watchdog exactly
 * like a text trace.
 */

#ifndef GPUMECH_TRACE_GMT_FORMAT_HH
#define GPUMECH_TRACE_GMT_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "trace/kernel_trace.hh"

namespace gpumech
{

/** First bytes of every .gmt file. */
inline constexpr char gmtMagic[4] = {'G', 'M', 'T', '!'};

/** Current format version (header field). */
inline constexpr std::uint16_t gmtVersion = 1;

/**
 * Endianness tag, written in native byte order. A reader on a
 * foreign-endian machine sees the swapped value and refuses the file
 * instead of misdecoding every column.
 */
inline constexpr std::uint16_t gmtEndianTag = 0xFEFF;

/** Header flag: line pool stored as zigzag-varint deltas. */
inline constexpr std::uint32_t gmtFlagVarintLines = 1u << 0;

/** Writer knobs. */
struct GmtWriteOptions
{
    /**
     * Encode the line-address pool as zigzag-varint deltas instead of
     * raw 8-byte words. Smaller on disk; decode walks bytes instead of
     * one memcpy. Round-trips bit-identically either way.
     */
    bool varintLines = false;
};

/** True when @p data begins with the .gmt magic. */
bool looksLikeGmt(const void *data, std::size_t size);

/** Serialize @p kernel as a .gmt document. */
void writeGmt(std::ostream &os, const KernelTrace &kernel,
              const GmtWriteOptions &options = {});

/** Convenience: serialize to a byte string. */
std::string gmtToString(const KernelTrace &kernel,
                        const GmtWriteOptions &options = {});

/**
 * Decode a complete in-memory .gmt image (typically an MmapFile).
 * Columns are copied and checksummed, and the varint line pool
 * decoded in place, in 4 MiB steps with a deadline checkpoint each.
 * On success records the gmt.load.ms / gmt.bytes / gmt.sections
 * metrics.
 */
Result<KernelTrace> parseGmtBuffer(const void *data, std::size_t size);

/** Convenience: decode from a byte string. */
Result<KernelTrace> parseGmtString(const std::string &bytes);

} // namespace gpumech

#endif // GPUMECH_TRACE_GMT_FORMAT_HH
