/**
 * @file
 * Plain-text kernel trace serialization.
 *
 * The on-disk format lets traces be produced once (the paper's
 * "per-input-basis" profiling) and re-consumed across hardware
 * configuration sweeps, and makes traces inspectable in tests.
 *
 * Parsing returns Status instead of dying: a batch service feeding
 * thousands of on-disk traces through the model must degrade one
 * malformed file to one failed kernel. Each malformed-input class
 * maps to a distinct StatusCode with the 1-based line number in the
 * message:
 *
 *   TruncatedInput  input ends mid-record
 *   ParseError      non-numeric field / unexpected keyword
 *   NotFound        unknown opcode mnemonic
 *   Overflow        numeric field exceeds its type or the record cap
 *   OutOfRange      negative count, zero warp/instruction count,
 *                   instruction pc >= static count, non-sequential pcs
 *   DuplicateHeader second 'kernel' header inside one trace
 *   FailedValidation parsed structure fails KernelTrace::validate()
 */

#ifndef GPUMECH_TRACE_TRACE_IO_HH
#define GPUMECH_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "trace/kernel_trace.hh"

namespace gpumech
{

/** Write a kernel trace in the text format. */
void writeTrace(std::ostream &os, const KernelTrace &kernel);

/** Parse a kernel trace from the text format (Status-returning). */
Result<KernelTrace> parseTrace(std::istream &is);

/** Convenience: parse from a string. */
Result<KernelTrace> parseTraceString(const std::string &text);

/** CLI-level wrapper around parseTraceString; fatal on error. */
KernelTrace traceFromString(const std::string &text);

/** Convenience: serialize to a string. */
std::string traceToString(const KernelTrace &kernel);

/**
 * Load a trace file of either format, detected by content: files
 * beginning with the .gmt magic decode through the binary columnar
 * loader, anything else parses as text. Both paths read the file
 * through one MmapFile (mmap where available, buffered fallback
 * otherwise), so binary loads are column copies out of the page cache
 * with no read loop. Errors follow the per-format contracts: the
 * binary classes above plus NotFound for a missing path.
 */
Result<KernelTrace> loadTraceFile(const std::string &path);

/**
 * Write @p kernel to @p path, choosing the format by extension:
 * ".gmt" writes the binary columnar format (with varint line-pool
 * encoding when @p varint_lines is set), anything else writes text
 * (@p varint_lines is then ignored). Internal on I/O failure.
 */
Status writeTraceFile(const std::string &path,
                      const KernelTrace &kernel,
                      bool varint_lines = false);

/** True when @p path names the binary format by extension (".gmt"). */
bool hasGmtExtension(const std::string &path);

} // namespace gpumech

#endif // GPUMECH_TRACE_TRACE_IO_HH
