/**
 * @file
 * Tests for the binary columnar .gmt trace format: round-trip
 * fixpoints, golden equality against the text parser per workload
 * archetype, the version/endianness/layout refusal paths, every
 * corruption class with its distinct StatusCode and byte offset, the
 * trace-set streaming pipeline, and model-output bit-identity between
 * text- and binary-loaded traces.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "collector/input_collector.hh"
#include "common/isolation.hh"
#include "common/mmap_file.hh"
#include "core/gpumech.hh"
#include "trace/gmt_format.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

HardwareConfig
smallConfig()
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    return config;
}

KernelTrace
sampleKernel(const char *name = "vectorAdd")
{
    return workloadByName(name).generate(smallConfig());
}

// ---- byte-patching helpers ------------------------------------------
//
// On-disk layout constants (must match gmt_format.cc): 32-byte header
// (sectionCount at 20, tableChecksum at 24), then 40-byte table
// entries (id +0, offset +8, size +16, count +24, checksum +32).

constexpr std::size_t hdrSectionCount = 20;
constexpr std::size_t hdrTableChecksum = 24;
constexpr std::size_t tableStart = 32;
constexpr std::size_t entrySize = 40;

std::uint64_t
fnv(const std::string &bytes, std::size_t off, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<std::uint8_t>(bytes[off + i]);
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
T
peek(const std::string &bytes, std::size_t off)
{
    T v;
    std::memcpy(&v, bytes.data() + off, sizeof(T));
    return v;
}

template <typename T>
void
poke(std::string &bytes, std::size_t off, T v)
{
    std::memcpy(bytes.data() + off, &v, sizeof(T));
}

/** Table-entry position of section @p id; fatal when absent. */
std::size_t
entryOf(const std::string &bytes, std::uint32_t id)
{
    auto n = peek<std::uint32_t>(bytes, hdrSectionCount);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::size_t at = tableStart + i * entrySize;
        if (peek<std::uint32_t>(bytes, at) == id)
            return at;
    }
    ADD_FAILURE() << "no section with id " << id;
    return tableStart;
}

/** Re-seal the table checksum after editing table bytes. */
void
resealTable(std::string &bytes)
{
    auto n = peek<std::uint32_t>(bytes, hdrSectionCount);
    poke<std::uint64_t>(bytes, hdrTableChecksum,
                        fnv(bytes, tableStart, n * entrySize));
}

/** Re-seal one section's payload checksum after editing its payload. */
void
resealSection(std::string &bytes, std::uint32_t id)
{
    std::size_t at = entryOf(bytes, id);
    auto off = peek<std::uint64_t>(bytes, at + 8);
    auto size = peek<std::uint64_t>(bytes, at + 16);
    poke<std::uint64_t>(
        bytes, at + 32,
        fnv(bytes, static_cast<std::size_t>(off),
            static_cast<std::size_t>(size)));
    resealTable(bytes);
}

void
expectGmtFailure(const std::string &bytes, StatusCode code,
                 const std::string &needle)
{
    Result<KernelTrace> result = parseGmtString(bytes);
    ASSERT_FALSE(result.ok()) << "input unexpectedly parsed";
    EXPECT_EQ(result.status().code(), code)
        << result.status().toString();
    EXPECT_NE(result.status().message().find(needle),
              std::string::npos)
        << result.status().toString();
    // Hardening parity with the text parser's line numbers: every
    // rejection names the byte offset of the offending structure.
    EXPECT_NE(result.status().message().find("gmt offset"),
              std::string::npos)
        << result.status().toString();
}

// ---- round trips ----------------------------------------------------

TEST(GmtFormat, PackUnpackPackFixpoint)
{
    KernelTrace kernel = sampleKernel();
    std::string text = traceToString(kernel);

    std::string packed = gmtToString(kernel);
    Result<KernelTrace> decoded = parseGmtString(packed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();

    // Unpack reproduces the text serialization bit-identically, and
    // re-packing the decoded trace reproduces the binary image.
    EXPECT_EQ(traceToString(decoded.value()), text);
    EXPECT_EQ(gmtToString(decoded.value()), packed);
}

TEST(GmtFormat, VarintRoundTripsBitIdentically)
{
    KernelTrace kernel = sampleKernel("srad_kernel1");
    GmtWriteOptions varint;
    varint.varintLines = true;
    std::string packed = gmtToString(kernel, varint);
    EXPECT_LT(packed.size(), gmtToString(kernel).size());

    Result<KernelTrace> decoded = parseGmtString(packed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded.value().linePool(), kernel.linePool());
    EXPECT_EQ(traceToString(decoded.value()), traceToString(kernel));
}

TEST(GmtFormat, GoldenEqualityPerArchetype)
{
    // Every micro-suite archetype: the binary decode must reproduce
    // the text parse column for column.
    for (const Workload &w : microWorkloads()) {
        KernelTrace kernel = w.generate(smallConfig());
        Result<KernelTrace> from_text =
            parseTraceString(traceToString(kernel));
        Result<KernelTrace> from_gmt =
            parseGmtString(gmtToString(kernel));
        ASSERT_TRUE(from_text.ok()) << w.name;
        ASSERT_TRUE(from_gmt.ok())
            << w.name << ": " << from_gmt.status().toString();

        const KernelTrace &a = from_text.value();
        const KernelTrace &b = from_gmt.value();
        EXPECT_EQ(a.name(), b.name()) << w.name;
        EXPECT_EQ(a.instPcs(), b.instPcs()) << w.name;
        EXPECT_EQ(a.instOps(), b.instOps()) << w.name;
        EXPECT_EQ(a.instActives(), b.instActives()) << w.name;
        EXPECT_EQ(a.instDeps(), b.instDeps()) << w.name;
        EXPECT_EQ(a.instLineOffsets(), b.instLineOffsets()) << w.name;
        EXPECT_EQ(a.instLineCounts(), b.instLineCounts()) << w.name;
        EXPECT_EQ(a.linePool(), b.linePool()) << w.name;
        EXPECT_EQ(traceToString(a), traceToString(b)) << w.name;
    }
}

// ---- refusal paths --------------------------------------------------

TEST(GmtFormat, RejectsBadMagic)
{
    std::string bytes = gmtToString(sampleKernel());
    bytes[0] = 'X';
    Result<KernelTrace> result = parseGmtString(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::ParseError);
    EXPECT_NE(result.status().message().find("magic"),
              std::string::npos);
}

TEST(GmtFormat, RejectsForeignEndianness)
{
    std::string bytes = gmtToString(sampleKernel());
    // Swap the endianness tag bytes: the file of an opposite-endian
    // writer.
    std::swap(bytes[6], bytes[7]);
    expectGmtFailure(bytes, StatusCode::VersionMismatch, "endian");
}

TEST(GmtFormat, RejectsForeignVersion)
{
    std::string bytes = gmtToString(sampleKernel());
    poke<std::uint16_t>(bytes, 4, gmtVersion + 1);
    expectGmtFailure(bytes, StatusCode::VersionMismatch, "version");
}

TEST(GmtFormat, RejectsForeignLayoutToken)
{
    const std::string packed = gmtToString(sampleKernel());
    std::string foreign = packed;
    foreign[8 + 3] = '9'; // "soa1" -> "soa9"
    // "soa1", a NUL, then a stray byte: equal up to the first NUL.
    std::string stray = packed;
    stray[8 + 5] = 'x';
    for (const std::string &bytes : {foreign, stray}) {
        expectGmtFailure(bytes, StatusCode::VersionMismatch, "layout");
        // The message names the file's token and this engine's, and
        // they must read differently.
        const std::string why = parseGmtString(bytes).status().message();
        std::vector<std::string> quoted;
        for (std::size_t open = why.find('\'');
             open != std::string::npos;) {
            std::size_t close = why.find('\'', open + 1);
            ASSERT_NE(close, std::string::npos) << why;
            quoted.push_back(why.substr(open + 1, close - open - 1));
            open = why.find('\'', close + 1);
        }
        ASSERT_EQ(quoted.size(), 2u) << why;
        EXPECT_NE(quoted[0], quoted[1]) << why;
    }
    EXPECT_NE(parseGmtString(stray).status().message().find(
                  "'soa1\\x00x'"),
              std::string::npos)
        << parseGmtString(stray).status().message();
}

TEST(GmtFormat, RejectsUnknownFlags)
{
    std::string bytes = gmtToString(sampleKernel());
    poke<std::uint32_t>(bytes, 16, 1u << 5);
    expectGmtFailure(bytes, StatusCode::ParseError, "flag");
}

// ---- corruption classes ---------------------------------------------

TEST(GmtFormat, RejectsTruncation)
{
    std::string bytes = gmtToString(sampleKernel());
    // Inside the header, inside the table, inside a payload.
    for (std::size_t cut : {std::size_t(10), std::size_t(100),
                            bytes.size() - 16}) {
        expectGmtFailure(bytes.substr(0, cut),
                         StatusCode::TruncatedInput, "gmt offset");
    }
}

TEST(GmtFormat, RejectsTableChecksumFlip)
{
    std::string bytes = gmtToString(sampleKernel());
    bytes[tableStart + 16] ^= 0x01; // a section's size field
    expectGmtFailure(bytes, StatusCode::ChecksumMismatch,
                     "section table");
}

TEST(GmtFormat, RejectsPayloadChecksumFlip)
{
    for (bool varint : {false, true}) {
        GmtWriteOptions options;
        options.varintLines = varint;
        std::string bytes = gmtToString(sampleKernel(), options);
        std::size_t at = entryOf(bytes, 7); // InstPcs
        auto off = peek<std::uint64_t>(bytes, at + 8);
        bytes[static_cast<std::size_t>(off)] ^= 0x01;
        expectGmtFailure(bytes, StatusCode::ChecksumMismatch,
                         "inst_pcs");
    }
}

// Named for the chunked stream reader that once decoded .gmt files;
// the buffer decoder now runs the same check.
TEST(GmtFormat, ChunkedReaderRejectsMidStreamCorruption)
{
    // Corrupt a payload section that is consumed only after decoding
    // has begun (the header and table validate clean); both the raw
    // and varint encodings must report the mismatch, not crash.
    KernelTrace kernel = sampleKernel("srad_kernel1");
    for (bool varint : {false, true}) {
        GmtWriteOptions options;
        options.varintLines = varint;
        std::string bytes = gmtToString(kernel, options);
        // Flip the recorded checksum of section 7 (inst_pcs) and
        // re-seal the table so only the payload check can object.
        std::size_t at = entryOf(bytes, 7);
        auto sum = peek<std::uint64_t>(bytes, at + 32);
        poke<std::uint64_t>(bytes, at + 32, sum ^ 1);
        resealTable(bytes);
        expectGmtFailure(bytes, StatusCode::ChecksumMismatch,
                         "inst_pcs");
    }
}

TEST(GmtFormat, RejectsMalformedVarintPool)
{
    GmtWriteOptions varint;
    varint.varintLines = true;
    const std::string packed = gmtToString(sampleKernel(), varint);
    const std::size_t at = entryOf(packed, 11); // LinePool
    const auto off =
        static_cast<std::size_t>(peek<std::uint64_t>(packed, at + 8));
    const std::string pool = packed.substr(off);
    // The pool is the last section, so resizing it moves no other.
    ASSERT_EQ(pool.size(), peek<std::uint64_t>(packed, at + 16));

    // The file with @p bad in place of the pool, its size, checksum
    // and table resealed so only the varint decode can object.
    auto withPool = [&](const std::string &bad) {
        std::string bytes = packed.substr(0, off) + bad;
        poke<std::uint64_t>(bytes, at + 16, bad.size());
        resealSection(bytes, 11);
        return bytes;
    };

    std::string cut = pool;
    cut.back() = static_cast<char>(cut.back() | 0x80);
    expectGmtFailure(withPool(cut), StatusCode::TruncatedInput,
                     "inside a varint");
    expectGmtFailure(withPool(pool + '\0'), StatusCode::ParseError,
                     "trailing bytes");
    expectGmtFailure(withPool(std::string(10, '\x80') + '\0' + pool),
                     StatusCode::Overflow, "exceeds 64 bits");
}

TEST(GmtFormat, RejectsCountsTheBytesCannotHold)
{
    // A resealed table that claims 2^31 pool addresses in a file of a
    // few KB is truncated input; the decoder must not size the pool
    // from the claim first (16 GiB).
    constexpr std::uint64_t claimed = 1ull << 31;
    for (bool varint : {false, true}) {
        GmtWriteOptions options;
        options.varintLines = varint;
        std::string bytes = gmtToString(sampleKernel(), options);
        const std::size_t at = entryOf(bytes, 11); // LinePool
        poke<std::uint64_t>(bytes, at + 24, claimed);
        if (!varint)
            poke<std::uint64_t>(bytes, at + 16, claimed * sizeof(Addr));
        resealTable(bytes);
        expectGmtFailure(bytes, StatusCode::TruncatedInput,
                         varint ? "inside a varint"
                                : "unexpected end of input");
    }
}

TEST(GmtFormat, RejectsDuplicateSection)
{
    std::string bytes = gmtToString(sampleKernel());
    // Rewrite section 5's id to 4: two warp_ids sections.
    poke<std::uint32_t>(bytes, entryOf(bytes, 5), 4);
    resealTable(bytes);
    expectGmtFailure(bytes, StatusCode::DuplicateHeader, "duplicate");
}

TEST(GmtFormat, RejectsUnknownSectionId)
{
    std::string bytes = gmtToString(sampleKernel());
    poke<std::uint32_t>(bytes, entryOf(bytes, 5), 99);
    resealTable(bytes);
    expectGmtFailure(bytes, StatusCode::ParseError,
                     "unknown section id");
}

TEST(GmtFormat, RejectsOverflowCount)
{
    std::string bytes = gmtToString(sampleKernel());
    std::size_t at = entryOf(bytes, 7); // InstPcs
    poke<std::uint64_t>(bytes, at + 24, 1ull << 40);
    resealTable(bytes);
    expectGmtFailure(bytes, StatusCode::Overflow, "record cap");
}

TEST(GmtFormat, RejectsSizeCountDisagreement)
{
    std::string bytes = gmtToString(sampleKernel());
    std::size_t at = entryOf(bytes, 7); // InstPcs (4-byte elements)
    auto count = peek<std::uint64_t>(bytes, at + 24);
    poke<std::uint64_t>(bytes, at + 24, count - 1);
    resealTable(bytes);
    expectGmtFailure(bytes, StatusCode::ParseError, "disagrees");
}

TEST(GmtFormat, RejectsZeroWarpCount)
{
    // A structurally valid file whose kernel has no warps.
    KernelTrace empty("warpless");
    empty.addStatic(Opcode::IntAlu, "nop");
    std::string bytes = gmtToString(empty);
    expectGmtFailure(bytes, StatusCode::OutOfRange,
                     "warp count must be positive");
}

TEST(GmtFormat, RejectsZeroPerWarpInstCount)
{
    std::string bytes = gmtToString(sampleKernel());
    std::size_t at = entryOf(bytes, 6); // WarpInstCounts
    auto off = peek<std::uint64_t>(bytes, at + 8);
    poke<std::uint32_t>(bytes, static_cast<std::size_t>(off), 0);
    resealSection(bytes, 6);
    expectGmtFailure(bytes, StatusCode::OutOfRange, "positive");
}

TEST(GmtFormat, RejectsOpcodeOutsideIsa)
{
    std::string bytes = gmtToString(sampleKernel());
    std::size_t at = entryOf(bytes, 2); // StaticOps
    auto off = peek<std::uint64_t>(bytes, at + 8);
    bytes[static_cast<std::size_t>(off)] = char(0x7F);
    resealSection(bytes, 2);
    expectGmtFailure(bytes, StatusCode::NotFound, "opcode");
}

TEST(GmtFormat, RejectsPcOutOfRange)
{
    std::string bytes = gmtToString(sampleKernel());
    std::size_t at = entryOf(bytes, 7); // InstPcs
    auto off = peek<std::uint64_t>(bytes, at + 8);
    poke<std::uint32_t>(bytes, static_cast<std::size_t>(off),
                        0xFFFF0000u);
    resealSection(bytes, 7);
    expectGmtFailure(bytes, StatusCode::OutOfRange, "gmt offset");
}

// ---- fault injection ------------------------------------------------

TEST(GmtFormat, ParseSiteFaultInjectionFires)
{
    std::string bytes = gmtToString(sampleKernel());
    FaultPlan plan;
    plan.add(FaultInjection{"packed", FaultSite::Parse, 1, 0});
    ScopedEvalContext ctx("packed", CancelToken(), &plan);
    try {
        (void)parseGmtString(bytes);
        FAIL() << "injected parse fault did not fire";
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::FaultInjected);
    }
}

// ---- file-level loading ---------------------------------------------

class TraceFormatFiles : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test and process: ctest runs each case as its
        // own process, possibly in parallel, and a shared directory
        // lets one case's TearDown delete another's files.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = std::filesystem::temp_directory_path() /
              (std::string("gpumech_gmt_test_") + info->name() + "_" +
               std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::string
    path(const char *name) const
    {
        return (dir / name).string();
    }

    std::filesystem::path dir;
};

TEST_F(TraceFormatFiles, LoadTraceFileDetectsFormatByContent)
{
    KernelTrace kernel = sampleKernel();
    // The extensions deliberately lie: detection must sniff content.
    ASSERT_TRUE(
        writeTraceFile(path("text.gmt.txt"), kernel, false).ok());
    {
        std::ofstream os(path("binary.txt"), std::ios::binary);
        writeGmt(os, kernel);
    }

    Result<KernelTrace> text = loadTraceFile(path("text.gmt.txt"));
    Result<KernelTrace> binary = loadTraceFile(path("binary.txt"));
    ASSERT_TRUE(text.ok()) << text.status().toString();
    ASSERT_TRUE(binary.ok()) << binary.status().toString();
    EXPECT_EQ(traceToString(text.value()),
              traceToString(binary.value()));
}

TEST_F(TraceFormatFiles, WriteTraceFileChoosesFormatByExtension)
{
    KernelTrace kernel = sampleKernel();
    ASSERT_TRUE(writeTraceFile(path("k.gmt"), kernel, false).ok());
    ASSERT_TRUE(writeTraceFile(path("k.txt"), kernel, false).ok());

    MmapFile gmt = MmapFile::open(path("k.gmt")).valueOrDie();
    MmapFile txt = MmapFile::open(path("k.txt")).valueOrDie();
    EXPECT_TRUE(looksLikeGmt(gmt.data(), gmt.size()));
    EXPECT_FALSE(looksLikeGmt(txt.data(), txt.size()));
    EXPECT_EQ(gmt.size(), gmtToString(kernel).size());
}

TEST_F(TraceFormatFiles, MissingFileIsNotFound)
{
    Result<KernelTrace> result = loadTraceFile(path("absent.gmt"));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
}

TEST_F(TraceFormatFiles, StreamTraceSetOrdersAndContainsFailures)
{
    HardwareConfig config = smallConfig();
    KernelTrace a = sampleKernel("vectorAdd");
    KernelTrace b = sampleKernel("micro_stream");
    ASSERT_TRUE(writeTraceFile(path("a.gmt"), a, true).ok());
    ASSERT_TRUE(writeTraceFile(path("b.txt"), b, false).ok());
    {
        std::ofstream os(path("corrupt.gmt"), std::ios::binary);
        std::string bytes = gmtToString(a).substr(0, 60);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }

    std::vector<std::string> paths{path("a.gmt"), path("corrupt.gmt"),
                                   path("b.txt")};
    std::vector<std::string> seen;
    std::vector<bool> ok;
    std::vector<CollectorResult> inputs;
    streamTraceSet(paths, config,
                   [&](StreamedTrace &&st) {
                       seen.push_back(st.path);
                       ok.push_back(st.status.ok());
                       inputs.push_back(std::move(st.inputs));
                   },
                   2);

    ASSERT_EQ(seen, paths);
    EXPECT_EQ(ok, (std::vector<bool>{true, false, true}));

    // Streamed collection must be bit-identical to the serial engine.
    CollectorResult ref_a = collectInputs(a, config);
    CollectorResult ref_b = collectInputs(b, config);
    EXPECT_EQ(inputs[0].pcLatency, ref_a.pcLatency);
    EXPECT_EQ(inputs[0].avgMissLatency, ref_a.avgMissLatency);
    EXPECT_EQ(inputs[2].pcLatency, ref_b.pcLatency);
    EXPECT_EQ(inputs[2].avgMissLatency, ref_b.avgMissLatency);
}

TEST_F(TraceFormatFiles, StreamTraceSetContainsMidStreamCorruption)
{
    // Unlike the truncated file above, this .gmt has a pristine
    // header and section table; the damage is only discovered while
    // the payload streams. The failure must stay contained to its
    // file with the corruption class intact, and the healthy
    // neighbours must still evaluate.
    HardwareConfig config = smallConfig();
    KernelTrace a = sampleKernel("vectorAdd");
    KernelTrace b = sampleKernel("micro_stream");
    ASSERT_TRUE(writeTraceFile(path("a.gmt"), a, true).ok());
    ASSERT_TRUE(writeTraceFile(path("b.gmt"), b, true).ok());
    {
        std::string bytes = gmtToString(a);
        std::size_t at = entryOf(bytes, 7); // inst_pcs
        auto sum = peek<std::uint64_t>(bytes, at + 32);
        poke<std::uint64_t>(bytes, at + 32, sum ^ 1);
        resealTable(bytes);
        std::ofstream os(path("corrupt.gmt"), std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }

    std::vector<std::string> paths{path("a.gmt"), path("corrupt.gmt"),
                                   path("b.gmt")};
    std::vector<bool> ok;
    std::vector<Status> statuses;
    std::vector<CollectorResult> inputs;
    streamTraceSet(paths, config,
                   [&](StreamedTrace &&st) {
                       ok.push_back(st.status.ok());
                       statuses.push_back(st.status);
                       inputs.push_back(std::move(st.inputs));
                   },
                   2);

    ASSERT_EQ(ok, (std::vector<bool>{true, false, true}));
    EXPECT_EQ(statuses[1].code(), StatusCode::ChecksumMismatch)
        << statuses[1].toString();
    EXPECT_NE(statuses[1].message().find("inst_pcs"),
              std::string::npos)
        << statuses[1].toString();

    CollectorResult ref_a = collectInputs(a, config);
    CollectorResult ref_b = collectInputs(b, config);
    EXPECT_EQ(inputs[0].pcLatency, ref_a.pcLatency);
    EXPECT_EQ(inputs[0].avgMissLatency, ref_a.avgMissLatency);
    EXPECT_EQ(inputs[2].pcLatency, ref_b.pcLatency);
    EXPECT_EQ(inputs[2].avgMissLatency, ref_b.avgMissLatency);
}

TEST_F(TraceFormatFiles, ModelOutputsIdenticalAcrossFormatsAndJobs)
{
    HardwareConfig config = smallConfig();
    KernelTrace kernel = sampleKernel("srad_kernel1");
    ASSERT_TRUE(writeTraceFile(path("m.txt"), kernel, false).ok());
    ASSERT_TRUE(writeTraceFile(path("m.gmt"), kernel, true).ok());

    KernelTrace from_text =
        loadTraceFile(path("m.txt")).valueOrDie();
    KernelTrace from_gmt = loadTraceFile(path("m.gmt")).valueOrDie();

    GpuMechResult ref = runGpuMech(from_text, config);
    for (unsigned jobs : {1u, 4u}) {
        GpuMechProfiler profiler(from_gmt, config,
                                 RepSelection::Clustering, 2, jobs);
        GpuMechResult r = profiler.evaluate(
            SchedulingPolicy::RoundRobin);
        EXPECT_EQ(r.cpi, ref.cpi) << "jobs=" << jobs;
        EXPECT_EQ(r.ipc, ref.ipc) << "jobs=" << jobs;
        EXPECT_EQ(r.repWarpIndex, ref.repWarpIndex)
            << "jobs=" << jobs;
    }
}

} // namespace
} // namespace gpumech
