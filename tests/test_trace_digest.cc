/**
 * @file
 * Golden table of every generator's output, one digest per kernel and
 * machine shape.
 *
 * Pins, bit for bit, the KernelTrace each registered workload (the 40
 * evaluation kernels, the micro suite and the stress suite) generates
 * at four machine shapes: Table I; 2 cores x 4 warps; 3 cores x 130
 * warps (390 warps, a count no emission batch size divides); and one
 * core with one warp. A digest covers every SoA column, the per-warp
 * metadata, the static opcodes and memoryFootprint(), so a change to
 * how warps are emitted or committed that moves a byte, or a reserved
 * capacity, fails here. Each trace is generated at 1, 2, 3 and 4
 * pool threads; all four must match the table. Each (shape, suite)
 * pair is one ctest entry, so the entries spread over ctest -j.
 *
 * The table is tests/golden/trace_digest.txt. A case whose line is
 * missing or differs prints its actual line after "got: ". To
 * regenerate after an intended change, delete the table's data lines
 * (the # header stays) and append the printed ones:
 *
 *   ./test_trace_digest 2>&1 | sed -n 's/^got: //p' >> trace_digest.txt
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

/** One machine shape every workload is generated at. */
struct Shape
{
    std::string name;
    std::uint32_t cores;
    std::uint32_t warps;
};

/** One suite's kernels at one shape (one ctest entry). */
struct GoldenCase
{
    Shape shape;
    std::string suite;
};

void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.shape.name << '_' << gc.suite;
}

std::vector<GoldenCase>
goldenCases()
{
    const HardwareConfig table1 = HardwareConfig::baseline();
    const Shape shapes[] = {
        {"table1", table1.numCores, table1.warpsPerCore},
        {"c2w4", 2, 4},
        {"c3w130", 3, 130},
        {"c1w1", 1, 1}};
    std::vector<GoldenCase> cases;
    for (const Shape &shape : shapes) {
        for (const char *suite :
             {"rodinia", "parboil", "sdk", "micro", "stress"})
            cases.push_back(GoldenCase{shape, suite});
    }
    return cases;
}

/** FNV-1a over 64-bit words, byte by byte. */
class Digest
{
  public:
    void
    mix(std::uint64_t word)
    {
        for (int b = 0; b < 8; ++b) {
            state ^= (word >> (8 * b)) & 0xff;
            state *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    mixColumn(const std::vector<T> &column)
    {
        mix(column.size());
        for (const T &v : column)
            mix(static_cast<std::uint64_t>(v));
    }

    std::string
    hex() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(state));
        return buf;
    }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

/** The table line of one generated kernel. */
std::string
formatKernel(const std::string &shape, const std::string &name,
             const KernelTrace &kernel)
{
    Digest d;
    d.mix(kernel.numStaticInsts());
    for (const StaticInst &s : kernel.staticInsts())
        d.mix(static_cast<std::uint64_t>(s.op));
    d.mix(kernel.numWarps());
    for (const WarpView w : kernel.warps()) {
        d.mix(w.warpId());
        d.mix(w.blockId());
        d.mix(kernel.instOffsetOf(w.index()));
        d.mix(w.numInsts());
    }
    d.mixColumn(kernel.instPcs());
    d.mixColumn(kernel.instOps());
    d.mixColumn(kernel.instActives());
    d.mix(kernel.instDeps().size());
    for (const DepArray &deps : kernel.instDeps()) {
        for (std::int32_t dep : deps)
            d.mix(static_cast<std::uint32_t>(dep));
    }
    d.mixColumn(kernel.instLineOffsets());
    d.mixColumn(kernel.instLineCounts());
    d.mixColumn(kernel.linePool());
    d.mix(kernel.memoryFootprint());

    std::ostringstream os;
    os << shape << ' ' << name << " warps=" << kernel.numWarps()
       << " insts=" << kernel.totalInsts()
       << " lines=" << kernel.totalLines()
       << " bytes=" << kernel.memoryFootprint() << " digest=" << d.hex();
    return os.str();
}

/** The table's lines, keyed by "shape kernel". */
struct GoldenTable
{
    bool opened = false;
    std::map<std::string, std::string> lines;
};

const GoldenTable &
goldenTable()
{
    static const GoldenTable table = [] {
        GoldenTable t;
        std::ifstream in(GPUMECH_GOLDEN_DIR "/trace_digest.txt");
        t.opened = in.is_open();
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string shape, kernel;
            fields >> shape >> kernel;
            t.lines[shape + ' ' + kernel] = line;
        }
        return t;
    }();
    return table;
}

class TraceDigestGolden : public ::testing::TestWithParam<GoldenCase>
{
  protected:
    void TearDown() override { setDefaultJobs(0); }
};

TEST_P(TraceDigestGolden, EveryWorkloadMatchesTableAtAnyJobCount)
{
    const Shape &shape = GetParam().shape;
    const auto &table = goldenTable();
    ASSERT_TRUE(table.opened)
        << "cannot read " GPUMECH_GOLDEN_DIR "/trace_digest.txt";
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = shape.cores;
    config.warpsPerCore = shape.warps;
    for (unsigned jobs : {1u, 2u, 3u, 4u}) {
        setDefaultJobs(jobs);
        for (const Workload &w : workloadsBySuite(GetParam().suite)) {
            const std::string got =
                formatKernel(shape.name, w.name, w.generate(config));
            auto it = table.lines.find(shape.name + ' ' + w.name);
            if (it == table.lines.end() || it->second != got) {
                // Only the jobs-1 line is marked for regeneration, so
                // a missing kernel is appended once.
                ADD_FAILURE()
                    << "jobs " << jobs << "\nwant: "
                    << (it == table.lines.end() ? "(no line)"
                                                : it->second)
                    << (jobs == 1 ? "\ngot: " : "\ngot at jobs>1: ")
                    << got;
            }
        }
    }
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    return info.param.shape.name + '_' + info.param.suite;
}

INSTANTIATE_TEST_SUITE_P(Trace, TraceDigestGolden,
                         ::testing::ValuesIn(goldenCases()), caseName);

} // namespace
} // namespace gpumech
