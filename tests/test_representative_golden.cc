/**
 * @file
 * Golden table of representative-warp selection.
 *
 * Pins, bit for bit, what the profiling front end picks and keeps for
 * every evaluation, micro and stress kernel on a 2-core Table I
 * machine. Per kernel the table holds:
 *
 *  - a "features" line: the warp count and a 64-bit digest of every
 *    warp's Eq. 6 inputs, (warpPerf bits, totalInsts), in warp order;
 *  - one line per selector (Clustering, MAX, MIN): GpuMechProfiler's
 *    repIndex(), the representative profile's interval count, its
 *    warpPerf (%a) and totalInsts, and a 64-bit digest over every
 *    field of every Interval.
 *
 * Every value is checked at profile_threads 1 and 4, so the parallel
 * profiling path must agree with the serial one. A case whose line is
 * missing or differs at one thread prints its actual line after
 * "got: ". To regenerate after an intended change, delete the table's
 * data lines (the # header stays) and append the printed ones:
 *
 *   ./test_representative_golden 2>&1 | sed -n 's/^got: //p' \
 *       >> representative.txt
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/gpumech.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

HardwareConfig
twoCoreTableI()
{
    HardwareConfig c = HardwareConfig::baseline();
    c.numCores = 2;
    return c;
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** FNV-1a over 64-bit words. */
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

    void
    mix(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
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

/** The table's line for one kernel's per-warp features. */
std::string
featuresLine(const std::string &kernel,
             const std::vector<WarpFeatures> &features)
{
    Digest d;
    for (const WarpFeatures &f : features) {
        d.mix(f.perf);
        d.mix(f.insts);
    }
    std::ostringstream os;
    os << kernel << " features warps=" << features.size()
       << " digest=" << d.hex();
    return os.str();
}

/** The table's line for one kernel's representative under a selector. */
std::string
repLine(const std::string &kernel, RepSelection sel,
        const GpuMechProfiler &profiler, const HardwareConfig &config)
{
    const IntervalProfile &rep = profiler.repProfile();
    Digest d;
    for (const Interval &iv : rep.intervals) {
        d.mix(iv.numInsts);
        d.mix(iv.stallCycles);
        d.mix(static_cast<std::uint64_t>(iv.cause));
        d.mix(static_cast<std::uint64_t>(iv.causePc));
        d.mix(iv.mshrReqs);
        d.mix(iv.dramReqs);
        d.mix(iv.memInsts);
        d.mix(iv.sfuInsts);
    }
    std::ostringstream os;
    os << kernel << ' ' << toString(sel) << " rep=" << profiler.repIndex()
       << " intervals=" << rep.intervals.size()
       << " warpPerf=" << hexDouble(rep.warpPerf(config.issueRate))
       << " totalInsts=" << rep.totalInsts() << " digest=" << d.hex();
    return os.str();
}

/** The table's lines, keyed by "kernel column". */
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
        std::ifstream in(GPUMECH_GOLDEN_DIR "/representative.txt");
        t.opened = in.is_open();
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string kernel, column;
            fields >> kernel >> column;
            t.lines[kernel + ' ' + column] = line;
        }
        return t;
    }();
    return table;
}

/**
 * Compare one computed line with the table. Only the serial run
 * prints "got: ", so the regeneration recipe picks up each line once.
 */
void
expectLine(const std::string &key, const std::string &got,
           unsigned threads)
{
    const auto &table = goldenTable();
    auto it = table.lines.find(key);
    if (it != table.lines.end() && it->second == got)
        return;
    std::string want =
        it == table.lines.end() ? "(no line)" : it->second;
    if (threads == 1) {
        ADD_FAILURE() << "want: " << want << "\ngot: " << got;
    } else {
        ADD_FAILURE() << "profile_threads=" << threads
                      << "\nwant: " << want << "\nhas:  " << got;
    }
}

class RepresentativeGolden
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RepresentativeGolden, PicksMatchTable)
{
    ASSERT_TRUE(goldenTable().opened)
        << "cannot read " GPUMECH_GOLDEN_DIR "/representative.txt";
    const HardwareConfig config = twoCoreTableI();
    for (const Workload &w : workloadsBySuite(GetParam())) {
        const KernelTrace kernel = w.generate(config);
        auto inputs = std::make_shared<const CollectorResult>(
            collectInputs(kernel, config));
        for (unsigned threads : {1u, 4u}) {
            expectLine(w.name + " features",
                       featuresLine(w.name,
                                    buildAllFeatures(kernel, *inputs,
                                                     config, threads)),
                       threads);
            for (RepSelection sel :
                 {RepSelection::Clustering, RepSelection::MaxPerf,
                  RepSelection::MinPerf}) {
                GpuMechProfiler profiler(kernel, config, sel, 2, threads,
                                         inputs);
                expectLine(w.name + ' ' + toString(sel),
                           repLine(w.name, sel, profiler, config),
                           threads);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Representative, RepresentativeGolden,
    ::testing::Values("rodinia", "parboil", "sdk", "micro", "stress"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace gpumech
