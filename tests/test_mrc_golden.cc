/**
 * @file
 * Golden table of the MRC layer's profiles and derivations.
 *
 * Pins, bit for bit, what collectMrcProfile() records and what
 * deriveCollectorResult() makes of it, for every evaluation, micro and
 * stress kernel on a 2-core Table I machine at sampling rate 1.0, plus
 * the micro kernels at rates 0.5 and 0.1. Optimizations of the
 * tracker, the histograms or the walk must leave the table unchanged.
 *
 * The table is tests/golden/mrc_profile.txt. Each kernel contributes
 * one line per global-memory PC and one "all" line:
 *
 *  - a PC line holds the PC's four exact counts; for reqHist and
 *    instHist the key count, the total weight and a 64-bit digest of
 *    the key-sorted (key, weight) pairs; and, at each of four
 *    geometries, the derived per-PC counts and pcLatency;
 *  - the "all" line holds the profile's line totals and, at each
 *    geometry, avgMissLatency, l1HitRate, l2HitRate and
 *    mrcApproximate.
 *
 * Doubles are written with %a. A case whose line is missing or differs
 * prints its actual line after "got: ". To regenerate after an
 * intended change, delete the table's data lines (the # header stays)
 * and append the printed ones:
 *
 *   ./test_mrc_golden 2>&1 | sed -n 's/^got: //p' >> mrc_profile.txt
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collector/mrc_collector.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

/** One group of kernels profiled at one sampling rate. */
struct GoldenCase
{
    std::string name;  //!< ctest suffix
    std::string label; //!< first column of the table
    double rate;
    std::vector<std::string> kernels;
};

void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.name;
}

HardwareConfig
twoCoreTableI()
{
    HardwareConfig c = HardwareConfig::baseline();
    c.numCores = 2;
    return c;
}

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    auto add = [&cases](const std::string &name,
                        const std::string &label, double rate,
                        const char *suite) {
        GoldenCase gc{name, label, rate, {}};
        for (const auto &w : workloadsBySuite(suite))
            gc.kernels.push_back(w.name);
        cases.push_back(std::move(gc));
    };
    for (const char *suite :
         {"rodinia", "parboil", "sdk", "micro", "stress"})
        add(std::string("rate1_") + suite, "rate1", 1.0, suite);
    add("rate05_micro", "rate0.5", 0.5, "micro");
    add("rate01_micro", "rate0.1", 0.1, "micro");
    return cases;
}

/** A geometry every profile is derived at. */
struct Geometry
{
    const char *name;
    HardwareConfig config;
};

std::vector<Geometry>
geometries()
{
    HardwareConfig table1 = twoCoreTableI();
    HardwareConfig full = table1;
    full.l1Assoc = full.l1SizeBytes / full.l1LineBytes;
    full.l2Assoc = full.l2SizeBytes / full.l2LineBytes;
    HardwareConfig half = table1;
    half.l1SizeBytes = 16 * 1024;
    half.l2SizeBytes = 384 * 1024;
    HardwareConfig twice = table1;
    twice.l1SizeBytes = 64 * 1024;
    twice.l2SizeBytes = 1536 * 1024;
    return {{"table1", table1},
            {"fullassoc", full},
            {"l1_16k_l2_384k", half},
            {"l1_64k_l2_1536k", twice}};
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/**
 * Key count, key-order weight sum and FNV-1a digest of one histogram's
 * key-sorted (key, weight bits) pairs.
 */
template <typename Hist>
std::string
histSummary(const Hist &hist)
{
    std::vector<std::pair<std::uint64_t, double>> pairs(hist.begin(),
                                                        hist.end());
    std::sort(pairs.begin(), pairs.end());
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    auto mix = [&digest](std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            digest ^= (word >> (8 * b)) & 0xff;
            digest *= 0x100000001b3ULL;
        }
    };
    double total = 0.0;
    for (const auto &[key, w] : pairs) {
        std::uint64_t bits;
        std::memcpy(&bits, &w, sizeof(bits));
        mix(key);
        mix(bits);
        total += w;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    std::ostringstream os;
    os << pairs.size() << '/' << hexDouble(total) << '/' << buf;
    return os.str();
}

/** The table's lines for one kernel, in PC order then "all". */
std::vector<std::string>
formatKernel(const std::string &label, const std::string &name,
             const KernelTrace &kernel, const MrcProfile &profile,
             const std::vector<CollectorResult> &derived)
{
    const std::vector<Geometry> geos = geometries();
    std::vector<std::string> lines;
    for (std::uint32_t pc = 0; pc < kernel.numStaticInsts(); ++pc) {
        if (!isGlobalMemory(kernel.opcodeOf(pc)))
            continue;
        const MrcPcProfile &mp = profile.pcs[pc];
        std::ostringstream os;
        os << label << ' ' << name << " pc" << pc
           << " loadInsts=" << mp.loadInsts
           << " loadReqs=" << mp.loadReqs
           << " storeInsts=" << mp.storeInsts
           << " storeReqs=" << mp.storeReqs
           << " reqHist=" << histSummary(mp.reqHist)
           << " instHist=" << histSummary(mp.instHist);
        for (std::size_t g = 0; g < geos.size(); ++g) {
            const PcProfile &p = derived[g].pcs[pc];
            os << ' ' << geos[g].name << '=' << p.instCount << ','
               << p.instL1Hit << ',' << p.instL2Hit << ','
               << p.instL2Miss << ',' << p.reqCount << ','
               << p.reqL1Miss << ',' << p.reqL2Miss << ','
               << hexDouble(derived[g].pcLatency[pc]);
        }
        lines.push_back(os.str());
    }
    std::ostringstream os;
    os << label << ' ' << name << " all"
       << " totalLoadLines=" << profile.totalLoadLines
       << " sampledLoadLines=" << profile.sampledLoadLines;
    for (std::size_t g = 0; g < geos.size(); ++g) {
        const CollectorResult &r = derived[g];
        os << ' ' << geos[g].name << '='
           << hexDouble(r.avgMissLatency) << ','
           << hexDouble(r.l1HitRate) << ',' << hexDouble(r.l2HitRate)
           << ',' << (r.mrcApproximate ? 1 : 0);
    }
    lines.push_back(os.str());
    return lines;
}

/** The table's lines, keyed by "label kernel pc". */
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
        std::ifstream in(GPUMECH_GOLDEN_DIR "/mrc_profile.txt");
        t.opened = in.is_open();
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string label, kernel, pc;
            fields >> label >> kernel >> pc;
            t.lines[label + ' ' + kernel + ' ' + pc] = line;
        }
        return t;
    }();
    return table;
}

class MrcGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(MrcGolden, ProfileMatchesTable)
{
    const GoldenCase &gc = GetParam();
    const auto &table = goldenTable();
    ASSERT_TRUE(table.opened)
        << "cannot read " GPUMECH_GOLDEN_DIR "/mrc_profile.txt";
    const HardwareConfig config = twoCoreTableI();
    for (const std::string &name : gc.kernels) {
        KernelTrace kernel = workloadByName(name).generate(config);
        MrcProfile profile = collectMrcProfile(kernel, config, gc.rate);
        std::vector<CollectorResult> derived;
        for (const Geometry &geo : geometries())
            derived.push_back(
                deriveCollectorResult(profile, kernel, geo.config));
        for (const std::string &got :
             formatKernel(gc.label, name, kernel, profile, derived)) {
            std::istringstream fields(got);
            std::string label, kernel_name, pc;
            fields >> label >> kernel_name >> pc;
            auto it =
                table.lines.find(label + ' ' + kernel_name + ' ' + pc);
            if (it == table.lines.end() || it->second != got) {
                ADD_FAILURE()
                    << "want: "
                    << (it == table.lines.end() ? "(no line)"
                                                : it->second)
                    << "\ngot: " << got;
            }
        }
    }
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Mrc, MrcGolden,
                         ::testing::ValuesIn(goldenCases()), caseName);

} // namespace
} // namespace gpumech
