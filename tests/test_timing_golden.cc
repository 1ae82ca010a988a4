/**
 * @file
 * Golden table of the timing oracle's statistics.
 *
 * Pins every TimingStats field, bit for bit, for every evaluation,
 * micro and stress kernel under RR and GTO on a 2-core Table I
 * machine, plus kernel subsets at four off-baseline configurations
 * that reach paths Table I leaves cold: a small MSHR file at low
 * bandwidth, dual issue, a 4-lane SFU (no Table I run stalls on the
 * SFU), and more than 128 warps per core. Scheduler optimizations
 * must leave the table unchanged.
 *
 * The table is tests/golden/timing_stats.txt: one line per
 * configuration, policy and kernel, with every field as key=value and
 * the one double written with %a. A case whose line is missing or
 * differs prints its actual line after "got: ". To regenerate after
 * an intended change, delete the table's data lines (the # header
 * stays) and append the printed ones:
 *
 *   ./test_timing_golden 2>&1 | sed -n 's/^got: //p' >> timing_stats.txt
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "timing/gpu_timing.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

/** One group of kernels simulated at one configuration. */
struct GoldenCase
{
    std::string name;    //!< ctest suffix (before the policy)
    std::string label;   //!< configuration column of the table
    HardwareConfig config;
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
    for (const char *suite :
         {"rodinia", "parboil", "sdk", "micro", "stress"}) {
        GoldenCase gc{std::string("table1_") + suite, "table1",
                      twoCoreTableI(), {}};
        for (const auto &w : workloadsBySuite(suite))
            gc.kernels.push_back(w.name);
        cases.push_back(std::move(gc));
    }

    HardwareConfig mshr = twoCoreTableI();
    mshr.numMshrs = 8;
    mshr.dramBandwidthGBs = 96.0;
    cases.push_back({"mshr8_bw96", "mshr8_bw96", mshr,
                     {"srad_kernel1", "kmeans_invert_mapping",
                      "spmv_jds", "sad_calc_8", "transpose_naive",
                      "micro_divergent32", "stress_alternating"}});

    HardwareConfig dual = twoCoreTableI();
    dual.issueWidth = 2;
    cases.push_back({"issue2", "issue2", dual,
                     {"hotspot_calculate_temp", "bfs_kernel1",
                      "blackscholes", "micro_compute_chain",
                      "micro_stream", "micro_sfu_heavy",
                      "micro_control_divergent"}});

    HardwareConfig sfu = twoCoreTableI();
    sfu.sfuLanes = 4;
    cases.push_back({"sfu4", "sfu4", sfu,
                     {"mri_q_computeQ", "tpacf_gen_hists",
                      "blackscholes", "montecarlo",
                      "micro_sfu_heavy"}});

    HardwareConfig wide = twoCoreTableI();
    wide.warpsPerCore = 130;
    cases.push_back({"warps130", "warps130", wide,
                     {"srad_kernel2", "bfs_kernel2", "micro_stream",
                      "micro_divergent8", "micro_pointer_chase",
                      "micro_control_divergent", "stress_two_phase"}});
    return cases;
}

/** The table's line for one run. */
std::string
formatLine(const std::string &label, SchedulingPolicy policy,
           const std::string &kernel, const TimingStats &s)
{
    char delay[64];
    std::snprintf(delay, sizeof(delay), "%a", s.avgDramQueueDelay);
    std::ostringstream os;
    os << label << ' ' << toString(policy) << ' ' << kernel
       << " totalCycles=" << s.totalCycles
       << " totalInsts=" << s.totalInsts
       << " threadInsts=" << s.threadInsts
       << " warpSize=" << s.warpSize
       << " coresUsed=" << s.coresUsed
       << " l1Accesses=" << s.l1Accesses
       << " l1Hits=" << s.l1Hits
       << " l2Accesses=" << s.l2Accesses
       << " l2Hits=" << s.l2Hits
       << " dramReads=" << s.dramReads
       << " dramWrites=" << s.dramWrites
       << " avgDramQueueDelay=" << delay
       << " mshrPeak=" << s.mshrPeak
       << " mshrAllocs=" << s.mshrAllocs
       << " mshrMerges=" << s.mshrMerges
       << " stallMemCycles=" << s.stallMemCycles
       << " stallComputeCycles=" << s.stallComputeCycles
       << " stallMshrCycles=" << s.stallMshrCycles
       << " stallSfuCycles=" << s.stallSfuCycles;
    return os.str();
}

/** The table's lines, keyed by "label policy kernel". */
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
        std::ifstream in(GPUMECH_GOLDEN_DIR "/timing_stats.txt");
        t.opened = in.is_open();
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string label, policy, kernel;
            fields >> label >> policy >> kernel;
            t.lines[label + ' ' + policy + ' ' + kernel] = line;
        }
        return t;
    }();
    return table;
}

using GoldenParam = std::tuple<GoldenCase, SchedulingPolicy>;

class TimingGolden : public ::testing::TestWithParam<GoldenParam>
{
};

TEST_P(TimingGolden, StatsMatchTable)
{
    const auto &[gc, policy] = GetParam();
    const auto &table = goldenTable();
    ASSERT_TRUE(table.opened)
        << "cannot read " GPUMECH_GOLDEN_DIR "/timing_stats.txt";
    for (const std::string &name : gc.kernels) {
        KernelTrace kernel = workloadByName(name).generate(gc.config);
        GpuTiming sim(kernel, gc.config, policy);
        std::string got = formatLine(gc.label, policy, name, sim.run());
        auto it = table.lines.find(gc.label + ' ' + toString(policy) +
                                   ' ' + name);
        if (it == table.lines.end() || it->second != got) {
            ADD_FAILURE()
                << "want: "
                << (it == table.lines.end() ? "(no line)" : it->second)
                << "\ngot: " << got;
        }
    }
}

std::string
caseName(const ::testing::TestParamInfo<GoldenParam> &info)
{
    const auto &[gc, policy] = info.param;
    return gc.name + '_' + toString(policy);
}

INSTANTIATE_TEST_SUITE_P(
    Oracle, TimingGolden,
    ::testing::Combine(
        ::testing::ValuesIn(goldenCases()),
        ::testing::Values(SchedulingPolicy::RoundRobin,
                          SchedulingPolicy::GreedyThenOldest)),
    caseName);

} // namespace
} // namespace gpumech
