/**
 * @file
 * Golden table of every MRC profile, one digest per kernel, machine
 * shape and sampling rate.
 *
 * Pins, bit for bit, the MrcProfile collectMrcProfile() builds for
 * each registered workload (the 40 evaluation kernels, the micro suite
 * and the stress suite) at the four machine shapes of the trace digest
 * (Table I; 2 cores x 4 warps; 3 cores x 130 warps; one core with one
 * warp) and at sampling rates 1 and 0.3. A digest covers every
 * profile field and every histogram weight by its bits. At rate 0.3
 * a weight is a sum of k copies of 1/0.3, which differs from
 * k * (1/0.3) for some k, so a walk that sums weights in another order
 * fails here even where tests/golden/mrc_profile.txt (integer weights
 * only) passes. Each profile is built at 1, 2, 3 and 4 pool threads;
 * all four must match the table. Each (shape, suite) pair is one ctest
 * entry. Under ThreadSanitizer only the two smallest shapes are
 * registered, which keeps that build's run short.
 *
 * MrcDigestDeadline checks that the walk's pool stages honour the
 * caller's deadline and leave the pool usable.
 *
 * The table is tests/golden/mrc_digest.txt. A case whose line is
 * missing or differs prints its actual line after "got: ". To
 * regenerate after an intended change, delete the table's data lines
 * (the # header stays) and append the printed ones:
 *
 *   ./test_mrc_digest 2>&1 | sed -n 's/^got: //p' >> mrc_digest.txt
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "collector/mrc_collector.hh"
#include "common/isolation.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "workloads/workload.hh"

#if defined(__SANITIZE_THREAD__)
#define GPUMECH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GPUMECH_TSAN 1
#endif
#endif

namespace gpumech
{
namespace
{

/** One machine shape every workload is profiled at. */
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

/** Sampling rates every profile is built at, with their labels. */
struct Rate
{
    const char *label;
    double rate;
};

constexpr Rate kRates[] = {{"rate1", 1.0}, {"rate0.3", 0.3}};

std::vector<GoldenCase>
goldenCases()
{
#ifdef GPUMECH_TSAN
    const std::vector<Shape> shapes = {{"c2w4", 2, 4}, {"c1w1", 1, 1}};
#else
    const HardwareConfig table1 = HardwareConfig::baseline();
    const std::vector<Shape> shapes = {
        {"table1", table1.numCores, table1.warpsPerCore},
        {"c2w4", 2, 4},
        {"c3w130", 3, 130},
        {"c1w1", 1, 1}};
#endif
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

    void
    mixDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    void
    mixHist(const ReusePairHist &hist)
    {
        mix(hist.size());
        for (const auto &[key, w] : hist) {
            mix(key);
            mixDouble(w);
        }
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

/** The table line of one profile. */
std::string
formatProfile(const std::string &shape, const char *rate,
              const std::string &name, const MrcProfile &profile)
{
    Digest d;
    d.mixDouble(profile.samplingRate);
    d.mix(profile.lineBytes);
    d.mix(profile.totalLoadLines);
    d.mix(profile.sampledLoadLines);
    d.mix(profile.pcs.size());
    std::uint64_t keys = 0;
    for (const MrcPcProfile &pc : profile.pcs) {
        d.mix(pc.instCount);
        d.mix(pc.loadInsts);
        d.mix(pc.loadReqs);
        d.mix(pc.storeInsts);
        d.mix(pc.storeReqs);
        d.mixHist(pc.reqHist);
        d.mixHist(pc.instHist);
        keys += pc.reqHist.size() + pc.instHist.size();
    }
    std::ostringstream os;
    os << shape << ' ' << rate << ' ' << name
       << " loadLines=" << profile.totalLoadLines
       << " sampled=" << profile.sampledLoadLines << " keys=" << keys
       << " digest=" << d.hex();
    return os.str();
}

/** The table's lines, keyed by "shape rate kernel". */
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
        std::ifstream in(GPUMECH_GOLDEN_DIR "/mrc_digest.txt");
        t.opened = in.is_open();
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string shape, rate, kernel;
            fields >> shape >> rate >> kernel;
            t.lines[shape + ' ' + rate + ' ' + kernel] = line;
        }
        return t;
    }();
    return table;
}

class MrcDigestGolden : public ::testing::TestWithParam<GoldenCase>
{
  protected:
    void TearDown() override { setDefaultJobs(0); }
};

TEST_P(MrcDigestGolden, EveryProfileMatchesTableAtAnyJobCount)
{
    const Shape &shape = GetParam().shape;
    const auto &table = goldenTable();
    ASSERT_TRUE(table.opened)
        << "cannot read " GPUMECH_GOLDEN_DIR "/mrc_digest.txt";
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = shape.cores;
    config.warpsPerCore = shape.warps;
    for (const Workload &w : workloadsBySuite(GetParam().suite)) {
        setDefaultJobs(0);
        const KernelTrace kernel = w.generate(config);
        for (unsigned jobs : {1u, 2u, 3u, 4u}) {
            setDefaultJobs(jobs);
            for (const Rate &rate : kRates) {
                const std::string got = formatProfile(
                    shape.name, rate.label, w.name,
                    collectMrcProfile(kernel, config, rate.rate));
                auto it = table.lines.find(shape.name + ' ' +
                                           rate.label + ' ' + w.name);
                if (it == table.lines.end() || it->second != got) {
                    // Only the jobs-1 line is marked for regeneration,
                    // so a missing profile is appended once.
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
}

/** The DeadlineExceeded a profile under @p token throws, if any. */
bool
throwsDeadline(const KernelTrace &kernel, const HardwareConfig &config,
               const CancelToken &token)
{
    ScopedEvalContext scope(kernel.name(), token, nullptr);
    try {
        collectMrcProfile(kernel, config);
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::DeadlineExceeded)
            << e.status().toString();
        return true;
    }
    return false;
}

TEST(MrcDigestDeadline, WalkStopsAtTheDeadlineAndThePoolStaysUsable)
{
    // The largest profile of the table: 1.56M sampled lines, which no
    // host walks within the 10 ms deadline below. That deadline has
    // not passed when the call starts, so only the walk's own checks
    // can stop it. The stages fan out through parallelForInContext,
    // whose workers' checks Checkpoints.PoolTasksRunUnderTheCallersContext
    // shows live.
    const std::string name = "kmeans_invert_mapping";
    const HardwareConfig config = HardwareConfig::baseline();
    const KernelTrace kernel = workloadByName(name).generate(config);
    setDefaultJobs(4);
    EXPECT_TRUE(
        throwsDeadline(kernel, config, CancelToken::withTimeoutMs(10)));

    // A token that has already expired is stopped by the entry check,
    // before any stage starts.
    const CancelToken expired = CancelToken::withTimeoutMs(1);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    while (std::chrono::steady_clock::now() < until) {
    }
    EXPECT_TRUE(throwsDeadline(kernel, config, expired));

    // The pool still works: a profile without a deadline matches the
    // table.
    const auto &table = goldenTable();
    ASSERT_TRUE(table.opened);
    auto it = table.lines.find("table1 rate1 " + name);
    ASSERT_NE(it, table.lines.end());
    EXPECT_EQ(formatProfile("table1", "rate1", name,
                            collectMrcProfile(kernel, config)),
              it->second);
    setDefaultJobs(0);
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    return info.param.shape.name + '_' + info.param.suite;
}

INSTANTIATE_TEST_SUITE_P(Mrc, MrcDigestGolden,
                         ::testing::ValuesIn(goldenCases()), caseName);

} // namespace
} // namespace gpumech
