#include "core/interval_builder.hh"

#include <algorithm>
#include <cmath>

#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace gpumech
{

namespace
{

/** Accumulate a finished interval's contention annotations. */
void
annotateInterval(Interval &interval, const Opcode *ops,
                 const std::uint32_t *pcs,
                 const std::uint32_t *line_counts, std::size_t first,
                 std::size_t last, const CollectorResult &inputs)
{
    for (std::size_t k = first; k <= last; ++k) {
        if (ops[k] == Opcode::GlobalLoad) {
            const PcProfile &pc = inputs.pcs[pcs[k]];
            double reqs = static_cast<double>(line_counts[k]);
            interval.mshrReqs += reqs * pc.reqL1MissRate();
            interval.dramReqs += reqs * pc.reqL2MissRate();
            interval.memInsts += 1.0 - pc.fracL1Hit();
        } else if (ops[k] == Opcode::GlobalStore) {
            // Write-through: every store request is DRAM-bound but
            // never allocates an MSHR.
            interval.dramReqs += static_cast<double>(line_counts[k]);
        } else if (ops[k] == Opcode::Sfu) {
            interval.sfuInsts += 1.0;
        }
    }
}

/**
 * The interval algorithm's walk over one warp (Eq. 4), shared by the
 * profile and features builders. Whenever an instruction's
 * dependence-constrained issue cycle leaves a gap, the interval that
 * ends before it is closed by calling
 *
 *   close_interval(first, end, stall_cycles, binding_dep)
 *
 * for instructions [first, end), followed by stall_cycles waiting on
 * instruction binding_dep. The final interval closes with no stall
 * and binding_dep == noDep. @p done is the walk's scratch array of
 * completion cycles.
 */
template <typename CloseInterval>
void
walkIntervals(const WarpView &warp, const CollectorResult &inputs,
              const HardwareConfig &config, std::vector<double> &done,
              CloseInterval &&close_interval)
{
    const std::size_t num_insts = warp.numInsts();
    if (num_insts == 0)
        return;

    // Dense SoA windows over this warp's instructions.
    const std::uint32_t *pcs = warp.pcData();
    const DepArray *deps = warp.depData();

    const double rate = config.issueRate;
    const double issue_step = 1.0 / rate;

    done.assign(num_insts, 0.0);

    double prev_issue = 0.0;
    std::size_t interval_first = 0;

    for (std::size_t k = 0; k < num_insts; ++k) {
        if (k % deadlineCheckStride == 0)
            deadlineCheckpoint();
        // Dependence-constrained earliest issue (Eq. 4).
        double dep_ready = 0.0;
        std::int32_t binding_dep = noDep;
        for (std::int32_t d : deps[k]) {
            if (d == noDep)
                continue;
            double avail = done[static_cast<std::size_t>(d)] + 1.0;
            if (avail > dep_ready) {
                dep_ready = avail;
                binding_dep = d;
            }
        }

        double issue;
        if (k == 0) {
            issue = 0.0;
        } else {
            issue = std::max(prev_issue + issue_step, dep_ready);
        }
        done[k] = issue + inputs.latencyOf(pcs[k]);

        if (k > 0 && issue > prev_issue + issue_step) {
            // Stall detected: close the interval ending at k-1.
            close_interval(interval_first, k,
                           issue - (prev_issue + issue_step), binding_dep);
            interval_first = k;
        }
        prev_issue = issue;
    }

    // Final interval: the remaining instructions with no trailing
    // stall.
    close_interval(interval_first, num_insts, 0.0, noDep);
}

/**
 * One warp's Eq. 6 inputs: stall cycles summed in interval order, as
 * IntervalProfile::totalStallCycles() sums them.
 */
WarpFeatures
featuresOf(const WarpView &warp, const CollectorResult &inputs,
           const HardwareConfig &config, std::vector<double> &done)
{
    double stalls = 0.0;
    walkIntervals(warp, inputs, config, done,
                  [&stalls](std::size_t, std::size_t, double stall,
                            std::int32_t) { stalls += stall; });
    const std::uint64_t insts = warp.numInsts();
    return {warpPerf(insts, stalls, config.issueRate), insts};
}

} // namespace

IntervalProfile
buildIntervalProfile(const WarpView &warp, const CollectorResult &inputs,
                     const HardwareConfig &config)
{
    IntervalProfile profile;
    profile.warpId = warp.warpId();

    const Opcode *ops = warp.opData();
    const std::uint32_t *pcs = warp.pcData();
    const std::uint32_t *line_counts = warp.lineCountData();

    std::vector<double> done;
    walkIntervals(
        warp, inputs, config, done,
        [&](std::size_t first, std::size_t end, double stall,
            std::int32_t src) {
            Interval interval;
            interval.numInsts = end - first;
            interval.stallCycles = stall;
            if (src == noDep) {
                interval.cause = StallCause::None;
            } else if (ops[src] == Opcode::GlobalLoad) {
                interval.cause = StallCause::Memory;
                interval.causePc = pcs[src];
            } else {
                interval.cause = StallCause::Compute;
            }
            annotateInterval(interval, ops, pcs, line_counts, first,
                             end - 1, inputs);
            profile.intervals.push_back(std::move(interval));
        });
    return profile;
}

std::vector<IntervalProfile>
buildAllProfiles(const KernelTrace &kernel, const CollectorResult &inputs,
                 const HardwareConfig &config)
{
    evalCheckpoint(FaultSite::Profile);

    std::vector<IntervalProfile> profiles;
    profiles.reserve(kernel.numWarps());
    for (WarpView warp : kernel.warps()) {
        deadlineCheckpoint();
        profiles.push_back(buildIntervalProfile(warp, inputs, config));
    }
    return profiles;
}

std::vector<WarpFeatures>
buildAllFeatures(const KernelTrace &kernel, const CollectorResult &inputs,
                 const HardwareConfig &config, unsigned num_threads)
{
    evalCheckpoint(FaultSite::Profile);

    const std::uint32_t num_warps = kernel.numWarps();
    if (num_threads == 0)
        num_threads = defaultJobs();
    // Tiny kernels are not worth the pool handoff.
    if (num_warps < parallelWarpThreshold)
        num_threads = 1;

    std::vector<WarpFeatures> features(num_warps);
    // Chunked dynamic scheduling on the shared pool (one thread runs
    // inline): warps are claimed in chunks as workers free up, so one
    // phase's long warps spread across workers instead of pinning to
    // warp_id % num_threads.
    parallelFor(
        num_warps,
        [&](std::size_t w) {
            // Each thread reuses one scratch array for every warp it
            // walks; it holds the longest warp that thread has seen.
            thread_local std::vector<double> done;
            deadlineCheckpoint();
            features[w] = featuresOf(
                kernel.warp(static_cast<std::uint32_t>(w)), inputs,
                config, done);
        },
        4, num_threads);
    return features;
}

} // namespace gpumech
