#include "timing/gpu_timing.hh"

#include <algorithm>
#include <cmath>

#include "common/isolation.hh"
#include "common/logging.hh"

namespace gpumech
{

double
TimingStats::cpi() const
{
    if (totalInsts == 0 || coresUsed == 0)
        return 0.0;
    double insts_per_core =
        static_cast<double>(totalInsts) / coresUsed;
    return static_cast<double>(totalCycles) / insts_per_core;
}

double
TimingStats::ipc() const
{
    return totalCycles == 0
        ? 0.0
        : static_cast<double>(totalInsts) /
              static_cast<double>(totalCycles);
}

namespace
{

double
perInstShare(std::uint64_t cycles, std::uint64_t insts)
{
    return insts == 0
        ? 0.0
        : static_cast<double>(cycles) / static_cast<double>(insts);
}

} // namespace

double
TimingStats::simdEfficiency() const
{
    if (totalInsts == 0 || warpSize == 0)
        return 0.0;
    return static_cast<double>(threadInsts) /
           (static_cast<double>(totalInsts) * warpSize);
}

double
TimingStats::memStallCpi() const
{
    return perInstShare(stallMemCycles, totalInsts);
}

double
TimingStats::computeStallCpi() const
{
    return perInstShare(stallComputeCycles, totalInsts);
}

double
TimingStats::mshrStallCpi() const
{
    return perInstShare(stallMshrCycles, totalInsts);
}

double
TimingStats::sfuStallCpi() const
{
    return perInstShare(stallSfuCycles, totalInsts);
}

GpuTiming::GpuTiming(const KernelTrace &kernel,
                     const HardwareConfig &config, SchedulingPolicy policy)
    : kernel(kernel), config(config), policy(policy), hierarchy(config),
      dram(config)
{
    cores.reserve(config.numCores);
    for (std::uint32_t c = 0; c < config.numCores; ++c)
        cores.emplace_back(c, config.numMshrs);

    for (WarpView warp : kernel.warps()) {
        auto core_id = kernel.coreOf(warp, config);
        WarpContext ctx;
        ctx.trace = warp;
        ctx.doneCycle.assign(warp.numInsts(), cycleUnknown);
        ctx.pendingFills.assign(warp.numInsts(), 0);
        ctx.fillHighWater.assign(warp.numInsts(), 0);
        cores[core_id].warps.push_back(std::move(ctx));
    }
    for (CoreState &core : cores)
        core.initSlots();
}

bool
GpuTiming::canIssue(CoreState &core, std::uint32_t slot,
                    std::uint64_t cycle)
{
    WarpContext &warp = core.warps[slot];
    if (warp.readyCycle > cycle)
        return false;

    Opcode op = warp.nextOp();
    if (op == Opcode::Sfu)
        return cycle >= core.sfuBusyUntil;
    if (op != Opcode::GlobalLoad)
        return true;

    // Loads dispatch their line requests in order, in waves when the
    // MSHR file runs dry (hardware replay). The warp can be scheduled
    // when its first pending line can make progress: a free MSHR entry
    // exists, it merges, or it hits L1. A warp that fails is not
    // offered again until an entry is retired.
    Addr line = warp.nextLines()[warp.lineCursor];
    bool progress = !core.mshrs.full() || core.mshrs.outstanding(line) ||
                    hierarchy.l1(core.id()).probe(line);
    core.setMshrBlocked(slot, !progress);
    return progress;
}

void
GpuTiming::doIssue(CoreState &core, std::uint32_t slot,
                   std::uint64_t cycle)
{
    WarpContext &warp = core.warps[slot];
    std::uint64_t idx = warp.nextIdx;
    const Opcode op = warp.nextOp();
    const std::uint32_t active = warp.trace.activeThreads(warp.nextIdx);
    const LineSpan lines = warp.nextLines();

    if (op == Opcode::GlobalLoad) {
        std::uint64_t hit_done = cycle + config.l1HitLatency;
        if (warp.lineCursor == 0) {
            warp.fillHighWater[idx] = hit_done;
        } else {
            // Replay wave: hits in this wave complete later than the
            // first wave's.
            warp.fillHighWater[idx] =
                std::max(warp.fillHighWater[idx], hit_done);
        }

        std::uint32_t added = 0;
        std::uint32_t i = warp.lineCursor;
        for (; i < lines.size(); ++i) {
            Addr line = lines[i];
            if (core.mshrs.outstanding(line)) {
                core.mshrs.merge(line, MshrWaiter{slot, idx});
                ++added;
                continue;
            }
            if (hierarchy.l1(core.id()).lookup(line)) {
                continue; // L1 hit: covered by fillHighWater
            }
            if (core.mshrs.full())
                break; // continue in a later wave
            // Fresh L1 miss: allocate an entry and send to L2/DRAM.
            // The L1 tag is installed when the fill returns
            // (handleFill), so the issue probe and this loop agree.
            core.mshrs.allocate(line, MshrWaiter{slot, idx});
            ++added;
            std::uint64_t fill;
            if (hierarchy.l2().access(line)) {
                fill = cycle + config.l2HitLatency;
            } else {
                DramTiming t = dram.read(
                    static_cast<double>(cycle) + config.l2HitLatency);
                fill = static_cast<std::uint64_t>(
                    std::ceil(t.fillCycle));
            }
            events.push(FillEvent{fill, core.id(), line});
        }
        warp.pendingFills[idx] += added;

        if (i < lines.size()) {
            // MSHRs ran dry mid-instruction: hold the warp on this
            // instruction and resume when entries free up.
            bool first_wave = warp.lineCursor == 0;
            if (first_wave)
                core.threadInstsIssued += active;
            warp.lineCursor = i;
            core.setMshrBlocked(slot, true);
            warp.readyCycle = cycle + 1;
            core.issued(slot, first_wave);
            return;
        }

        bool first_wave = warp.lineCursor == 0;
        if (first_wave) {
            // Replay waves re-issue the same instruction; count its
            // active lanes once.
            core.threadInstsIssued += active;
        }
        warp.lineCursor = 0;
        if (warp.pendingFills[idx] == 0) {
            complete(core, slot, idx, warp.fillHighWater[idx]);
        } else {
            ++outstandingLoads;
        }
        ++warp.nextIdx;
        updateReadiness(core, slot, cycle);
        core.issued(slot, first_wave);
        return;
    }

    if (op == Opcode::GlobalStore) {
        // Write-through, no-allocate: each coalesced request consumes
        // DRAM bandwidth; the warp does not wait.
        for (std::size_t i = 0; i < lines.size(); ++i) {
            dram.write(static_cast<double>(cycle) +
                       config.l2HitLatency);
        }
        complete(core, slot, idx, cycle + 1);
    } else {
        if (op == Opcode::Sfu) {
            // Occupy the SFU for warpSize / sfuLanes cycles.
            core.sfuBusyUntil = cycle + config.sfuOccupancyCycles();
        }
        complete(core, slot, idx,
                 cycle + fixedLatency(op, config.latency));
    }

    core.threadInstsIssued += active;
    ++warp.nextIdx;
    updateReadiness(core, slot, cycle);
    core.issued(slot);
}

void
GpuTiming::updateReadiness(CoreState &core, std::uint32_t slot,
                           std::uint64_t cycle)
{
    WarpContext &warp = core.warps[slot];
    warp.numWaiting = 0;
    if (warp.finishedIssuing()) {
        core.markFinished(slot);
        return;
    }
    std::uint64_t ready = cycle + 1;
    for (std::int32_t dep : warp.trace.deps(warp.nextIdx)) {
        if (dep == noDep)
            continue;
        std::uint64_t done = warp.doneCycle[static_cast<std::size_t>(dep)];
        if (done == cycleUnknown) {
            warp.waitingOn[warp.numWaiting++] = dep;
        } else {
            ready = std::max(ready, done + 1);
        }
    }
    warp.readyCycle = ready;
    core.syncWaiting(slot);
}

void
GpuTiming::complete(CoreState &core, std::uint32_t slot,
                    std::uint64_t inst_idx, std::uint64_t done)
{
    WarpContext &warp = core.warps[slot];
    warp.doneCycle[inst_idx] = done;
    maxDone = std::max(maxDone, done);

    // Wake the warp if its next instruction was waiting on this one.
    if (warp.numWaiting > 0) {
        std::uint32_t remaining = 0;
        for (std::uint32_t i = 0; i < warp.numWaiting; ++i) {
            if (warp.waitingOn[i] ==
                static_cast<std::int64_t>(inst_idx)) {
                warp.readyCycle = std::max(warp.readyCycle, done + 1);
            } else {
                warp.waitingOn[remaining++] = warp.waitingOn[i];
            }
        }
        warp.numWaiting = remaining;
        core.syncWaiting(slot);
    }
}

void
GpuTiming::handleFill(const FillEvent &event)
{
    CoreState &core = cores[event.core];
    hierarchy.l1(core.id()).fill(event.line);
    auto waiters = core.mshrs.retire(event.line);
    core.mshrEntryRetired();
    // A freed MSHR entry or a completed load can unblock the core.
    core.sleepUntil = std::min(core.sleepUntil, event.cycle + 1);
    for (const auto &w : waiters) {
        WarpContext &warp = core.warps[w.warpSlot];
        warp.fillHighWater[w.instIdx] =
            std::max(warp.fillHighWater[w.instIdx], event.cycle);
        if (--warp.pendingFills[w.instIdx] == 0) {
            // A load still mid-dispatch (instIdx == nextIdx) is not
            // complete; its final dispatch wave resolves it.
            if (w.instIdx < warp.nextIdx) {
                --outstandingLoads;
                complete(core, w.warpSlot, w.instIdx,
                         warp.fillHighWater[w.instIdx]);
            }
        }
    }
}

std::uint64_t
GpuTiming::nextInterestingCycle(std::uint64_t cycle) const
{
    std::uint64_t next = cycleUnknown;
    if (!events.empty())
        next = events.top().cycle;
    for (const auto &core : cores) {
        if (core.allIssued())
            continue;
        next = std::min(next, std::max(core.sleepUntil, cycle + 1));
    }
    return next;
}

TimingStats
GpuTiming::run()
{
    std::uint64_t cycle = 0;
    auto can_issue_total = [this]() {
        std::uint64_t remaining = 0;
        for (const auto &core : cores) {
            for (const auto &warp : core.warps)
                remaining += warp.trace.numInsts() - warp.nextIdx;
        }
        return remaining;
    };

    std::uint64_t iterations = 0;
    while (true) {
        if (iterations++ % deadlineCheckStride == 0)
            deadlineCheckpoint();
        while (!events.empty() && events.top().cycle <= cycle) {
            FillEvent e = events.top();
            events.pop();
            // A fill can change a stalled core's blocking reason:
            // charge the cycles before it to the old one.
            CoreState &core = cores[e.core];
            core.settleStall(cycle);
            handleFill(e);
            if (core.stalled())
                core.openStall(cycle);
        }

        // Cores that do not issue are charged lazily: a stall span
        // opens when a core fails to issue and is settled when it
        // wakes or a fill arrives.
        bool all_issued = true;
        bool any_issued = false;
        for (CoreState &core : cores) {
            if (core.allIssued())
                continue;
            all_issued = false;
            if (core.sleepUntil > cycle) {
                core.checkSfuStall(cycle);
                continue;
            }
            core.closeStall(cycle);
            auto can_issue = [&](std::uint32_t slot) {
                return canIssue(core, slot, cycle);
            };
            // Issue up to issueWidth warp-instructions per cycle
            // (Table I uses width 1; wider configs are a supported
            // design-space axis).
            std::uint32_t issued_n = 0;
            while (issued_n < config.issueWidth) {
                std::int32_t slot = core.pick(policy, can_issue);
                if (slot < 0)
                    break;
                doIssue(core, static_cast<std::uint32_t>(slot), cycle);
                ++issued_n;
            }
            if (issued_n > 0) {
                core.sleepUntil = cycle + 1;
                any_issued = true;
            } else {
                // Nothing issuable: sleep until the earliest resolved
                // readiness; fills reset this via handleFill.
                std::uint64_t next = cycleUnknown;
                core.forEachIdle([&](std::uint32_t slot) {
                    const WarpContext &warp = core.warps[slot];
                    std::uint64_t ready = warp.readyCycle;
                    if (warp.nextOp() == Opcode::Sfu)
                        ready = std::max(ready, core.sfuBusyUntil);
                    next = std::min(next, ready);
                });
                core.sleepUntil = next;
                core.openStall(cycle);
            }
        }

        if (all_issued && events.empty() && outstandingLoads == 0)
            break;

        if (any_issued) {
            ++cycle;
            continue;
        }
        std::uint64_t next = nextInterestingCycle(cycle);
        if (next == cycleUnknown) {
            panic(msg("timing simulator deadlock at cycle ", cycle,
                      " with ", can_issue_total(),
                      " instructions remaining"));
        }
        cycle = std::max(cycle + 1, next);
    }

    TimingStats stats;
    stats.totalCycles = maxDone;
    stats.warpSize = config.warpSize;
    for (const auto &core : cores) {
        stats.totalInsts += core.instsIssued;
        stats.threadInsts += core.threadInstsIssued;
        if (!core.warps.empty())
            ++stats.coresUsed;
        stats.mshrPeak = std::max(stats.mshrPeak,
                                  core.mshrs.peakOccupancy());
        stats.mshrAllocs += core.mshrs.allocations();
        stats.mshrMerges += core.mshrs.merges();
        stats.stallMemCycles += core.stallMemCycles;
        stats.stallComputeCycles += core.stallComputeCycles;
        stats.stallMshrCycles += core.stallMshrCycles;
        stats.stallSfuCycles += core.stallSfuCycles;
    }
    for (std::uint32_t c = 0; c < config.numCores; ++c) {
        stats.l1Accesses += hierarchy.l1(c).accesses();
        stats.l1Hits += hierarchy.l1(c).hits();
    }
    stats.l2Accesses = hierarchy.l2().accesses();
    stats.l2Hits = hierarchy.l2().hits();
    stats.dramReads = dram.reads();
    stats.dramWrites = dram.writes();
    stats.avgDramQueueDelay = dram.avgQueueDelay();
    return stats;
}

} // namespace gpumech
