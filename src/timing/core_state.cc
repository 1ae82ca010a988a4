#include "timing/core_state.hh"

namespace gpumech
{

void
CoreState::initSlots()
{
    const std::size_t num = warps.size();
    finished.resize(num);
    waiting.resize(num);
    mshrBlocked.resize(num);
    blockedThisEpoch.resize(num);
    for (std::size_t slot = num; slot < finished.numWords() * 64; ++slot)
        finished.set(static_cast<std::uint32_t>(slot));
    unfinished = 0;
    for (std::size_t slot = 0; slot < num; ++slot) {
        if (warps[slot].finishedIssuing())
            finished.set(static_cast<std::uint32_t>(slot));
        else
            ++unfinished;
    }
}

void
CoreState::markFinished(std::uint32_t slot)
{
    finished.set(slot);
    --unfinished;
}

void
CoreState::openStall(std::uint64_t cycle)
{
    stallSince = cycle;
    sfuStallFrom = cycleUnknown;
    if (anyMshrBlocked()) {
        stallKind = StallKind::Mshr;
        return;
    }
    // Earliest readiness of an idle warp whose next instruction needs
    // the busy SFU.
    std::uint64_t sfu_ready = cycleUnknown;
    if (sfuBusyUntil > cycle) {
        forEachIdle([&](std::uint32_t slot) {
            const WarpContext &warp = warps[slot];
            if (warp.nextOp() == Opcode::Sfu)
                sfu_ready = std::min(sfu_ready, warp.readyCycle);
        });
    }
    if (sfu_ready <= cycle) {
        stallKind = StallKind::Sfu;
        return;
    }
    stallKind = anyWaiting() ? StallKind::Mem : StallKind::Compute;
    // The core sleeps at most until the SFU frees, so a later-ready
    // SFU warp turns the rest of the span into SFU stall.
    if (sfu_ready < sfuBusyUntil)
        sfuStallFrom = sfu_ready;
}

void
CoreState::settleStall(std::uint64_t cycle)
{
    if (!stalled())
        return;
    std::uint64_t cycles = cycle - stallSince;
    switch (stallKind) {
      case StallKind::Mshr:
        stallMshrCycles += cycles;
        break;
      case StallKind::Sfu:
        stallSfuCycles += cycles;
        break;
      case StallKind::Mem:
        stallMemCycles += cycles;
        break;
      case StallKind::Compute:
        stallComputeCycles += cycles;
        break;
    }
    stallSince = cycle;
}

} // namespace gpumech
