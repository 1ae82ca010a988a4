#include "trace/trace_builder.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/coalescer.hh"

namespace gpumech
{

TraceBuilder::TraceBuilder(KernelTrace &kernel, std::uint32_t warp_id,
                           std::uint32_t block_id,
                           const HardwareConfig &config)
    : kernel(kernel), sink(&kernel), config(config), trace(own)
{
    trace.warpId = warp_id;
    trace.blockId = block_id;
}

TraceBuilder::TraceBuilder(const KernelTrace &kernel, WarpTrace &out,
                           std::uint32_t warp_id, std::uint32_t block_id,
                           const HardwareConfig &config)
    : kernel(kernel), sink(nullptr), config(config), trace(out)
{
    trace.warpId = warp_id;
    trace.blockId = block_id;
    trace.insts.clear();
    trace.linePool.clear();
}

void
TraceBuilder::reserve(std::size_t num_insts, std::size_t num_lines)
{
    trace.reserve(num_insts, num_lines);
    producer.reserve(num_insts);
}

Reg
TraceBuilder::compute(std::uint32_t pc, std::initializer_list<Reg> srcs,
                      std::uint32_t active_threads)
{
    Opcode op = kernel.opcodeOf(pc);
    if (isGlobalMemory(op))
        panic("compute() emitted with a global-memory pc");
    if (active_threads == 0)
        active_threads = config.warpSize;
    return append(pc, op, srcs.begin(), srcs.size(), active_threads,
                  nullptr, 0, !isStore(op));
}

Reg
TraceBuilder::compute(std::uint32_t pc, const std::vector<Reg> &srcs,
                      std::uint32_t active_threads)
{
    Opcode op = kernel.opcodeOf(pc);
    if (isGlobalMemory(op))
        panic("compute() emitted with a global-memory pc");
    if (active_threads == 0)
        active_threads = config.warpSize;
    return append(pc, op, srcs.data(), srcs.size(), active_threads,
                  nullptr, 0, !isStore(op));
}

Reg
TraceBuilder::globalLoad(std::uint32_t pc,
                         const std::vector<Addr> &thread_addrs,
                         std::initializer_list<Reg> srcs)
{
    Opcode op = kernel.opcodeOf(pc);
    if (op != Opcode::GlobalLoad)
        panic("globalLoad() emitted with a non-GlobalLoad pc");
    if (thread_addrs.empty())
        panic("globalLoad() needs at least one thread address");
    coalesce(thread_addrs, config.l1LineBytes, lineScratch);
    return append(pc, op, srcs.begin(), srcs.size(),
                  static_cast<std::uint32_t>(thread_addrs.size()),
                  lineScratch.data(),
                  static_cast<std::uint32_t>(lineScratch.size()), true);
}

Reg
TraceBuilder::globalLoad(std::uint32_t pc,
                         const std::vector<Addr> &thread_addrs,
                         const std::vector<Reg> &srcs)
{
    Opcode op = kernel.opcodeOf(pc);
    if (op != Opcode::GlobalLoad)
        panic("globalLoad() emitted with a non-GlobalLoad pc");
    if (thread_addrs.empty())
        panic("globalLoad() needs at least one thread address");
    coalesce(thread_addrs, config.l1LineBytes, lineScratch);
    return append(pc, op, srcs.data(), srcs.size(),
                  static_cast<std::uint32_t>(thread_addrs.size()),
                  lineScratch.data(),
                  static_cast<std::uint32_t>(lineScratch.size()), true);
}

void
TraceBuilder::globalStore(std::uint32_t pc,
                          const std::vector<Addr> &thread_addrs,
                          std::initializer_list<Reg> srcs)
{
    Opcode op = kernel.opcodeOf(pc);
    if (op != Opcode::GlobalStore)
        panic("globalStore() emitted with a non-GlobalStore pc");
    if (thread_addrs.empty())
        panic("globalStore() needs at least one thread address");
    coalesce(thread_addrs, config.l1LineBytes, lineScratch);
    append(pc, op, srcs.begin(), srcs.size(),
           static_cast<std::uint32_t>(thread_addrs.size()),
           lineScratch.data(),
           static_cast<std::uint32_t>(lineScratch.size()), false);
}

void
TraceBuilder::globalStore(std::uint32_t pc,
                          const std::vector<Addr> &thread_addrs,
                          const std::vector<Reg> &srcs)
{
    Opcode op = kernel.opcodeOf(pc);
    if (op != Opcode::GlobalStore)
        panic("globalStore() emitted with a non-GlobalStore pc");
    if (thread_addrs.empty())
        panic("globalStore() needs at least one thread address");
    coalesce(thread_addrs, config.l1LineBytes, lineScratch);
    append(pc, op, srcs.data(), srcs.size(),
           static_cast<std::uint32_t>(thread_addrs.size()),
           lineScratch.data(),
           static_cast<std::uint32_t>(lineScratch.size()), false);
}

Reg
TraceBuilder::append(std::uint32_t pc, Opcode op, const Reg *srcs,
                     std::size_t num_srcs, std::uint32_t active_threads,
                     const Addr *lines, std::uint32_t num_lines,
                     bool produces)
{
    if (finished)
        panic("TraceBuilder used after finish()");

    WarpInst inst;
    inst.pc = pc;
    inst.op = op;
    inst.activeThreads = active_threads;

    // Resolve register sources to distinct producer trace indices;
    // keep the youngest producers if there are more than fit, since
    // older ones have almost certainly completed already.
    depScratch.clear();
    for (std::size_t s = 0; s < num_srcs; ++s) {
        Reg r = srcs[s];
        if (r == regNone)
            continue;
        if (r < 0 || r >= static_cast<Reg>(producer.size()))
            panic(msg("source register ", r, " has no producer"));
        std::int32_t prod = producer[static_cast<std::size_t>(r)];
        if (std::find(depScratch.begin(), depScratch.end(), prod) ==
            depScratch.end()) {
            depScratch.push_back(prod);
        }
    }
    std::sort(depScratch.begin(), depScratch.end(),
              std::greater<std::int32_t>());
    for (std::size_t i = 0;
         i < inst.deps.size() && i < depScratch.size(); ++i) {
        inst.deps[i] = depScratch[i];
    }

    std::int32_t idx = num_lines > 0
        ? trace.addMemInst(inst, lines, num_lines)
        : trace.addInst(inst);

    if (!produces)
        return regNone;
    Reg dest = nextReg++;
    producer.push_back(idx);
    return dest;
}

void
TraceBuilder::finish()
{
    if (finished)
        panic("TraceBuilder::finish() called twice");
    finished = true;
    if (trace.insts.empty())
        panic("finish() on an empty warp trace");
    if (sink)
        sink->addWarp(trace);
}

} // namespace gpumech
