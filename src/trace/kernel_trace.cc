#include "trace/kernel_trace.hh"

#include <algorithm>
#include <functional>
#include <iterator>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace gpumech
{

std::uint32_t
KernelTrace::addStatic(Opcode op, std::string label)
{
    program.push_back(StaticInst{op, std::move(label)});
    return static_cast<std::uint32_t>(program.size() - 1);
}

Opcode
KernelTrace::opcodeOf(std::uint32_t pc) const
{
    if (pc >= program.size())
        panic(msg("opcodeOf: pc ", pc, " out of range"));
    return program[pc].op;
}

void
KernelTrace::reserveTrace(std::uint64_t num_warps,
                          std::uint64_t total_insts,
                          std::uint64_t total_lines)
{
    warpMeta_.reserve(num_warps);
    instPc_.reserve(total_insts);
    instOp_.reserve(total_insts);
    instActive_.reserve(total_insts);
    instDeps_.reserve(total_insts);
    instLineOff_.reserve(total_insts);
    instLineCnt_.reserve(total_insts);
    linePool_.reserve(total_lines);
}

void
KernelTrace::addWarp(const WarpTrace &warp)
{
    appendWarps(&warp, 1, 1);
}

namespace
{

/**
 * Resize @p column to @p size with the capacity it would reach growing
 * there one push_back at a time (doubling when full).
 */
template <typename T>
void
growAsPushBack(std::vector<T> &column, std::size_t size)
{
    std::size_t cap = column.capacity();
    while (cap < size)
        cap = cap == 0 ? 1 : 2 * cap;
    column.reserve(cap);
    column.resize(size);
}

} // namespace

void
KernelTrace::appendWarps(const WarpTrace *warps, std::size_t count,
                         unsigned jobs)
{
    // Warp windows and line-pool bases by prefix sum. The pool's
    // capacity follows one range insert per warp, as addWarp grew it.
    const std::size_t first = warpMeta_.size();
    std::vector<std::uint64_t> line_base(count);
    std::uint64_t insts = instPc_.size();
    std::uint64_t lines = linePool_.size();
    std::size_t line_cap = linePool_.capacity();
    for (std::size_t k = 0; k < count; ++k) {
        const WarpTrace &warp = warps[k];
        WarpMeta meta;
        meta.warpId = warp.warpId;
        meta.blockId = warp.blockId;
        meta.instOffset = insts;
        meta.instCount = static_cast<std::uint32_t>(warp.insts.size());
        warpMeta_.push_back(meta);
        line_base[k] = lines;
        insts += warp.insts.size();
        const std::size_t n = warp.linePool.size();
        if (lines + n > line_cap)
            line_cap = lines + std::max<std::size_t>(lines, n);
        lines += n;
    }

    // Grow the seven columns side by side: their zero fill is most of
    // an append's cost.
    const std::function<void()> grow[] = {
        [&] { growAsPushBack(instPc_, insts); },
        [&] { growAsPushBack(instOp_, insts); },
        [&] { growAsPushBack(instActive_, insts); },
        [&] { growAsPushBack(instDeps_, insts); },
        [&] { growAsPushBack(instLineOff_, insts); },
        [&] { growAsPushBack(instLineCnt_, insts); },
        [&] {
            linePool_.reserve(line_cap);
            linePool_.resize(lines);
        },
    };
    parallelFor(
        std::size(grow), [&](std::size_t c) { grow[c](); }, 1, jobs);

    // Each warp writes only its own window, so the copies run in
    // parallel and the result does not depend on the schedule.
    parallelFor(
        count,
        [&](std::size_t k) {
            const WarpTrace &warp = warps[k];
            std::uint64_t f = warpMeta_[first + k].instOffset;
            for (const WarpInst &inst : warp.insts) {
                instPc_[f] = inst.pc;
                instOp_[f] = inst.op;
                instActive_[f] = inst.activeThreads;
                instDeps_[f] = inst.deps;
                instLineOff_[f] = inst.lineCount == 0
                    ? 0
                    : line_base[k] + inst.lineOffset;
                instLineCnt_[f] = inst.lineCount;
                ++f;
            }
            std::copy(warp.linePool.begin(), warp.linePool.end(),
                      linePool_.begin() +
                          static_cast<std::ptrdiff_t>(line_base[k]));
        },
        1, jobs);
}

Status
KernelTrace::adoptColumns(std::vector<std::uint32_t> warp_ids,
                          std::vector<std::uint32_t> warp_blocks,
                          std::vector<std::uint32_t> warp_inst_counts,
                          std::vector<std::uint32_t> inst_pcs,
                          std::vector<std::uint32_t> inst_actives,
                          std::vector<DepArray> inst_deps,
                          std::vector<std::uint32_t> inst_line_counts,
                          std::vector<Addr> line_pool)
{
    auto shapeError = [](const std::string &why) {
        return Status(StatusCode::OutOfRange, why);
    };
    const std::size_t num_warps = warp_ids.size();
    if (warp_blocks.size() != num_warps ||
        warp_inst_counts.size() != num_warps) {
        return shapeError(msg("warp column lengths disagree (ids ",
                              warp_ids.size(), ", blocks ",
                              warp_blocks.size(), ", counts ",
                              warp_inst_counts.size(), ")"));
    }
    const std::size_t total = inst_pcs.size();
    if (inst_actives.size() != total || inst_deps.size() != total ||
        inst_line_counts.size() != total) {
        return shapeError(
            msg("instruction column lengths disagree (pcs ", total,
                ", actives ", inst_actives.size(), ", deps ",
                inst_deps.size(), ", line counts ",
                inst_line_counts.size(), ")"));
    }

    // Warp windows: prefix sum over the per-warp instruction counts.
    std::vector<WarpMeta> meta(num_warps);
    std::uint64_t offset = 0;
    for (std::size_t w = 0; w < num_warps; ++w) {
        if (warp_inst_counts[w] == 0) {
            return shapeError(msg("warp ", warp_ids[w],
                                  ": instruction count must be "
                                  "positive"));
        }
        meta[w].warpId = warp_ids[w];
        meta[w].blockId = warp_blocks[w];
        meta[w].instOffset = offset;
        meta[w].instCount = warp_inst_counts[w];
        offset += warp_inst_counts[w];
    }
    if (offset != total) {
        return shapeError(msg("per-warp instruction counts sum to ",
                              offset, " but the columns hold ", total,
                              " instructions"));
    }

    // Opcode fixup from the static program, and line-slice offsets by
    // prefix sum over the counts (zero-count instructions keep offset
    // 0, matching addWarp's convention).
    std::vector<Opcode> ops(total);
    std::vector<std::uint64_t> line_off(total);
    std::uint64_t line_cursor = 0;
    for (std::size_t i = 0; i < total; ++i) {
        if (inst_pcs[i] >= program.size()) {
            return shapeError(msg("inst pc ", inst_pcs[i],
                                  " out of range (static count ",
                                  program.size(), ")"));
        }
        ops[i] = program[inst_pcs[i]].op;
        line_off[i] = inst_line_counts[i] == 0 ? 0 : line_cursor;
        line_cursor += inst_line_counts[i];
    }
    if (line_cursor != line_pool.size()) {
        return shapeError(msg("line counts sum to ", line_cursor,
                              " but the line pool holds ",
                              line_pool.size(), " addresses"));
    }

    warpMeta_ = std::move(meta);
    instPc_ = std::move(inst_pcs);
    instOp_ = std::move(ops);
    instActive_ = std::move(inst_actives);
    instDeps_ = std::move(inst_deps);
    instLineOff_ = std::move(line_off);
    instLineCnt_ = std::move(inst_line_counts);
    linePool_ = std::move(line_pool);
    return Status();
}

WarpView
KernelTrace::warp(std::uint32_t index) const
{
    if (index >= warpMeta_.size())
        panic(msg("warp: index ", index, " out of range"));
    return WarpView(this, index);
}

std::uint32_t
KernelTrace::numBlocks() const
{
    std::uint32_t max_block = 0;
    for (const auto &w : warpMeta_)
        max_block = std::max(max_block, w.blockId);
    return warpMeta_.empty() ? 0 : max_block + 1;
}

std::uint32_t
KernelTrace::coreOf(const WarpView &warp,
                    const HardwareConfig &config) const
{
    return warp.blockId() % config.numCores;
}

std::uint32_t
KernelTrace::coreOfWarp(std::uint32_t index,
                        const HardwareConfig &config) const
{
    return warpMeta_[index].blockId % config.numCores;
}

std::vector<std::uint32_t>
KernelTrace::warpsOnCore(std::uint32_t core,
                         const HardwareConfig &config) const
{
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < warpMeta_.size(); ++i) {
        if (coreOfWarp(i, config) == core)
            ids.push_back(i);
    }
    return ids;
}

bool
KernelTrace::validate() const
{
    for (std::uint32_t w = 0; w < numWarps(); ++w) {
        const WarpMeta &meta = warpMeta_[w];
        if (meta.instOffset + meta.instCount > instPc_.size())
            return false;
        for (std::uint32_t i = 0; i < meta.instCount; ++i) {
            const std::uint64_t f = meta.instOffset + i;
            if (instPc_[f] >= program.size())
                return false;
            if (program[instPc_[f]].op != instOp_[f])
                return false;
            for (std::int32_t dep : instDeps_[f]) {
                if (dep == noDep)
                    continue;
                if (dep < 0 || static_cast<std::uint32_t>(dep) >= i)
                    return false;
            }
            if (isGlobalMemory(instOp_[f])) {
                if (instLineCnt_[f] == 0)
                    return false;
                if (instLineOff_[f] + instLineCnt_[f] >
                    linePool_.size()) {
                    return false;
                }
            } else if (instLineCnt_[f] != 0) {
                return false;
            }
            if (instActive_[f] == 0)
                return false;
        }
    }
    return true;
}

namespace
{

template <typename T>
std::size_t
vecBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

} // namespace

std::size_t
KernelTrace::memoryFootprint() const
{
    return vecBytes(warpMeta_) + vecBytes(instPc_) + vecBytes(instOp_) +
           vecBytes(instActive_) + vecBytes(instDeps_) +
           vecBytes(instLineOff_) + vecBytes(instLineCnt_) +
           vecBytes(linePool_) + vecBytes(program);
}

std::size_t
WarpView::numGlobalMemInsts() const
{
    const Opcode *ops = opData();
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < instCount_; ++i) {
        if (isGlobalMemory(ops[i]))
            ++n;
    }
    return n;
}

std::size_t
WarpView::numGlobalMemRequests() const
{
    const Opcode *ops = opData();
    const std::uint32_t *cnts = lineCountData();
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < instCount_; ++i) {
        if (isGlobalMemory(ops[i]))
            n += cnts[i];
    }
    return n;
}

} // namespace gpumech
