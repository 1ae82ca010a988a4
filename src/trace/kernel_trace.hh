/**
 * @file
 * Whole-kernel trace: the static program, every warp's dynamic trace,
 * and the block-to-core assignment used by both the timing simulator
 * and the input collector.
 *
 * Storage is flat and arena-backed (structure-of-arrays): the
 * instructions of all warps live in kernel-level parallel arrays (one
 * per hot field — pc, opcode, active mask, dependency triple, line
 * slice), coalesced line addresses live in a single kernel-level Addr
 * pool, and each warp is an (offset, count) window over the
 * instruction arrays. Consumers access warps through the lightweight
 * WarpView, whose *Data() accessors expose the raw SoA arrays for
 * allocation-free hot loops (interval builder, collector, timing).
 */

#ifndef GPUMECH_TRACE_KERNEL_TRACE_HH
#define GPUMECH_TRACE_KERNEL_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "trace/warp_trace.hh"

namespace gpumech
{

/** One static instruction (PC) of a kernel. */
struct StaticInst
{
    Opcode op = Opcode::IntAlu;
    std::string label; //!< optional human-readable tag
};

class KernelTrace;

/**
 * Non-owning view of one warp inside a KernelTrace.
 *
 * Cheap to copy (pointer + window); field accessors index the
 * kernel-level SoA arrays. The *Data() accessors return the warp's
 * window of a field array directly so hot loops touch nothing but
 * dense memory.
 */
class WarpView
{
  public:
    WarpView() = default;
    WarpView(const KernelTrace *kernel, std::uint32_t index);

    /** Whether the view points at a warp (default-constructed = no). */
    bool valid() const { return kernel_ != nullptr; }

    /** Index of this warp within the kernel (position in warps()). */
    std::uint32_t index() const { return index_; }

    std::uint32_t warpId() const;
    std::uint32_t blockId() const;
    std::size_t numInsts() const { return instCount_; }

    // Per-instruction field accessors (i is the warp-local index).
    std::uint32_t pc(std::size_t i) const;
    Opcode op(std::size_t i) const;
    std::uint32_t activeThreads(std::size_t i) const;
    const DepArray &deps(std::size_t i) const;
    LineSpan lines(std::size_t i) const;
    std::uint32_t numRequests(std::size_t i) const;

    // SoA windows over this warp's instructions (hot-loop access).
    const std::uint32_t *pcData() const;
    const Opcode *opData() const;
    const std::uint32_t *activeData() const;
    const DepArray *depData() const;
    const std::uint32_t *lineCountData() const;

    /** Count of global-memory instructions. */
    std::size_t numGlobalMemInsts() const;

    /** Total global-memory requests over the whole trace. */
    std::size_t numGlobalMemRequests() const;

  private:
    const KernelTrace *kernel_ = nullptr;
    std::uint32_t index_ = 0;
    std::uint64_t instOffset_ = 0;
    std::uint32_t instCount_ = 0;
};

/** Forward iteration over a kernel's warps as WarpViews. */
class WarpRange
{
  public:
    class iterator
    {
      public:
        iterator(const KernelTrace *kernel, std::uint32_t index)
            : kernel(kernel), index(index)
        {}
        WarpView operator*() const { return WarpView(kernel, index); }
        iterator &
        operator++()
        {
            ++index;
            return *this;
        }
        bool
        operator!=(const iterator &other) const
        {
            return index != other.index;
        }

      private:
        const KernelTrace *kernel;
        std::uint32_t index;
    };

    WarpRange(const KernelTrace *kernel, std::uint32_t count)
        : kernel(kernel), count(count)
    {}
    iterator begin() const { return iterator(kernel, 0); }
    iterator end() const { return iterator(kernel, count); }
    std::uint32_t size() const { return count; }

  private:
    const KernelTrace *kernel;
    std::uint32_t count;
};

/**
 * A complete kernel trace (flat SoA storage, see file comment).
 *
 * Thread blocks are assigned to cores round-robin by blockId; all
 * warps of a block land on the same core, mirroring how real GPUs
 * schedule CTAs onto SMs.
 */
class KernelTrace
{
  public:
    KernelTrace() = default;
    explicit KernelTrace(std::string kernel_name)
        : name_(std::move(kernel_name))
    {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /** Register a static instruction; returns its PC. */
    std::uint32_t addStatic(Opcode op, std::string label = "");

    const std::vector<StaticInst> &staticInsts() const { return program; }
    std::uint32_t numStaticInsts() const
    {
        return static_cast<std::uint32_t>(program.size());
    }
    Opcode opcodeOf(std::uint32_t pc) const;

    /**
     * Pre-size the flat storage from workload-declared size hints so
     * trace construction never pays geometric-reallocation copies.
     */
    void reserveTrace(std::uint64_t num_warps,
                      std::uint64_t total_insts,
                      std::uint64_t total_lines);

    /**
     * Flatten a built warp into the kernel-level arrays (absorbs the
     * warp's local line arena into the kernel pool and rebases its
     * slices).
     */
    void addWarp(const WarpTrace &warp);

    /**
     * Ordered bulk append: flatten @p count built warps, in order,
     * behind the warps already held. Each warp's window and line base
     * come from a serial prefix sum; the columns then grow once, side
     * by side, and the warps are copied into their windows in
     * parallel (@p jobs as in parallelFor). The result equals
     * addWarp() on each warp in turn, capacities (and so
     * memoryFootprint()) included.
     */
    void appendWarps(const WarpTrace *warps, std::size_t count,
                     unsigned jobs);

    /**
     * Bulk column adoption for binary trace ingestion: install the
     * kernel-level SoA arrays directly (one move per column, no
     * per-record work) and recompute everything derivable — warp
     * instruction windows and line-slice offsets by prefix sum, and
     * per-instruction opcodes from the already-registered static
     * program. This is the "pointer fixup" half of the mmap load path:
     * the .gmt format stores only the non-derivable columns.
     *
     * The static program must be registered (addStatic) first.
     * Returns OutOfRange when the column shapes disagree (mismatched
     * warp/instruction totals, zero per-warp instruction counts, a pc
     * beyond the static program, or a line-count sum that does not
     * cover the pool). On error the trace is left empty.
     */
    Status adoptColumns(std::vector<std::uint32_t> warp_ids,
                        std::vector<std::uint32_t> warp_blocks,
                        std::vector<std::uint32_t> warp_inst_counts,
                        std::vector<std::uint32_t> inst_pcs,
                        std::vector<std::uint32_t> inst_actives,
                        std::vector<DepArray> inst_deps,
                        std::vector<std::uint32_t> inst_line_counts,
                        std::vector<Addr> line_pool);

    /** View of one warp; fatal if out of range. */
    WarpView warp(std::uint32_t index) const;

    /** Iterable range of all warps (WarpViews). */
    WarpRange
    warps() const
    {
        return WarpRange(this, numWarps());
    }

    std::uint32_t numWarps() const
    {
        return static_cast<std::uint32_t>(warpMeta_.size());
    }
    std::uint32_t numBlocks() const;

    /** Total dynamic warp-instructions across all warps. */
    std::uint64_t totalInsts() const { return instPc_.size(); }

    /** Total coalesced line requests in the kernel-level pool. */
    std::uint64_t totalLines() const { return linePool_.size(); }

    /** Core a given warp executes on under round-robin block placement. */
    std::uint32_t coreOf(const WarpView &warp,
                         const HardwareConfig &config) const;

    /** Same, by warp index. */
    std::uint32_t coreOfWarp(std::uint32_t index,
                             const HardwareConfig &config) const;

    /** Indices (into warps()) of the warps assigned to one core. */
    std::vector<std::uint32_t> warpsOnCore(std::uint32_t core,
                                           const HardwareConfig &config)
        const;

    /**
     * Validate every warp (backward deps, slice bounds, line-count
     * invariants) and that PCs reference the static program with
     * matching opcodes.
     */
    bool validate() const;

    /**
     * Bytes of heap memory held by the flat trace arrays (capacities,
     * i.e. what is actually allocated). Static program labels are not
     * counted.
     */
    std::size_t memoryFootprint() const;

    // Whole-kernel SoA arrays (flat across all warps, in warp order).
    // The collector and benches walk these directly.
    const std::vector<std::uint32_t> &instPcs() const { return instPc_; }
    const std::vector<Opcode> &instOps() const { return instOp_; }
    const std::vector<std::uint32_t> &instActives() const
    {
        return instActive_;
    }
    const std::vector<DepArray> &instDeps() const { return instDeps_; }
    const std::vector<std::uint64_t> &instLineOffsets() const
    {
        return instLineOff_;
    }
    const std::vector<std::uint32_t> &instLineCounts() const
    {
        return instLineCnt_;
    }
    const std::vector<Addr> &linePool() const { return linePool_; }

    /** Lines of the flat instruction at kernel-global index i. */
    LineSpan
    linesOfFlat(std::uint64_t i) const
    {
        return LineSpan{linePool_.data() + instLineOff_[i],
                        instLineCnt_[i]};
    }

    /** First kernel-global flat instruction index of a warp. */
    std::uint64_t
    instOffsetOf(std::uint32_t warp_index) const
    {
        return warpMeta_[warp_index].instOffset;
    }

  private:
    friend class WarpView;

    struct WarpMeta
    {
        std::uint32_t warpId = 0;
        std::uint32_t blockId = 0;
        std::uint64_t instOffset = 0; //!< window start in the SoA arrays
        std::uint32_t instCount = 0;  //!< window length
    };

    std::string name_;
    std::vector<StaticInst> program;
    std::vector<WarpMeta> warpMeta_;

    // SoA instruction fields, flat across all warps in warp order.
    std::vector<std::uint32_t> instPc_;
    std::vector<Opcode> instOp_;
    std::vector<std::uint32_t> instActive_;
    std::vector<DepArray> instDeps_;
    std::vector<std::uint64_t> instLineOff_; //!< into linePool_
    std::vector<std::uint32_t> instLineCnt_;

    /** Kernel-level arena of coalesced line addresses. */
    std::vector<Addr> linePool_;
};

// WarpView inline accessors (need the full KernelTrace definition).

inline WarpView::WarpView(const KernelTrace *kernel, std::uint32_t index)
    : kernel_(kernel), index_(index),
      instOffset_(kernel->warpMeta_[index].instOffset),
      instCount_(kernel->warpMeta_[index].instCount)
{}

inline std::uint32_t
WarpView::warpId() const
{
    return kernel_->warpMeta_[index_].warpId;
}

inline std::uint32_t
WarpView::blockId() const
{
    return kernel_->warpMeta_[index_].blockId;
}

inline std::uint32_t
WarpView::pc(std::size_t i) const
{
    return kernel_->instPc_[instOffset_ + i];
}

inline Opcode
WarpView::op(std::size_t i) const
{
    return kernel_->instOp_[instOffset_ + i];
}

inline std::uint32_t
WarpView::activeThreads(std::size_t i) const
{
    return kernel_->instActive_[instOffset_ + i];
}

inline const DepArray &
WarpView::deps(std::size_t i) const
{
    return kernel_->instDeps_[instOffset_ + i];
}

inline LineSpan
WarpView::lines(std::size_t i) const
{
    return kernel_->linesOfFlat(instOffset_ + i);
}

inline std::uint32_t
WarpView::numRequests(std::size_t i) const
{
    return kernel_->instLineCnt_[instOffset_ + i];
}

inline const std::uint32_t *
WarpView::pcData() const
{
    return kernel_->instPc_.data() + instOffset_;
}

inline const Opcode *
WarpView::opData() const
{
    return kernel_->instOp_.data() + instOffset_;
}

inline const std::uint32_t *
WarpView::activeData() const
{
    return kernel_->instActive_.data() + instOffset_;
}

inline const DepArray *
WarpView::depData() const
{
    return kernel_->instDeps_.data() + instOffset_;
}

inline const std::uint32_t *
WarpView::lineCountData() const
{
    return kernel_->instLineCnt_.data() + instOffset_;
}

} // namespace gpumech

#endif // GPUMECH_TRACE_KERNEL_TRACE_HH
