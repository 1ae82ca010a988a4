#include "collector/mrc_collector.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"

namespace gpumech
{

namespace
{

/**
 * The serial collector's walk over @p warps: per-warp cursors over
 * global-memory instructions, warps visited round-robin in the given
 * order, calling visit(flat index, warp) for every memory instruction.
 * A store takes its warp's turn in the round like a load, even though
 * it touches no tracker: skipping it would reorder the loads of a
 * core whose warps place stores at different positions.
 */
template <typename Visit>
void
walkRounds(const KernelTrace &kernel,
           const std::vector<std::uint32_t> &warps, Visit &&visit)
{
    const std::vector<Opcode> &ops = kernel.instOps();
    struct Cursor
    {
        std::uint64_t idx;
        std::uint64_t end;
        std::uint32_t warp;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(warps.size());
    for (std::uint32_t w : warps) {
        std::uint64_t off = kernel.instOffsetOf(w);
        cursors.push_back(Cursor{off, off + kernel.warp(w).numInsts(), w});
    }

    bool progress = true;
    while (progress) {
        deadlineCheckpoint();
        progress = false;
        for (auto &cur : cursors) {
            while (cur.idx < cur.end && !isGlobalMemory(ops[cur.idx]))
                ++cur.idx;
            if (cur.idx >= cur.end)
                continue;
            progress = true;
            visit(cur.idx++, cur.warp);
        }
    }
}

/**
 * Phase A of the profile walk: each core's L1 stream through its own
 * tracker, cores in parallel. Returns, per core, the d1 (scaled back
 * to the full stream) of every sampled load line in that core's walk
 * order — which is the order the merged walk meets them in, because
 * the merged walk restricted to one core's warps is exactly this walk.
 */
std::vector<std::vector<std::uint32_t>>
perCoreDistances(const KernelTrace &kernel, const HardwareConfig &config,
                 const ShardsSampler &sampler)
{
    const std::vector<Opcode> &ops = kernel.instOps();
    std::vector<std::vector<std::uint32_t>> d1s(config.numCores);
    // Checkpoints read a thread-local frame; carry the caller's onto
    // the pool workers so their per-round deadline checks are live.
    const EvalContext *caller = currentEvalContext();
    parallelFor(
        config.numCores,
        [&](std::size_t c) {
            std::optional<ScopedEvalContext> scope;
            if (caller)
                scope.emplace(caller->kernel, caller->token,
                              caller->plan);
            const std::vector<std::uint32_t> warps = kernel.warpsOnCore(
                static_cast<std::uint32_t>(c), config);
            std::vector<std::uint32_t> &out = d1s[c];
            ReuseDistanceTracker tracker;
            walkRounds(kernel, warps,
                       [&](std::uint64_t f, std::uint32_t) {
                           if (ops[f] != Opcode::GlobalLoad)
                               return;
                           for (Addr line : kernel.linesOfFlat(f)) {
                               if (sampler.sampled(line))
                                   out.push_back(sampler.unscale(
                                       tracker.access(line)));
                           }
                       });
        },
        1, 0);
    return d1s;
}

} // namespace

MrcProfile
collectMrcProfile(const KernelTrace &kernel,
                  const HardwareConfig &config, double sampling_rate)
{
    evalCheckpoint(FaultSite::Collect);

    const std::uint32_t num_static = kernel.numStaticInsts();
    MrcProfile profile;
    profile.samplingRate = sampling_rate;
    profile.lineBytes = config.l1LineBytes;
    profile.pcs.resize(num_static);
    for (std::uint32_t pc : kernel.instPcs())
        ++profile.pcs[pc].instCount;

    const ShardsSampler sampler(sampling_rate);
    std::vector<std::vector<std::uint32_t>> d1s =
        perCoreDistances(kernel, config, sampler);

    // Phase B: the merged stream in the serial collector's global
    // round-robin interleave (the order the shared L2 sees), pairing
    // each sampled load line's dg with the next d1 of its core.
    std::vector<mrc_detail::FlatTable<double>> req_acc(num_static);
    std::vector<mrc_detail::FlatTable<double>> inst_acc(num_static);
    {
        const std::vector<Opcode> &ops = kernel.instOps();
        const std::vector<std::uint32_t> &pcs = kernel.instPcs();
        std::vector<std::uint32_t> warps(kernel.numWarps());
        std::iota(warps.begin(), warps.end(), 0u);
        std::vector<std::uint32_t> warp_core(kernel.numWarps());
        for (std::uint32_t w : warps)
            warp_core[w] = kernel.coreOfWarp(w, config);
        std::vector<std::size_t> d1_pos(config.numCores, 0);
        ReuseDistanceTracker global;
        walkRounds(kernel, warps, [&](std::uint64_t f, std::uint32_t w) {
            const std::uint32_t pc_id = pcs[f];
            MrcPcProfile &pc = profile.pcs[pc_id];
            LineSpan lines = kernel.linesOfFlat(f);
            if (ops[f] != Opcode::GlobalLoad) {
                // Stores are write-through/no-allocate: no tag state,
                // no tracker updates, always DRAM-bound.
                ++pc.storeInsts;
                pc.storeReqs += lines.size();
                return;
            }
            ++pc.loadInsts;
            pc.loadReqs += lines.size();
            profile.totalLoadLines += lines.size();
            const std::uint32_t core = warp_core[w];
            bool any_sampled = false;
            std::uint32_t max_d1 = 0, max_dg = 0;
            for (Addr line : lines) {
                if (!sampler.sampled(line))
                    continue;
                ++profile.sampledLoadLines;
                std::uint32_t d1 = d1s[core][d1_pos[core]++];
                std::uint32_t dg = sampler.unscale(global.access(line));
                req_acc[pc_id][packReusePair(d1, dg)] += sampler.weight();
                // The cold sentinel is the numeric max, so max()
                // correctly makes a cold line the slowest.
                max_d1 = any_sampled ? std::max(max_d1, d1) : d1;
                max_dg = any_sampled ? std::max(max_dg, dg) : dg;
                any_sampled = true;
            }
            if (any_sampled) {
                inst_acc[pc_id][packReusePair(max_d1, max_dg)] +=
                    sampler.weight();
            }
        });
    }
    d1s = {};

    // Freeze each accumulator into its key-sorted histogram, freeing
    // the table as soon as it is copied out.
    for (std::uint32_t pc = 0; pc < num_static; ++pc) {
        profile.pcs[pc].reqHist = req_acc[pc].sorted();
        req_acc[pc] = {};
        profile.pcs[pc].instHist = inst_acc[pc].sorted();
        inst_acc[pc] = {};
    }
    return profile;
}

namespace
{

/** Cache geometry in (sets, ways) with division-by-zero guarding. */
struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
};

Geometry
geometryOf(std::uint32_t size_bytes, std::uint32_t line_bytes,
           std::uint32_t assoc, const char *level)
{
    if (line_bytes == 0 || assoc == 0 ||
        size_bytes % (line_bytes * assoc) != 0 ||
        size_bytes / (line_bytes * assoc) == 0) {
        throw StatusException(Status(
            StatusCode::InvalidArgument,
            msg("deriveCollectorResult: invalid ", level, " geometry (",
                size_bytes, "B / ", line_bytes, "B lines / ", assoc,
                " ways)")));
    }
    return Geometry{size_bytes / (line_bytes * assoc), assoc};
}

/** Expected hit/miss mass of one histogram under a geometry pair. */
struct ClassWeights
{
    double total = 0.0;
    double l1Hit = 0.0;
    double l2Hit = 0.0;
    double l2Miss = 0.0;

    ClassWeights &
    operator+=(const ClassWeights &o)
    {
        total += o.total;
        l1Hit += o.l1Hit;
        l2Hit += o.l2Hit;
        l2Miss += o.l2Miss;
        return *this;
    }
};

ClassWeights
classify(const ReusePairHist &hist, Geometry l1, Geometry l2)
{
    ClassWeights out;
    for (const auto &[key, w] : hist) {
        double p1 =
            assocHitProbability(reusePairD1(key), l1.sets, l1.ways);
        double p2 =
            assocHitProbability(reusePairDg(key), l2.sets, l2.ways);
        out.total += w;
        out.l1Hit += w * p1;
        out.l2Hit += w * (1.0 - p1) * p2;
        out.l2Miss += w * (1.0 - p1) * (1.0 - p2);
    }
    return out;
}

/**
 * Split an exact integer count into three classes proportional to the
 * given weights, rounding so the parts always sum to the whole.
 */
void
splitCount(std::uint64_t count, const ClassWeights &w,
           std::uint64_t &l1_hit, std::uint64_t &l2_hit,
           std::uint64_t &l2_miss)
{
    if (count == 0 || w.total <= 0.0) {
        l1_hit = l2_hit = l2_miss = 0;
        return;
    }
    double n = static_cast<double>(count);
    std::uint64_t a = static_cast<std::uint64_t>(
        std::llround(n * w.l1Hit / w.total));
    a = std::min(a, count);
    std::uint64_t ab = static_cast<std::uint64_t>(
        std::llround(n * (w.l1Hit + w.l2Hit) / w.total));
    ab = std::min(std::max(ab, a), count);
    l1_hit = a;
    l2_hit = ab - a;
    l2_miss = count - ab;
}

} // namespace

CollectorResult
deriveCollectorResult(const MrcProfile &profile,
                      const KernelTrace &kernel,
                      const HardwareConfig &config)
{
    evalCheckpoint(FaultSite::Collect);

    if (config.l1LineBytes != profile.lineBytes ||
        config.l2LineBytes != profile.lineBytes) {
        throw StatusException(Status(
            StatusCode::InvalidArgument,
            msg("deriveCollectorResult: line size mismatch (profile ",
                profile.lineBytes, "B, L1 ", config.l1LineBytes,
                "B, L2 ", config.l2LineBytes,
                "B); the line-size axis requires --sweep-mode=rerun")));
    }
    if (profile.pcs.size() != kernel.numStaticInsts()) {
        throw StatusException(Status(
            StatusCode::InvalidArgument,
            msg("deriveCollectorResult: profile has ",
                profile.pcs.size(), " PCs, kernel '", kernel.name(),
                "' has ", kernel.numStaticInsts())));
    }

    Geometry l1 = geometryOf(config.l1SizeBytes, config.l1LineBytes,
                             config.l1Assoc, "l1");
    Geometry l2 = geometryOf(config.l2SizeBytes, config.l2LineBytes,
                             config.l2Assoc, "l2");

    CollectorResult result;
    result.mrcDerived = true;
    {
        std::string reasons;
        auto add = [&reasons](const char *r) {
            if (!reasons.empty())
                reasons += ", ";
            reasons += r;
        };
        if (profile.samplingRate < 1.0)
            add("sampled profile");
        if (l1.sets > 1 || l2.sets > 1)
            add("set-associative geometry (balanced-mapping "
                "conversion)");
        if (config.replacementPolicy != 0)
            add("non-LRU replacement modeled as LRU stack distances");
        result.mrcApproximate = !reasons.empty();
        result.mrcApproximation = reasons;
    }

    // Same initialization as the simulated engines: per-PC opcode and
    // exact dynamic instruction counts.
    result.pcs.resize(kernel.numStaticInsts());
    for (std::uint32_t pc = 0; pc < kernel.numStaticInsts(); ++pc) {
        result.pcs[pc].op = kernel.opcodeOf(pc);
        result.pcs[pc].instCount = profile.pcs[pc].instCount;
    }

    // Classify every histogram once; the sums also give the
    // profile-wide fallback fractions for PCs whose lines were all
    // sampled away (only possible at rate < 1).
    const std::size_t num_pcs = profile.pcs.size();
    std::vector<ClassWeights> req_w(num_pcs), inst_w(num_pcs);
    ClassWeights agg_req, agg_inst;
    for (std::size_t pc = 0; pc < num_pcs; ++pc) {
        req_w[pc] = classify(profile.pcs[pc].reqHist, l1, l2);
        inst_w[pc] = classify(profile.pcs[pc].instHist, l1, l2);
        agg_req += req_w[pc];
        agg_inst += inst_w[pc];
    }

    for (std::uint32_t pc = 0; pc < kernel.numStaticInsts(); ++pc) {
        const MrcPcProfile &mp = profile.pcs[pc];
        PcProfile &out = result.pcs[pc];
        out.reqCount = mp.loadReqs + mp.storeReqs;

        if (mp.loadReqs > 0) {
            ClassWeights req = req_w[pc];
            if (req.total <= 0.0)
                req = agg_req;
            std::uint64_t l1_hit = 0, l2_hit = 0, l2_miss = 0;
            splitCount(mp.loadReqs, req, l1_hit, l2_hit, l2_miss);
            out.reqL1Miss = l2_hit + l2_miss;
            out.reqL2Miss = l2_miss;
        }
        if (mp.loadInsts > 0) {
            ClassWeights inst = inst_w[pc];
            if (inst.total <= 0.0)
                inst = agg_inst.total > 0.0 ? agg_inst : agg_req;
            splitCount(mp.loadInsts, inst, out.instL1Hit,
                       out.instL2Hit, out.instL2Miss);
        }
        // Stores: write-through/no-allocate, every request DRAM-bound.
        out.reqL1Miss += mp.storeReqs;
        out.reqL2Miss += mp.storeReqs;
        out.instL2Miss += mp.storeInsts;
    }

    finishCollectorResult(result, kernel, config);

    // Aggregate rates mirror the functional hierarchy's counters:
    // L1 sees every load line, L2 only the L1-missing ones.
    double l1_misses = agg_req.l2Hit + agg_req.l2Miss;
    result.l1HitRate =
        agg_req.total <= 0.0 ? 0.0 : agg_req.l1Hit / agg_req.total;
    result.l2HitRate =
        l1_misses <= 0.0 ? 0.0 : agg_req.l2Hit / l1_misses;
    return result;
}

} // namespace gpumech
