#include "collector/mrc_collector.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"

namespace gpumech
{

namespace
{

/** Load lines per walk chunk below which a chunk is not worth a task. */
constexpr std::uint64_t kMinChunkLines = 16384;

/**
 * Distinct lines per previous-occurrence part: a part's table (16 B a
 * slot, at most 3/4 full) then stays within a core's L2.
 */
constexpr std::uint64_t kPartLines = 65536;

/** No previous occurrence (a cold access). */
constexpr std::uint32_t kNoPrev = std::numeric_limits<std::uint32_t>::max();

/** One load instruction of the merged walk. */
struct LoadRef
{
    LineSpan lines;     //!< its line requests
    std::uint32_t core; //!< core of its warp
    std::uint32_t pc;   //!< dense index among the global-memory PCs
};

/** Sampled load lines and load executions with one, of one PC. */
struct SampledCount
{
    std::uint64_t reqs = 0;
    std::uint64_t insts = 0;
};

/** Partition of a line among @p parts (independent of FlatTable's
 *  slot hash, so a part's lines still spread over its table). */
std::size_t
partOf(Addr line, std::size_t parts)
{
    const std::uint64_t h = (line ^ (line >> 31)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(((h >> 32) * parts) >> 32);
}

/**
 * The weight of a key seen @p count times: count sequential additions
 * of @p weight from zero, as one accumulator summing every observation
 * in turn would hold.
 */
double
sumWeight(std::uint64_t count, double weight)
{
    double sum = 0.0;
    for (std::uint64_t i = 0; i < count; ++i)
        sum += weight;
    return sum;
}

/**
 * Visit the distinct keys of sorted runs in ascending order, calling
 * visit(key, count) with each key's count over all runs. Run r is
 * keys[bounds[r], bounds[r + 1]). Checks the deadline on entry and
 * once per check_mask + 1 keys.
 */
template <typename Visit>
void
mergeRuns(const std::uint64_t *keys,
          const std::vector<std::uint64_t> &bounds,
          std::size_t check_mask, Visit &&visit)
{
    deadlineCheckpoint();
    std::vector<std::uint64_t> head(bounds.begin(), bounds.end() - 1);
    std::uint64_t merged = 0;
    for (;;) {
        bool any = false;
        std::uint64_t key = 0;
        for (std::size_t r = 0; r < head.size(); ++r) {
            if (head[r] < bounds[r + 1] && (!any || keys[head[r]] < key)) {
                key = keys[head[r]];
                any = true;
            }
        }
        if (!any)
            return;
        std::uint64_t count = 0;
        for (std::size_t r = 0; r < head.size(); ++r) {
            while (head[r] < bounds[r + 1] && keys[head[r]] == key) {
                ++head[r];
                ++count;
            }
        }
        visit(key, count);
        // Crossed a multiple of check_mask + 1.
        if ((merged | check_mask) < merged + count)
            deadlineCheckpoint();
        merged += count;
    }
}

/**
 * The merged walk, as a list of its load instructions. The serial
 * collector's walk visits warps round-robin: round r holds every
 * warp's r-th global-memory instruction, in warp order. A store takes
 * its warp's turn in the round like a load, even though it touches no
 * tracker: skipping it would reorder the loads of a core whose warps
 * place stores at different positions. Warp groups count their loads
 * per round, and add the exact per-PC counts into @p profile, then
 * write their loads at the prefix-summed offsets. Each group checks
 * the deadline once per check_mask + 1 instructions.
 */
std::vector<LoadRef>
mergedLoads(const KernelTrace &kernel, const HardwareConfig &config,
            const std::vector<std::uint32_t> &mem_index, unsigned jobs,
            std::size_t check_mask, MrcProfile &profile)
{
    const std::vector<Opcode> &ops = kernel.instOps();
    const std::vector<std::uint32_t> &pcs = kernel.instPcs();
    const std::uint32_t num_static = kernel.numStaticInsts();
    const std::uint32_t num_warps = kernel.numWarps();
    const std::size_t groups =
        std::max<std::size_t>(1, std::min<std::size_t>(jobs, num_warps));
    std::vector<std::vector<std::uint64_t>> round_loads(groups);
    std::vector<MrcPcProfile> group_pcs(groups * num_static);
    auto groupWarps = [&](std::size_t g) {
        return std::pair<std::uint32_t, std::uint32_t>(
            static_cast<std::uint32_t>(g * num_warps / groups),
            static_cast<std::uint32_t>((g + 1) * num_warps / groups));
    };
    parallelForInContext(groups, [&](std::size_t g) {
        MrcPcProfile *counts = group_pcs.data() + g * num_static;
        std::vector<std::uint64_t> &loads_in = round_loads[g];
        const auto [first, last] = groupWarps(g);
        for (std::uint32_t w = first; w < last; ++w) {
            const std::uint64_t off = kernel.instOffsetOf(w);
            const std::uint64_t end = off + kernel.warp(w).numInsts();
            std::size_t round = 0;
            for (std::uint64_t f = off; f < end; ++f) {
                if (((f - off) & check_mask) == 0)
                    deadlineCheckpoint();
                MrcPcProfile &pc = counts[pcs[f]];
                ++pc.instCount;
                if (!isGlobalMemory(ops[f]))
                    continue;
                const std::uint64_t lines = kernel.linesOfFlat(f).size();
                if (ops[f] == Opcode::GlobalLoad) {
                    ++pc.loadInsts;
                    pc.loadReqs += lines;
                    if (round >= loads_in.size())
                        loads_in.resize(round + 1, 0);
                    ++loads_in[round];
                } else {
                    ++pc.storeInsts;
                    pc.storeReqs += lines;
                }
                ++round;
            }
        }
    }, 1, jobs);
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::uint32_t p = 0; p < num_static; ++p) {
            const MrcPcProfile &from = group_pcs[g * num_static + p];
            MrcPcProfile &to = profile.pcs[p];
            to.instCount += from.instCount;
            to.loadInsts += from.loadInsts;
            to.loadReqs += from.loadReqs;
            to.storeInsts += from.storeInsts;
            to.storeReqs += from.storeReqs;
            profile.totalLoadLines += from.loadReqs;
        }
    }
    group_pcs = {};
    std::size_t rounds = 0;
    for (const auto &loads_in : round_loads)
        rounds = std::max(rounds, loads_in.size());
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (auto &loads_in : round_loads) {
            if (r < loads_in.size()) {
                const std::uint64_t n = loads_in[r];
                loads_in[r] = total;
                total += n;
            }
        }
    }
    std::vector<LoadRef> loads(total);
    parallelForInContext(groups, [&](std::size_t g) {
        std::vector<std::uint64_t> &next = round_loads[g];
        const auto [first, last] = groupWarps(g);
        for (std::uint32_t w = first; w < last; ++w) {
            const std::uint32_t core = kernel.coreOfWarp(w, config);
            const std::uint64_t off = kernel.instOffsetOf(w);
            const std::uint64_t end = off + kernel.warp(w).numInsts();
            std::size_t round = 0;
            for (std::uint64_t f = off; f < end; ++f) {
                if (((f - off) & check_mask) == 0)
                    deadlineCheckpoint();
                if (!isGlobalMemory(ops[f]))
                    continue;
                if (ops[f] == Opcode::GlobalLoad)
                    loads[next[round]++] = LoadRef{
                        kernel.linesOfFlat(f), core, mem_index[pcs[f]]};
                ++round;
            }
        }
    }, 1, jobs);
    return loads;
}

/**
 * Previous occurrences: element i is the merged position of the last
 * access before position i to the same line, kNoPrev if none. Lines
 * are split into parts by hash; a pool task walks the whole merged
 * stream per part, keeping a table of its part's lines. @p
 * distinct_lines (the summed per-core distinct lines) bounds the
 * merged stream's, so a part fits a table sized from it. Each pool
 * lane reuses one table, sized here, for its parts in turn.
 */
std::vector<std::uint32_t>
previousOccurrences(const std::vector<LoadRef> &loads,
                    const ShardsSampler &sampler, std::uint64_t sampled,
                    std::uint64_t distinct_lines, unsigned jobs,
                    std::size_t check_mask)
{
    std::vector<std::uint32_t> prev(sampled);
    const std::size_t parts = std::max<std::size_t>(
        jobs, (distinct_lines + kPartLines - 1) / kPartLines);
    const std::uint64_t part_lines = distinct_lines / parts + 1;
    std::vector<mrc_detail::FlatTable<std::uint32_t>> tables(jobs);
    for (auto &table : tables)
        table.reserve(part_lines + part_lines / 8);
    parallelForInContext(jobs, [&](std::size_t lane) {
        mrc_detail::FlatTable<std::uint32_t> &last = tables[lane];
        for (std::size_t part = lane; part < parts; part += jobs) {
            last.clear();
            std::uint32_t pos = 0;
            for (std::uint64_t e = 0; e < loads.size(); ++e) {
                if ((e & check_mask) == 0)
                    deadlineCheckpoint();
                for (Addr line : loads[e].lines) {
                    if (!sampler.sampled(line))
                        continue;
                    if (partOf(line, parts) == part) {
                        std::uint32_t &slot = last[line]; // pos + 1
                        prev[pos] = slot - 1; // kNoPrev when new
                        slot = pos + 1;
                    }
                    ++pos;
                }
            }
        }
    }, 1, jobs);
    return prev;
}

} // namespace

MrcProfile
collectMrcProfile(const KernelTrace &kernel,
                  const HardwareConfig &config, double sampling_rate)
{
    evalCheckpoint(FaultSite::Collect);

    const std::uint32_t num_static = kernel.numStaticInsts();
    const std::uint32_t num_warps = kernel.numWarps();
    const std::uint32_t num_cores = config.numCores;
    const unsigned jobs = globalPool().concurrency();
    const ShardsSampler sampler(sampling_rate);
    MrcProfile profile;
    profile.samplingRate = sampling_rate;
    profile.lineBytes = config.l1LineBytes;
    profile.pcs.resize(num_static);

    // Every stage below checks the deadline once per this many load
    // instructions, instructions or keys, which is at most one round's
    // worth: a round holds one memory instruction of each warp.
    const std::size_t check_mask =
        std::bit_floor(std::max<std::uint32_t>(num_warps, 1)) - 1;

    // Dense indices of the global-memory PCs, which own key segments.
    std::vector<std::uint32_t> mem_index(num_static, 0);
    std::vector<std::uint32_t> mem_pcs;
    for (std::uint32_t pc = 0; pc < num_static; ++pc) {
        if (isGlobalMemory(kernel.opcodeOf(pc))) {
            mem_index[pc] = static_cast<std::uint32_t>(mem_pcs.size());
            mem_pcs.push_back(pc);
        }
    }
    const std::size_t num_mem = mem_pcs.size();

    std::vector<LoadRef> loads =
        mergedLoads(kernel, config, mem_index, jobs, check_mask, profile);

    // Chunks: ranges of the merged walk of about equal load lines, one
    // per pool thread, fewer for a small kernel.
    const std::size_t num_chunks = static_cast<std::size_t>(
        std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(
                   {std::uint64_t{jobs}, loads.size(),
                    profile.totalLoadLines / kMinChunkLines})));
    std::vector<std::uint64_t> bounds(num_chunks + 1, loads.size());
    bounds[0] = 0;
    {
        std::uint64_t seen = 0;
        std::size_t chunk = 1;
        for (std::size_t e = 0; e < loads.size() && chunk < num_chunks;
             ++e) {
            seen += loads[e].lines.size();
            while (chunk < num_chunks &&
                   seen * num_chunks >= chunk * profile.totalLoadLines)
                bounds[chunk++] = e + 1;
        }
    }

    // Phase A: each core's L1 stream through its own tracker, cores in
    // parallel. d1s[c] holds the d1 (scaled back to the full stream)
    // of every sampled load line in that core's walk order, which is
    // the order the merged walk meets them in: the merged walk
    // restricted to one core's warps is exactly that core's walk. Each
    // core also records its d1 slot at every chunk start and its
    // sampled counts per chunk and PC.
    std::vector<std::vector<std::uint32_t>> d1s(num_cores);
    std::vector<std::uint64_t> slots(num_cores * (num_chunks + 1));
    std::vector<SampledCount> counts(num_cores * num_chunks * num_mem);
    std::vector<std::uint64_t> distinct(num_cores);
    parallelForInContext(num_cores, [&](std::size_t c) {
        std::vector<std::uint32_t> &out = d1s[c];
        ReuseDistanceTracker tracker;
        for (std::size_t j = 0; j < num_chunks; ++j) {
            slots[c * (num_chunks + 1) + j] = out.size();
            SampledCount *count =
                counts.data() + (c * num_chunks + j) * num_mem;
            for (std::uint64_t e = bounds[j]; e < bounds[j + 1]; ++e) {
                if ((e & check_mask) == 0)
                    deadlineCheckpoint();
                if (loads[e].core != c)
                    continue;
                const std::size_t before = out.size();
                for (Addr line : loads[e].lines) {
                    if (sampler.sampled(line))
                        out.push_back(sampler.unscale(tracker.access(line)));
                }
                SampledCount &pc = count[loads[e].pc];
                pc.reqs += out.size() - before;
                pc.insts += out.size() != before;
            }
        }
        slots[c * (num_chunks + 1) + num_chunks] = out.size();
        distinct[c] = tracker.uniqueLines();
    }, 1, jobs);

    // Each chunk's first merged position, and where each chunk writes
    // each PC's keys: one array holds every PC's request keys, then its
    // instruction keys, chunk after chunk.
    std::vector<std::uint64_t> starts(num_chunks + 1, 0);
    for (std::size_t j = 0; j <= num_chunks; ++j) {
        for (std::uint32_t c = 0; c < num_cores; ++c)
            starts[j] += slots[c * (num_chunks + 1) + j];
    }
    const std::uint64_t sampled = starts[num_chunks];
    profile.sampledLoadLines = sampled;
    if (sampled >= kNoPrev) {
        throw StatusException(Status(
            StatusCode::Overflow,
            msg("collectMrcProfile: ", sampled,
                " sampled load lines exceed the walk's 32-bit "
                "positions")));
    }
    // Segment m's runs: request keys at req_runs[m], instruction keys
    // at inst_runs[m], chunk j's run from element j to j + 1.
    std::vector<std::vector<std::uint64_t>> req_runs(num_mem),
        inst_runs(num_mem);
    std::uint64_t num_keys = 0;
    for (std::size_t m = 0; m < num_mem; ++m) {
        for (auto [runs, insts] : {std::pair{&req_runs[m], false},
                                   std::pair{&inst_runs[m], true}}) {
            runs->push_back(num_keys);
            for (std::size_t j = 0; j < num_chunks; ++j) {
                for (std::uint32_t c = 0; c < num_cores; ++c) {
                    const SampledCount &n =
                        counts[(c * num_chunks + j) * num_mem + m];
                    num_keys += insts ? n.insts : n.reqs;
                }
                runs->push_back(num_keys);
            }
        }
    }
    counts = {};

    std::uint64_t distinct_lines = 0;
    for (std::uint64_t d : distinct)
        distinct_lines += d;
    std::vector<std::uint32_t> prev = previousOccurrences(
        loads, sampler, sampled, distinct_lines, jobs, check_mask);

    // Chunks: each rebuilds the live set at its start (every earlier
    // position that no earlier position names as its previous
    // occurrence is some line's last access), then walks its range as
    // the serial tracker would, pairing each sampled line's dg with
    // the next d1 of its core, writing the pair's key into its PC's
    // run, and sorts its runs. A run's sort is the one step that
    // checks no deadline inside; a run holds one chunk's keys of one
    // PC.
    std::vector<std::uint64_t> keys(num_keys);
    {
        std::vector<mrc_detail::LiveSet> live(num_chunks);
        for (std::size_t j = 0; j < num_chunks; ++j)
            live[j].reset(starts[j + 1]);
        parallelForInContext(num_chunks, [&](std::size_t j) {
            mrc_detail::LiveSet &stamps = live[j];
            const std::uint64_t start = starts[j];
            stamps.assign(start, [&](auto remove) {
                for (std::uint64_t i = 0; i < start; ++i) {
                    if ((i & check_mask) == 0)
                        deadlineCheckpoint();
                    if (prev[i] != kNoPrev)
                        remove(prev[i]);
                }
            });
            std::vector<std::uint64_t> next_d1(num_cores);
            for (std::uint32_t c = 0; c < num_cores; ++c)
                next_d1[c] = slots[c * (num_chunks + 1) + j];
            std::vector<std::uint64_t> req_out(num_mem), inst_out(num_mem);
            for (std::size_t m = 0; m < num_mem; ++m) {
                req_out[m] = req_runs[m][j];
                inst_out[m] = inst_runs[m][j];
            }
            std::uint64_t pos = start;
            for (std::uint64_t e = bounds[j]; e < bounds[j + 1]; ++e) {
                if ((e & check_mask) == 0)
                    deadlineCheckpoint();
                const LoadRef load = loads[e];
                const std::uint32_t m = load.pc;
                const std::vector<std::uint32_t> &d1 = d1s[load.core];
                bool any_sampled = false;
                std::uint32_t max_d1 = 0, max_dg = 0;
                for (Addr line : load.lines) {
                    if (!sampler.sampled(line))
                        continue;
                    std::uint32_t raw = mrcColdDistance;
                    if (prev[pos] != kNoPrev) {
                        const std::uint64_t between =
                            stamps.size() - stamps.rank(prev[pos]);
                        raw = between >= mrcColdDistance
                                  ? mrcColdDistance - 1
                                  : static_cast<std::uint32_t>(between);
                        stamps.erase(prev[pos]);
                    }
                    stamps.insert(pos++);
                    const std::uint32_t d1v = d1[next_d1[load.core]++];
                    const std::uint32_t dg = sampler.unscale(raw);
                    keys[req_out[m]++] = packReusePair(d1v, dg);
                    // The cold sentinel is the numeric max, so max()
                    // correctly makes a cold line the slowest.
                    max_d1 = any_sampled ? std::max(max_d1, d1v) : d1v;
                    max_dg = any_sampled ? std::max(max_dg, dg) : dg;
                    any_sampled = true;
                }
                if (any_sampled)
                    keys[inst_out[m]++] = packReusePair(max_d1, max_dg);
            }
            for (std::size_t m = 0; m < num_mem; ++m) {
                deadlineCheckpoint();
                for (const auto *runs : {&req_runs[m], &inst_runs[m]})
                    std::sort(keys.data() + (*runs)[j],
                              keys.data() + (*runs)[j + 1]);
            }
        }, 1, jobs);
    }
    loads = {};
    prev = {};
    d1s = {};

    // Merge and freeze: each PC's sorted runs are counted on the pool,
    // its histograms sized here, then filled on the pool. A key seen k
    // times weighs k sequential additions of the sampling weight.
    std::vector<std::size_t> req_keys(num_mem), inst_keys(num_mem);
    parallelForInContext(num_mem, [&](std::size_t m) {
        mergeRuns(keys.data(), req_runs[m], check_mask,
                  [&](std::uint64_t, std::uint64_t) { ++req_keys[m]; });
        mergeRuns(keys.data(), inst_runs[m], check_mask,
                  [&](std::uint64_t, std::uint64_t) { ++inst_keys[m]; });
    }, 1, jobs);
    for (std::size_t m = 0; m < num_mem; ++m) {
        profile.pcs[mem_pcs[m]].reqHist.reserve(req_keys[m]);
        profile.pcs[mem_pcs[m]].instHist.reserve(inst_keys[m]);
    }
    parallelForInContext(num_mem, [&](std::size_t m) {
        MrcPcProfile &pc = profile.pcs[mem_pcs[m]];
        for (auto [runs, hist] : {std::pair{&req_runs[m], &pc.reqHist},
                                  std::pair{&inst_runs[m], &pc.instHist}}) {
            mergeRuns(keys.data(), *runs, check_mask,
                      [&](std::uint64_t key, std::uint64_t count) {
                          hist->emplace_back(
                              key, sumWeight(count, sampler.weight()));
                      });
        }
    }, 1, jobs);
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
