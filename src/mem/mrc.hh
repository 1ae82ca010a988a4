/**
 * @file
 * Miss-ratio-curve (MRC) evaluation layer: reuse-distance tracking
 * with SHARDS-style spatial sampling, joint per-PC reuse-distance
 * histograms, and the way-counted associativity conversion that turns
 * an LRU stack distance into a hit probability for an arbitrary
 * set-associative geometry.
 *
 * The collector pass (collector/mrc_collector.hh) walks the trace
 * ONCE and records, for every sampled load line request, the pair
 *
 *   (d1, dg) = (per-core LRU stack distance,
 *               merged-stream LRU stack distance)
 *
 * in distinct-lines units. Everything geometry-dependent happens at
 * evaluation time: a cache of S sets x A ways hits a request of
 * distance d with probability assocHitProbability(d, S, A), which is
 * exact (d < A) for a fully-associative LRU cache and the balanced
 * modulo-mapping model (d < S*A) otherwise. One profile therefore
 * prices every cache size/associativity in a sweep without re-running
 * the functional hierarchy.
 *
 * Exactness contract (see DESIGN.md section 14): with sampling rate
 * 1.0, LRU replacement, and fully-associative geometry the derived L1
 * classification is bit-exact (each core's L1 sees its unfiltered
 * stream). The L2 side measures distances on the merged access stream
 * rather than the L1-miss-filtered stream the real L2 observes (the
 * "union stream" approximation), so it is exact only when L1 filters
 * nothing (and in the common cold-miss-dominated regimes); every other
 * combination is flagged, not silently absorbed.
 */

#ifndef GPUMECH_MEM_MRC_HH
#define GPUMECH_MEM_MRC_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "trace/coalescer.hh"

namespace gpumech
{

/** Reuse distance of a line never seen before (cold access). */
inline constexpr std::uint32_t mrcColdDistance =
    std::numeric_limits<std::uint32_t>::max();

namespace mrc_detail
{

/**
 * Open-addressing hash table from 64-bit keys to values, internal to
 * the MRC layer: power-of-two capacity, linear probing, multiplicative
 * (Fibonacci) hashing, load factor at most 3/4. A slot holding V{}
 * is empty, so callers never store V{}: the tracker stores stamp + 1
 * and the histogram accumulators store positive weights.
 */
template <typename V>
class FlatTable
{
  public:
    /**
     * The value slot of @p key; an absent key gets a fresh slot
     * holding V{}, which the caller must overwrite with a nonzero
     * value before the next call.
     */
    V &
    operator[](std::uint64_t key)
    {
        if ((count + 1) * 4 > slots.size() * 3)
            grow();
        Slot &slot = probe(key);
        if (slot.value == V{}) {
            slot.key = key;
            ++count;
        }
        return slot.value;
    }

    /** Keys stored. */
    std::size_t size() const { return count; }

    /** The entries as (key, value) pairs in ascending key order. */
    std::vector<std::pair<std::uint64_t, V>>
    sorted() const
    {
        std::vector<std::pair<std::uint64_t, V>> out;
        out.reserve(count);
        for (const Slot &slot : slots) {
            if (slot.value != V{})
                out.emplace_back(slot.key, slot.value);
        }
        std::sort(out.begin(), out.end()); // keys are unique
        return out;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
    };

    /** The slot holding @p key, or the empty slot ending its chain. */
    Slot &
    probe(std::uint64_t key)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift;
        while (slots[i].value != V{} && slots[i].key != key)
            i = (i + 1) & mask;
        return slots[i];
    }

    void
    grow()
    {
        std::vector<Slot> old(slots.empty() ? 16 : slots.size() * 2);
        old.swap(slots);
        shift = 64 - std::countr_zero(slots.size());
        for (const Slot &slot : old) {
            if (slot.value != V{})
                probe(slot.key) = slot;
        }
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
    unsigned shift = 64; //!< 64 - log2(capacity)
};

} // namespace mrc_detail

/**
 * LRU stack-distance tracker over one access stream.
 *
 * Classic two-structure design: a flat hash table from line to the
 * stamp of its previous access, plus a Fenwick tree over stamps
 * holding one set bit per currently-live "last access". A new
 * access's distance is the number of set bits after its previous
 * stamp — the count of distinct lines touched since — at O(log n) per
 * access. Stamps are assigned sequentially, so the tree only ever
 * grows at the end.
 */
class ReuseDistanceTracker
{
  public:
    /**
     * Record one access; returns the LRU stack distance in distinct
     * lines (0 = immediate re-reference), or mrcColdDistance for a
     * line never seen before.
     */
    std::uint32_t access(Addr line);

    /** Distinct lines currently tracked. */
    std::size_t uniqueLines() const { return last.size(); }

    /** Accesses recorded so far. */
    std::uint64_t accesses() const { return clock; }

  private:
    void bitSet(std::size_t pos);
    void bitClear(std::size_t pos);
    /** Set bits in [0, pos] (inclusive prefix). */
    std::uint64_t bitPrefix(std::size_t pos) const;

    mrc_detail::FlatTable<std::uint64_t> last; //!< line -> stamp + 1
    std::vector<std::uint32_t> tree; //!< Fenwick tree, 1-based
    std::uint64_t clock = 0;         //!< next stamp
    std::uint64_t live = 0;          //!< set bits in the tree
};

/**
 * SHARDS fixed-rate spatial sampler: a line is sampled iff a fixed
 * hash of its address falls below rate * 2^64, so every tracker and
 * every PC agree on the sampled line subset. Rate 1.0 samples
 * everything (the exact mode).
 */
class ShardsSampler
{
  public:
    explicit ShardsSampler(double rate);

    bool sampled(Addr line) const;

    /** Configured sampling rate in (0, 1]. */
    double rate() const { return samplingRate; }

    /** Histogram weight of one sampled observation (1 / rate). */
    double weight() const { return obsWeight; }

    /** Scale a sampled-stream distance back to the full stream. */
    std::uint32_t unscale(std::uint32_t sampled_distance) const;

  private:
    double samplingRate;
    double obsWeight;
    std::uint64_t threshold; //!< sampled iff hash < threshold
};

/**
 * Hit probability of an LRU cache of @p sets x @p ways for a request
 * of stack distance @p distance (distinct lines).
 *
 * Fully associative (sets == 1): exactly distance < ways. Otherwise
 * the way-counted balanced-mapping conversion: the functional
 * hierarchy indexes sets by line modulo, under which the d distinct
 * intervening lines of the (locally dense) address streams this
 * simulator produces disperse evenly — each set receives ~d/sets of
 * them — so the request hits iff floor(d/sets) <= ways - 1, i.e.
 * d < sets * ways. (A Binomial(d, 1/sets) tail models *random* set
 * mapping instead; measured against the functional simulation on the
 * micro suite it is strictly worse here — 5.1% worst-case CPI drift at
 * capacity boundaries vs 1.1% for the balanced rule — because modulo
 * indexing of regular streams has no conflict spread to model.)
 *
 * Cold requests (mrcColdDistance) never hit.
 */
double assocHitProbability(std::uint32_t distance, std::uint32_t sets,
                           std::uint32_t ways);

/**
 * Weighted joint histogram over (d1, dg) reuse-distance pairs, as
 * (key, weight) pairs in ascending key order with unique keys. The
 * key packs d1 in the high and dg in the low 32 bits; weights are
 * SHARDS weights (integer counts at rate 1.0).
 */
using ReusePairHist = std::vector<std::pair<std::uint64_t, double>>;

/** Pack a (d1, dg) pair into a ReusePairHist key. */
inline std::uint64_t
packReusePair(std::uint32_t d1, std::uint32_t dg)
{
    return (static_cast<std::uint64_t>(d1) << 32) | dg;
}

inline std::uint32_t reusePairD1(std::uint64_t key)
{
    return static_cast<std::uint32_t>(key >> 32);
}

inline std::uint32_t reusePairDg(std::uint64_t key)
{
    return static_cast<std::uint32_t>(key & 0xffffffffu);
}

/** One static instruction's reuse-distance profile. */
struct MrcPcProfile
{
    /**
     * Exact (unsampled) dynamic counts; classification alone is
     * sampled, so derived results can renormalize to true totals.
     */
    std::uint64_t instCount = 0;  //!< dynamic executions, any opcode
    std::uint64_t loadInsts = 0;  //!< dynamic load executions
    std::uint64_t loadReqs = 0;   //!< coalesced load line requests
    std::uint64_t storeInsts = 0; //!< dynamic store executions
    std::uint64_t storeReqs = 0;  //!< coalesced store line requests

    /** Per-request (d1, dg) weights over sampled load lines. */
    ReusePairHist reqHist;

    /**
     * Per-instruction (max d1, max dg) weights over dynamic load
     * executions with at least one sampled line — the slowest-request
     * classification of the collector, in distance space.
     */
    ReusePairHist instHist;
};

/** Aggregate and per-PC miss-ratio curves from one profiling pass. */
struct MrcProfile
{
    /** Per-PC profiles, indexed by static PC. */
    std::vector<MrcPcProfile> pcs;

    double samplingRate = 1.0;
    std::uint32_t lineBytes = 0; //!< line size distances are measured in

    std::uint64_t totalLoadLines = 0;   //!< load line requests walked
    std::uint64_t sampledLoadLines = 0; //!< of which sampled
};

} // namespace gpumech

#endif // GPUMECH_MEM_MRC_HH
