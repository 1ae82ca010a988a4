/**
 * @file
 * Keyed memoization cache for expensive pipeline inputs.
 *
 * MemoCache maps a string key to an immutable, shared value computed
 * at most once per key. Concurrent lookups of the same key block on a
 * per-entry once-flag, so parallel sweep points that share inputs
 * (trace, collector result, profiler) never duplicate the computation.
 *
 * Values are deterministic functions of their key by contract, so a
 * cache hit is bit-identical to recomputing — the determinism
 * guarantee the parallel harness tests assert.
 */

#ifndef GPUMECH_COMMON_MEMO_HH
#define GPUMECH_COMMON_MEMO_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace gpumech
{

/** Thread-safe compute-once cache keyed by string. */
template <typename Value>
class MemoCache
{
  public:
    /**
     * Return the cached value for @p key, computing it via
     * @p compute() (returning Value by value) on first use. If
     * compute throws, the key's entry is dropped and the exception
     * propagates: the next lookup of the key is a miss that computes
     * again, and contains() is false until then.
     */
    template <typename Fn>
    std::shared_ptr<const Value>
    getOrCompute(const std::string &key, Fn &&compute)
    {
        std::shared_ptr<Entry> entry;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = entries.find(key);
            if (it != entries.end()) {
                ++hitCount;
                entry = it->second;
            } else {
                ++missCount;
                entry = std::make_shared<Entry>();
                entries.emplace(key, entry);
            }
        }
        try {
            std::call_once(entry->once, [&] {
                entry->value =
                    std::make_shared<const Value>(compute());
            });
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            auto it = entries.find(key);
            if (it != entries.end() && it->second == entry)
                entries.erase(it);
            throw;
        }
        return entry->value;
    }

    /** Seed the cache with a precomputed value (no-op if present). */
    void
    put(const std::string &key, std::shared_ptr<const Value> value)
    {
        std::shared_ptr<Entry> entry;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = entries.find(key);
            if (it != entries.end()) {
                entry = it->second;
            } else {
                entry = std::make_shared<Entry>();
                entries.emplace(key, entry);
            }
        }
        std::call_once(entry->once,
                       [&] { entry->value = std::move(value); });
    }

    /** Whether @p key has an entry (not counted as a lookup). */
    bool
    contains(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mu);
        return entries.count(key) != 0;
    }

    /** Lookups that found an existing entry. */
    std::size_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return hitCount;
    }

    /** Lookups that created a new entry. */
    std::size_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return missCount;
    }

    /** Number of cached entries. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return entries.size();
    }

    /** Drop every entry and reset the hit/miss counters. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu);
        entries.clear();
        hitCount = 0;
        missCount = 0;
    }

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const Value> value;
    };

    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries;
    std::size_t hitCount = 0;
    std::size_t missCount = 0;
};

} // namespace gpumech

#endif // GPUMECH_COMMON_MEMO_HH
