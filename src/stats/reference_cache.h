#ifndef HPR_STATS_REFERENCE_CACHE_H
#define HPR_STATS_REFERENCE_CACHE_H

/// \file reference_cache.h
/// Shared read-mostly cache of Binomial reference models.
///
/// Every stage of every behavior test compares an empirical window-count
/// distribution against B(m, p̂) (paper §3.2).  Constructing that reference
/// costs O(m) lgamma/exp evaluations — cheap once, ruinous when the serving
/// path rebuilds it for every suffix of every assessment.  Since p̂ is
/// always the rational good_total / (k·m), the distinct reference models a
/// deployment touches form a small, heavily re-hit set: cache them.
///
/// Two properties make the cache safe to put on the verdict path:
///
///  * **Exact keying.**  Keys are the window size m plus the bit pattern
///    of the double p̂ = good / total — NOT a quantized bucket.  A model is
///    a pure function of (m, p̂), and the cache builds it from exactly the
///    double a caller computes for `Binomial{m, good / total}`, so a cached
///    model is bit-identical to a freshly constructed one — verdicts,
///    distances and margins cannot drift by even one ulp.  Equal fractions
///    (1/2, 500/1000) divide to the same double and share one entry.
///  * **Single-flight construction.**  Concurrent misses of the same key
///    join one in-flight construction (the stats::Calibrator discipline)
///    instead of each building the table.
///
/// Values are handed out as shared_ptr<const Binomial>, so an entry evicted
/// while a reader still holds it simply outlives its cache slot.  The cache
/// is bounded: inserting beyond `capacity` evicts the least-recently-used
/// entries, with recency counted in misses.  Hits take a shared lock and
/// stamp the entry with the current miss tick (a plain store, and only
/// when the stamp changes); only misses and evictions take the exclusive
/// lock.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "stats/binomial.h"

namespace hpr::stats {

/// Point-in-time behavior snapshot of a ReferenceModelCache (the obs
/// registry mirrors the same quantities as process-wide aggregates).
struct ReferenceModelCacheStats {
    std::size_t hits = 0;    ///< lookups answered from the cache
    std::size_t misses = 0;  ///< cold lookups that built a model (flight leaders)
    std::size_t single_flight_joins = 0;  ///< lookups that waited on an in-flight build
    std::size_t evictions = 0;      ///< entries dropped by the LRU bound
    std::size_t in_flight = 0;      ///< keys being constructed right now
    std::size_t entries = 0;        ///< models currently resident
};

/// Thread-safe LRU cache of immutable Binomial reference models keyed by
/// (m, p̂ as an exact double).
class ReferenceModelCache {
public:
    /// Default resident-model bound.  A key is (m, p̂); a deployment with
    /// one window size touches roughly one key per distinct (good, total)
    /// pair its suffix ladders produce.  A few thousand cover a serving
    /// horizon; the bound holds one whole batch ladder of a
    /// 200k-transaction history (10,000 stages), which would otherwise
    /// cycle through the cache and miss on every stage.
    static constexpr std::size_t kDefaultCapacity = 16384;

    /// \param capacity  maximum resident entries (minimum 1).
    explicit ReferenceModelCache(std::size_t capacity = kDefaultCapacity);

    /// Takes this cache's models back out of hpr_refmodel_cache_entries.
    ~ReferenceModelCache();

    /// The reference model B(m, good/total); total == 0 yields B(m, 0).
    /// Bit-identical to `Binomial{m, double(good) / double(total)}`.
    /// \throws std::invalid_argument if good > total.
    [[nodiscard]] std::shared_ptr<const Binomial> reference(std::uint32_t m,
                                                            std::uint64_t good,
                                                            std::uint64_t total);

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    /// Snapshot of hit/miss/join/eviction counts and current occupancy.
    [[nodiscard]] ReferenceModelCacheStats stats() const;

    /// Drop every resident model (outstanding shared_ptrs stay valid).
    void clear();

    /// The process-wide cache used by assessors that are not handed a
    /// dedicated instance (core::BehaviorTestConfig::reference_cache).
    /// Leaked on purpose so it outlives every static-destruction-order
    /// hazard, like obs::default_registry().
    [[nodiscard]] static ReferenceModelCache& process_wide();

private:
    /// m and the bit pattern of p̂ = good / total (0.0 when total == 0).
    /// Exactness of the key is what makes cached and fresh models
    /// bit-identical.
    struct Key {
        std::uint32_t m;
        std::uint64_t p_bits;
        auto operator<=>(const Key&) const = default;
    };

    struct Entry {
        Entry(std::shared_ptr<const Binomial> m, std::uint64_t stamp)
            : model(std::move(m)), last_used(stamp) {}
        std::shared_ptr<const Binomial> model;
        std::atomic<std::uint64_t> last_used;  ///< recency stamp (miss tick)
    };

    /// splitmix64-style mix of (m, p̂ bits).  The hot path is one hash
    /// plus one bucket probe — measurably cheaper than the pointer-chasing
    /// compares of an ordered map at steady-state occupancy.
    struct KeyHash {
        [[nodiscard]] std::size_t operator()(const Key& key) const noexcept {
            std::uint64_t h = key.p_bits + 0x9e3779b97f4a7c15ULL * key.m;
            h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
            h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
            return static_cast<std::size_t>(h ^ (h >> 31));
        }
    };

    [[nodiscard]] static Key make_key(std::uint32_t m, std::uint64_t good,
                                      std::uint64_t total);
    /// Hit bookkeeping (recency stamp, counters); returns the model.
    [[nodiscard]] const std::shared_ptr<const Binomial>& hit(Entry& entry) noexcept;
    [[nodiscard]] std::uint64_t next_stamp() noexcept {
        return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    /// Evict least-recently-used entries down to capacity.  Requires the
    /// exclusive lock.
    void evict_excess_locked();

    std::size_t capacity_;
    mutable std::shared_mutex mutex_;
    std::unordered_map<Key, Entry, KeyHash> cache_;

    /// Keys being constructed right now; followers wait on the future
    /// while the flight leader builds the table outside the lock.
    std::unordered_map<Key, std::shared_future<std::shared_ptr<const Binomial>>, KeyHash>
        inflight_;

    std::atomic<std::uint64_t> tick_{0};
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> joins_{0};
    std::atomic<std::size_t> evictions_{0};
};

}  // namespace hpr::stats

#endif  // HPR_STATS_REFERENCE_CACHE_H
