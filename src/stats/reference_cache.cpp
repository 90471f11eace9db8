#include "stats/reference_cache.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"

namespace hpr::stats {

namespace {

/// Reference-model cache metrics, shared by every instance in the process.
struct CacheMetrics {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
    obs::Gauge& entries;
};

CacheMetrics& cache_metrics() {
    auto& registry = obs::default_registry();
    static CacheMetrics metrics{
        registry.counter("hpr_refmodel_cache_hits_total",
                         "Reference-model lookups answered from the cache"),
        registry.counter("hpr_refmodel_cache_misses_total",
                         "Reference-model lookups that constructed a Binomial table"),
        registry.counter("hpr_refmodel_cache_evictions_total",
                         "Reference models dropped by the LRU capacity bound"),
        registry.gauge("hpr_refmodel_cache_entries",
                       "Reference models currently resident across all caches"),
    };
    return metrics;
}

}  // namespace

ReferenceModelCache::ReferenceModelCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
    // Sized up front: a rehash mid-fill would stall every reader behind
    // the exclusive lock for the whole bucket migration.
    cache_.reserve(capacity_ + 1);
}

ReferenceModelCache::~ReferenceModelCache() {
    cache_metrics().entries.sub(static_cast<std::int64_t>(cache_.size()));
}

ReferenceModelCache::Key ReferenceModelCache::make_key(std::uint32_t m,
                                                       std::uint64_t good,
                                                       std::uint64_t total) {
    if (good > total) {
        throw std::invalid_argument(
            "ReferenceModelCache: good count exceeds total transactions");
    }
    const double p =
        total == 0 ? 0.0 : static_cast<double>(good) / static_cast<double>(total);
    return Key{m, std::bit_cast<std::uint64_t>(p)};
}

const std::shared_ptr<const Binomial>& ReferenceModelCache::hit(Entry& entry) noexcept {
    // Recency is counted in misses (eviction only runs on a miss), so a
    // hit reads the tick instead of advancing it, and skips the store when
    // the entry is already current: steady-state hits write no shared
    // cache line besides the hit counters.
    const std::uint64_t now = tick_.load(std::memory_order_relaxed);
    if (entry.last_used.load(std::memory_order_relaxed) != now) {
        entry.last_used.store(now, std::memory_order_relaxed);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().hits.increment();
    return entry.model;
}

std::shared_ptr<const Binomial> ReferenceModelCache::reference(std::uint32_t m,
                                                               std::uint64_t good,
                                                               std::uint64_t total) {
    const Key key = make_key(m, good, total);
    {
        const std::shared_lock lock{mutex_};
        if (const auto it = cache_.find(key); it != cache_.end()) return hit(it->second);
    }

    std::promise<std::shared_ptr<const Binomial>> promise;
    std::shared_future<std::shared_ptr<const Binomial>> flight;
    bool leader = false;
    {
        const std::unique_lock lock{mutex_};
        // Re-check: the key may have landed between the two locks.
        if (const auto it = cache_.find(key); it != cache_.end()) return hit(it->second);
        if (const auto it = inflight_.find(key); it != inflight_.end()) {
            flight = it->second;  // join the construction already under way
            joins_.fetch_add(1, std::memory_order_relaxed);
        } else {
            leader = true;
            flight = promise.get_future().share();
            inflight_.emplace(key, flight);
        }
    }
    if (!leader) return flight.get();  // rethrows the leader's failure, if any

    try {
        // The key holds the caller's own double good/total, so the cached
        // model is bit-for-bit the fresh one.
        auto model = std::make_shared<const Binomial>(m, std::bit_cast<double>(key.p_bits));
        {
            const std::unique_lock lock{mutex_};
            cache_.emplace(std::piecewise_construct, std::forward_as_tuple(key),
                           std::forward_as_tuple(model, next_stamp()));
            inflight_.erase(key);
            misses_.fetch_add(1, std::memory_order_relaxed);
            cache_metrics().misses.increment();
            cache_metrics().entries.add(1);
            evict_excess_locked();
        }
        promise.set_value(model);
        return model;
    } catch (...) {
        {
            const std::unique_lock lock{mutex_};
            inflight_.erase(key);  // let a later caller retry the key
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

void ReferenceModelCache::evict_excess_locked() {
    if (cache_.size() <= capacity_) return;
    // Evict in one pass down to ~7/8 of capacity.  Dropping exactly one
    // LRU victim per insert would cost an O(capacity) stamp scan per miss
    // — quadratic for a caller whose working set exceeds the capacity
    // (one long suffix ladder can touch more keys than fit).  Batching
    // the scan amortizes eviction to O(1) per insert.  Stamp order is the
    // recency order at miss granularity (entries touched since the same
    // miss tie), and hits cannot race this scan (they share the mutex we
    // hold exclusively).
    const std::size_t target = capacity_ - capacity_ / 8;
    const std::size_t excess = cache_.size() - target;
    std::vector<std::uint64_t> stamps;
    stamps.reserve(cache_.size());
    for (const auto& [key, entry] : cache_) {
        stamps.push_back(entry.last_used.load(std::memory_order_relaxed));
    }
    const auto nth = stamps.begin() + static_cast<std::ptrdiff_t>(excess) - 1;
    std::nth_element(stamps.begin(), nth, stamps.end());
    const std::uint64_t cutoff = *nth;
    std::size_t evicted = 0;
    for (auto it = cache_.begin(); it != cache_.end() && evicted < excess;) {
        if (it->second.last_used.load(std::memory_order_relaxed) <= cutoff) {
            it = cache_.erase(it);
            ++evicted;
        } else {
            ++it;
        }
    }
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    cache_metrics().evictions.increment(evicted);
    cache_metrics().entries.sub(static_cast<std::int64_t>(evicted));
}

ReferenceModelCacheStats ReferenceModelCache::stats() const {
    const std::shared_lock lock{mutex_};
    ReferenceModelCacheStats snapshot;
    snapshot.hits = hits_.load(std::memory_order_relaxed);
    snapshot.misses = misses_.load(std::memory_order_relaxed);
    snapshot.single_flight_joins = joins_.load(std::memory_order_relaxed);
    snapshot.evictions = evictions_.load(std::memory_order_relaxed);
    snapshot.in_flight = inflight_.size();
    snapshot.entries = cache_.size();
    return snapshot;
}

void ReferenceModelCache::clear() {
    const std::unique_lock lock{mutex_};
    cache_metrics().entries.sub(static_cast<std::int64_t>(cache_.size()));
    cache_.clear();
}

ReferenceModelCache& ReferenceModelCache::process_wide() {
    static auto* cache = new ReferenceModelCache{};  // leaked: see header
    return *cache;
}

}  // namespace hpr::stats
