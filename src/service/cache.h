/**
 * @file
 * Content-addressed compile cache for the service layer.
 *
 * Repeated production traffic is highly redundant — the same hot
 * circuits arrive over and over — while a CaQR compile costs
 * milliseconds to seconds. `CompileCache` converts that redundancy
 * into throughput: a bounded LRU map from a *content-addressed* cache
 * key (circuit content + canonicalized options, see
 * `request_cache_key`) to the finished `CompileReport`, so a hot
 * request is answered by a map lookup instead of a pipeline run.
 *
 * Keying rules:
 *  - The key is derived from the request's input **content** (inline
 *    QASM text, file bytes, serialized circuit, or commuting spec),
 *    never from the file path — two paths to identical bytes share an
 *    entry, and an edited file misses.
 *  - Options are serialized as sorted `key=value` lines
 *    (`canonicalize_option_lines`), so the order in which a caller
 *    populated them can never split the cache.
 *  - Execution knobs that provably do not change the result —
 *    `num_threads` and `pool` (bit-identical guarantee), `trace`, the
 *    QS passes' `seed` (neither reads it), the request `name`, the
 *    metrics `tenant` tag — are excluded.
 *  - Every option struct the strategy consults is keyed: SR-CaQR on a
 *    commuting workload also keys the `qs_commuting` options its QS
 *    phase runs with.
 *
 * Thread-safety: all `LruCache` methods are safe to call from any
 * thread. Hit/miss/evict counts are mirrored into a
 * `util::metrics::Registry` as `service.cache.hit` /
 * `service.cache.miss` / `service.cache.evict` when one is attached.
 */
#ifndef CAQR_SERVICE_CACHE_H
#define CAQR_SERVICE_CACHE_H

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/service.h"
#include "util/metrics.h"
#include "util/status.h"

namespace caqr {

/// Sorts `key=value` option lines into the one canonical order and
/// joins them with '\n'. Input order never affects the result, so two
/// callers that assembled semantically identical requests in different
/// field orders produce byte-identical serializations.
std::string canonicalize_option_lines(std::vector<std::string> lines);

/**
 * Content-addressed cache key for @p request: the input content, the
 * canonical backend key (aliases like "mumbai" and "FakeMumbai"
 * collapse), the strategy, and every result-affecting option in
 * canonical order. Requests that differ only in `num_threads`,
 * `trace`, `name`, or `tenant` share a key.
 *
 * Fails with kIoError/kNotFound when a file input cannot be read and
 * kInvalidArgument when the request names no input — callers fall back
 * to an uncached compile, which reports the same failure through the
 * usual envelope.
 */
util::StatusOr<std::string> request_cache_key(
    const CompileRequest& request);

/**
 * Skeleton fingerprint for template compilation (`compile_template`):
 * the same canonical option lines as `request_cache_key`, but the
 * input is serialized by *structure*, masking bound parameter values —
 * circuits print through `to_qasm_template` (parameter names instead
 * of current angles; inline/file QASM is parsed first), commuting
 * specs flatten to nodes/layers plus sorted edges with no angles. Two
 * requests that differ only in rotation angles carried by named
 * parameters (or commuting γ/β) share a skeleton, so a hot template
 * survives across bind sessions in the `TemplateCache`.
 */
util::StatusOr<std::string> template_cache_key(
    const CompileRequest& request);

/// Lifetime counters of one cache instance.
struct CacheStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t size = 0;      ///< current entry count
    std::size_t capacity = 0;  ///< configured bound
};

/**
 * Bounded, thread-safe LRU map string key -> @p Value. `get` refreshes
 * recency; `put` evicts the least-recently-used entry once the
 * capacity is exceeded. Hit/miss/evict counts are mirrored into the
 * attached registry as `<metric_prefix>.{hit,miss,evict}`.
 *
 * Two instances back the service:
 *  - `CompileCache` (`service.cache.*`): request key -> finished
 *    `CompileReport`. Only successful reports should be inserted —
 *    failures are cheap to recompute and must not shadow a fixed
 *    input.
 *  - `TemplateCache` (`service.template.*`): skeleton fingerprint ->
 *    immutable `CompiledTemplate`, so hot templates survive across
 *    bind sessions. Eviction drops the cache's reference while
 *    in-flight binds keep theirs, and the displaced templates `put`
 *    returns let the owning `Service` retire their handle ids.
 */
template <typename Value>
class LruCache
{
  public:
    /// @p registry (optional) must outlive the cache.
    explicit LruCache(std::size_t capacity,
                      util::metrics::Registry* registry = nullptr,
                      std::string metric_prefix = "service.cache")
        : capacity_(capacity),
          registry_(registry),
          metric_prefix_(std::move(metric_prefix))
    {
    }

    /// The cached value for @p key, refreshing its recency — or
    /// nullopt (counted as a miss).
    std::optional<Value>
    get(const std::string& key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it == index_.end()) {
            ++misses_;
            count("miss");
            return std::nullopt;
        }
        ++hits_;
        count("hit");
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->second;
    }

    /**
     * Inserts (or replaces) @p value under @p key and returns every
     * value it displaced: the replaced one, the LRU entries evicted to
     * stay within capacity, or @p value itself when a zero-capacity
     * cache stores nothing. Concurrent misses on one key compile
     * deterministic results, so replacing keeps the newer copy.
     */
    std::vector<Value>
    put(const std::string& key, Value value)
    {
        std::vector<Value> displaced;
        if (capacity_ == 0) {
            displaced.push_back(std::move(value));
            return displaced;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            displaced.push_back(std::move(it->second->second));
            it->second->second = std::move(value);
            lru_.splice(lru_.begin(), lru_, it->second);
            return displaced;
        }
        lru_.emplace_front(key, std::move(value));
        index_.emplace(key, lru_.begin());
        while (lru_.size() > capacity_) {
            displaced.push_back(std::move(lru_.back().second));
            index_.erase(lru_.back().first);
            lru_.pop_back();
            ++evictions_;
            count("evict");
        }
        return displaced;
    }

    CacheStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return CacheStats{hits_, misses_, evictions_, lru_.size(),
                          capacity_};
    }

    /// Drops every entry and returns the values (counters are lifetime
    /// and survive).
    std::vector<Value>
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Value> dropped;
        dropped.reserve(lru_.size());
        for (auto& entry : lru_) dropped.push_back(std::move(entry.second));
        lru_.clear();
        index_.clear();
        return dropped;
    }

  private:
    using Entry = std::pair<std::string, Value>;

    void
    count(const char* event)
    {
        if (registry_ != nullptr) {
            registry_->add(metric_prefix_ + "." + event, 1.0);
        }
    }

    mutable std::mutex mutex_;
    const std::size_t capacity_;
    util::metrics::Registry* const registry_;
    const std::string metric_prefix_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
};

using CompileCache = LruCache<CompileReport>;
using TemplateCache = LruCache<std::shared_ptr<const CompiledTemplate>>;

}  // namespace caqr

#endif  // CAQR_SERVICE_CACHE_H
