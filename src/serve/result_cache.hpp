/// \file
/// Version-keyed ER result cache with dirty-block invalidation
/// (DESIGN.md §4.2).
///
/// A sharded, lock-striped map from (scope, path, kind, accuracy tier,
/// node-pair) to the cached answer, sitting between QueryFrontEnd and the
/// snapshot's answer paths. A *scope* is an opaque epoch id resolved per
/// snapshot version:
///
///   * every version gets a fresh *exact scope* covering its exact answers
///     (they come from the factor of the whole stitched system, global
///     state refactored by every publish, so they are never valid across
///     versions — but stay valid for as long as the version itself is
///     pinned);
///   * every (version, block) gets a *block scope* covering the block's
///     resident-engine answers. On publish the hook compares the previous
///     and next snapshot's BlockArtifact pointers: an aliased (clean)
///     block *carries* its scope — all of its entries keep hitting under
///     the new version at zero cost — while a rebuilt (dirty) block gets a
///     fresh scope, making its old entries unreachable. A full build
///     aliases nothing, so every block scope turns over and the whole
///     engine-side cache drops (the full-stitch fallback contract).
///
/// Correctness does not depend on the invalidation protocol: snapshots are
/// immutable and every cacheable answer is a pure per-query function of
/// (scope state, kind, node pair), so a resolvable scope can only ever
/// yield the bitwise-identical answer the compute path would produce. The
/// protocol only decides *warmth*; an unresolvable version (never
/// registered, or past ResultCacheOptions::version_cap) simply misses
/// through. Unreachable entries are swept eagerly at publish so the
/// capacity isn't squatted by dead versions
/// (`er_cache_invalidations_total`).
///
/// Thread-safety: all methods are safe for any number of concurrent
/// callers. Point operations lock one stripe; the publish hook locks the
/// scope table and then each stripe in turn (never nested).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "serve/query_frontend.hpp"
#include "serve/snapshot.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace er {

namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// Sharded LRU answer cache. Construct from ServingOptions::cache and
/// attach to the deployment's ModelStore (which invokes on_publish);
/// QueryFrontEnd::answer picks it up from the store automatically.
///
/// Observability (DESIGN.md §6): `er_cache_{hits,misses,evictions,
/// invalidations}_total` counters, `er_cache_entries` / `er_cache_bytes`
/// gauges, and the `er_cache_hit_latency_seconds` histogram, all
/// registered at construction so the families export even before traffic.
class ResultCache {
 public:
  /// Which answer path produced (and may re-serve) an entry. The two
  /// paths cache under distinct keys even for the same pair: engine
  /// answers are approximate.
  enum class Path : std::uint8_t {
    kExact = 0,   ///< answers from the factor of the stitched system
    kEngine = 1,  ///< block-local resident-engine answers
  };

  /// Scope resolution of one registered version: immutable once published
  /// from on_publish, so readers share it lock-free via shared_ptr.
  struct ScopeView {
    std::uint64_t exact_scope = 0;
    std::vector<std::uint64_t> block_scopes;  ///< block -> scope id
  };
  using ScopeViewPtr = std::shared_ptr<const ScopeView>;

  /// Metrics go to `registry` (null = the process-wide global registry).
  explicit ResultCache(const ResultCacheOptions& opts = {},
                       obs::MetricsRegistry* registry = nullptr);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Publish hook (ModelStore calls this after every snapshot swap, and
  /// once at attach_cache for the already-current snapshot with
  /// previous = null). Registers `next`'s scopes — carrying the scope of
  /// every block whose artifact pointer `next` shares with `previous` —
  /// ages versions past ResultCacheOptions::version_cap out of the scope
  /// table, and sweeps entries of dead scopes.
  ///
  /// Hooks of *racing* publishes may run in either order; the worst case
  /// is a missed carry (fresh scopes, cold cache), never a stale hit,
  /// because a carry needs pointer identity against the registered
  /// previous snapshot.
  void on_publish(const ModelSnapshot* previous, const ModelSnapshot& next)
      ER_EXCLUDES(scope_mutex_);

  /// Scope resolution for a snapshot version; null when the version was
  /// never registered or has aged out (callers then skip the cache for
  /// the batch). Resolve once per batch — the view is immutable.
  [[nodiscard]] ScopeViewPtr scopes_for(std::uint64_t version) const
      ER_EXCLUDES(scope_mutex_);

  /// Probe for a cached answer; a hit refreshes the entry's LRU position
  /// and records the hit-latency sample. Returns false on miss. `tier` is
  /// part of the key (serve/query_policy.hpp): entries inserted under a
  /// reduced tier can never serve an exact-tier probe, and vice versa.
  bool lookup(std::uint64_t scope, Path path, QueryKind kind,
              AccuracyTier tier, index_t p, index_t q, real_t* out);

  /// Store an answer under the scope, evicting per-shard LRU tails past
  /// the capacity bound. Inserting an existing key refreshes its value
  /// (idempotent: answers are deterministic per key).
  void insert(std::uint64_t scope, Path path, QueryKind kind,
              AccuracyTier tier, index_t p, index_t q, real_t value);

  // Whole-cache probes (tests / introspection; the registry carries the
  // same figures as er_cache_* series).
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;
  [[nodiscard]] std::uint64_t invalidations() const;

  /// Resident-byte estimate per entry (map node + LRU node + bookkeeping);
  /// er_cache_bytes = entries * kEntryBytes.
  static constexpr std::size_t kEntryBytes = 96;

 private:
  struct Key {
    std::uint64_t scope = 0;
    std::uint32_t tag = 0;  ///< (tier << 2) | (path << 1) | kind
    index_t p = 0;
    index_t q = 0;
    bool operator==(const Key& o) const {
      return scope == o.scope && tag == o.tag && p == o.p && q == o.q;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    real_t value = 0.0;
  };
  /// One lock stripe: an LRU list (front = most recent) plus the index
  /// into it. Sized so hot shards don't false-share their mutexes.
  struct Shard {
    mutable util::Mutex mutex;
    std::list<Entry> lru ER_GUARDED_BY(mutex);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map
        ER_GUARDED_BY(mutex);
  };

  static std::uint32_t make_tag(Path path, QueryKind kind,
                                AccuracyTier tier) {
    return (static_cast<std::uint32_t>(tier) << 2) |
           (static_cast<std::uint32_t>(path) << 1) |
           static_cast<std::uint32_t>(kind);
  }
  Shard& shard_for(const Key& key);
  /// Drop every entry whose scope is not in `live` (sorted); counts into
  /// er_cache_invalidations_total.
  void sweep_dead_scopes(const std::vector<std::uint64_t>& live);

  const ResultCacheOptions opts_;
  std::size_t shard_cap_entries_ = 0;  ///< per-shard entry bound
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable util::Mutex scope_mutex_;
  /// Monotone scope id source — ids are never reused, so a swept scope
  /// can never resurrect (unlike raw artifact pointers, which the
  /// allocator may recycle).
  std::uint64_t next_scope_ ER_GUARDED_BY(scope_mutex_) = 1;
  /// (version, scopes) of the most recent registrations, oldest first,
  /// bounded by ResultCacheOptions::version_cap.
  std::vector<std::pair<std::uint64_t, ScopeViewPtr>> versions_
      ER_GUARDED_BY(scope_mutex_);

  obs::Counter* hits_total_;
  obs::Counter* misses_total_;
  obs::Counter* evictions_total_;
  obs::Counter* invalidations_total_;
  obs::Gauge* entries_gauge_;
  obs::Gauge* bytes_gauge_;
  obs::Histogram* hit_latency_;
};

using ResultCachePtr = std::shared_ptr<ResultCache>;

}  // namespace er
