/// \file
/// Concurrent query front-end over a ModelStore (DESIGN.md §4).
///
/// Accepts batches of port-response / effective-resistance queries in
/// *original* node ids, pins the store's current snapshot once per batch,
/// routes each query to the owning block(s) through the snapshot's
/// node->block map, and fans the batch out across a ThreadPool. Answers
/// land in per-query slots, so a batch is bit-identical at any thread
/// count.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/model_store.hpp"
#include "serve/query_policy.hpp"
#include "util/types.hpp"

namespace er {

class ResultCache;
class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// What a PortQuery asks for.
enum class QueryKind {
  kResponse,    ///< Z(p, q) = e_q^T G^{-1} e_p (transfer impedance)
  kResistance,  ///< (e_p - e_q)^T G^{-1} (e_p - e_q)
};

const char* to_string(QueryKind kind);

/// One query against the published model, in original (pre-reduction) node
/// ids. Nodes that were eliminated by the reduction answer NaN. The
/// per-query policy defaults to "no policy" — serve/query_policy.hpp —
/// under which the batch behaves exactly as before policies existed.
struct PortQuery {
  QueryKind kind = QueryKind::kResistance;
  index_t p = 0;
  index_t q = 0;
  QueryPolicy policy;
};

const char* to_string(RouteMode m);

/// Per-batch diagnostics, filled by answer()/answer_on() for the one
/// batch that produced them. The same figures are simultaneously streamed
/// into the metrics registry as cumulative counters and latency
/// histograms per route mode (`er_serve_*{mode=...}`,
/// `er_query_latency_seconds{mode=...}`, `er_query_batch_seconds{mode=
/// ...}` — DESIGN.md §6), so BatchStats stays the per-call view while the
/// registry carries the process-lifetime aggregates.
struct BatchStats {
  std::size_t queries = 0;
  std::size_t invalid = 0;          ///< unmapped / out-of-range endpoints
  std::size_t same_block = 0;       ///< both endpoints owned by one block
  std::size_t cross_block = 0;      ///< endpoints in different blocks
  std::size_t engine_answered = 0;  ///< computed by a block engine and taken
  /// Result-cache figures (serve/result_cache.hpp), zero when no cache was
  /// consulted. hits + misses counts every cache probe of the batch;
  /// invalid queries are never probed or cached.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Policy figures (serve/query_policy.hpp), zero for all-default
  /// batches. A hedged query runs one leg, chosen by plan_query;
  /// hedge_won_engine counts the ones the block engine answered.
  std::size_t deadline_miss = 0;    ///< expired before evaluation (NaN)
  std::size_t hedged = 0;           ///< engine-eligible, hedge bit set
  std::size_t hedge_won_engine = 0; ///< hedges answered by the block engine
  std::uint64_t snapshot_version = 0;
  double seconds = 0.0;
};

/// Per-batch evaluation parameters for answer()/answer_on() — the former
/// loose parameter list of the static answer_on, folded into one value so
/// policy-era inputs (queue wait, per-query statuses) have a place to
/// live. Members are ordered like the old positional parameters, so
/// existing call sites migrate by wrapping their arguments in braces.
struct AnswerContext {
  ThreadPool* pool = nullptr;
  /// Batch-default route; each query's QueryPolicy may override it.
  RouteMode mode = RouteMode::kExact;
  BatchStats* stats = nullptr;
  /// Metrics sink (null = the process-wide global registry).
  obs::MetricsRegistry* registry = nullptr;
  /// Consulted and filled when its version resolves; may be null.
  ResultCache* cache = nullptr;
  /// Queue wait already consumed before evaluation starts, in
  /// microseconds: the value per-query deadlines are compared against.
  /// An explicit input — the compute path never reads a clock — so the
  /// same (snapshot, batch, context) always yields the same answers.
  /// Direct callers default to 0 (no wait, nothing expires).
  std::uint64_t queue_wait_us = 0;
  /// Optional per-query outcome slots (resized to the batch); null skips.
  std::vector<QueryStatus>* statuses = nullptr;
};

/// Stateless batch evaluator bound to a ModelStore. Thread-safe: any number
/// of threads may call answer() concurrently; each batch pins the snapshot
/// current at its start and is unaffected by publishes that race with it.
class QueryFrontEnd {
 public:
  /// `store` must outlive the front-end. Metrics go to `registry`
  /// (null = the process-wide global registry).
  explicit QueryFrontEnd(const ModelStore* store,
                         obs::MetricsRegistry* registry = nullptr);

  /// Answer a batch against the currently-published snapshot. Throws
  /// std::runtime_error if nothing has been published yet. When the store
  /// carries an attached ResultCache, answers are served from / inserted
  /// into it (bit-identical either way — DESIGN.md §4.2).
  [[nodiscard]] std::vector<real_t> answer(const std::vector<PortQuery>& batch,
                                           ThreadPool* pool = nullptr,
                                           RouteMode mode = RouteMode::kExact,
                                           BatchStats* stats = nullptr) const;

  /// Full-context overload: like the convenience form above but with every
  /// AnswerContext field available. ctx.registry/ctx.cache default (when
  /// null) to the front-end's registry and the store's attached cache.
  [[nodiscard]] std::vector<real_t> answer(const std::vector<PortQuery>& batch,
                                           const AnswerContext& ctx) const;

  /// Answer a batch against an explicitly pinned snapshot (tests, replay).
  /// ctx.registry null means the global registry; ctx.cache may be null.
  [[nodiscard]] static std::vector<real_t> answer_on(
      const ModelSnapshot& snapshot, const std::vector<PortQuery>& batch,
      const AnswerContext& ctx = {});

 private:
  const ModelStore* store_;
  obs::MetricsRegistry* registry_;  ///< resolved, never null
};

}  // namespace er
