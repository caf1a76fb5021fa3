#include "serve/query_frontend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/result_cache.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

constexpr real_t kNaN = std::numeric_limits<real_t>::quiet_NaN();

/// Per-route-mode registry handles, resolved once per batch (registration
/// is get-or-create, so repeated batches hit the same series). Recording
/// through them is lock-free.
struct ServeMetrics {
  obs::Counter& batches;
  obs::Counter& queries;
  obs::Counter& invalid;
  obs::Counter& same_block;
  obs::Counter& cross_block;
  obs::Counter& engine_answered;
  obs::Histogram& query_latency;
  obs::Histogram& batch_seconds;
};

ServeMetrics serve_metrics(obs::MetricsRegistry& reg, RouteMode mode) {
  const obs::Labels labels{{"mode", to_string(mode)}};
  return ServeMetrics{
      reg.counter("er_serve_batches_total", labels,
                  "Query batches answered"),
      reg.counter("er_serve_queries_total", labels, "Queries answered"),
      reg.counter("er_serve_invalid_queries_total", labels,
                  "Queries with unmapped/eliminated endpoints (answer NaN)"),
      reg.counter("er_serve_same_block_queries_total", labels,
                  "Queries with both endpoints in one block"),
      reg.counter("er_serve_cross_block_queries_total", labels,
                  "Queries spanning two blocks"),
      reg.counter("er_serve_engine_answered_total", labels,
                  "Queries served by a resident block-local engine"),
      reg.histogram("er_query_latency_seconds", labels,
                    "Per-query wall-clock latency (compute only; queue "
                    "wait is er_pool_task_queue_wait_seconds)"),
      reg.histogram("er_query_batch_seconds", labels,
                    "Whole-batch wall-clock latency"),
  };
}

/// er_policy_* registry handles (DESIGN.md §4.3). Resolved once per batch
/// like ServeMetrics, so the families register — and therefore export —
/// even for batches where every query carries the default policy.
struct PolicyMetrics {
  obs::Counter* served[3];     ///< queries answered, by accuracy tier
  obs::Histogram* latency[3];  ///< per-query compute latency, by tier
  obs::Counter& hedges_engine;
  obs::Counter& hedges_exact;
  obs::Counter& deadline_miss;
};

PolicyMetrics policy_metrics(obs::MetricsRegistry& reg) {
  PolicyMetrics m{
      {nullptr, nullptr, nullptr},
      {nullptr, nullptr, nullptr},
      reg.counter("er_policy_hedges_total",
                  {{"winner", to_string(BackendPref::kLocalApprox)}},
                  "Hedged queries won, by backend"),
      reg.counter("er_policy_hedges_total",
                  {{"winner", to_string(BackendPref::kExact)}},
                  "Hedged queries won, by backend"),
      reg.counter("er_policy_deadline_miss_total", {},
                  "Queries whose deadline expired before evaluation"),
  };
  for (int t = 0; t < 3; ++t) {
    const auto tier = static_cast<AccuracyTier>(t);
    const obs::Labels labels{{"tier", to_string(tier)}};
    m.served[t] = &reg.counter("er_policy_served_total", labels,
                               "Queries answered, by accuracy tier");
    m.latency[t] = &reg.histogram("er_policy_latency_seconds", labels,
                                  "Per-query compute latency, by tier");
  }
  return m;
}

int tier_index(const QueryPolicy& pol) {
  return std::min(static_cast<int>(pol.accuracy_tier), 2);
}

/// Evaluate one query on the exact path, given its already-validated
/// reduced endpoints. A pure per-query function of (snapshot, kind, p, q)
/// — the property that makes the answer cacheable.
real_t answer_exact(const ModelSnapshot& snap, QueryKind kind, index_t p,
                    index_t q, ModelSnapshot::Workspace& ws) {
  return kind == QueryKind::kResponse ? snap.response(p, q, ws)
                                      : snap.resistance(p, q, ws);
}

}  // namespace

const char* to_string(RouteMode m) {
  switch (m) {
    case RouteMode::kExact:
      return "sharded";  // label value kept: dashboards read mode="sharded"
    case RouteMode::kLocalApprox:
      return "local-approx";
  }
  return "?";
}

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kResponse:
      return "response";
    case QueryKind::kResistance:
      return "resistance";
  }
  return "?";
}

const char* to_string(AccuracyTier tier) {
  switch (tier) {
    case AccuracyTier::kExact:
      return "exact";
    case AccuracyTier::kApprox:
      return "approx";
    case AccuracyTier::kFast:
      return "fast";
  }
  return "?";
}

const char* to_string(BackendPref pref) {
  switch (pref) {
    case BackendPref::kAuto:
      return "auto";
    case BackendPref::kExact:
      return "sharded";  // label value kept: dashboards read winner="sharded"
    case BackendPref::kLocalApprox:
      return "local-approx";
  }
  return "?";
}

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kInvalid:
      return "invalid";
    case QueryStatus::kDeadlineMiss:
      return "deadline-miss";
  }
  return "?";
}

QueryFrontEnd::QueryFrontEnd(const ModelStore* store,
                             obs::MetricsRegistry* registry)
    : store_(store), registry_(&obs::registry_or_global(registry)) {
  if (!store_)
    throw std::invalid_argument("QueryFrontEnd: null ModelStore");
}

std::vector<real_t> QueryFrontEnd::answer(const std::vector<PortQuery>& batch,
                                          ThreadPool* pool, RouteMode mode,
                                          BatchStats* stats) const {
  AnswerContext ctx;
  ctx.pool = pool;
  ctx.mode = mode;
  ctx.stats = stats;
  return answer(batch, ctx);
}

std::vector<real_t> QueryFrontEnd::answer(const std::vector<PortQuery>& batch,
                                          const AnswerContext& ctx) const {
  // Pin the snapshot once: the whole batch is answered against one model
  // version, however many publishes race with it. The cache handle is
  // pinned the same way (shared ownership for the batch's duration).
  const SnapshotPtr snap = store_->acquire();
  if (!snap)
    throw std::runtime_error("QueryFrontEnd::answer: nothing published yet");
  const ResultCachePtr cache = store_->cache();
  AnswerContext resolved = ctx;
  if (!resolved.registry) resolved.registry = registry_;
  if (!resolved.cache) resolved.cache = cache.get();
  return answer_on(*snap, batch, resolved);
}

std::vector<real_t> QueryFrontEnd::answer_on(const ModelSnapshot& snap,
                                             const std::vector<PortQuery>& batch,
                                             const AnswerContext& ctx) {
  Timer timer;
  obs::MetricsRegistry& reg = obs::registry_or_global(ctx.registry);
  ServeMetrics metrics = serve_metrics(reg, ctx.mode);
  PolicyMetrics policy = policy_metrics(reg);
  ThreadPool* pool = ctx.pool;
  ResultCache* cache = ctx.cache;
  const auto n = static_cast<index_t>(batch.size());
  // Slots nobody answers (deadline misses, invalid endpoints) stay NaN.
  std::vector<real_t> out(batch.size(), kNaN);
  std::atomic<std::size_t> engine_answered{0}, hedge_engine_wins{0},
      cache_hits{0}, cache_misses{0};

  // Resolve the snapshot version's cache scopes once per batch (the view
  // is immutable). An unresolvable version — cache detached, or the
  // version aged past the cache's version_cap — degrades to
  // the plain compute path; answers are bitwise identical either way
  // because every cached value is a pure per-query function of the
  // snapshot state its scope pins (DESIGN.md §4.2). Entries are keyed by
  // the requesting query's accuracy tier on top of (path, kind, p, q), so
  // a reduced-tier answer can never serve an exact-tier probe (§4.3).
  ResultCache::ScopeViewPtr scopes;
  if (cache) scopes = cache->scopes_for(snap.version());
  if (ctx.statuses) ctx.statuses->assign(batch.size(), QueryStatus::kOk);

  // Serial pre-pass: deadline, endpoint validity, and the query's one leg
  // (plan_query); engine-leg queries probe the block-scope cache and the
  // misses are bucketed by owning block. Everything here is a pure
  // function of (snapshot, batch, context), and every later per-query
  // write lands in its own slot, so the fan-outs below stay
  // bit-deterministic at any thread count.
  const bool engines_cheap =
      snap.options().engine_backend != ErBackend::kExact;
  std::vector<char> exact_leg(batch.size(), 0);  // 1 = exact path answers
  std::vector<std::vector<index_t>> bucket(
      static_cast<std::size_t>(snap.num_blocks()));
  std::size_t invalid = 0, same_block = 0, cross_block = 0, misses = 0,
              hedged = 0, bucketed = 0;
  std::size_t served[3] = {0, 0, 0};
  for (index_t i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const PortQuery& query = batch[ui];
    const QueryPolicy& pol = query.policy;
    if (pol.deadline_us > 0 &&
        static_cast<std::uint64_t>(pol.deadline_us) <= ctx.queue_wait_us) {
      // Expired before evaluation: answer NaN without computing or probing
      // the cache. Purely a function of (policy, queue_wait_us), so the
      // miss set is identical on every replay of the batch.
      ++misses;
      if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kDeadlineMiss;
      metrics.query_latency.record(0.0);
      continue;
    }
    const index_t p = snap.reduced_id(query.p);
    const index_t q = snap.reduced_id(query.q);
    if (p < 0 || q < 0) {
      // Invalid endpoints answer NaN and are never probed or cached — they
      // carry no compute worth saving.
      ++invalid;
      if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kInvalid;
      metrics.query_latency.record(0.0);
      continue;
    }
    ++served[tier_index(pol)];
    const index_t b = snap.block_of_reduced(p);
    const bool same = b == snap.block_of_reduced(q);
    ++(same ? same_block : cross_block);
    const bool eligible = same && query.kind == QueryKind::kResistance &&
                          snap.block_engine(b);
    if (pol.hedge && eligible) ++hedged;
    if (plan_query(pol, ctx.mode, eligible, engines_cheap) ==
        QueryLeg::kExact) {
      exact_leg[ui] = 1;
      continue;
    }
    const auto ub = static_cast<std::size_t>(b);
    if (scopes && ub < scopes->block_scopes.size()) {
      Timer query_timer;
      real_t cached = 0.0;
      if (cache->lookup(scopes->block_scopes[ub], ResultCache::Path::kEngine,
                        query.kind, pol.accuracy_tier, query.p, query.q,
                        &cached)) {
        out[ui] = cached;
        metrics.query_latency.record(query_timer.seconds());
        policy.latency[tier_index(pol)]->record(query_timer.seconds());
        ++cache_hits;
        if (pol.hedge) ++hedge_engine_wins;
        continue;
      }
      ++cache_misses;
    }
    bucket[ub].push_back(i);
    ++bucketed;
  }

  // Engine fan-out: each block's bucket is one batched engine call writing
  // disjoint slots. An engine answer of NaN is not taken (nor cached): the
  // query moves to the exact leg below. The range is empty when nothing
  // was bucketed, so all-exact batches dispatch no engine tasks.
  const index_t engine_blocks = bucketed > 0 ? snap.num_blocks() : 0;
  parallel_for(pool, 0, engine_blocks, 1, [&](index_t lo, index_t hi) {
    for (index_t b = lo; b < hi; ++b) {
      const auto& ids = bucket[static_cast<std::size_t>(b)];
      if (ids.empty()) continue;
      std::vector<ResistanceQuery> local;
      local.reserve(ids.size());
      for (index_t i : ids) {
        const PortQuery& query = batch[static_cast<std::size_t>(i)];
        local.emplace_back(snap.block_local_id(snap.reduced_id(query.p)),
                           snap.block_local_id(snap.reduced_id(query.q)));
      }
      std::vector<real_t> answers(local.size(), 0.0);
      Timer bucket_timer;
      snap.block_engine(b)->resistances_into(local, answers);
      // The engine answers the bucket as one batched solve; attribute the
      // mean per-query share to each query's latency sample. Cache hits
      // shrinking the bucket cannot change the remaining answers: every
      // engine answers each (p, q) independently of its batch neighbours
      // (see effres/engine.hpp's per-slot contract; the index-seeded
      // RandomWalk engine is never a block engine).
      const double per_query =
          bucket_timer.seconds() / static_cast<double>(local.size());
      std::size_t taken = 0, wins = 0;
      for (std::size_t j = 0; j < ids.size(); ++j) {
        const auto qi = static_cast<std::size_t>(ids[j]);
        if (std::isnan(answers[j])) {
          exact_leg[qi] = 1;
          continue;
        }
        const PortQuery& query = batch[qi];
        out[qi] = answers[j];
        ++taken;
        if (query.policy.hedge) ++wins;
        metrics.query_latency.record(per_query);
        policy.latency[tier_index(query.policy)]->record(per_query);
        if (scopes && b < static_cast<index_t>(scopes->block_scopes.size()))
          cache->insert(scopes->block_scopes[static_cast<std::size_t>(b)],
                        ResultCache::Path::kEngine, query.kind,
                        query.policy.accuracy_tier, query.p, query.q,
                        answers[j]);
      }
      engine_answered += taken;
      hedge_engine_wins += wins;
    }
  });

  // Exact fan-out, chunked across the pool with one workspace per chunk.
  // Engine-ineligible queries of a kLocalApprox batch cache under
  // Path::kExact — the same compute function a kExact batch runs, so the
  // two routes legitimately share entries within a version.
  parallel_for(pool, 0, n, kBatchQueryGrain, [&](index_t lo, index_t hi) {
    ModelSnapshot::Workspace ws;
    std::size_t hits = 0, missed = 0;
    for (index_t i = lo; i < hi; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (!exact_leg[ui]) continue;
      const PortQuery& query = batch[ui];
      Timer query_timer;
      real_t value = 0.0;
      if (scopes && cache->lookup(scopes->exact_scope,
                                  ResultCache::Path::kExact, query.kind,
                                  query.policy.accuracy_tier, query.p,
                                  query.q, &value)) {
        ++hits;
      } else {
        value = answer_exact(snap, query.kind, snap.reduced_id(query.p),
                             snap.reduced_id(query.q), ws);
        if (scopes) {
          ++missed;
          cache->insert(scopes->exact_scope, ResultCache::Path::kExact,
                        query.kind, query.policy.accuracy_tier, query.p,
                        query.q, value);
        }
      }
      out[ui] = value;
      metrics.query_latency.record(query_timer.seconds());
      policy.latency[tier_index(query.policy)]->record(query_timer.seconds());
    }
    cache_hits += hits;
    cache_misses += missed;
  });

  const double batch_seconds = timer.seconds();
  metrics.batches.add(1);
  metrics.queries.add(batch.size());
  metrics.invalid.add(invalid);
  metrics.same_block.add(same_block);
  metrics.cross_block.add(cross_block);
  metrics.engine_answered.add(engine_answered.load());
  metrics.batch_seconds.record(batch_seconds);
  for (int t = 0; t < 3; ++t) policy.served[t]->add(served[t]);
  policy.deadline_miss.add(misses);
  policy.hedges_engine.add(hedge_engine_wins.load());
  policy.hedges_exact.add(hedged - hedge_engine_wins.load());
  if (ctx.stats) {
    BatchStats* stats = ctx.stats;
    stats->queries = batch.size();
    stats->invalid = invalid;
    stats->same_block = same_block;
    stats->cross_block = cross_block;
    stats->engine_answered = engine_answered.load();
    stats->cache_hits = cache_hits.load();
    stats->cache_misses = cache_misses.load();
    stats->deadline_miss = misses;
    stats->hedged = hedged;
    stats->hedge_won_engine = hedge_engine_wins.load();
    stats->snapshot_version = snap.version();
    stats->seconds = batch_seconds;
  }
  return out;
}

}  // namespace er
