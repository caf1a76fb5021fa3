#include "serve/query_frontend.hpp"

#include <algorithm>
#include <atomic>
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

/// One query's resolved evaluation plan (serial pre-pass output).
struct QueryPlan {
  bool engine = false;  ///< evaluate the block-engine leg
  bool exact = false;   ///< evaluate the exact leg
  bool hedged = false;  ///< both legs run; selection picks the winner
};

/// Resolve one query's policy against the batch route. A pure function of
/// (policy, batch mode, engine eligibility, whether the snapshot's engines
/// are cheap) — no clocks, no shared state — which is what keeps policied
/// batches bit-identical at any thread count (DESIGN.md §4.3).
QueryPlan resolve_policy(const QueryPolicy& pol, RouteMode batch_mode,
                         bool engine_eligible, bool engines_cheap) {
  RouteMode route = batch_mode;
  switch (pol.backend_pref) {
    case BackendPref::kAuto:
      // kExact keeps the batch route — the pre-policy semantics, including
      // kLocalApprox batches. Reduced tiers may divert to a resident block
      // engine unless it is a dense-factor exact engine (no shortcut).
      if (pol.accuracy_tier != AccuracyTier::kExact && engine_eligible &&
          engines_cheap)
        route = RouteMode::kLocalApprox;
      break;
    case BackendPref::kExact:
      route = RouteMode::kExact;
      break;
    case BackendPref::kLocalApprox:
      route = RouteMode::kLocalApprox;
      break;
  }
  QueryPlan plan;
  plan.engine = route == RouteMode::kLocalApprox && engine_eligible;
  plan.hedged = pol.hedge && engine_eligible;
  if (plan.hedged) {
    plan.engine = true;
    plan.exact = true;
  } else {
    plan.exact = !plan.engine;
  }
  return plan;
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
  const RouteMode mode = ctx.mode;
  ThreadPool* pool = ctx.pool;
  ResultCache* cache = ctx.cache;
  const auto n = static_cast<index_t>(batch.size());
  std::vector<real_t> out(batch.size(), 0.0);
  std::atomic<std::size_t> invalid{0}, same_block{0}, cross_block{0},
      engine_answered{0}, cache_hits{0}, cache_misses{0};

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

  // A batch where every query carries the default policy takes the exact
  // pre-policy paths (no per-query plans, no selection pass).
  bool policied = false;
  for (const PortQuery& query : batch)
    if (!is_default(query.policy)) {
      policied = true;
      break;
    }
  if (ctx.statuses) ctx.statuses->assign(batch.size(), QueryStatus::kOk);

  // Per-query control state, filled by the serial pre-pass. Empty vectors
  // mean "everything default": pending empty = every query takes the
  // exact path, hedged_flags empty = no hedges. Every per-query write below
  // lands in its own slot, so the fan-outs stay bit-deterministic at any
  // thread count.
  std::vector<char> pending;       // 1 = query needs the exact leg
  std::vector<char> hedged_flags;  // 1 = both legs run, selection picks
  std::vector<real_t> hedge_engine, hedge_exact;  // per-leg answer slots
  std::size_t misses = 0;
  bool any_hedge = false;

  // Engine phase: serial pre-pass resolves each query's plan (deadline,
  // route, hedge), probes the block-scope cache, and buckets engine-leg
  // queries by owning block; the buckets then fan out across the pool —
  // every bucket writes disjoint slots. Runs for kLocalApprox batches (the
  // pre-policy fast path) and for any batch carrying explicit policies.
  if (mode == RouteMode::kLocalApprox || policied) {
    pending.assign(batch.size(), 0);
    if (policied) hedged_flags.assign(batch.size(), 0);
    const bool engines_cheap =
        snap.options().engine_backend != ErBackend::kExact;
    std::vector<std::vector<index_t>> bucket(
        static_cast<std::size_t>(snap.num_blocks()));
    for (index_t i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const PortQuery& query = batch[ui];
      const QueryPolicy& pol = query.policy;
      if (pol.deadline_us > 0 &&
          static_cast<std::uint64_t>(pol.deadline_us) <= ctx.queue_wait_us) {
        // Expired before evaluation: answer NaN without computing or
        // probing the cache. Purely a function of (policy, queue_wait_us),
        // so the miss set is identical on every replay of the batch.
        Timer query_timer;
        out[ui] = kNaN;
        ++misses;
        if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kDeadlineMiss;
        metrics.query_latency.record(query_timer.seconds());
        continue;
      }
      const index_t p = snap.reduced_id(query.p);
      const index_t q = snap.reduced_id(query.q);
      const bool eligible = p >= 0 && q >= 0 &&
                            query.kind == QueryKind::kResistance &&
                            snap.block_of_reduced(p) ==
                                snap.block_of_reduced(q) &&
                            snap.block_engine(snap.block_of_reduced(p));
      QueryPlan plan;
      if (policied) {
        plan = resolve_policy(pol, mode, eligible, engines_cheap);
        pending[ui] = plan.exact ? 1 : 0;
        hedged_flags[ui] = plan.hedged ? 1 : 0;
        if (plan.hedged && !any_hedge) {
          any_hedge = true;
          hedge_engine.assign(batch.size(), kNaN);
          hedge_exact.assign(batch.size(), kNaN);
        }
      } else {
        plan.engine = eligible;
        plan.exact = !eligible;
        pending[ui] = plan.exact ? 1 : 0;
      }
      if (!plan.engine) continue;
      const auto b = static_cast<std::size_t>(snap.block_of_reduced(p));
      if (scopes && b < scopes->block_scopes.size()) {
        Timer query_timer;
        real_t cached = 0.0;
        if (cache->lookup(scopes->block_scopes[b],
                          ResultCache::Path::kEngine, query.kind,
                          pol.accuracy_tier, query.p, query.q, &cached)) {
          (plan.hedged ? hedge_engine : out)[ui] = cached;
          metrics.query_latency.record(query_timer.seconds());
          if (policied)
            policy.latency[tier_index(pol)]->record(query_timer.seconds());
          ++cache_hits;
          ++same_block;
          continue;
        }
        ++cache_misses;
      }
      bucket[b].push_back(i);
    }
    parallel_for(pool, 0, snap.num_blocks(), 1, [&](index_t lo, index_t hi) {
      for (index_t b = lo; b < hi; ++b) {
        const auto& ids = bucket[static_cast<std::size_t>(b)];
        if (ids.empty()) continue;
        std::vector<ResistanceQuery> local;
        local.reserve(ids.size());
        for (index_t i : ids) {
          const PortQuery& query = batch[static_cast<std::size_t>(i)];
          local.emplace_back(
              snap.block_local_id(snap.reduced_id(query.p)),
              snap.block_local_id(snap.reduced_id(query.q)));
        }
        std::vector<real_t> answers(local.size(), 0.0);
        Timer bucket_timer;
        snap.block_engine(b)->resistances_into(local, answers);
        // The engine answers the bucket as one batched solve; attribute
        // the mean per-query share to each query's latency sample. Cache
        // hits shrinking the bucket cannot change the remaining answers:
        // every engine answers each (p, q) independently of its batch
        // neighbours (see effres/engine.hpp's per-slot contract; the
        // index-seeded RandomWalk engine is never a block engine).
        const double per_query =
            bucket_timer.seconds() / static_cast<double>(local.size());
        for (std::size_t j = 0; j < ids.size(); ++j) {
          const auto qi = static_cast<std::size_t>(ids[j]);
          const PortQuery& query = batch[qi];
          const bool hedge_leg =
              !hedged_flags.empty() && hedged_flags[qi] != 0;
          (hedge_leg ? hedge_engine : out)[qi] = answers[j];
          metrics.query_latency.record(per_query);
          if (policied)
            policy.latency[tier_index(query.policy)]->record(per_query);
          if (scopes &&
              b < static_cast<index_t>(scopes->block_scopes.size())) {
            cache->insert(
                scopes->block_scopes[static_cast<std::size_t>(b)],
                ResultCache::Path::kEngine, query.kind,
                query.policy.accuracy_tier, query.p, query.q, answers[j]);
          }
        }
        same_block += ids.size();
        engine_answered += ids.size();
      }
    });
  }

  // Exact path, chunked across the pool with one workspace per chunk.
  // Fallback queries of a kLocalApprox batch cache under Path::kExact —
  // the same compute function a kExact batch runs, so the two modes
  // legitimately share entries within a version. Hedged queries land in
  // their hedge_exact slot and skip the per-query latency sample (their
  // engine leg already recorded the query's one sample).
  parallel_for(pool, 0, n, kBatchQueryGrain, [&](index_t lo, index_t hi) {
    ModelSnapshot::Workspace ws;
    std::size_t inv = 0, same = 0, cross = 0, hits = 0, missed = 0;
    for (index_t i = lo; i < hi; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (!pending.empty() && !pending[ui]) continue;
      const PortQuery& query = batch[ui];
      const bool hedge_leg = !hedged_flags.empty() && hedged_flags[ui] != 0;
      Timer query_timer;
      const index_t p = snap.reduced_id(query.p);
      const index_t q = snap.reduced_id(query.q);
      if (p < 0 || q < 0) {
        // Invalid endpoints answer NaN and are never probed or cached —
        // they carry no compute worth saving. (Hedged queries are always
        // engine-eligible, hence never invalid.)
        ++inv;
        out[ui] = kNaN;
        if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kInvalid;
        metrics.query_latency.record(query_timer.seconds());
        continue;
      }
      if (!hedge_leg) {
        if (snap.block_of_reduced(p) == snap.block_of_reduced(q))
          ++same;
        else
          ++cross;
      }
      real_t value = 0.0;
      if (scopes && cache->lookup(scopes->exact_scope,
                                  ResultCache::Path::kExact, query.kind,
                                  query.policy.accuracy_tier, query.p,
                                  query.q, &value)) {
        ++hits;
      } else {
        value = answer_exact(snap, query.kind, p, q, ws);
        if (scopes) {
          ++missed;
          cache->insert(scopes->exact_scope, ResultCache::Path::kExact,
                        query.kind, query.policy.accuracy_tier, query.p,
                        query.q, value);
        }
      }
      (hedge_leg ? hedge_exact : out)[ui] = value;
      if (!hedge_leg) {
        metrics.query_latency.record(query_timer.seconds());
        if (policied)
          policy.latency[tier_index(query.policy)]->record(
              query_timer.seconds());
      }
    }
    invalid += inv;
    same_block += same;
    cross_block += cross;
    cache_hits += hits;
    cache_misses += missed;
  });

  // Selection + per-tier tallies (serial): for each hedged query pick the
  // winning leg with the pure rule in serve/query_policy.hpp — a function
  // of (tier, the legs' values) only, never of completion order — so the
  // selected answers are bitwise identical to a serial twin evaluating
  // both backends.
  std::size_t hedged_count = 0, hedge_engine_wins = 0;
  std::size_t served[3] = {0, 0, 0};
  if (policied) {
    for (index_t i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (ctx.statuses && (*ctx.statuses)[ui] != QueryStatus::kOk) continue;
      const PortQuery& query = batch[ui];
      if (!hedged_flags.empty() && hedged_flags[ui] != 0) {
        const bool engine_wins = hedge_prefers_engine(
            query.policy.accuracy_tier, hedge_engine[ui]);
        out[ui] = engine_wins ? hedge_engine[ui] : hedge_exact[ui];
        ++hedged_count;
        if (engine_wins) ++hedge_engine_wins;
      }
      if (out[ui] == out[ui])  // served = answered with a value (non-NaN)
        ++served[tier_index(query.policy)];
    }
  } else {
    served[0] = batch.size() - invalid.load() - misses;
  }

  const double batch_seconds = timer.seconds();
  metrics.batches.add(1);
  metrics.queries.add(batch.size());
  metrics.invalid.add(invalid.load());
  metrics.same_block.add(same_block.load());
  metrics.cross_block.add(cross_block.load());
  metrics.engine_answered.add(engine_answered.load());
  metrics.batch_seconds.record(batch_seconds);
  for (int t = 0; t < 3; ++t) policy.served[t]->add(served[t]);
  policy.deadline_miss.add(misses);
  policy.hedges_engine.add(hedge_engine_wins);
  policy.hedges_exact.add(hedged_count - hedge_engine_wins);
  if (ctx.stats) {
    BatchStats* stats = ctx.stats;
    stats->queries = batch.size();
    stats->invalid = invalid.load();
    stats->same_block = same_block.load();
    stats->cross_block = cross_block.load();
    stats->engine_answered = engine_answered.load();
    stats->cache_hits = cache_hits.load();
    stats->cache_misses = cache_misses.load();
    stats->deadline_miss = misses;
    stats->hedged = hedged_count;
    stats->hedge_won_engine = hedge_engine_wins;
    stats->snapshot_version = snap.version();
    stats->seconds = batch_seconds;
  }
  return out;
}

}  // namespace er
