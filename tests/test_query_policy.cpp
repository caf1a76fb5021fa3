// Per-query QueryPolicy tests (DESIGN.md §4.3). The pinned contracts:
//
//   (a) hedged queries answer bitwise-identically to a serial two-backend
//       twin (each leg evaluated un-hedged, winner picked with the pure
//       selection rule in serve/query_policy.hpp) at 1/2/4/8 threads
//       (runs under TSan in CI),
//   (b) the result cache keys on the accuracy tier: a fast-tier cached
//       answer never serves an exact-tier probe,
//   (c) deadline-expired queries answer NaN with QueryStatus::kDeadlineMiss
//       without blocking the rest of the batch — expiry is a pure function
//       of (policy.deadline_us, AnswerContext::queue_wait_us), never of a
//       clock read,
//   (d) old-version (v1) wire frames decode with every policy defaulted
//       and answer exactly as before policies existed,
//   (e) backend preferences resolve as documented: kExact pins the exact
//       path, kAuto diverts reduced tiers to cheap resident engines (never
//       to dense-factor exact engines), and the admission queue dispatches
//       deadline-urgent items first.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "net/admission.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pg/incremental.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/query_policy.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"

namespace er {
namespace {

/// Mixed batch with hedged fast-tier policies on every resistance query
/// (the response queries keep the default policy, so the batch mixes
/// policied and default slots like real traffic would).
std::vector<PortQuery> hedged_batch(const std::vector<index_t>& kept,
                                    std::size_t count, std::uint64_t seed) {
  std::vector<PortQuery> batch = mixed_batch(kept, count, seed);
  for (PortQuery& query : batch)
    if (query.kind == QueryKind::kResistance) {
      query.policy.accuracy_tier = AccuracyTier::kFast;
      query.policy.hedge = true;
    }
  return batch;
}

// ---------------------------------------------------------------------------
// (a) hedged == serial two-backend twin, bitwise, at any thread count.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, HedgedMatchesSerialTwoBackendTwinAcrossThreadCounts) {
  const ServeCase c = make_case(24, 24, 64, 401);
  ReductionOptions opts;
  opts.num_blocks = 8;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto kept = kept_originals(*art.model);
  const auto batch = hedged_batch(kept, 400, 11);

  // Serial twin: evaluate each leg through its own un-hedged batch, then
  // select with the pure rule. Ineligible hedged queries collapse to the
  // same exact answer on both legs, so the expectation covers every slot.
  std::vector<PortQuery> engine_leg = batch, exact_leg = batch;
  for (PortQuery& query : engine_leg) {
    query.policy.hedge = false;
    query.policy.backend_pref = BackendPref::kLocalApprox;
  }
  for (PortQuery& query : exact_leg) {
    query.policy.hedge = false;
    query.policy.backend_pref = BackendPref::kExact;
  }
  obs::MetricsRegistry twin_reg;
  const auto engine_answers =
      QueryFrontEnd::answer_on(*snap, engine_leg,
                               {nullptr, RouteMode::kExact, nullptr,
                                &twin_reg});
  const auto exact_answers =
      QueryFrontEnd::answer_on(*snap, exact_leg,
                               {nullptr, RouteMode::kExact, nullptr,
                                &twin_reg});

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::MetricsRegistry reg;
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads, &reg);
    BatchStats stats;
    const auto answers = QueryFrontEnd::answer_on(
        *snap, batch,
        {pool ? &*pool : nullptr, RouteMode::kExact, &stats, &reg});
    ASSERT_EQ(answers.size(), batch.size());
    EXPECT_GT(stats.hedged, 0u);  // hedging actually engaged
    // Fast-tier hedges always select the engine leg when it ran (the
    // selection rule prefers any reduced-tier engine value).
    EXPECT_EQ(stats.hedge_won_engine, stats.hedged);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].policy.hedge) continue;
      const real_t want =
          hedge_prefers_engine(batch[i].policy.accuracy_tier,
                               engine_answers[i])
              ? engine_answers[i]
              : exact_answers[i];
      const bool both_nan = std::isnan(answers[i]) && std::isnan(want);
      ASSERT_TRUE(answers[i] == want || both_nan) << "query " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// (b) cache entries are keyed by accuracy tier.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, FastTierCacheEntriesNeverServeExactTierProbes) {
  const ServeCase c = make_case(20, 20, 48, 409);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const auto cache =
      std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  // Distinct consecutive kept-node pairs: every key is inserted at most
  // once per tier, so hit/miss counts are exact (no intra-batch repeats).
  const auto kept = kept_originals(reducer.model());
  std::vector<PortQuery> fast;
  for (std::size_t i = 0; i + 1 < kept.size() && fast.size() < 120; i += 2) {
    PortQuery query;
    query.kind =
        i % 4 == 0 ? QueryKind::kResistance : QueryKind::kResponse;
    query.p = kept[i];
    query.q = kept[i + 1];
    query.policy.accuracy_tier = AccuracyTier::kFast;
    fast.push_back(query);
  }
  ASSERT_GT(fast.size(), 10u);
  std::vector<PortQuery> exact = fast;
  for (PortQuery& query : exact)
    query.policy.accuracy_tier = AccuracyTier::kExact;

  // Warm the fast tier, then confirm it hits itself.
  BatchStats warm, fast_again;
  (void)frontend.answer(fast, {nullptr, RouteMode::kExact, &warm});
  EXPECT_EQ(warm.cache_hits, 0u);
  EXPECT_GT(warm.cache_misses, 0u);
  (void)frontend.answer(fast, {nullptr, RouteMode::kExact, &fast_again});
  EXPECT_EQ(fast_again.cache_misses, 0u);
  EXPECT_EQ(fast_again.cache_hits, warm.cache_misses);

  // The exact-tier probe of the same (kind, p, q) keys must miss through:
  // a reduced-tier answer can never serve an exact-tier query.
  BatchStats exact_probe;
  const auto exact_answers =
      frontend.answer(exact, {nullptr, RouteMode::kExact, &exact_probe});
  EXPECT_EQ(exact_probe.cache_hits, 0u);
  EXPECT_GT(exact_probe.cache_misses, 0u);

  // And the tier-keyed entries coexist: both tiers now hit fully.
  BatchStats exact_again;
  const auto exact_cached =
      frontend.answer(exact, {nullptr, RouteMode::kExact, &exact_again});
  EXPECT_EQ(exact_again.cache_misses, 0u);
  for (std::size_t i = 0; i < exact_answers.size(); ++i) {
    const bool both_nan =
        std::isnan(exact_answers[i]) && std::isnan(exact_cached[i]);
    ASSERT_TRUE(exact_answers[i] == exact_cached[i] || both_nan)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// (c) deadline expiry: pure, per-query, non-blocking.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, ExpiredDeadlinesMissWithoutBlockingTheBatch) {
  const ServeCase c = make_case(18, 18, 40, 419);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto kept = kept_originals(*art.model);

  const auto plain = mixed_batch(kept, 60, 17);
  std::vector<PortQuery> batch = plain;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i % 3 == 0) batch[i].policy.deadline_us = 10;        // expires
    if (i % 3 == 1) batch[i].policy.deadline_us = 1'000'000; // never does
  }

  obs::MetricsRegistry reg;
  const auto reference = QueryFrontEnd::answer_on(
      *snap, plain, {nullptr, RouteMode::kExact, nullptr, &reg});

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads, &reg);
    BatchStats stats;
    std::vector<QueryStatus> statuses;
    AnswerContext ctx;
    ctx.pool = pool ? &*pool : nullptr;
    ctx.mode = RouteMode::kExact;
    ctx.stats = &stats;
    ctx.registry = &reg;
    ctx.queue_wait_us = 50;  // injected, not measured: 10 <= 50 expires
    ctx.statuses = &statuses;
    const auto answers = QueryFrontEnd::answer_on(*snap, batch, ctx);
    ASSERT_EQ(statuses.size(), batch.size());
    std::size_t misses = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i % 3 == 0) {
        EXPECT_EQ(statuses[i], QueryStatus::kDeadlineMiss) << "query " << i;
        EXPECT_TRUE(std::isnan(answers[i])) << "query " << i;
        ++misses;
      } else {
        // The rest of the batch answers exactly as the deadline-free twin.
        const bool both_nan =
            std::isnan(answers[i]) && std::isnan(reference[i]);
        ASSERT_TRUE(answers[i] == reference[i] || both_nan)
            << "query " << i;
        EXPECT_NE(statuses[i], QueryStatus::kDeadlineMiss) << "query " << i;
      }
    }
    EXPECT_EQ(stats.deadline_miss, misses);
  }

  // With no queue wait, nothing expires (deadline 10us > wait 0).
  BatchStats relaxed;
  AnswerContext relaxed_ctx;
  relaxed_ctx.mode = RouteMode::kExact;
  relaxed_ctx.stats = &relaxed;
  relaxed_ctx.registry = &reg;
  (void)QueryFrontEnd::answer_on(*snap, batch, relaxed_ctx);
  EXPECT_EQ(relaxed.deadline_miss, 0u);
}

// ---------------------------------------------------------------------------
// (d) v1 wire frames decode with default policies and answer as before.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, OldVersionWireFramesAnswerWithDefaultPolicy) {
  net::QueryBatchRequest req;
  req.route = RouteMode::kExact;
  req.queries = {{QueryKind::kResistance, 3, 9, {}},
                 {QueryKind::kResponse, 1, 4, {}}};
  // The sender sets non-default policies; a v1 encoding must drop them.
  for (PortQuery& query : req.queries) {
    query.policy.deadline_us = 77;
    query.policy.accuracy_tier = AccuracyTier::kFast;
    query.policy.hedge = true;
  }

  const auto v1_payload =
      net::encode_query_batch(req, net::kMinProtocolVersion);
  const auto v1_frame =
      net::encode_frame(net::Opcode::kErBatch, 42, v1_payload,
                        net::kMinProtocolVersion);
  net::FrameBuffer fb;
  fb.append(v1_frame.data(), v1_frame.size());
  net::Frame frame;
  ASSERT_EQ(fb.next(&frame), net::DecodeStatus::kOk);
  EXPECT_EQ(frame.version, net::kMinProtocolVersion);

  net::QueryBatchRequest decoded;
  ASSERT_TRUE(net::decode_query_batch(frame.payload, &decoded,
                                      frame.version));
  ASSERT_EQ(decoded.queries.size(), req.queries.size());
  for (std::size_t i = 0; i < decoded.queries.size(); ++i) {
    EXPECT_EQ(decoded.queries[i].p, req.queries[i].p);
    EXPECT_EQ(decoded.queries[i].q, req.queries[i].q);
    EXPECT_TRUE(is_default(decoded.queries[i].policy)) << "query " << i;
  }

  // A v2 round-trip preserves the policies verbatim.
  const auto v2_payload = net::encode_query_batch(req);
  net::QueryBatchRequest v2_decoded;
  ASSERT_TRUE(net::decode_query_batch(v2_payload, &v2_decoded));
  for (std::size_t i = 0; i < v2_decoded.queries.size(); ++i) {
    const QueryPolicy& pol = v2_decoded.queries[i].policy;
    EXPECT_EQ(pol.deadline_us, 77u);
    EXPECT_EQ(pol.accuracy_tier, AccuracyTier::kFast);
    EXPECT_TRUE(pol.hedge);
  }

  // Default-policy batches take the exact pre-policy serving path, so a
  // v1 client's answers are bitwise those of the policy-free library call.
  const ServeCase c = make_case(16, 16, 24, 421);
  ReductionOptions opts;
  opts.num_blocks = 4;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto kept = kept_originals(*art.model);
  const auto batch = mixed_batch(kept, 80, 23);
  std::vector<PortQuery> wire_twin = batch;  // what a v1 decode yields
  for (PortQuery& query : wire_twin) query.policy = QueryPolicy{};
  const auto want = QueryFrontEnd::answer_on(*snap, batch);
  const auto got = QueryFrontEnd::answer_on(*snap, wire_twin);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool both_nan = std::isnan(want[i]) && std::isnan(got[i]);
    ASSERT_TRUE(want[i] == got[i] || both_nan) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// (e) backend preference resolution + deadline-urgent admission.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, AutoDivertsReducedTiersToCheapEngines) {
  const ServeCase c = make_case(20, 20, 48, 433);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto kept = kept_originals(*art.model);

  // kAuto + kApprox routes engine-eligible queries exactly like an
  // explicit kLocalApprox preference (the default engines are approx-chol,
  // not dense-factor exact engines).
  std::vector<PortQuery> auto_batch = mixed_batch(kept, 200, 31);
  for (PortQuery& query : auto_batch)
    query.policy.accuracy_tier = AccuracyTier::kApprox;
  std::vector<PortQuery> engine_batch = auto_batch;
  for (PortQuery& query : engine_batch)
    query.policy.backend_pref = BackendPref::kLocalApprox;

  BatchStats auto_stats;
  const auto auto_answers = QueryFrontEnd::answer_on(
      *snap, auto_batch, {nullptr, RouteMode::kExact, &auto_stats});
  const auto engine_answers =
      QueryFrontEnd::answer_on(*snap, engine_batch);
  EXPECT_GT(auto_stats.engine_answered, 0u);
  for (std::size_t i = 0; i < auto_answers.size(); ++i) {
    const bool both_nan =
        std::isnan(auto_answers[i]) && std::isnan(engine_answers[i]);
    ASSERT_TRUE(auto_answers[i] == engine_answers[i] || both_nan)
        << "query " << i;
  }

  // Each of these keeps the exact route — bitwise the pre-policy answers:
  // kAuto + kExact tier; an explicit kExact preference on a reduced tier;
  // and kAuto + kApprox on a snapshot whose block engines are dense-factor
  // exact engines (no shortcut to divert to).
  const auto plain_answers =
      QueryFrontEnd::answer_on(*snap, mixed_batch(kept, 200, 31));
  std::vector<PortQuery> exact_tier = mixed_batch(kept, 200, 31);
  for (PortQuery& query : exact_tier)
    query.policy.deadline_us = 1'000'000;  // policied, but exact tier
  std::vector<PortQuery> exact_pref = auto_batch;
  for (PortQuery& query : exact_pref)
    query.policy.backend_pref = BackendPref::kExact;
  ServingOptions dense_engines;
  dense_engines.engine_backend = ErBackend::kExact;
  const auto dense_snap = ModelSnapshot::build(art, dense_engines);
  BatchStats dense_stats;
  const std::vector<std::vector<real_t>> exact_routes{
      QueryFrontEnd::answer_on(*snap, exact_tier),
      QueryFrontEnd::answer_on(*snap, exact_pref),
      QueryFrontEnd::answer_on(*dense_snap, auto_batch,
                               {nullptr, RouteMode::kExact, &dense_stats}),
  };
  EXPECT_EQ(dense_stats.engine_answered, 0u);
  for (std::size_t r = 0; r < exact_routes.size(); ++r)
    for (std::size_t i = 0; i < plain_answers.size(); ++i) {
      const bool both_nan =
          std::isnan(exact_routes[r][i]) && std::isnan(plain_answers[i]);
      ASSERT_TRUE(exact_routes[r][i] == plain_answers[i] || both_nan)
          << "case " << r << " query " << i;
    }
}

TEST(QueryPolicy, AdmissionQueueDispatchesUrgentItemsFirst) {
  net::AdmissionQueue<int> queue(3);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3, /*urgent=*/true));
  // Both levels draw on one capacity bound.
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_FALSE(queue.try_push(5, /*urgent=*/true));
  EXPECT_EQ(queue.depth(), 3u);

  // Urgent first, admission order within a level.
  EXPECT_EQ(queue.pop().value(), 3);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_TRUE(queue.try_push(6, /*urgent=*/true));
  EXPECT_EQ(queue.pop().value(), 6);
  EXPECT_EQ(queue.pop().value(), 2);

  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
}

}  // namespace
}  // namespace er
