// Serving subsystem tests (DESIGN.md §4): the exact path must agree with a
// dense inverse of the reduced system, answers must be bit-identical at any
// thread count, and ModelStore's publish protocol must
// let queries race with IncrementalReducer updates — every batch answers
// exactly against the snapshot version it pinned (no torn reads; the
// concurrent test is part of the CI TSan job).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"
#include "sparse/dense.hpp"

namespace er {
namespace {

// Independent oracle for the exact path: the dense inverse of the reduced
// system G (a Cholesky of the dense matrix, no sparse ordering or factor).
DenseMatrix dense_inverse(const ReducedModel& model) {
  const CscMatrix g = model.network.system_matrix();
  return DenseMatrix(g.rows(), g.cols(), g.to_dense()).spd_inverse();
}

TEST(ModelSnapshot, MatchesDenseInverse) {
  const ServeCase c = make_case(24, 24, 64, 71);
  ReductionOptions opts;
  opts.num_blocks = 8;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  ASSERT_GT(snap->num_boundary_nodes(), 0);
  const DenseMatrix ginv = dense_inverse(*art.model);

  const auto batch = mixed_batch(kept_originals(*art.model), 400, 3);
  BatchStats stats;
  const auto got = QueryFrontEnd::answer_on(
      *snap, batch, {nullptr, RouteMode::kExact, &stats});
  ASSERT_EQ(got.size(), batch.size());
  EXPECT_EQ(stats.invalid, 0u);
  EXPECT_GT(stats.cross_block, 0u);  // the batch spans blocks
  EXPECT_GT(stats.same_block, 0u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const index_t p = snap->reduced_id(batch[i].p);
    const index_t q = snap->reduced_id(batch[i].q);
    const real_t want = batch[i].kind == QueryKind::kResponse
                            ? ginv(q, p)
                            : ginv(p, p) + ginv(q, q) - 2.0 * ginv(p, q);
    EXPECT_NEAR(got[i], want, 1e-8 * (1.0 + std::abs(want)))
        << "query " << i;
  }
}

TEST(ModelSnapshot, ResponseMatchesDenseInverse) {
  const ServeCase c = make_case(18, 18, 40, 73);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const DenseMatrix ginv = dense_inverse(*art.model);

  // Z(p, q) is column p of G^{-1}: the voltage drops of a unit current
  // injected at reduced p.
  const index_t p_red = snap->reduced_id(kept_originals(*art.model).front());
  ModelSnapshot::Workspace ws;
  for (index_t q = 0; q < art.model->network.num_nodes(); q += 7) {
    const real_t z = snap->response(p_red, q, ws);
    EXPECT_NEAR(z, ginv(q, p_red), 1e-8 * (1.0 + std::abs(z)))
        << "response at reduced node " << q;
  }

  // Internal consistency: R(p,q) = Z(p,p) - Z(p,q) - Z(q,p) + Z(q,q).
  const index_t q_red = snap->reduced_id(kept_originals(*art.model).back());
  const real_t r = snap->resistance(p_red, q_red, ws);
  const real_t via_z = snap->response(p_red, p_red, ws) -
                       snap->response(p_red, q_red, ws) -
                       snap->response(q_red, p_red, ws) +
                       snap->response(q_red, q_red, ws);
  EXPECT_NEAR(r, via_z, 1e-9 * (1.0 + std::abs(r)));
}

TEST(QueryFrontEnd, BitIdenticalAcrossThreadCounts) {
  const ServeCase c = make_case(24, 24, 64, 79);
  ReductionOptions opts;
  opts.num_blocks = 8;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto batch = mixed_batch(kept_originals(*art.model), 1500, 5);

  for (RouteMode mode : {RouteMode::kExact, RouteMode::kLocalApprox}) {
    const auto serial =
        QueryFrontEnd::answer_on(*snap, batch, {nullptr, mode});
    for (int threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      const auto par =
          QueryFrontEnd::answer_on(*snap, batch, {&pool, mode});
      SCOPED_TRACE(std::string(to_string(mode)) + " threads=" +
                   std::to_string(threads));
      ASSERT_EQ(serial.size(), par.size());
      for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial[i], par[i]) << "query " << i;  // bit-identical
    }
  }
}

TEST(QueryFrontEnd, InvalidQueriesAnswerNaN) {
  const ServeCase c = make_case(16, 16, 24, 83);
  ReductionOptions opts;
  opts.num_blocks = 4;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);

  index_t eliminated = -1;
  for (std::size_t v = 0; v < art.model->node_map.size(); ++v)
    if (art.model->node_map[v] < 0) {
      eliminated = static_cast<index_t>(v);
      break;
    }
  ASSERT_GE(eliminated, 0);
  const index_t valid = kept_originals(*art.model).front();

  const std::vector<PortQuery> batch{
      {QueryKind::kResistance, eliminated, valid, {}},
      {QueryKind::kResponse, valid, eliminated, {}},
      {QueryKind::kResistance, -5, valid, {}},
      {QueryKind::kResistance, valid, valid, {}},
  };
  BatchStats stats;
  const auto out = QueryFrontEnd::answer_on(
      *snap, batch, {nullptr, RouteMode::kExact, &stats});
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_EQ(out[3], 0.0);  // same node: zero resistance
  EXPECT_EQ(stats.invalid, 3u);
  EXPECT_EQ(stats.queries, 4u);
}

TEST(QueryFrontEnd, LocalApproxRoutesThroughBlockEngines) {
  const ServeCase c = make_case(24, 24, 64, 89);
  ReductionOptions opts;
  opts.num_blocks = 8;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto batch = mixed_batch(kept_originals(*art.model), 600, 7);

  BatchStats stats;
  const auto out = QueryFrontEnd::answer_on(
      *snap, batch, {nullptr, RouteMode::kLocalApprox, &stats});
  EXPECT_GT(stats.engine_answered, 0u);  // the fast path actually engaged
  EXPECT_GT(stats.cross_block, 0u);      // and the fallback did too
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i])) << "query " << i;
    if (batch[i].kind == QueryKind::kResistance) {
      EXPECT_GE(out[i], 0.0) << "query " << i;
    }
  }
}

TEST(ModelStore, PublishPinsInFlightSnapshots) {
  const ServeCase c = make_case(20, 20, 48, 91);
  ReductionOptions opts;
  opts.num_blocks = 8;
  ModelStore store;
  QueryFrontEnd frontend(&store);
  const auto batch_probe = mixed_batch({0}, 0, 0);
  EXPECT_THROW((void)frontend.answer(batch_probe), std::runtime_error);

  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  EXPECT_EQ(store.publish_count(), 1u);
  const SnapshotPtr pinned = store.acquire();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(pinned->version(), 0u);

  const auto batch = mixed_batch(kept_originals(reducer.model()), 200, 11);
  const auto before = QueryFrontEnd::answer_on(*pinned, batch);

  const GridModification mod =
      random_modification(reducer.structure().num_blocks, 0.25, 1.5, 13);
  const ConductanceNetwork modified =
      apply_modification(c.net, reducer.structure(), mod);
  reducer.update(modified, mod.dirty_blocks);
  EXPECT_EQ(store.publish_count(), 2u);
  EXPECT_GT(reducer.publish_seconds(), 0.0);

  // The pinned snapshot is immutable: identical answers after the publish.
  const auto after = QueryFrontEnd::answer_on(*pinned, batch);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    ASSERT_EQ(before[i], after[i]) << "query " << i;

  // New batches see the new version.
  BatchStats stats;
  (void)frontend.answer(batch, nullptr, RouteMode::kExact, &stats);
  EXPECT_EQ(stats.snapshot_version, 1u);
}

TEST(ModelStore, VersionAndAgeProbesDisambiguateEmptyStore) {
  // current_version() is optional: version 0 (IncrementalReducer's first
  // revision) is a legitimate published state, distinguishable from an
  // empty store; the publish log surfaces per-version ages.
  const ServeCase c = make_case(14, 14, 20, 103);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  EXPECT_FALSE(store.has_published());
  EXPECT_FALSE(store.current_version().has_value());
  EXPECT_FALSE(store.current_age_seconds().has_value());
  EXPECT_FALSE(store.version_age_seconds(0).has_value());

  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  EXPECT_TRUE(store.has_published());
  ASSERT_TRUE(store.current_version().has_value());
  EXPECT_EQ(*store.current_version(), 0u);  // serving v0, store not empty
  ASSERT_TRUE(store.current_age_seconds().has_value());
  EXPECT_GE(*store.current_age_seconds(), 0.0);
  EXPECT_TRUE(store.version_age_seconds(0).has_value());
  EXPECT_FALSE(store.version_age_seconds(7).has_value());  // never published

  const GridModification mod =
      random_modification(reducer.structure().num_blocks, 0.25, 1.4, 107);
  const ConductanceNetwork modified =
      apply_modification(c.net, reducer.structure(), mod);
  reducer.update(modified, mod.dirty_blocks);
  ASSERT_TRUE(store.current_version().has_value());
  EXPECT_EQ(*store.current_version(), 1u);
  // Both versions remain in the bounded publish log; the older one is at
  // least as old as the current one.
  const auto age0 = store.version_age_seconds(0);
  const auto age1 = store.version_age_seconds(1);
  ASSERT_TRUE(age0.has_value());
  ASSERT_TRUE(age1.has_value());
  EXPECT_GE(*age0, *age1);
  EXPECT_GE(*age1, 0.0);
}

TEST(ModelStore, ZeroCopyPublishAliasesTheReducersModel) {
  // The zero-copy tentpole (DESIGN.md §4.1): a publish hands the snapshot
  // the reducer's frozen model version by shared_ptr — no model bytes are
  // copied, the snapshot's model *is* the reducer's — and an update builds
  // the next version into a fresh allocation, leaving pinned snapshots
  // untouched.
  const ServeCase c = make_case(16, 16, 24, 109);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);

  const SnapshotPtr s0 = store.acquire();
  EXPECT_EQ(&s0->model(), &reducer.model());
  EXPECT_EQ(s0->shared_model().get(), reducer.shared_model().get());
  EXPECT_GT(model_footprint_bytes(s0->model()), 0u);

  const auto batch = mixed_batch(kept_originals(reducer.model()), 150, 113);
  const auto before = QueryFrontEnd::answer_on(*s0, batch);
  const ModelPtr pinned_model = s0->shared_model();

  const GridModification mod =
      random_modification(reducer.structure().num_blocks, 0.5, 1.3, 127);
  const ConductanceNetwork modified =
      apply_modification(c.net, reducer.structure(), mod);
  reducer.update(modified, mod.dirty_blocks);

  // The new publish aliases the *new* version; the old version lives on
  // for the pinned snapshot, bit-for-bit.
  const SnapshotPtr s1 = store.acquire();
  EXPECT_EQ(&s1->model(), &reducer.model());
  EXPECT_NE(s1->shared_model().get(), s0->shared_model().get());
  EXPECT_EQ(s0->shared_model().get(), pinned_model.get());
  const auto after = QueryFrontEnd::answer_on(*s0, batch);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    ASSERT_EQ(before[i], after[i]) << "query " << i;
}

// The acceptance test for concurrent serving (runs under TSan in CI):
// reader threads answer batches through the ModelStore while the main
// thread runs IncrementalReducer updates that publish new snapshots. Every
// batch must be answered entirely against the snapshot it pinned — the
// answers of version v are precomputed from a deterministic twin reducer,
// so any torn read or cross-version mix shows up as a bitwise mismatch.
TEST(Serving, ConcurrentPublishWhileQuerying) {
  const ServeCase c = make_case(20, 20, 48, 97);
  ReductionOptions opts;
  opts.num_blocks = 8;
  opts.parallel.num_threads = 2;
  constexpr int kUpdates = 3;
  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 12;

  // Twin pass: replay the exact update sequence on an unattached reducer
  // and record each version's serial answers (everything is deterministic,
  // so the serving reducer publishes bit-identical snapshots).
  std::vector<PortQuery> batch;
  std::map<std::uint64_t, std::vector<real_t>> reference;
  ModStream stream;
  {
    IncrementalReducer twin(c.net, c.ports, opts);
    batch = mixed_batch(kept_originals(twin.model()), 64, 17);
    reference[0] = QueryFrontEnd::answer_on(
        *ModelSnapshot::build(twin.blocks(), twin.shared_model()), batch);
    stream = make_mod_stream(c.net, twin.structure(), kUpdates, 0.25, 1.4,
                             100);
    for (int u = 1; u <= kUpdates; ++u) {
      twin.update(stream.nets[static_cast<std::size_t>(u - 1)],
                  stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
      reference[static_cast<std::uint64_t>(u)] = QueryFrontEnd::answer_on(
          *ModelSnapshot::build(twin.blocks(), twin.shared_model()), batch);
    }
  }

  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const QueryFrontEnd frontend(&store);

  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> versions_seen{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerReader; ++i) {
        BatchStats stats;
        const auto got =
            frontend.answer(batch, nullptr, RouteMode::kExact, &stats);
        versions_seen |= std::uint64_t{1} << stats.snapshot_version;
        const auto& want = reference.at(stats.snapshot_version);
        for (std::size_t j = 0; j < want.size(); ++j)
          if (got[j] != want[j]) {
            ++mismatches;
            break;
          }
      }
    });

  for (int u = 1; u <= kUpdates; ++u)
    reducer.update(stream.nets[static_cast<std::size_t>(u - 1)],
                   stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.publish_count(),
            static_cast<std::uint64_t>(kUpdates) + 1);
  EXPECT_NE(versions_seen.load(), 0u);
}

// The registry series (er_serve_*, er_query_* — DESIGN.md §6) must agree
// with the legacy per-batch BatchStats view: same events, two windows
// (per-call vs process-lifetime aggregate). Any drift means one of the
// two bookkeeping paths missed an event.
TEST(QueryFrontEnd, RegistryAggregatesMatchBatchStats) {
  const ServeCase c = make_case(20, 20, 48, 77);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  ModelStore store;
  store.publish(ModelSnapshot::build(art));

  obs::MetricsRegistry reg;
  const QueryFrontEnd frontend(&store, &reg);
  const auto kept = kept_originals(*art.model);
  BatchStats s1, s2, s3;
  (void)frontend.answer(mixed_batch(kept, 150, 5), nullptr,
                        RouteMode::kExact, &s1);
  (void)frontend.answer(mixed_batch(kept, 250, 6), nullptr,
                        RouteMode::kExact, &s2);
  (void)frontend.answer(mixed_batch(kept, 100, 7), nullptr,
                        RouteMode::kLocalApprox, &s3);

  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto counter = [&snap](const char* name, const char* mode) {
    const obs::MetricSnapshot* m =
        snap.find(name, {{"mode", mode}});
    return m ? m->counter : std::uint64_t{0};
  };
  // Exact-route series (label value "sharded") aggregate exactly the two
  // exact batches...
  EXPECT_EQ(counter("er_serve_batches_total", "sharded"), 2u);
  EXPECT_EQ(counter("er_serve_queries_total", "sharded"),
            s1.queries + s2.queries);
  EXPECT_EQ(counter("er_serve_invalid_queries_total", "sharded"),
            s1.invalid + s2.invalid);
  EXPECT_EQ(counter("er_serve_same_block_queries_total", "sharded"),
            s1.same_block + s2.same_block);
  EXPECT_EQ(counter("er_serve_cross_block_queries_total", "sharded"),
            s1.cross_block + s2.cross_block);
  // ...and the local-approx batch lands only in its own labeled series.
  EXPECT_EQ(counter("er_serve_batches_total", "local-approx"), 1u);
  EXPECT_EQ(counter("er_serve_queries_total", "local-approx"), s3.queries);

  // Every query records exactly one latency sample; every batch exactly
  // one batch-duration sample whose total tracks BatchStats::seconds.
  const obs::MetricSnapshot* lat =
      snap.find("er_query_latency_seconds", {{"mode", "sharded"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.count, s1.queries + s2.queries);
  const obs::MetricSnapshot* batch_h =
      snap.find("er_query_batch_seconds", {{"mode", "sharded"}});
  ASSERT_NE(batch_h, nullptr);
  EXPECT_EQ(batch_h->histogram.count, 2u);
  EXPECT_NEAR(batch_h->histogram.sum, s1.seconds + s2.seconds,
              0.5 * (s1.seconds + s2.seconds) + 1e-6);

  // The store instrumented with its own registry reports its publishes.
  obs::MetricsRegistry store_reg;
  ModelStore counted(&store_reg);
  counted.publish(ModelSnapshot::build(art));
  const obs::MetricsSnapshot store_snap = store_reg.snapshot();
  ASSERT_NE(store_snap.find("er_store_publishes_total"), nullptr);
  EXPECT_EQ(store_snap.find("er_store_publishes_total")->counter,
            counted.publish_count());
  EXPECT_EQ(store_snap.find("er_store_current_version")->gauge,
            static_cast<std::int64_t>(counted.current_version().value()));
}

}  // namespace
}  // namespace er
