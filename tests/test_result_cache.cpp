// Result-cache tests (DESIGN.md §4.2). Four contracts:
//
//   (a) cached answers are bitwise identical to uncached ones over
//       randomized query/publish interleavings, on every route mode, at
//       1/2/4/8 pool threads,
//   (b) concurrent readers through a cache-attached store stay
//       bit-consistent per pinned version while a publisher churns
//       (runs under TSan in CI),
//   (c) publish-time invalidation is precise: clean-block engine entries
//       survive (hit), dirty-block entries miss, exact-path entries are
//       version-scoped, and a no-aliasing full build drops everything,
//   (d) a tiny capacity evicts without ever answering wrong, and pinned
//       old versions keep resolving within version_cap and degrade to
//       plain (still correct) compute past it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

#include "obs/metrics.hpp"
#include "pg/incremental.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"

namespace er {
namespace {

// ---------------------------------------------------------------------------
// (a) cached == uncached, bitwise, across interleavings and thread counts.
// ---------------------------------------------------------------------------

TEST(ResultCache, CachedMatchesUncachedBitwiseAcrossInterleavings) {
  const ServeCase c = make_case(20, 20, 48, 307);
  constexpr int kMods = 4;
  constexpr int kSteps = 14;

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReductionOptions opts;
    opts.num_blocks = 8;
    opts.parallel.num_threads = threads;
    obs::MetricsRegistry reg;
    ModelStore store(&reg);
    IncrementalReducer reducer(c.net, c.ports, opts);
    reducer.attach_store(&store);
    const auto cache =
        std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
    store.attach_cache(cache);
    ThreadPool pool(threads);
    ThreadPool* p = threads > 1 ? &pool : nullptr;

    const ModStream stream =
        make_mod_stream(c.net, reducer.structure(), kMods, 0.25, 1.3, 1100);
    const auto kept = kept_originals(reducer.model());

    // Randomized (seeded) interleaving of publishes and query batches.
    // Every batch pins one snapshot and is answered twice — through the
    // cache and without it — so a publish racing the pair can't confuse
    // the comparison. Batch seeds repeat (700 + step % 3), so later
    // batches revisit earlier keys and genuinely hit.
    Rng rng(static_cast<std::uint64_t>(threads) * 7919 + 5);
    int published = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (published < kMods && rng.uniform() < 0.3) {
        const auto u = static_cast<std::size_t>(published++);
        reducer.update(stream.nets[u], stream.mods[u].dirty_blocks);
        continue;
      }
      const auto batch = mixed_batch(
          kept, 120, static_cast<std::uint64_t>(700 + step % 3));
      const RouteMode mode =
          step % 3 == 2 ? RouteMode::kLocalApprox : RouteMode::kExact;
      const SnapshotPtr snap = store.acquire();
      BatchStats cached_stats;
      const auto cached = QueryFrontEnd::answer_on(
          *snap, batch, {p, mode, &cached_stats, &reg, cache.get()});
      const auto uncached =
          QueryFrontEnd::answer_on(*snap, batch, {p, mode, nullptr, &reg});
      ASSERT_EQ(cached.size(), uncached.size());
      for (std::size_t i = 0; i < cached.size(); ++i) {
        // Bitwise comparison that treats the NaN of an invalid query as
        // equal to itself.
        const bool both_nan =
            std::isnan(cached[i]) && std::isnan(uncached[i]);
        ASSERT_TRUE(cached[i] == uncached[i] || both_nan)
            << to_string(mode) << " step " << step << " query " << i;
      }
      EXPECT_EQ(cached_stats.cache_hits + cached_stats.cache_misses,
                cached_stats.queries - cached_stats.invalid);
    }
    // The interleaving must have exercised the cache on both sides.
    EXPECT_GT(cache->hits(), 0u);
    EXPECT_GT(cache->misses(), 0u);
  }
}

// ---------------------------------------------------------------------------
// (b) concurrent readers + publisher, cache attached (TSan target).
// ---------------------------------------------------------------------------

TEST(ResultCache, ConcurrentReadersStayBitConsistentWithCacheAttached) {
  const ServeCase c = make_case(20, 20, 48, 311);
  ReductionOptions opts;
  opts.num_blocks = 8;
  opts.parallel.num_threads = 2;
  constexpr int kUpdates = 3;
  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 12;

  // Per-version serial reference from a deterministic twin.
  std::vector<PortQuery> batch;
  std::map<std::uint64_t, std::vector<real_t>> reference;
  ModStream stream;
  {
    IncrementalReducer twin(c.net, c.ports, opts);
    batch = mixed_batch(kept_originals(twin.model()), 64, 19);
    reference[0] = QueryFrontEnd::answer_on(
        *ModelSnapshot::build(twin.blocks(), twin.shared_model()), batch);
    stream = make_mod_stream(c.net, twin.structure(), kUpdates, 0.25, 1.4,
                             1200);
    for (int u = 1; u <= kUpdates; ++u) {
      twin.update(stream.nets[static_cast<std::size_t>(u - 1)],
                  stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
      reference[static_cast<std::uint64_t>(u)] = QueryFrontEnd::answer_on(
          *ModelSnapshot::build(twin.blocks(), twin.shared_model()), batch);
    }
  }

  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const auto cache =
      std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerReader; ++i) {
        BatchStats stats;
        const auto got =
            frontend.answer(batch, nullptr, RouteMode::kExact, &stats);
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
  // Readers repeat one batch, so the cache must have served hits.
  EXPECT_GT(cache->hits(), 0u);
}

// ---------------------------------------------------------------------------
// (c) invalidation precision.
// ---------------------------------------------------------------------------

/// Same-block engine-eligible (kResistance) query batches, one per block,
/// with distinct consecutive kept-node pairs (each insert is unique).
std::vector<std::vector<PortQuery>> per_block_batches(
    const ModelSnapshot& snap, const std::vector<index_t>& kept,
    std::size_t pairs_per_block) {
  std::vector<std::vector<index_t>> by_block(
      static_cast<std::size_t>(snap.num_blocks()));
  for (index_t v : kept) {
    const index_t r = snap.reduced_id(v);
    if (r >= 0)
      by_block[static_cast<std::size_t>(snap.block_of_reduced(r))].push_back(
          v);
  }
  std::vector<std::vector<PortQuery>> batches(by_block.size());
  for (std::size_t b = 0; b < by_block.size(); ++b) {
    const auto& nodes = by_block[b];
    for (std::size_t i = 0;
         i + 1 < nodes.size() && batches[b].size() < pairs_per_block; i += 2)
      batches[b].push_back(
          {QueryKind::kResistance, nodes[i], nodes[i + 1], {}});
  }
  return batches;
}

TEST(ResultCache, PublishInvalidatesDirtyBlocksOnlyAndFullBuildDropsAll) {
  const ServeCase c = make_case(20, 20, 48, 313);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  // version_cap = 1: only the newest version's scopes stay live, so every
  // publish sweeps the stale scopes eagerly and the invalidations counter
  // accounts for exactly the entries that became unreachable.
  ResultCacheOptions copts;
  copts.version_cap = 1;
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  const auto kept = kept_originals(reducer.model());
  const SnapshotPtr snap0 = store.acquire();
  const auto batches = per_block_batches(*snap0, kept, 12);

  // Warm every block's engine entries (kLocalApprox routes same-block
  // resistance queries to the block engine, keyed by the block's scope).
  // A block without a resident engine falls back to the version-scoped
  // exact path; only fully-engine-answered blocks carry across publishes,
  // so track which those are.
  std::size_t engine_entries = 0;
  std::vector<char> engine_backed(batches.size(), 0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (batches[b].empty()) continue;
    BatchStats stats;
    (void)frontend.answer(batches[b], nullptr, RouteMode::kLocalApprox,
                          &stats);
    EXPECT_EQ(stats.cache_hits, 0u) << "block " << b;
    engine_entries += stats.engine_answered;
    engine_backed[b] = stats.engine_answered == batches[b].size() ? 1 : 0;
  }
  ASSERT_GT(engine_entries, 0u);
  // Plus a version-scoped exact batch (distinct exact-path entries).
  const auto exact_batch = mixed_batch(kept, 80, 29);
  BatchStats exact_stats;
  (void)frontend.answer(exact_batch, nullptr, RouteMode::kExact,
                        &exact_stats);
  const std::size_t entries_before = cache->entries();
  ASSERT_GT(entries_before, engine_entries);

  // Publish with one known-dirty block.
  GridModification mod;
  mod.dirty_blocks = {0};
  mod.resistance_scale = 1.5;
  const ConductanceNetwork net1 =
      apply_modification(c.net, reducer.structure(), mod);
  reducer.update(net1, mod.dirty_blocks);
  const SnapshotPtr snap1 = store.acquire();
  ASSERT_NE(snap0->version(), snap1->version());
  ASSERT_GT(snap1->reused_blocks(), 0);

  // Clean blocks: every warmed engine entry survives the publish (carried
  // scope). The dirty block: every probe misses (fresh scope).
  std::size_t clean_blocks_checked = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (batches[b].empty() || !engine_backed[b]) continue;
    BatchStats stats;
    (void)frontend.answer(batches[b], nullptr, RouteMode::kLocalApprox,
                          &stats);
    if (b == 0) {
      EXPECT_EQ(stats.cache_hits, 0u) << "dirty block must miss";
      EXPECT_GT(stats.cache_misses, 0u);
    } else {
      EXPECT_EQ(stats.cache_misses, 0u)
          << "clean block " << b << " must hit fully";
      EXPECT_EQ(stats.cache_hits, batches[b].size());
      ++clean_blocks_checked;
    }
  }
  EXPECT_GT(clean_blocks_checked, 0u);
  // Exact-path entries are version-scoped: the same batch misses through.
  BatchStats exact_after;
  (void)frontend.answer(exact_batch, nullptr, RouteMode::kExact,
                        &exact_after);
  EXPECT_EQ(exact_after.cache_hits, 0u);

  // A full from-scratch snapshot (no artifact aliasing) carries nothing:
  // after its publish every prior entry is unreachable and swept.
  const std::size_t entries_mid = cache->entries();
  const std::uint64_t invalidated_mid = cache->invalidations();
  store.publish(ModelSnapshot::build(reducer.blocks(), reducer.shared_model(),
                                     snap1->options(), nullptr,
                                     snap1->version() + 1));
  EXPECT_EQ(cache->entries(), 0u);
  EXPECT_EQ(cache->invalidations(), invalidated_mid + entries_mid);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (batches[b].empty()) continue;
    BatchStats stats;
    (void)frontend.answer(batches[b], nullptr, RouteMode::kLocalApprox,
                          &stats);
    EXPECT_EQ(stats.cache_hits, 0u) << "full build must drop block " << b;
  }
}

// ---------------------------------------------------------------------------
// (d) eviction under a tiny capacity + pinned-version resolution.
// ---------------------------------------------------------------------------

TEST(ResultCache, TinyCapacityEvictsWithoutEverAnsweringWrong) {
  const ServeCase c = make_case(18, 18, 40, 317);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  ResultCacheOptions copts;
  copts.shards = 1;
  copts.max_entries = 16;  // far below the batch working set
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);

  const auto kept = kept_originals(reducer.model());
  const SnapshotPtr snap = store.acquire();
  for (int round = 0; round < 4; ++round) {
    const auto batch = mixed_batch(
        kept, 200, static_cast<std::uint64_t>(1300 + round % 2));
    for (RouteMode mode :
         {RouteMode::kExact, RouteMode::kLocalApprox}) {
      const auto cached = QueryFrontEnd::answer_on(
          *snap, batch, {nullptr, mode, nullptr, &reg, cache.get()});
      const auto plain = QueryFrontEnd::answer_on(
          *snap, batch, {nullptr, mode, nullptr, &reg});
      for (std::size_t i = 0; i < cached.size(); ++i) {
        const bool both_nan = std::isnan(cached[i]) && std::isnan(plain[i]);
        ASSERT_TRUE(cached[i] == plain[i] || both_nan)
            << to_string(mode) << " round " << round << " query " << i;
      }
    }
  }
  EXPECT_GT(cache->evictions(), 0u);
  EXPECT_LE(cache->entries(), copts.max_entries);
}

TEST(ResultCache, PinnedVersionsResolveWithinCapAndDegradePastIt) {
  const ServeCase c = make_case(18, 18, 40, 331);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  ResultCacheOptions copts;
  copts.version_cap = 2;
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);

  const auto kept = kept_originals(reducer.model());
  const auto batch = mixed_batch(kept, 100, 37);
  const ModStream stream =
      make_mod_stream(c.net, reducer.structure(), 2, 0.25, 1.3, 1400);

  // Pin version 0, warm it, then publish once: {v0, v1} both within the
  // cap, so the pinned snapshot keeps hitting its own scoped entries.
  const SnapshotPtr pinned = store.acquire();
  BatchStats warm;
  (void)QueryFrontEnd::answer_on(
      *pinned, batch,
      {nullptr, RouteMode::kExact, &warm, &reg, cache.get()});
  EXPECT_GT(warm.cache_misses, 0u);
  reducer.update(stream.nets[0], stream.mods[0].dirty_blocks);
  BatchStats still_cached;
  const auto hit_answers = QueryFrontEnd::answer_on(
      *pinned, batch,
      {nullptr, RouteMode::kExact, &still_cached, &reg, cache.get()});
  EXPECT_GT(still_cached.cache_hits, 0u);
  EXPECT_EQ(still_cached.cache_misses, 0u);

  // Second publish ages v0 past the cap: the pinned snapshot's version no
  // longer resolves, so the cache is bypassed — zero probes, answers
  // still bitwise identical to the warm run.
  reducer.update(stream.nets[1], stream.mods[1].dirty_blocks);
  BatchStats past_cap;
  const auto plain_answers = QueryFrontEnd::answer_on(
      *pinned, batch,
      {nullptr, RouteMode::kExact, &past_cap, &reg, cache.get()});
  EXPECT_EQ(past_cap.cache_hits, 0u);
  EXPECT_EQ(past_cap.cache_misses, 0u);
  ASSERT_EQ(hit_answers.size(), plain_answers.size());
  for (std::size_t i = 0; i < hit_answers.size(); ++i) {
    const bool both_nan =
        std::isnan(hit_answers[i]) && std::isnan(plain_answers[i]);
    ASSERT_TRUE(hit_answers[i] == plain_answers[i] || both_nan)
        << "query " << i;
  }
}

}  // namespace
}  // namespace er
