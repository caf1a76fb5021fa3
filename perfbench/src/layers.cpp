#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "chol/cholesky.hpp"
#include "effres/approx_chol.hpp"
#include "parallel/thread_pool.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"

namespace perfbench {

using namespace er;

namespace {

double elapsed(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kSetupProbeRepeats = 3;
constexpr int kChurnProbeMods = 5;

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& name,
                            const obs::Labels& labels) {
  const obs::MetricSnapshot* a = before.find(name, labels);
  const obs::MetricSnapshot* b = after.find(name, labels);
  if (!b) return 0;
  return b->counter - (a ? a->counter : 0);
}

obs::HistogramSnapshot histogram_delta(const obs::MetricsSnapshot& before,
                                       const obs::MetricsSnapshot& after,
                                       const std::string& name,
                                       const obs::Labels& labels) {
  const obs::MetricSnapshot* a = before.find(name, labels);
  const obs::MetricSnapshot* b = after.find(name, labels);
  if (!b) return {};
  obs::HistogramSnapshot h = b->histogram;
  if (!a) return h;
  for (std::size_t i = 0; i < h.buckets.size() && i < a->histogram.buckets.size();
       ++i)
    h.buckets[i] -= a->histogram.buckets[i];
  h.count -= a->histogram.count;
  h.sum -= a->histogram.sum;
  return h;
}

void probe_setup_layers(const Grid& grid, SpanLog& log, Metrics& out) {
  const net::StackOptions opts = stack_options();
  obs::MetricsRegistry side;
  ThreadPool pool(opts.reduction.parallel.num_threads, &side);
  std::vector<double> partition_s, blocks_s, stitch_s, build_s, schur_s, er_s,
      sparsify_s;
  ModelPtr model;
  std::vector<BlockReduced> blocks;
  for (int rep = 0; rep < kSetupProbeRepeats; ++rep) {
    SpanBuffer spans(true);
    const std::int32_t setup = spans.open("setup", rep);
    auto t0 = Clock::now();
    BlockStructure structure;
    {
      ScopedSpan s(spans, "partition", rep, setup);
      structure = build_block_structure(grid.net, grid.is_port, opts.reduction,
                                        &pool);
    }
    partition_s.push_back(elapsed(t0));
    t0 = Clock::now();
    blocks.assign(static_cast<std::size_t>(structure.num_blocks), {});
    {
      ScopedSpan s(spans, "reduction.blocks", rep, setup);
      parallel_for(&pool, 0, structure.num_blocks, 1,
                   [&](index_t lo, index_t hi) {
                     for (index_t b = lo; b < hi; ++b)
                       blocks[static_cast<std::size_t>(b)] =
                           reduce_block(grid.net, grid.is_port, structure, b,
                                        opts.reduction, &pool);
                   });
    }
    blocks_s.push_back(elapsed(t0));
    t0 = Clock::now();
    ReducedModel stitched;
    {
      ScopedSpan s(spans, "reduction.stitch", rep, setup);
      stitched = stitch_blocks(grid.net, structure, blocks, &pool);
    }
    stitch_s.push_back(elapsed(t0));
    schur_s.push_back(stitched.stats.schur_cpu_seconds);
    er_s.push_back(stitched.stats.er_cpu_seconds);
    sparsify_s.push_back(stitched.stats.sparsify_cpu_seconds);
    (void)stitched.network.graph.adjacency_ptr();  // freeze like the pipeline
    model = std::make_shared<const ReducedModel>(std::move(stitched));
    t0 = Clock::now();
    {
      ScopedSpan s(spans, "snapshot.build", rep, setup);
      (void)ModelSnapshot::build(blocks, model, opts.serving, &pool);
    }
    build_s.push_back(elapsed(t0));
    spans.close(setup);
    log.merge(spans);
  }

  SpanBuffer spans(true);
  auto t0 = Clock::now();
  offset_t nnz = 0;
  {
    ScopedSpan s(spans, "chol.factor", 0);
    nnz = cholesky(model->network.system_matrix()).nnz();
  }
  const double factor_s = elapsed(t0);
  ApproxCholOptions ac;
  ac.droptol = opts.serving.engine_droptol;
  ac.epsilon = opts.serving.engine_epsilon;
  t0 = Clock::now();
  {
    ScopedSpan s(spans, "effres.engine_build", 0);
    for (const BlockReduced& b : blocks)
      if (b.sparse_graph.num_nodes() >= 2 && b.sparse_graph.num_edges() > 0)
        (void)ApproxCholEffRes(b.sparse_graph, ac);
  }
  const double engine_build_s = elapsed(t0);
  log.merge(spans);

  out.push_back({"partition.s", median(partition_s), "s"});
  out.push_back({"reduction.blocks_s", median(blocks_s), "s"});
  out.push_back({"reduction.schur_cpu_s", median(schur_s), "s"});
  out.push_back({"reduction.er_cpu_s", median(er_s), "s"});
  out.push_back({"reduction.sparsify_cpu_s", median(sparsify_s), "s"});
  out.push_back({"reduction.stitch_s", median(stitch_s), "s"});
  out.push_back({"snapshot.build_s", median(build_s), "s"});
  out.push_back({"chol.factor_s", factor_s, "s"});
  out.push_back({"chol.factor_nnz", static_cast<double>(nnz), "count"});
  out.push_back({"effres.engine_build_s", engine_build_s, "s"});
}

ChurnProbe probe_churn_layers(const Grid& grid, std::uint64_t seed,
                              SpanLog& log, Metrics& out) {
  const net::StackOptions opts = stack_options();
  obs::MetricsRegistry side;
  ThreadPool pool(opts.reduction.parallel.num_threads, &side);
  IncrementalReducer twin(grid.net, grid.is_port, opts.reduction);
  SnapshotPtr prev =
      ModelSnapshot::build(twin.blocks(), twin.shared_model(), opts.serving,
                           &pool);
  ConductanceNetwork current = grid.net;
  // One mod a second for kChurnProbeMods seconds: kChurnProbeMods mods.
  const std::vector<ScheduledMod> mods =
      make_schedule(mix_seed(seed, 0x7717), 1.0, kChurnProbeMods,
                    twin.structure().num_blocks);
  std::vector<double> update_s, rebuild_s, bytes, reused;
  SpanBuffer spans(true);
  std::uint64_t version = 0;
  for (const ScheduledMod& m : mods) {
    GridModification gm;
    gm.dirty_blocks = m.mod.dirty_blocks;
    gm.resistance_scale = m.mod.resistance_scale;
    current = apply_modification(current, twin.structure(), gm);
    ++version;
    ScopedSpan churn(spans, "churn", version);
    auto t0 = Clock::now();
    {
      ScopedSpan s(spans, "reduction.update", version, churn.handle());
      (void)twin.update(current, gm.dirty_blocks);
    }
    update_s.push_back(elapsed(t0));
    t0 = Clock::now();
    SnapshotPtr next;
    {
      ScopedSpan s(spans, "snapshot.rebuild", version, churn.handle());
      next = ModelSnapshot::rebuild(*prev, twin.blocks(), twin.shared_model(),
                                    gm.dirty_blocks, &pool, version);
    }
    rebuild_s.push_back(elapsed(t0));
    bytes.push_back(static_cast<double>(next->bytes_materialized()));
    reused.push_back(static_cast<double>(next->reused_blocks()));
    prev = std::move(next);
  }
  log.merge(spans);
  ChurnProbe probe{median(update_s), median(rebuild_s)};
  out.push_back({"reduction.update_s", probe.update_s, "s"});
  out.push_back({"snapshot.rebuild_s", probe.rebuild_s, "s"});
  out.push_back({"snapshot.bytes_materialized", median(bytes), "bytes"});
  out.push_back({"snapshot.reused_blocks", median(reused), "count"});
  return probe;
}

void probe_engine_query(const ModelSnapshot& snap, const Traffic& traffic,
                        Metrics& out) {
  constexpr std::size_t kGroup = 128;
  constexpr std::size_t kGroups = 32;
  const auto pairs = traffic.interior_pairs(snap, kGroup * kGroups, 0x5eed0003);
  std::vector<double> per_call;
  double sink = 0.0;
  for (std::size_t g = 0; g < kGroups && !pairs.empty(); ++g) {
    const auto t0 = Clock::now();
    for (std::size_t i = g * kGroup; i < (g + 1) * kGroup; ++i) {
      const auto [p, q] = pairs[i];
      const index_t b = snap.block_of_reduced(p);
      sink += snap.block_engine(b)->resistance(snap.block_local_id(p),
                                               snap.block_local_id(q));
    }
    per_call.push_back(elapsed(t0) / static_cast<double>(kGroup));
  }
  volatile double keep = sink;
  (void)keep;
  out.push_back({"effres.engine_query_us", median(per_call) * 1e6, "us"});
}

}  // namespace perfbench
