#include "serve/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chol/cholesky.hpp"
#include "effres/approx_chol.hpp"
#include "effres/exact.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

std::unique_ptr<EffResEngine> make_block_engine(const Graph& g,
                                                const ServingOptions& opts) {
  if (g.num_nodes() < 2 || g.num_edges() == 0) return nullptr;
  // A block whose local system resists factorization (e.g. pathological
  // weights) must not take the whole snapshot down: the exact path (the
  // factor of G) still serves its queries, so the fast path just stays
  // unavailable.
  try {
    if (opts.engine_backend == ErBackend::kExact)
      return std::make_unique<ExactEffRes>(g);
    ApproxCholOptions ac;
    ac.droptol = opts.engine_droptol;
    ac.epsilon = opts.engine_epsilon;
    return std::make_unique<ApproxCholEffRes>(g, ac);
  } catch (const std::exception&) {
    return nullptr;
  }
}

/// Validated clean-block mask of a dirty-only rebuild: clean[b] == 0 for
/// the listed dirty blocks.
std::vector<char> clean_mask(index_t nb,
                             const std::vector<index_t>& dirty_blocks) {
  std::vector<char> clean(static_cast<std::size_t>(nb), 1);
  for (index_t b : dirty_blocks) {
    if (b < 0 || b >= nb)
      throw std::out_of_range("ModelSnapshot::rebuild: bad block id");
    clean[static_cast<std::size_t>(b)] = 0;
  }
  return clean;
}

}  // namespace

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    const ReductionArtifacts& artifacts, const ServingOptions& opts,
    ThreadPool* pool, std::uint64_t version) {
  return build(artifacts.blocks, artifacts.model, opts, pool, version);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    const std::vector<BlockReduced>& reduced_blocks, ModelPtr input_model,
    const ServingOptions& opts, ThreadPool* pool, std::uint64_t version) {
  if (!input_model)
    throw std::invalid_argument("ModelSnapshot::build: null model");
  return build_impl(reduced_blocks, std::move(input_model), opts, pool,
                    version, nullptr, nullptr);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::rebuild(
    const ModelSnapshot& previous,
    const std::vector<BlockReduced>& reduced_blocks, ModelPtr input_model,
    const std::vector<index_t>& dirty_blocks, ThreadPool* pool,
    std::uint64_t version) {
  if (!input_model)
    throw std::invalid_argument("ModelSnapshot::rebuild: null model");
  const auto nb = static_cast<index_t>(input_model->block_kept.size());
  const std::vector<char> clean = clean_mask(nb, dirty_blocks);
  // A previous snapshot with a different block count cannot seed a reuse
  // (the partition changed under us); fall back to a full build.
  const ModelSnapshot* prev =
      previous.num_blocks() == nb ? &previous : nullptr;
  return build_impl(reduced_blocks, std::move(input_model),
                    previous.options(), pool, version, prev,
                    prev ? &clean : nullptr);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build_impl(
    const std::vector<BlockReduced>& reduced_blocks, ModelPtr input_model,
    const ServingOptions& opts, ThreadPool* pool, std::uint64_t version,
    const ModelSnapshot* previous, const std::vector<char>* clean) {
  Timer timer;
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  // Alias the frozen model version: the producer (reduce_network_artifacts
  // / IncrementalReducer) builds each version into a fresh allocation and
  // never mutates it afterwards, so the snapshot pins it instead of
  // copying O(nodes + edges) state per publish (DESIGN.md §4.1).
  snap->model_ = std::move(input_model);
  snap->version_ = version;
  snap->opts_ = opts;
  const ReducedModel& model = *snap->model_;
  const Graph& rg = model.network.graph;
  const index_t n = rg.num_nodes();
  const auto nb_blocks = static_cast<index_t>(model.block_kept.size());

  // Reduced node -> owning block and engine-local id (block_kept[b][m] is
  // the reduced id of the block's m-th merged node, matching the node ids
  // of BlockReduced::sparse_graph).
  snap->block_of_reduced_.assign(static_cast<std::size_t>(n), -1);
  snap->block_local_.assign(static_cast<std::size_t>(n), -1);
  for (index_t b = 0; b < nb_blocks; ++b) {
    const auto& kept = model.block_kept[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < kept.size(); ++m) {
      snap->block_of_reduced_[static_cast<std::size_t>(kept[m])] = b;
      snap->block_local_[static_cast<std::size_t>(kept[m])] =
          static_cast<index_t>(m);
    }
  }

  // Boundary = reduced nodes incident to an inter-block edge.
  snap->boundary_.assign(static_cast<std::size_t>(n), 0);
  for (const Edge& e : rg.edges())
    if (snap->block_of_reduced_[static_cast<std::size_t>(e.u)] !=
        snap->block_of_reduced_[static_cast<std::size_t>(e.v)]) {
      snap->boundary_[static_cast<std::size_t>(e.u)] = 1;
      snap->boundary_[static_cast<std::size_t>(e.v)] = 1;
    }
  snap->num_boundary_nodes_ = static_cast<index_t>(
      std::count(snap->boundary_.begin(), snap->boundary_.end(), 1));

  // Per-block artifacts: alias the previous snapshot's artifact for clean
  // blocks, build the rest in parallel into disjoint slots — identical at
  // any thread count.
  snap->blocks_.resize(static_cast<std::size_t>(nb_blocks));
  index_t reused = 0;
  for (index_t b = 0; b < nb_blocks; ++b) {
    if (!previous || !clean || !(*clean)[static_cast<std::size_t>(b)])
      continue;
    snap->blocks_[static_cast<std::size_t>(b)] =
        previous->blocks_[static_cast<std::size_t>(b)];
    ++reused;
  }
  snap->reused_blocks_ = reused;
  parallel_for(pool, 0, nb_blocks, 1, [&](index_t lo, index_t hi) {
    for (index_t b = lo; b < hi; ++b) {
      auto& art = snap->blocks_[static_cast<std::size_t>(b)];
      if (art) continue;
      auto fresh = std::make_shared<BlockArtifact>();
      if (opts.build_block_engines)
        fresh->engine = make_block_engine(
            reduced_blocks[static_cast<std::size_t>(b)].sparse_graph, opts);
      art = std::move(fresh);
    }
  });

  // The exact path: one factor of the whole stitched system. It depends on
  // every block, so every publish refactors it.
  snap->factor_ = cholesky(model.network.system_matrix());

  snap->build_seconds_ = timer.seconds();
  return snap;
}

index_t ModelSnapshot::reduced_id(index_t original) const {
  if (original < 0 ||
      static_cast<std::size_t>(original) >= model_->node_map.size())
    return -1;
  return model_->node_map[static_cast<std::size_t>(original)];
}

real_t ModelSnapshot::response(index_t p, index_t q, Workspace& ws) const {
  ws.rhs.assign(static_cast<std::size_t>(factor_.n), 0.0);
  const index_t pp = factor_.inv_perm[static_cast<std::size_t>(p)];
  const index_t qq = factor_.inv_perm[static_cast<std::size_t>(q)];
  ws.rhs[static_cast<std::size_t>(pp)] = 1.0;
  factor_.solve_permuted(ws.rhs);
  return ws.rhs[static_cast<std::size_t>(qq)];
}

real_t ModelSnapshot::resistance(index_t p, index_t q, Workspace& ws) const {
  if (p == q) return 0.0;
  ws.rhs.assign(static_cast<std::size_t>(factor_.n), 0.0);
  const index_t pp = factor_.inv_perm[static_cast<std::size_t>(p)];
  const index_t qq = factor_.inv_perm[static_cast<std::size_t>(q)];
  ws.rhs[static_cast<std::size_t>(pp)] = 1.0;
  ws.rhs[static_cast<std::size_t>(qq)] = -1.0;
  factor_.solve_permuted(ws.rhs);
  return ws.rhs[static_cast<std::size_t>(pp)] -
         ws.rhs[static_cast<std::size_t>(qq)];
}

}  // namespace er
