/// \file
/// Immutable serving snapshot of a reduced model (DESIGN.md §4, §4.1).
///
/// A ModelSnapshot is built once from the reduction pipeline's artifacts
/// and then never mutated: every member is resident, read-only state
/// shared by any number of concurrent query threads. Exact queries are
/// answered from one Cholesky factor of the stitched reduced system
/// G = L(reduced graph) + diag(shunts); an optional per-block EffResEngine
/// serves the approximate block-local fast path.
///
/// The per-block engines live in BlockArtifact objects held through
/// shared_ptr: successive snapshots of an incrementally-updated model share
/// the artifacts of clean blocks (copy-on-write — see ModelSnapshot::rebuild
/// and DESIGN.md §4.1), so a publish after a k-block update rebuilds only
/// the k dirty engines plus the factor of G. The stitched model itself
/// follows the same rule: the snapshot aliases the producer's frozen
/// ModelPtr version rather than owning a copy.
#pragma once

#include <memory>
#include <vector>

#include "chol/factor.hpp"
#include "effres/engine.hpp"
#include "reduction/pipeline.hpp"
#include "util/types.hpp"

namespace er {

class ThreadPool;

/// Knobs of the serving-layer ResultCache (serve/result_cache.hpp), the
/// lock-striped (version, block, node-pair)-keyed answer cache in front of the
/// query paths. Embedded in ServingOptions so one struct configures a
/// serving deployment end to end; nothing constructs a cache implicitly —
/// a deployment opts in by building a ResultCache from these knobs and
/// attaching it to its ModelStore (ModelStore::attach_cache).
struct ResultCacheOptions {
  /// Lock stripes (rounded up to a power of two). More stripes = less
  /// contention between concurrent query chunks; each stripe owns an
  /// independent LRU list.
  std::size_t shards = 16;
  /// Whole-cache entry bound, split evenly across shards (per-shard LRU).
  std::size_t max_entries = std::size_t{1} << 18;
  /// Whole-cache resident-byte bound (entries are fixed-cost, so this is
  /// an alternative expression of max_entries; the tighter bound wins).
  std::size_t max_bytes = std::size_t{32} << 20;
  /// How many published versions stay resolvable at once. A snapshot
  /// pinned past the cap (or never registered) misses through and
  /// recomputes — never a wrong answer (DESIGN.md §4.2).
  std::size_t version_cap = 8;
};

/// Knobs for ModelSnapshot::build.
struct ServingOptions {
  /// Build a resident per-block EffResEngine (block-local approximate ER
  /// fast path; see QueryFrontEnd RouteMode::kLocalApprox).
  bool build_block_engines = true;
  /// Ignored: every snapshot factors the whole stitched system, the only
  /// exact path. Kept so existing configuration code still compiles.
  bool build_monolithic_factor = true;
  /// Backend of the per-block engines (kApproxChol or kExact; a
  /// kRandomProjection request falls back to kApproxChol, whose build cost
  /// profile fits resident serving state better than k PCG solves).
  ErBackend engine_backend = ErBackend::kApproxChol;
  /// Alg. 3 parameters of the per-block engines.
  real_t engine_droptol = 1e-3;
  real_t engine_epsilon = 1e-3;
  /// Result-cache configuration (serve/result_cache.hpp). Only consulted
  /// by the deployment code that constructs the cache — ModelSnapshot
  /// itself never touches it.
  ResultCacheOptions cache;
};

/// Resident serving state of one partition block: its block-local ER
/// engine. Built from the block's own reduction output only, so a block
/// untouched by an incremental update contributes an identical engine to
/// the next snapshot, and ModelSnapshot::rebuild aliases the previous
/// snapshot's shared_ptr instead of rebuilding it (DESIGN.md §4.1). The
/// artifact exists for every block, so its pointer identity is the
/// copy-on-write unit even when the engine is null.
struct BlockArtifact {
  std::unique_ptr<EffResEngine> engine;  ///< block-local ER (may be null)
};

/// Read-only serving state for one published model version. Every method is
/// const and thread-safe; per-query scratch lives in a caller-owned
/// Workspace so concurrent callers never share mutable state.
class ModelSnapshot {
 public:
  /// Per-caller scratch for the solve path. Reuse one instance across the
  /// queries of a chunk; never share one across threads.
  struct Workspace {
    std::vector<real_t> rhs;  ///< right-hand side, solved in place
  };

  /// Build a snapshot that *aliases* a frozen stitched model version
  /// (`blocks` indexed like model->block_kept): no model bytes are copied,
  /// the snapshot just pins `model`. The model must never be mutated after
  /// this call (the pipeline's ModelPtr producers guarantee that by
  /// construction). `pool` (optional) parallelizes the per-block engine
  /// construction; the snapshot contents are identical at any thread
  /// count. Throws std::runtime_error if the stitched system is not SPD (a
  /// connected component without any shunt).
  static std::shared_ptr<const ModelSnapshot> build(
      const std::vector<BlockReduced>& blocks, ModelPtr model,
      const ServingOptions& opts = {}, ThreadPool* pool = nullptr,
      std::uint64_t version = 0);

  /// Convenience overload over the whole artifacts bundle (aliases
  /// artifacts.model).
  static std::shared_ptr<const ModelSnapshot> build(
      const ReductionArtifacts& artifacts, const ServingOptions& opts = {},
      ThreadPool* pool = nullptr, std::uint64_t version = 0);

  /// Dirty-only rebuild: construct the snapshot of the updated model while
  /// *reusing* (aliasing) the previous snapshot's BlockArtifact of every
  /// block not listed in `dirty_blocks` — only the dirty blocks' engines
  /// are rebuilt. The factor of G is global state and is refactored by
  /// every publish. Serving options are inherited from `previous` so the
  /// shared artifacts stay homogeneous.
  ///
  /// Caller contract (same as IncrementalReducer::update): `blocks`/`model`
  /// must differ from the inputs of `previous` only in the listed dirty
  /// blocks. The result is then bit-identical to a full build(blocks,
  /// model, ...) — see DESIGN.md §4.1 for the argument.
  static std::shared_ptr<const ModelSnapshot> rebuild(
      const ModelSnapshot& previous, const std::vector<BlockReduced>& blocks,
      ModelPtr model, const std::vector<index_t>& dirty_blocks,
      ThreadPool* pool = nullptr, std::uint64_t version = 0);

  /// The stitched model the answers refer to.
  [[nodiscard]] const ReducedModel& model() const { return *model_; }

  /// Shared handle of the stitched model — the same object the producer
  /// froze (&*shared_model() == &model()); holding it pins the model
  /// version beyond the snapshot.
  [[nodiscard]] ModelPtr shared_model() const { return model_; }

  /// Publisher-assigned version (IncrementalReducer: its revision count).
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// The options this snapshot was built with (rebuild inherits them).
  [[nodiscard]] const ServingOptions& options() const { return opts_; }

  [[nodiscard]] index_t num_blocks() const {
    return static_cast<index_t>(blocks_.size());
  }
  /// Reduced nodes incident to an inter-block edge — a model-shape figure
  /// (how much of the model the partition cut touches).
  [[nodiscard]] index_t num_boundary_nodes() const {
    return num_boundary_nodes_;
  }
  [[nodiscard]] double build_seconds() const { return build_seconds_; }

  /// Blocks whose artifact was aliased from the previous snapshot (always 0
  /// for a full build).
  [[nodiscard]] index_t reused_blocks() const { return reused_blocks_; }
  /// Blocks whose artifact was (re)built by this build.
  [[nodiscard]] index_t rebuilt_blocks() const {
    return num_blocks() - reused_blocks_;
  }

  /// Bytes of new serving state this build created: the factor of G.
  /// Resident engines are opaque (no footprint API) and excluded; the
  /// model is aliased, never copied.
  [[nodiscard]] std::size_t bytes_materialized() const {
    return factor_.footprint_bytes();
  }

  /// Original node id -> reduced id, or -1 if the node was eliminated (or
  /// out of range).
  [[nodiscard]] index_t reduced_id(index_t original) const;

  /// Partition block owning a reduced node.
  [[nodiscard]] index_t block_of_reduced(index_t reduced) const {
    return block_of_reduced_[static_cast<std::size_t>(reduced)];
  }
  /// True when the reduced node is incident to an inter-block edge.
  [[nodiscard]] bool is_boundary(index_t reduced) const {
    return boundary_[static_cast<std::size_t>(reduced)] != 0;
  }

  /// Resident block-local ER engine, or null when the block has none
  /// (engines disabled, or the block is empty / edgeless).
  [[nodiscard]] const EffResEngine* block_engine(index_t block) const {
    return blocks_[static_cast<std::size_t>(block)]->engine.get();
  }
  /// Reduced id -> local node id inside its block's engine graph.
  [[nodiscard]] index_t block_local_id(index_t reduced) const {
    return block_local_[static_cast<std::size_t>(reduced)];
  }

  /// Identity of a block's resident artifact — the copy-on-write unit.
  /// Two snapshots returning the same pointer for block b share that
  /// block's engine, which is what lets the ResultCache's publish hook
  /// carry clean-block entries across versions by pointer comparison
  /// (DESIGN.md §4.2). Valid only while the snapshot is alive.
  [[nodiscard]] const BlockArtifact* block_artifact(index_t block) const {
    return blocks_[static_cast<std::size_t>(block)].get();
  }

  // Exact query path (one factor of G) — reduced node ids.

  /// Port response Z(p, q) = e_q^T G^{-1} e_p: voltage-drop response at q
  /// to a unit current injected at p.
  [[nodiscard]] real_t response(index_t p, index_t q, Workspace& ws) const;
  /// Effective resistance (e_p - e_q)^T G^{-1} (e_p - e_q) of the stitched
  /// system (shunts included — the pad-grounded impedance, not the
  /// shunt-free graph ER).
  [[nodiscard]] real_t resistance(index_t p, index_t q, Workspace& ws) const;

 private:
  ModelSnapshot() = default;

  /// Shared implementation of build/rebuild: `previous`/`clean` select
  /// artifact reuse (both null for a full build; clean[b] != 0 marks a
  /// block whose previous artifact may be aliased).
  static std::shared_ptr<const ModelSnapshot> build_impl(
      const std::vector<BlockReduced>& blocks, ModelPtr model,
      const ServingOptions& opts, ThreadPool* pool, std::uint64_t version,
      const ModelSnapshot* previous, const std::vector<char>* clean);

  ModelPtr model_;
  std::uint64_t version_ = 0;
  ServingOptions opts_;
  double build_seconds_ = 0.0;
  index_t reused_blocks_ = 0;
  index_t num_boundary_nodes_ = 0;

  std::vector<index_t> block_of_reduced_;  // reduced -> block
  std::vector<index_t> block_local_;       // reduced -> engine-local id
  std::vector<char> boundary_;             // reduced -> incident to a cut edge
  std::vector<std::shared_ptr<const BlockArtifact>> blocks_;
  CholFactor factor_;  // Cholesky factor of G
};

}  // namespace er
