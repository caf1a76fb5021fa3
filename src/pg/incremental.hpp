/// \file
/// DC incremental analysis (paper Table II lower half).
///
/// Design iterations modify a small fraction of the grid (the paper models
/// this as 10% of partition blocks changing). The reduction-based flow
/// caches per-block reductions; after a modification only the dirty blocks
/// are re-reduced and the model re-stitched, making the incremental
/// reduction cost ~10% of a full reduction. With a ModelStore attached,
/// every re-stitch also publishes an immutable serving snapshot as a
/// dirty-only rebuild — clean blocks share the previous snapshot's resident
/// engines (DESIGN.md §4, §4.1). To run updates off the
/// serving threads, drive the reducer through serve/AsyncUpdater
/// (docs/serving_guide.md).
#pragma once

#include <memory>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "pg/power_grid.hpp"
#include "reduction/pipeline.hpp"
#include "serve/model_store.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace er {

/// A grid modification: resistances of all segments whose *both* endpoints
/// lie in a modified block are scaled by `resistance_scale`.
struct GridModification {
  std::vector<index_t> dirty_blocks;  ///< blocks whose segments change
  real_t resistance_scale = 1.2;      ///< R multiplier inside dirty blocks
};

/// Pick `fraction` of the blocks uniformly at random (at least one).
/// Selection is per-block (each block's priority is hash(seed, block)), so
/// the chosen set is reproducible independent of block enumeration order.
GridModification random_modification(index_t num_blocks, real_t fraction,
                                     real_t resistance_scale,
                                     std::uint64_t seed);

/// Apply the modification to a network under a fixed block structure.
ConductanceNetwork apply_modification(const ConductanceNetwork& net,
                                      const BlockStructure& structure,
                                      const GridModification& mod);

/// Caches the block structure and per-block reductions of a grid so that a
/// modification triggers work only on dirty blocks.
///
/// Observability (DESIGN.md §6): the reducer records into the *global*
/// registry — `er_reducer_publish_seconds` per publish, the copy-on-write
/// reuse counters `er_stitch_blocks_total` / `er_stitch_blocks_reused_total`
/// per update — and emits `partition` / `reduce` / `publish` trace spans
/// (plus the per-block spans of reduce_block). Reducers are long-lived and
/// one-per-grid, so global aggregation is the useful view; none of it feeds
/// back into the model bytes (the §3 determinism contract).
class IncrementalReducer {
 public:
  /// Runs the full initial reduction of `net` and primes the per-block
  /// cache; `initial_seconds()` reports its cost.
  IncrementalReducer(const ConductanceNetwork& net,
                     const std::vector<char>& is_port,
                     const ReductionOptions& opts);

  /// The current stitched model version (the full initial reduction until
  /// the first update).
  const ReducedModel& model() const { return *model_; }
  /// Shared handle of the current model version. Every version is frozen
  /// at the end of the constructor/update() that built it and never
  /// mutated afterwards — update() builds the *next* version copy-on-write
  /// into a fresh allocation (stitch_blocks_update) — so snapshots and any
  /// other holder alias it safely for as long as they keep the pointer
  /// (the zero-copy publish of DESIGN.md §4.1).
  ModelPtr shared_model() const { return model_; }
  const BlockStructure& structure() const { return structure_; }
  /// Cached per-block reductions (the serving snapshot inputs).
  const std::vector<BlockReduced>& blocks() const { return blocks_; }

  /// Re-reduce only the dirty blocks against the modified network and
  /// re-stitch. Returns the updated model; update_seconds() reports the
  /// incremental reduction time (the paper's incremental T_red).
  ///
  /// When a ModelStore is attached, the updated model is published to it as
  /// a fresh immutable snapshot *after* the stitch completes — in-flight
  /// query batches keep answering against the snapshot they pinned, and
  /// only batches started after the publish see the new model (the publish
  /// protocol of DESIGN.md §4). The published snapshot is a *dirty-only
  /// rebuild* (ModelSnapshot::rebuild): clean blocks share the previous
  /// snapshot's resident engines, only the dirty engines are rebuilt, and
  /// the stitched system is refactored — bit-identical to a full rebuild
  /// (DESIGN.md §4.1).
  ///
  /// Thread-safety: external synchronization per reducer, like every other
  /// method — AsyncUpdater is the supported way to run update() off the
  /// caller's thread while queries keep hitting the store (DESIGN.md §4.1).
  const ReducedModel& update(const ConductanceNetwork& modified,
                             const std::vector<index_t>& dirty_blocks);

  /// Serve this reducer's models through `store` (see DESIGN.md §4): the
  /// current model is published immediately under the current revision
  /// number (0 for a freshly constructed reducer; each update() bumps the
  /// revision whether or not a store is attached, so a version number is
  /// never reused for a different model), and every subsequent update()
  /// publishes the next revision. `store` must outlive the reducer (or a
  /// detach_store() call). Snapshot build time is reported by
  /// publish_seconds() and is *not* counted into update_seconds(), keeping
  /// the paper's incremental T_red comparable.
  void attach_store(ModelStore* store, const ServingOptions& opts = {});
  /// Stop publishing (and drop the cached last-published snapshot a future
  /// re-attach would otherwise rebuild against).
  void detach_store() {
    store_ = nullptr;
    last_published_.reset();
  }

  /// Model revision counter: 0 after construction, +1 per update(). The
  /// version number of the snapshot a publish at this state would carry.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  [[nodiscard]] double initial_seconds() const { return initial_seconds_; }
  [[nodiscard]] double update_seconds() const { return update_seconds_; }
  /// Snapshot build + publish time of the most recent publish (0 if no
  /// store is attached).
  [[nodiscard]] double publish_seconds() const { return publish_seconds_; }

  /// Bytes of serving state the most recent publish materialized (0 until
  /// one happens; see ModelSnapshot::bytes_materialized).
  [[nodiscard]] std::size_t publish_bytes_materialized() const {
    return publish_bytes_materialized_;
  }

 private:
  /// Build + publish the snapshot of the current model. `dirty` (the
  /// deduplicated dirty set of the update that triggered the publish)
  /// selects the dirty-only rebuild path; null forces a full build (the
  /// initial attach).
  void publish_current(const std::vector<index_t>* dirty);

  std::vector<char> is_port_;
  ReductionOptions opts_;
  /// Kept across updates so repeated incremental re-reductions reuse the
  /// same workers (created only when opts.parallel asks for > 1 thread).
  std::unique_ptr<ThreadPool> pool_;
  /// Freeze `next` as the new current model version (warming the graph's
  /// lazy CSR cache first so concurrent readers of the shared version never
  /// race on it).
  void set_model(ReducedModel&& next);

  BlockStructure structure_;
  std::vector<BlockReduced> blocks_;
  /// Current model version, shared with (aliased by) published snapshots.
  ModelPtr model_;
  /// Whether model_ was stitched from the current blocks_ state — false
  /// inside update()'s mutation window, so a *failed* update disarms the
  /// copy-on-write stitch of the next one (blocks_ may be partially
  /// rewritten; the recovery update full-stitches from blocks_ alone).
  bool model_matches_blocks_ = true;
  ModelStore* store_ = nullptr;
  ServingOptions serving_opts_;
  /// Most recent published snapshot — the artifact-reuse source of the next
  /// dirty-only rebuild (null when nothing was published yet).
  SnapshotPtr last_published_;
  std::uint64_t revision_ = 0;
  double initial_seconds_ = 0.0;
  double update_seconds_ = 0.0;
  double publish_seconds_ = 0.0;
  std::size_t publish_bytes_materialized_ = 0;
};

}  // namespace er
