// Per-layer probes of the traced run: the benchmark times its own calls
// into each layer's public functions (partition, block reduction, stitch,
// snapshot build, Cholesky, block engines, incremental update, snapshot
// rebuild), and reads deltas of the series the program exports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/snapshot.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Linear-interpolated quantile of a sample (0 for an empty one).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Counter growth between two registry snapshots (0 when absent).
std::uint64_t counter_delta(const er::obs::MetricsSnapshot& before,
                            const er::obs::MetricsSnapshot& after,
                            const std::string& name,
                            const er::obs::Labels& labels = {});
/// Histogram of the samples recorded between two snapshots.
er::obs::HistogramSnapshot histogram_delta(
    const er::obs::MetricsSnapshot& before,
    const er::obs::MetricsSnapshot& after, const std::string& name,
    const er::obs::Labels& labels = {});

/// Alg. 1 stage by stage (partition -> blocks -> stitch -> snapshot.build),
/// then a Cholesky factor of the reduced model's grounded Laplacian and
/// the per-block engine builds. Adds partition.s, reduction.*_s,
/// snapshot.build_s, chol.factor_s, chol.factor_nnz, effres.engine_build_s.
void probe_setup_layers(const Grid& grid, SpanLog& log, Metrics& out);

struct ChurnProbe {
  double update_s = 0.0;   ///< median IncrementalReducer::update
  double rebuild_s = 0.0;  ///< median one-block ModelSnapshot::rebuild
};
/// One-block modifications on a twin reducer: update then rebuild. Adds
/// reduction.update_s and the snapshot.rebuild_* figures.
ChurnProbe probe_churn_layers(const Grid& grid, std::uint64_t seed,
                              SpanLog& log, Metrics& out);

/// Mean cost of one block_engine(b)->resistance call on same-block interior
/// pairs. Adds effres.engine_query_us.
void probe_engine_query(const er::ModelSnapshot& snap, const Traffic& traffic,
                        Metrics& out);

}  // namespace perfbench
