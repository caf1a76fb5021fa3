// er_perfbench: the serving benchmark. Sets up the whole daemon core
// in-process (ServingStack + Server on an ephemeral loopback port), drives
// one named workload through LoopbackClient connections for a fixed
// window, checks the answers, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around the benchmark's calls into each layer and
// reports the per-layer metrics instead.
//
// usage: er_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out PATH]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "pg/incremental.hpp"
#include "spans.hpp"
#include "workload.hpp"

using namespace er;
using namespace perfbench;

namespace {

struct Args {
  Workload workload = Workload::kExactUniform;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload exact_uniform|zipf_churn|local_approx "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               prog);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      if (!parse_workload(v, &a.workload)) usage(argv[0]);
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) usage(argv[0]);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(a.seconds > 0.0) || a.seconds > 120.0)
        usage(argv[0]);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage(argv[0]);
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload) usage(argv[0]);
  return a;
}

double since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

std::vector<double> concat(const std::vector<ClientStats>& clients,
                           std::vector<double> ClientStats::*field) {
  std::vector<double> out;
  for (const ClientStats& c : clients)
    out.insert(out.end(), (c.*field).begin(), (c.*field).end());
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_metrics(const char* heading, const Metrics& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics)
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  // JSON has no NaN or infinity; a non-finite figure (a served answer that
  // was not finite) always comes with a failed gate, and prints as -1.
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : -1.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

void write_trace(const std::string& path, const SpanLog& log) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const perfbench::Span& s : log.spans())
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  for (const auto& [name, t] : log.self_times())
    out << "{\"self_time\": \"" << name << "\", \"count\": " << t.count
        << ", \"total_s\": " << t.total_s << ", \"self_s\": " << t.self_s
        << "}\n";
  if (!out) std::fprintf(stderr, "could not write trace file %s\n", path.c_str());
}

int run(const Args& args) {
  const Grid grid = make_grid();
  std::printf("workload %s seed %llu window %.1fs trace %d\n",
              to_string(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // ---- setup. The first deployment serves the workload; the remaining
  // setups run after it is torn down, so their transients stay out of
  // peak_rss_mb.
  std::vector<double> setup_s;
  auto d = deploy(grid);
  setup_s.push_back(d->setup_s);
  net::ServingStack& stack = *d->stack;
  const int port = d->server->port();
  const SnapshotPtr snap0 = stack.store().acquire();
  const Traffic traffic(args.workload, grid, *snap0);
  const index_t blocks = stack.structure().num_blocks;
  const bool churn = args.workload == Workload::kZipfChurn;

  // ---- measured window
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot reg0 = d->registry->snapshot();
  const obs::MetricsSnapshot glob0 = global.snapshot();
  const auto origin = Clock::now() + std::chrono::milliseconds(50);
  // Under churn, replayed replies come from the last quarter of the window
  // only, so the pinned old versions differ from the live one by a few
  // blocks and add little memory.
  SnapshotKeeper keeper(&stack.store(), churn ? 0.75 * args.seconds : 0.0,
                        args.seconds);
  std::vector<ClientStats> clients(kClients);
  std::vector<SpanBuffer> client_spans(kClients, SpanBuffer(args.trace));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      try {
        run_query_client(port, traffic, args.seed, c, origin, args.seconds,
                         churn ? 1.0 / kZipfRequestsPerSecond : 0.0, &keeper,
                         client_spans[static_cast<std::size_t>(c)],
                         clients[static_cast<std::size_t>(c)]);
      } catch (const std::exception&) {
        ++clients[static_cast<std::size_t>(c)].errors;
      }
    });
  FeedStats feed;
  std::thread feeder;
  if (churn) {
    const auto schedule =
        make_schedule(args.seed, kChurnModsPerSecond, args.seconds, blocks);
    feeder = std::thread([&, schedule] {
      run_mod_feed(port, schedule, origin, feed);
    });
  }
  std::atomic<bool> window_open{true};
  std::int64_t queue_depth_max = 0;
  std::thread depth_sampler;
  if (args.trace) {
    obs::Gauge& depth =
        d->registry->gauge("er_net_queue_depth", {{"queue", "queries"}});
    depth_sampler = std::thread([&] {
      while (window_open.load()) {
        queue_depth_max = std::max(queue_depth_max, depth.value());
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  window_open = false;
  if (depth_sampler.joinable()) depth_sampler.join();
  const obs::MetricsSnapshot reg1 = d->registry->snapshot();

  // ---- publish observation: under churn, until the window's mods are all
  // visible; otherwise a probe of mods, one at a time, after the window.
  ClientStats poller;
  bool poll_ok = true;
  try {
    if (churn) {
      feeder.join();
      poll_ok = poll_until_reflected(port, stack.updater(), grid.ports,
                                     origin, feed.accepted.size(), 60.0,
                                     poller);
    } else {
      poll_ok = run_publish_probe(
          port, stack.updater(),
          make_probe_schedule(args.seed, blocks),
          grid.ports, origin, 60.0, feed, poller);
    }
  } catch (const std::exception&) {
    ++poller.errors;
    poll_ok = false;
  }
  stack.flush();
  const obs::MetricsSnapshot reg2 = d->registry->snapshot();
  const obs::MetricsSnapshot glob2 = global.snapshot();
  const double serving_s = since(origin);  // window + publish phase
  const double rss_mb = peak_rss_mb();

  // ---- end-to-end figures
  std::vector<const ClientStats*> observers{&poller};
  if (churn)
    for (const ClientStats& c : clients) observers.push_back(&c);
  std::size_t unreflected = 0;
  const std::vector<double> publish_s = publish_latencies(
      stack.updater(), feed.accepted, observers, &unreflected);
  std::uint64_t sent = poller.sent, failed = 0;
  std::uint64_t answered = poller.answered, retry = poller.retry_later;
  failed += poller.retry_later + poller.errors + poller.nan_answers;
  for (const ClientStats& c : clients) {
    sent += c.sent;
    answered += c.answered;
    retry += c.retry_later;
    failed += c.retry_later + c.errors + c.nan_answers;
  }
  failed += feed.retry_later + feed.errors + unreflected + (poll_ok ? 0 : 1);
  const std::uint64_t attempted = sent + feed.attempts;
  const std::vector<double> latency = concat(clients, &ClientStats::latency_s);
  // Throughput of each of kQpsChunks consecutive runs of replies; qps is
  // their median, so a short stall of the machine moves it less than a
  // whole-window mean would.
  std::vector<double> done;
  for (const ClientStats& c : clients)
    for (const Reply& r : c.replies) done.push_back(r.t);
  std::sort(done.begin(), done.end());
  constexpr std::size_t kQpsChunks = 25;
  std::vector<double> chunk_qps;
  for (std::size_t j = 0, prev = 0; j < kQpsChunks && !done.empty(); ++j) {
    const std::size_t end = (j + 1) * done.size() / kQpsChunks;
    if (end <= prev) continue;
    const double start_t = prev ? done[prev - 1] : 0.0;
    chunk_qps.push_back(ratio(static_cast<double>((end - prev) *
                                                  kQueriesPerRequest),
                              done[end - 1] - start_t));
    prev = end;
  }

  // ---- correctness gate
  bool correct = true;
  auto fail = [&](const char* what) {
    std::printf("CORRECTNESS FAILURE: %s\n", what);
    correct = false;
  };
  std::vector<ReplaySample> samples;
  for (ClientStats& c : clients)
    for (ReplaySample& s : c.samples) samples.push_back(std::move(s));
  SpanBuffer replay_spans(args.trace);
  ReplayTiming timing;
  const std::size_t mismatches =
      replay_samples(samples, replay_spans, args.trace ? &timing : nullptr);
  if (samples.empty()) fail("no wire reply was sampled for replay");
  if (mismatches) fail("a replayed reply differs from its wire answer");

  // Accuracy of what the window served: under churn the final version
  // against the cumulative grid, otherwise the initial version against the
  // grid as generated (the probe's mods came after the window).
  ConductanceNetwork grid_now = grid.net;
  for (const ScheduledMod& m : churn ? feed.accepted
                                     : std::vector<ScheduledMod>{}) {
    GridModification gm;
    gm.dirty_blocks = m.mod.dirty_blocks;
    gm.resistance_scale = m.mod.resistance_scale;
    grid_now = apply_modification(grid_now, stack.structure(), gm);
  }
  const SnapshotPtr final_snap = stack.store().acquire();
  const Accuracy acc = measure_accuracy(
      grid_now, churn ? *final_snap : *snap0, traffic.accuracy_sample());
  const double err_bound = args.workload == Workload::kLocalApprox
                               ? kApproxTierErrBound
                               : kExactTierErrBound;
  if (acc.pairs == 0 || !(acc.max <= err_bound))
    fail("served ER is outside the accuracy bound against the unreduced grid");

  const std::uint64_t srv_queries = counter_delta(
      {}, reg2, "er_net_requests_total", {{"opcode", "er_batch"}});
  const std::uint64_t srv_mods = counter_delta(
      {}, reg2, "er_net_requests_total", {{"opcode", "submit_mods"}});
  const std::uint64_t srv_rejected =
      counter_delta({}, reg2, "er_net_rejected_total");
  if (srv_queries != answered)
    fail("er_net_requests_total{er_batch} != requests answered");
  if (srv_rejected != retry + feed.retry_later)
    fail("er_net_rejected_total != RETRY_LATER replies seen");
  if (srv_mods < feed.accepted.size() ||
      srv_mods > feed.accepted.size() + feed.retry_later)
    fail("er_net_requests_total{submit_mods} disagrees with the mod feed");
  if (stack.mods_accepted() != feed.accepted.size())
    fail("the stack accepted a different number of mods than were acked");
  if (failed) fail("operations failed");
  // The tails rest on few samples when a run is short: say so.
  if (latency.size() < 100)
    std::printf("note: latency_p90_ms rests on %zu requests (< 10 beyond)\n",
                latency.size());
  if (publish_s.size() < 100)
    std::printf("note: publish_p90_ms rests on %zu mods (< 10 beyond)\n",
                publish_s.size());

  // ---- base shares of the window (what a repetition- or locality-based
  // gain could exploit)
  const double hits = static_cast<double>(
      counter_delta(reg0, reg1, "er_cache_hits_total"));
  const double misses = static_cast<double>(
      counter_delta(reg0, reg1, "er_cache_misses_total"));
  const obs::Labels sharded{{"mode", "sharded"}};
  const double served = static_cast<double>(
      counter_delta(reg0, reg1, "er_serve_queries_total", sharded));
  const double same_block = static_cast<double>(
      counter_delta(reg0, reg1, "er_serve_same_block_queries_total", sharded));
  const double hedges = static_cast<double>(
      counter_delta(reg0, reg1, "er_policy_hedges_total",
                    {{"winner", "local-approx"}}) +
      counter_delta(reg0, reg1, "er_policy_hedges_total",
                    {{"winner", "sharded"}}));
  std::printf("base shares: cache_hit_rate %.4f same_block_share %.4f "
              "hedged_share %.4f (over %.0f queries)\n",
              ratio(hits, hits + misses), ratio(same_block, served),
              ratio(hedges, served), served);
  std::printf("fail_frac %.6g ratio (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("samples: %zu requests, %zu publishes, %zu replayed replies, "
              "%zu accuracy pairs\n",
              latency.size(), publish_s.size(), samples.size(), acc.pairs);

  d.reset();
  for (int i = 1; i < kSetupRepeats; ++i) setup_s.push_back(deploy(grid)->setup_s);

  Metrics e2e;
  e2e.push_back({"qps", median(chunk_qps), "queries/s"});
  e2e.push_back({"latency_p50_ms", quantile(latency, 0.50) * 1e3, "ms"});
  // The tail is p90, not p99 or p95: on a shared 4-core VM short bursts of
  // interference from other tenants set the far tail, and between runs of
  // the same code the p99 of a 30 s window swung by 25-33% and the p95 by
  // up to 30%, more than any usable regression bound.
  e2e.push_back({"latency_p90_ms", quantile(latency, 0.90) * 1e3, "ms"});
  e2e.push_back({"publish_p50_ms", quantile(publish_s, 0.50) * 1e3, "ms"});
  e2e.push_back({"publish_p90_ms", quantile(publish_s, 0.90) * 1e3, "ms"});
  e2e.push_back({"er_rel_err_mean", acc.mean, "ratio"});
  e2e.push_back({"er_rel_err_max", acc.max, "ratio"});
  e2e.push_back({"peak_rss_mb", rss_mb, "MB"});
  e2e.push_back({"setup_s", median(setup_s), "s"});

  if (!args.trace) {
    print_metrics("end-to-end:", e2e);
    print_result(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  // ---- traced run: per-layer figures
  Metrics layer;
  SpanLog log;
  for (const SpanBuffer& b : client_spans) log.merge(b);
  log.merge(replay_spans);
  const std::vector<double> encode = concat(clients, &ClientStats::encode_s);
  const std::vector<double> decode = concat(clients, &ClientStats::decode_s);
  const std::vector<double> rtt = concat(clients, &ClientStats::rtt_s);
  const obs::Labels er_batch{{"opcode", "er_batch"}};
  const obs::HistogramSnapshot srv =
      histogram_delta(reg0, reg1, "er_net_request_latency_seconds", er_batch);
  double rtt_sum = 0.0;
  for (double r : rtt) rtt_sum += r;
  layer.push_back({"net.encode_us", median(encode) * 1e6, "us"});
  layer.push_back({"net.decode_us", median(decode) * 1e6, "us"});
  layer.push_back({"net.server_p50_us", srv.quantile(0.50) * 1e6, "us"});
  layer.push_back({"net.server_p99_us", srv.quantile(0.99) * 1e6, "us"});
  layer.push_back({"net.wire_mean_us",
                   (ratio(rtt_sum, static_cast<double>(rtt.size())) -
                    srv.mean()) * 1e6,
                   "us"});
  layer.push_back({"net.retry_later",
                   static_cast<double>(counter_delta(reg0, reg2,
                                                     "er_net_rejected_total")),
                   "count"});
  layer.push_back({"net.queue_depth_max", static_cast<double>(queue_depth_max),
                   "count"});

  const BatchStats& t = timing.totals;
  const double replayed = static_cast<double>(t.queries);
  layer.push_back({"frontend.batch_us_p50", quantile(timing.batch_s, 0.50) * 1e6,
                   "us"});
  layer.push_back({"frontend.batch_us_p99", quantile(timing.batch_s, 0.99) * 1e6,
                   "us"});
  layer.push_back({"frontend.cross_block_share",
                   ratio(static_cast<double>(t.cross_block), replayed),
                   "ratio"});
  layer.push_back({"frontend.engine_share",
                   ratio(static_cast<double>(t.engine_answered), replayed),
                   "ratio"});
  layer.push_back({"frontend.hedged_share",
                   ratio(static_cast<double>(t.hedged), replayed), "ratio"});
  layer.push_back({"frontend.hedge_engine_win_share",
                   ratio(static_cast<double>(t.hedge_won_engine),
                         static_cast<double>(t.hedged)),
                   "ratio"});

  layer.push_back({"snapshot.resistance_us_p50",
                   quantile(timing.resistance_s, 0.50) * 1e6, "us"});
  layer.push_back({"snapshot.resistance_us_p99",
                   quantile(timing.resistance_s, 0.99) * 1e6, "us"});
  layer.push_back({"snapshot.response_us_p50",
                   quantile(timing.response_s, 0.50) * 1e6, "us"});
  layer.push_back({"snapshot.boundary_share",
                   ratio(final_snap->num_boundary_nodes(),
                         static_cast<double>(
                             final_snap->model().network.num_nodes())),
                   "ratio"});

  const obs::HistogramSnapshot hit_lat =
      histogram_delta(reg0, reg1, "er_cache_hit_latency_seconds");
  const double publishes = static_cast<double>(
      counter_delta(reg0, reg2, "er_store_publishes_total"));
  layer.push_back({"cache.hit_rate", ratio(hits, hits + misses), "ratio"});
  layer.push_back({"cache.invalidations_per_publish",
                   ratio(static_cast<double>(counter_delta(
                             reg0, reg2, "er_cache_invalidations_total")),
                         publishes),
                   "count"});
  layer.push_back({"cache.hit_us", hit_lat.mean() * 1e6, "us"});

  const obs::HistogramSnapshot upd =
      histogram_delta(reg0, reg2, "er_updater_publish_latency_seconds");
  layer.push_back({"updater.publish_ms_p50", upd.quantile(0.50) * 1e3, "ms"});
  layer.push_back({"updater.coalesced_share",
                   ratio(static_cast<double>(counter_delta(
                             reg0, reg2, "er_updater_mods_coalesced_total")),
                         static_cast<double>(counter_delta(
                             reg0, reg2, "er_updater_mods_submitted_total"))),
                   "ratio"});
  layer.push_back({"updater.blocked_submits",
                   static_cast<double>(counter_delta(
                       reg0, reg2, "er_updater_blocked_submits_total")),
                   "count"});

  // The reducer's pool records into the global registry; its figures span
  // the window plus the publish phase after it.
  const obs::HistogramSnapshot pool_wait =
      histogram_delta(glob0, glob2, "er_pool_task_queue_wait_seconds");
  const obs::MetricSnapshot* pool_threads = glob2.find("er_pool_threads");
  const double pool_busy_s = static_cast<double>(counter_delta(
                                 glob0, glob2, "er_pool_busy_us_total")) *
                             1e-6;
  layer.push_back({"pool.queue_wait_us_p50", pool_wait.quantile(0.50) * 1e6,
                   "us"});
  layer.push_back(
      {"pool.busy_share",
       ratio(pool_busy_s,
             serving_s * static_cast<double>(pool_threads ? pool_threads->gauge
                                                        : 1)),
       "ratio"});

  layer.push_back({"bench.gen_late_ms_max", feed.late_max_s * 1e3, "ms"});

  probe_setup_layers(grid, log, layer);
  const ChurnProbe churn_probe =
      probe_churn_layers(grid, args.seed, log, layer);
  probe_engine_query(*final_snap, traffic, layer);

  // The splits each workload was chosen for. First, the share of the
  // client's request time the server spent inside the front end (routing,
  // cache, kernels), from exact sums of er_query_batch_seconds.
  const obs::HistogramSnapshot fe_batch =
      histogram_delta(reg0, reg1, "er_query_batch_seconds", sharded);
  double latency_sum = 0.0;
  for (double l : latency) latency_sum += l;
  layer.push_back(
      {"trace.compute_share",
       ratio(fe_batch.mean(),
             ratio(latency_sum, static_cast<double>(latency.size()))),
       "ratio"});
  // Reducer work per published batch as the live stack did it (its stage
  // spans and publish histogram, global registry): update + snapshot
  // rebuild under the run's own contention, against publish_p50_ms.
  double live_work_s =
      histogram_delta(glob0, glob2, "er_reducer_publish_seconds").sum;
  for (const char* stage : {"partition", "reduce", "stitch", "stitch_update"})
    live_work_s +=
        histogram_delta(glob0, glob2, "er_span_seconds", {{"stage", stage}})
            .sum;
  live_work_s = ratio(live_work_s,
                      static_cast<double>(counter_delta(
                          reg0, reg2, "er_updater_batches_total")));
  layer.push_back({"trace.publish_work_ms", live_work_s * 1e3, "ms"});
  layer.push_back({"trace.publish_work_share",
                   ratio(live_work_s, quantile(publish_s, 0.50)), "ratio"});
  layer.push_back({"trace.idle_publish_work_share",
                   ratio(churn_probe.update_s + churn_probe.rebuild_s,
                         quantile(publish_s, 0.50)),
                   "ratio"});
  layer.push_back({"trace.qps", e2e[0].value, "queries/s"});
  layer.push_back({"trace.latency_p50_ms", e2e[1].value, "ms"});
  layer.push_back({"trace.spans", static_cast<double>(log.spans().size()),
                   "count"});

  std::printf("self time by span (traced run):\n");
  for (const auto& [name, st] : log.self_times())
    std::printf("  %-24s n=%-7llu total %10.4fs self %10.4fs\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.total_s,
                st.self_s);
  print_metrics("end-to-end (traced run, for the tracing overhead):", e2e);
  print_metrics("per-layer:", layer);
  write_trace(args.trace_out, log);
  print_result(correct, attempted, failed, layer);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "er_perfbench: %s\n", e.what());
    return 1;
  }
}
