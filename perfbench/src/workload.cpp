#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "chol/cholesky.hpp"
#include "net/client.hpp"
#include "pg/generator.hpp"
#include "pg/power_grid.hpp"

namespace perfbench {

using namespace er;

namespace {

double since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

Clock::time_point at(Clock::time_point origin, double s) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
}

/// Fixed seeds: the grid's pair pool and the accuracy sample do not move
/// with --seed, so the accuracy figures of the read-only workloads compare
/// like with like across runs.
constexpr std::uint64_t kPoolSeed = 0x5eed0001;
constexpr std::uint64_t kAccuracySeed = 0x5eed0002;

bool answers_ok(const std::vector<real_t>& answers, std::size_t expected) {
  if (answers.size() != expected) return false;
  for (real_t a : answers)
    if (!std::isfinite(a)) return false;
  return true;
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kExactUniform: return "exact_uniform";
    case Workload::kZipfChurn: return "zipf_churn";
    case Workload::kLocalApprox: return "local_approx";
  }
  return "?";
}

bool parse_workload(const std::string& text, Workload* out) {
  for (Workload w : {Workload::kExactUniform, Workload::kZipfChurn,
                     Workload::kLocalApprox})
    if (text == to_string(w)) {
      *out = w;
      return true;
    }
  return false;
}

Grid make_grid() {
  // ibmpg5-like at the repository's "small" bench scale (size factor
  // 1.3 * 0.5): ~18.3k nodes, 1396 ports.
  const PowerGrid pg = generate_power_grid(ibmpg_like_preset(5, 0.65));
  Grid g;
  g.net = pg.to_network();
  g.is_port = pg.port_mask();
  g.ports = pg.port_nodes();
  return g;
}

net::StackOptions stack_options() {
  net::StackOptions o;
  o.reduction.num_blocks = 32;
  o.reduction.sparsify_quality = 1.0;
  o.reduction.parallel.num_threads = 2;
  // Every workload routes sharded or block-engine: no monolithic factor.
  o.serving.build_monolithic_factor = false;
  return o;
}

net::ServerOptions server_options(obs::MetricsRegistry* registry) {
  net::ServerOptions o;
  o.enable_http = false;
  o.dispatcher_threads = 2;
  o.query_threads = 1;  // answer inline on the dispatcher
  o.registry = registry;
  return o;
}

std::unique_ptr<Deployment> deploy(const Grid& grid) {
  auto d = std::make_unique<Deployment>();
  d->registry = std::make_unique<obs::MetricsRegistry>();
  const auto start = Clock::now();
  d->stack = std::make_unique<net::ServingStack>(grid.net, grid.is_port,
                                                 stack_options(),
                                                 d->registry.get());
  d->server = std::make_unique<net::Server>(
      &d->stack->store(), server_options(d->registry.get()),
      d->stack->mod_fn());
  if (!d->server->start())
    throw std::runtime_error("could not bind a loopback listener");
  d->setup_s = since(start);
  return d;
}

// ------------------------------------------------------------------ traffic

Traffic::Traffic(Workload w, const Grid& grid, const ModelSnapshot& snap)
    : w_(w), ports_(grid.ports) {
  std::vector<std::vector<index_t>> by_block(
      static_cast<std::size_t>(snap.num_blocks()));
  for (index_t p : ports_) {
    const index_t r = snap.reduced_id(p);
    if (r < 0 || snap.is_boundary(r)) continue;
    by_block[static_cast<std::size_t>(snap.block_of_reduced(r))].push_back(p);
  }
  for (index_t b = 0; b < snap.num_blocks(); ++b) {
    auto& group = by_block[static_cast<std::size_t>(b)];
    if (group.size() < 2 || !snap.block_engine(b)) continue;
    interior_groups_.push_back(std::move(group));
    interior_cumulative_.push_back(
        (interior_cumulative_.empty() ? 0 : interior_cumulative_.back()) +
        interior_groups_.back().size());
  }
  if (w_ == Workload::kLocalApprox && interior_groups_.empty())
    throw std::runtime_error("no block holds two interior ports");

  if (w_ == Workload::kZipfChurn) {
    Rng rng(kPoolSeed);
    pool_.reserve(kZipfPoolPairs);
    for (std::size_t i = 0; i < kZipfPoolPairs; ++i) {
      PortQuery q = uniform_pair(rng);
      q.kind = i % 2 == 0 ? QueryKind::kResistance : QueryKind::kResponse;
      pool_.push_back(q);
    }
    double total = 0.0;
    zipf_cdf_.resize(kZipfPoolPairs);
    for (std::size_t k = 0; k < kZipfPoolPairs; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      zipf_cdf_[k] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

PortQuery Traffic::uniform_pair(Rng& rng) const {
  PortQuery q;
  const auto n = static_cast<std::uint64_t>(ports_.size());
  q.p = ports_[static_cast<std::size_t>(rng.uniform_index(n))];
  do {
    q.q = ports_[static_cast<std::size_t>(rng.uniform_index(n))];
  } while (q.q == q.p);
  return q;
}

PortQuery Traffic::same_block_pair(Rng& rng) const {
  // A port drawn uniformly over all eligible interior ports, its partner
  // uniformly from the same block.
  const std::size_t pick = static_cast<std::size_t>(
      rng.uniform_index(interior_cumulative_.back()));
  const auto g = static_cast<std::size_t>(
      std::upper_bound(interior_cumulative_.begin(),
                       interior_cumulative_.end(), pick) -
      interior_cumulative_.begin());
  const auto& group = interior_groups_[g];
  const auto n = static_cast<std::uint64_t>(group.size());
  PortQuery q;
  q.p = group[static_cast<std::size_t>(rng.uniform_index(n))];
  do {
    q.q = group[static_cast<std::size_t>(rng.uniform_index(n))];
  } while (q.q == q.p);
  return q;
}

PortQuery Traffic::draw(Rng& rng, std::size_t slot) const {
  switch (w_) {
    case Workload::kExactUniform: {
      PortQuery q = uniform_pair(rng);
      q.kind = slot % 2 == 0 ? QueryKind::kResistance : QueryKind::kResponse;
      return q;
    }
    case Workload::kZipfChurn: {
      const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                                       rng.uniform());
      const std::size_t rank = std::min<std::size_t>(
          static_cast<std::size_t>(it - zipf_cdf_.begin()),
          zipf_cdf_.size() - 1);
      return pool_[rank];
    }
    case Workload::kLocalApprox: {
      PortQuery q = rng.uniform() < 0.75 ? same_block_pair(rng)
                                         : uniform_pair(rng);
      q.kind = QueryKind::kResistance;
      q.policy.accuracy_tier = AccuracyTier::kApprox;
      q.policy.backend_pref = BackendPref::kAuto;
      q.policy.hedge = rng.uniform() < 0.5;
      return q;
    }
  }
  return {};
}

std::vector<PortQuery> Traffic::request(Rng& rng) const {
  std::vector<PortQuery> batch;
  batch.reserve(kQueriesPerRequest);
  for (std::size_t i = 0; i < kQueriesPerRequest; ++i)
    batch.push_back(draw(rng, i));
  return batch;
}

std::vector<PortQuery> Traffic::accuracy_sample() const {
  Rng rng(kAccuracySeed);
  std::vector<PortQuery> out;
  if (w_ == Workload::kZipfChurn) {
    // The pool's ER pairs, in a fixed shuffled order.
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < pool_.size(); ++i)
      if (pool_[i].kind == QueryKind::kResistance) idx.push_back(i);
    for (std::size_t i = 0; i < kAccuracyPairs && i < idx.size(); ++i) {
      const auto j = i + static_cast<std::size_t>(
                             rng.uniform_index(idx.size() - i));
      std::swap(idx[i], idx[j]);
      out.push_back(pool_[idx[i]]);
    }
    return out;
  }
  for (std::size_t i = 0; out.size() < kAccuracyPairs; ++i) {
    PortQuery q = draw(rng, i);
    if (q.kind == QueryKind::kResistance) out.push_back(q);
  }
  return out;
}

std::vector<std::pair<index_t, index_t>> Traffic::interior_pairs(
    const ModelSnapshot& snap, std::size_t count, std::uint64_t seed) const {
  std::vector<std::pair<index_t, index_t>> out;
  if (interior_groups_.empty()) return out;
  Rng rng(seed);
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const PortQuery q = same_block_pair(rng);
    out.emplace_back(snap.reduced_id(q.p), snap.reduced_id(q.q));
  }
  return out;
}

// ------------------------------------------------------------------ clients

SnapshotPtr SnapshotKeeper::keep(std::uint64_t version, double t) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SnapshotPtr& s : kept_)
    if (s->version() == version) return s;
  // At most one new version per slot of [from_s, until_s) keeps the
  // replayed versions spread over that span.
  if (t < from_s_) return nullptr;
  const auto slot = static_cast<std::size_t>(
      (t - from_s_) / std::max(until_s_ - from_s_, 1e-9) * kSlots);
  if (kept_.size() >= kSlots || kept_.size() > slot) return nullptr;
  SnapshotPtr current = store_->acquire();
  if (!current || current->version() != version) return nullptr;
  kept_.push_back(current);
  return current;
}

void run_query_client(int port, const Traffic& traffic, std::uint64_t seed,
                      int client_id, Clock::time_point origin, double end_s,
                      double period_s, SnapshotKeeper* keeper,
                      SpanBuffer& spans, ClientStats& out) {
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(client_id) + 1));
  net::LoopbackClient client("127.0.0.1", port);
  std::this_thread::sleep_until(origin);
  const std::size_t sample_every = 8;
  const double offset = (client_id + 0.5) / kClients;
  std::uint64_t request = static_cast<std::uint64_t>(client_id) << 40;
  for (std::uint64_t k = 0;; ++k) {
    if (period_s > 0.0) {
      const double due = (static_cast<double>(k) + offset) * period_s;
      if (due >= end_s) break;
      std::this_thread::sleep_until(at(origin, due));
    }
    if (since(origin) >= end_s) break;
    net::QueryBatchRequest req;
    req.queries = traffic.request(rng);
    ++request;
    ++out.sent;
    ScopedSpan whole(spans, "request", request);
    try {
      const auto t0 = Clock::now();
      std::vector<std::uint8_t> payload;
      {
        ScopedSpan s(spans, "net.encode", request, whole.handle());
        payload = net::encode_query_batch(req);
      }
      const auto t1 = Clock::now();
      net::Frame frame;
      {
        ScopedSpan s(spans, "net.rtt", request, whole.handle());
        const std::uint64_t id = client.send(net::Opcode::kErBatch, payload);
        frame = client.recv_frame();
        if (frame.request_id != id)
          throw std::runtime_error("response id mismatch");
      }
      const auto t2 = Clock::now();
      const auto opcode = static_cast<net::Opcode>(frame.opcode);
      if (opcode == net::Opcode::kRetryLater) {
        ++out.retry_later;
        continue;
      }
      if (opcode != net::Opcode::kAnswer) {
        ++out.errors;
        continue;
      }
      net::AnswerReply reply;
      bool decoded = false;
      {
        ScopedSpan s(spans, "net.decode", request, whole.handle());
        decoded = net::decode_answer(frame.payload, &reply);
      }
      const auto t3 = Clock::now();
      if (!decoded) {
        ++out.errors;
        continue;
      }
      const double t = since(origin);
      ++out.answered;
      out.latency_s.push_back(std::chrono::duration<double>(t3 - t0).count());
      out.encode_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      out.rtt_s.push_back(std::chrono::duration<double>(t2 - t1).count());
      out.decode_s.push_back(std::chrono::duration<double>(t3 - t2).count());
      out.replies.push_back({t, reply.snapshot_version});
      if (!answers_ok(reply.answers, req.queries.size())) ++out.nan_answers;
      if (out.answered % sample_every == 0 &&
          out.samples.size() < kReplaySamplesPerClient) {
        if (SnapshotPtr snap = keeper->keep(reply.snapshot_version, t))
          out.samples.push_back({std::move(req.queries),
                                 std::move(reply.answers), std::move(snap),
                                 request});
      }
    } catch (const std::exception&) {
      ++out.errors;
      return;  // the connection is unusable after a transport failure
    }
  }
}

// ---------------------------------------------------------------- mod feed

std::vector<ScheduledMod> make_schedule(std::uint64_t seed, double rate,
                                        double until_s, index_t blocks) {
  Rng rng(mix_seed(seed, 0xfeed));
  std::vector<ScheduledMod> out;
  for (int k = 0;; ++k) {
    // Jittered period: each gap lies in [0.5, 1.5] / rate.
    const double due = (k + 0.25 + 0.5 * rng.uniform()) / rate;
    if (due >= until_s) break;
    ScheduledMod m;
    m.due_s = due;
    m.mod.dirty_blocks = {static_cast<index_t>(
        rng.uniform_index(static_cast<std::uint64_t>(blocks)))};
    // Scales near 1 keep the cumulative resistances bounded.
    m.mod.resistance_scale = rng.uniform(0.9, 1.1);
    out.push_back(m);
  }
  return out;
}

std::vector<ScheduledMod> make_probe_schedule(std::uint64_t seed,
                                              index_t blocks) {
  Rng rng(mix_seed(seed, 0xfeed));
  std::vector<ScheduledMod> out(static_cast<std::size_t>(blocks));
  for (index_t b = 0; b < blocks; ++b) {
    // Fisher-Yates: slot b takes a block drawn from those not yet placed.
    const auto j = static_cast<std::size_t>(
        rng.uniform_index(static_cast<std::uint64_t>(b) + 1));
    out[static_cast<std::size_t>(b)] = out[j];
    out[j].mod.dirty_blocks = {b};
    out[j].mod.resistance_scale = rng.uniform(0.9, 1.1);
  }
  return out;
}

void run_mod_feed(int port, const std::vector<ScheduledMod>& schedule,
                  Clock::time_point origin, FeedStats& out) {
  try {
    net::LoopbackClient client("127.0.0.1", port);
    for (const ScheduledMod& m : schedule) {
      std::this_thread::sleep_until(at(origin, m.due_s));
      out.late_max_s = std::max(out.late_max_s, since(origin) - m.due_s);
      for (;;) {
        ++out.attempts;
        if (client.submit_mod(m.mod) ==
            net::LoopbackClient::ModOutcome::kAccepted) {
          out.accepted.push_back(m);
          break;
        }
        ++out.retry_later;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  } catch (const std::exception&) {
    ++out.errors;
  }
}

namespace {

/// One-query requests on `client` every millisecond until a reply's
/// snapshot version reflects `accepted` mods; false once `deadline_s`
/// (seconds since `origin`) passes first.
bool poll(net::LoopbackClient& client, const AsyncUpdater& updater,
          const std::vector<index_t>& ports, Clock::time_point origin,
          std::uint64_t accepted, double deadline_s, ClientStats& out) {
  PortQuery q;
  q.p = ports.front();
  q.q = ports.back();
  const std::vector<PortQuery> probe{q};
  while (since(origin) < deadline_s) {
    ++out.sent;
    const auto t0 = Clock::now();
    const auto res = client.query(probe);
    if (res.retry_later) {
      ++out.retry_later;
    } else {
      ++out.answered;
      out.latency_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      out.replies.push_back({since(origin), res.snapshot_version});
      if (!answers_ok(res.answers, 1)) ++out.nan_answers;
      if (updater.mods_reflected(res.snapshot_version) >= accepted)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace

bool poll_until_reflected(int port, const AsyncUpdater& updater,
                          const std::vector<index_t>& ports,
                          Clock::time_point origin, std::uint64_t accepted,
                          double timeout_s, ClientStats& out) {
  net::LoopbackClient client("127.0.0.1", port);
  return poll(client, updater, ports, origin, accepted,
              since(origin) + timeout_s, out);
}

bool run_publish_probe(int port, const AsyncUpdater& updater,
                       std::vector<ScheduledMod> schedule,
                       const std::vector<index_t>& ports,
                       Clock::time_point origin, double timeout_s,
                       FeedStats& feed, ClientStats& poller) {
  net::LoopbackClient client("127.0.0.1", port);
  const double deadline = since(origin) + timeout_s;
  for (ScheduledMod& m : schedule) {
    m.due_s = since(origin);
    for (;;) {
      ++feed.attempts;
      if (client.submit_mod(m.mod) ==
          net::LoopbackClient::ModOutcome::kAccepted)
        break;
      ++feed.retry_later;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    feed.accepted.push_back(m);
    if (!poll(client, updater, ports, origin, feed.accepted.size(), deadline,
              poller))
      return false;
  }
  return true;
}

std::vector<double> publish_latencies(
    const AsyncUpdater& updater, const std::vector<ScheduledMod>& accepted,
    const std::vector<const ClientStats*>& observers,
    std::size_t* unreflected) {
  std::vector<Reply> replies;
  for (const ClientStats* c : observers)
    replies.insert(replies.end(), c->replies.begin(), c->replies.end());
  std::sort(replies.begin(), replies.end(),
            [](const Reply& a, const Reply& b) { return a.t < b.t; });
  // Running maximum of mods reflected by the replies seen so far: the first
  // reply reflecting mod i is the first index where it reaches i.
  std::vector<std::uint64_t> reflected(replies.size(), 0);
  std::uint64_t best = 0;
  for (std::size_t j = 0; j < replies.size(); ++j) {
    best = std::max(best, updater.mods_reflected(replies[j].version));
    reflected[j] = best;
  }
  std::vector<double> out;
  *unreflected = 0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    const auto it = std::lower_bound(reflected.begin(), reflected.end(),
                                     static_cast<std::uint64_t>(i + 1));
    if (it == reflected.end()) {
      ++*unreflected;
      continue;
    }
    const std::size_t j = static_cast<std::size_t>(it - reflected.begin());
    out.push_back(replies[j].t - accepted[i].due_s);
  }
  return out;
}

// ------------------------------------------------------------ correctness

std::size_t replay_samples(const std::vector<ReplaySample>& samples,
                           SpanBuffer& spans, ReplayTiming* timing) {
  obs::MetricsRegistry side;  // keeps replays out of the server's series
  std::size_t mismatches = 0;
  ModelSnapshot::Workspace ws;
  for (const ReplaySample& s : samples) {
    ScopedSpan replay(spans, "replay", s.request);
    BatchStats stats;
    AnswerContext ctx;
    ctx.stats = &stats;
    ctx.registry = &side;
    std::vector<real_t> again;
    const auto t0 = Clock::now();
    {
      ScopedSpan a(spans, "frontend.answer_on", s.request, replay.handle());
      again = QueryFrontEnd::answer_on(*s.snapshot, s.batch, ctx);
    }
    const double batch_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (again.size() != s.answers.size() ||
        std::memcmp(again.data(), s.answers.data(),
                    again.size() * sizeof(real_t)) != 0)
      ++mismatches;
    if (!timing) continue;
    timing->batch_s.push_back(batch_s);
    BatchStats& t = timing->totals;
    t.queries += stats.queries;
    t.same_block += stats.same_block;
    t.cross_block += stats.cross_block;
    t.engine_answered += stats.engine_answered;
    t.hedged += stats.hedged;
    t.hedge_won_engine += stats.hedge_won_engine;
    // Both exact kernels on every replayed pair, whatever the query's kind
    // and route, so each workload reports both.
    for (const PortQuery& q : s.batch) {
      const index_t p = s.snapshot->reduced_id(q.p);
      const index_t r = s.snapshot->reduced_id(q.q);
      if (p < 0 || r < 0) continue;
      ScopedSpan k(spans, "snapshot.kernel", s.request, replay.handle());
      auto k0 = Clock::now();
      volatile real_t sink = s.snapshot->resistance(p, r, ws);
      auto k1 = Clock::now();
      timing->resistance_s.push_back(
          std::chrono::duration<double>(k1 - k0).count());
      sink = s.snapshot->response(p, r, ws);
      (void)sink;
      timing->response_s.push_back(
          std::chrono::duration<double>(Clock::now() - k1).count());
    }
  }
  return mismatches;
}

Accuracy measure_accuracy(const ConductanceNetwork& grid_net,
                          const ModelSnapshot& snap,
                          const std::vector<PortQuery>& sample) {
  obs::MetricsRegistry side;
  AnswerContext ctx;
  ctx.registry = &side;
  const std::vector<real_t> served =
      QueryFrontEnd::answer_on(snap, sample, ctx);
  const CholFactor factor = cholesky(grid_net.system_matrix());
  Accuracy acc;
  std::vector<real_t> rhs(static_cast<std::size_t>(grid_net.num_nodes()), 0.0);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto p = static_cast<std::size_t>(sample[i].p);
    const auto q = static_cast<std::size_t>(sample[i].q);
    std::fill(rhs.begin(), rhs.end(), 0.0);
    rhs[p] = 1.0;
    rhs[q] = -1.0;
    const std::vector<real_t> x = factor.solve(rhs);
    const double exact = x[p] - x[q];
    const double rel = std::abs(served[i] - exact) / std::abs(exact);
    if (!std::isfinite(rel)) {
      acc.max = std::numeric_limits<double>::infinity();
      continue;
    }
    acc.mean += rel;
    acc.max = std::max(acc.max, rel);
    ++acc.pairs;
  }
  if (acc.pairs) acc.mean /= static_cast<double>(acc.pairs);
  return acc;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  return 0.0;
}

}  // namespace perfbench
