// The serving benchmark's workloads: the grid every workload shares, the
// in-process daemon deployment, the seeded traffic generators, the
// query clients and the open-loop modification feed, and the
// correctness checks run on what the clients saw.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Workload { kExactUniform, kZipfChurn, kLocalApprox };

const char* to_string(Workload w);
bool parse_workload(const std::string& text, Workload* out);

// Load shape, sized for a 4-core machine: two query clients against two
// dispatchers answering inline, plus a two-thread reduction pool.
inline constexpr int kClients = 2;
inline constexpr std::size_t kQueriesPerRequest = 16;
/// Setups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;
/// zipf_churn: pool of fixed port pairs and its Zipf exponent.
inline constexpr std::size_t kZipfPoolPairs = 4096;
inline constexpr double kZipfExponent = 1.1;
/// zipf_churn paces each query client: it still waits for each reply, but
/// sends at most this many requests per second. Every publish empties the
/// cache's exact scope, so the hit rate rises with the queries sent between
/// publishes; unpaced, the hit rate would follow machine speed and amplify
/// any slowdown. At this rate a request takes under half the pacing period
/// on average, so a machine up to twice as slow still sends the same
/// queries.
inline constexpr double kZipfRequestsPerSecond = 45.0;
/// Mods the open-loop feed sends per second of the measured window on
/// zipf_churn. At one per second the updater is busy about a quarter of the
/// time, so publish latency is mostly publish work rather than queueing, and
/// each publish's cache invalidation is followed by enough queries to refill
/// the hot pairs; faster feeds made throughput swing with machine speed.
inline constexpr double kChurnModsPerSecond = 1.0;
/// Requests whose replies are re-answered bitwise, per client.
inline constexpr std::size_t kReplaySamplesPerClient = 32;
/// ER pairs in the accuracy sample.
inline constexpr std::size_t kAccuracyPairs = 128;
/// Served ER against the unreduced grid: the gate on er_rel_err_max. The
/// exact tier carries only the reduction's sparsification error; the
/// approximate tier answers same-block pairs from a block engine that sees
/// its block in isolation (no cut edges, no pad shunts), which over-states
/// resistance by design.
inline constexpr double kExactTierErrBound = 0.5;
inline constexpr double kApproxTierErrBound = 10.0;

/// The grid every workload serves: ibmpg5-like at the small scale.
struct Grid {
  er::ConductanceNetwork net;
  std::vector<char> is_port;
  std::vector<er::index_t> ports;
};
Grid make_grid();

er::net::StackOptions stack_options();
er::net::ServerOptions server_options(er::obs::MetricsRegistry* registry);

/// One daemon core in-process: a private registry, the ServingStack and a
/// Server on an ephemeral loopback port. Members are destroyed in reverse
/// order, so the server stops before the stack it calls into goes away.
struct Deployment {
  std::unique_ptr<er::obs::MetricsRegistry> registry;
  std::unique_ptr<er::net::ServingStack> stack;
  std::unique_ptr<er::net::Server> server;
  double setup_s = 0.0;  ///< ServingStack construction to start() returning
};
std::unique_ptr<Deployment> deploy(const Grid& grid);

/// Seeded query generator of one workload. Built once from the initial
/// snapshot (for the block layout); request() is const and thread-safe,
/// each caller brings its own Rng stream.
class Traffic {
 public:
  Traffic(Workload w, const Grid& grid, const er::ModelSnapshot& snap);

  [[nodiscard]] std::vector<er::PortQuery> request(er::Rng& rng) const;
  /// ER queries of the workload's own kind, drawn with a fixed seed, on
  /// which the served answers are checked against the unreduced grid.
  [[nodiscard]] std::vector<er::PortQuery> accuracy_sample() const;
  /// Same-block interior port pairs as reduced ids (engine query probe).
  [[nodiscard]] std::vector<std::pair<er::index_t, er::index_t>>
  interior_pairs(const er::ModelSnapshot& snap, std::size_t count,
                 std::uint64_t seed) const;

 private:
  er::PortQuery uniform_pair(er::Rng& rng) const;
  er::PortQuery same_block_pair(er::Rng& rng) const;
  er::PortQuery draw(er::Rng& rng, std::size_t slot) const;

  Workload w_;
  std::vector<er::index_t> ports_;
  /// Interior ports grouped by block, only blocks with >= 2 of them and a
  /// resident engine.
  std::vector<std::vector<er::index_t>> interior_groups_;
  std::vector<std::size_t> interior_cumulative_;
  std::vector<er::PortQuery> pool_;   ///< zipf_churn pair pool
  std::vector<double> zipf_cdf_;
};

/// A reply as a client saw it, for staleness bookkeeping.
struct Reply {
  double t = 0.0;  ///< seconds since the phase origin
  std::uint64_t version = 0;
};

/// A request whose wire reply is re-answered on its pinned snapshot.
struct ReplaySample {
  std::vector<er::PortQuery> batch;
  std::vector<er::real_t> answers;
  er::SnapshotPtr snapshot;
  std::uint64_t request = 0;
};

struct ClientStats {
  std::vector<double> latency_s;  ///< encode + round trip + decode, answered
  std::vector<double> encode_s;
  std::vector<double> decode_s;
  std::vector<double> rtt_s;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t retry_later = 0;
  std::uint64_t errors = 0;       ///< kError replies and transport throws
  std::uint64_t nan_answers = 0;  ///< requests with a NaN for a valid pair
  std::vector<Reply> replies;
  std::vector<ReplaySample> samples;
};

/// Keeps pinned snapshots for replay, bounded to a few distinct versions
/// spread over the window so old model versions do not pile up in memory.
class SnapshotKeeper {
 public:
  /// Keeps versions seen in [from_s, until_s) of the window.
  SnapshotKeeper(const er::ModelStore* store, double from_s, double until_s)
      : store_(store), from_s_(from_s), until_s_(until_s) {}
  /// The snapshot of `version`, or null when it is not (or no longer)
  /// the current one and no slot is free.
  er::SnapshotPtr keep(std::uint64_t version, double t);

 private:
  static constexpr std::size_t kSlots = 4;
  const er::ModelStore* store_;
  double from_s_;
  double until_s_;
  std::mutex mutex_;
  std::vector<er::SnapshotPtr> kept_;
};

/// Query client: sends requests from `traffic` until `end_s` (seconds
/// since `origin`), each after the previous reply. With `period_s` > 0 the
/// client is paced: request k is not sent before its due time
/// (k + offset) * period_s, where the offset staggers the clients.
void run_query_client(int port, const Traffic& traffic, std::uint64_t seed,
                      int client_id, Clock::time_point origin, double end_s,
                      double period_s, SnapshotKeeper* keeper,
                      SpanBuffer& spans, ClientStats& out);

/// One scheduled modification of the open-loop feed.
struct ScheduledMod {
  double due_s = 0.0;
  er::net::WireModification mod;
};
/// zipf_churn's open-loop feed: one-block mods at `rate` per second, each
/// gap within [0.5, 1.5] / rate, until `until_s`.
std::vector<ScheduledMod> make_schedule(std::uint64_t seed, double rate,
                                        double until_s, er::index_t blocks);
/// The publish probe's mods: every block once, in a seeded order, so the
/// probe of every run times the same set of one-block publishes. Due times
/// are left to the probe.
std::vector<ScheduledMod> make_probe_schedule(std::uint64_t seed,
                                              er::index_t blocks);

struct FeedStats {
  std::vector<ScheduledMod> accepted;  ///< in acceptance order
  std::uint64_t attempts = 0;
  std::uint64_t retry_later = 0;
  std::uint64_t errors = 0;
  double late_max_s = 0.0;  ///< generator lateness against the schedule
};

/// Open-loop modification feed on its own connection: each mod is sent at
/// its due time (or as soon as the previous ack allows); a mod refused with
/// RETRY_LATER is retried and every refusal is counted.
void run_mod_feed(int port, const std::vector<ScheduledMod>& schedule,
                  Clock::time_point origin, FeedStats& out);

/// Sends one-query requests every millisecond until a reply's
/// snapshot version reflects all `accepted` mods of a finished feed.
/// Returns false on timeout.
bool poll_until_reflected(int port, const er::AsyncUpdater& updater,
                          const std::vector<er::index_t>& ports,
                          Clock::time_point origin, std::uint64_t accepted,
                          double timeout_s, ClientStats& out);

/// Publish probe on an otherwise idle server: sends the mods of `schedule`
/// one at a time on one connection, each as soon as a reply reflects the
/// previous one, and polls with one-query requests in between. A mod's due
/// time is when it is sent, so each latency is one publish with no queueing
/// behind another. Returns false on timeout.
bool run_publish_probe(int port, const er::AsyncUpdater& updater,
                       std::vector<ScheduledMod> schedule,
                       const std::vector<er::index_t>& ports,
                       Clock::time_point origin, double timeout_s,
                       FeedStats& feed, ClientStats& poller);

/// Publish latency per accepted mod: from its due time to the first reply
/// whose snapshot version reflects it. Mods no reply reflects are counted
/// in `unreflected`.
std::vector<double> publish_latencies(
    const er::AsyncUpdater& updater, const std::vector<ScheduledMod>& accepted,
    const std::vector<const ClientStats*>& observers, std::size_t* unreflected);

struct ReplayTiming {
  std::vector<double> batch_s;       ///< answer_on per replayed request
  std::vector<double> resistance_s;  ///< ModelSnapshot::resistance per query
  std::vector<double> response_s;    ///< ModelSnapshot::response per query
  er::BatchStats totals;             ///< summed over the replayed batches
};

/// Re-answers each sample with QueryFrontEnd::answer_on on its pinned
/// snapshot and compares bitwise. With `timing` set, also times the
/// per-query kernel of every replayed query. Returns mismatching samples.
std::size_t replay_samples(const std::vector<ReplaySample>& samples,
                           SpanBuffer& spans, ReplayTiming* timing);

struct Accuracy {
  double mean = 0.0;
  double max = 0.0;
  std::size_t pairs = 0;
};
/// Served ER (answer_on on `snap` with each query's own policy) against a
/// direct solve on the unreduced `grid_net`.
Accuracy measure_accuracy(const er::ConductanceNetwork& grid_net,
                          const er::ModelSnapshot& snap,
                          const std::vector<er::PortQuery>& sample);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
