/// \file
/// Per-query serving policy (DESIGN.md §4.3).
///
/// A QueryPolicy rides on every PortQuery and lets one batch mix
/// criticalities: each query names how accurate its answer must be
/// (AccuracyTier), which backend it prefers (BackendPref), how long it was
/// willing to wait (deadline_us), and whether the front-end should hedge
/// it across two backends. The default-constructed policy reproduces the
/// pre-policy behaviour of the batch's RouteMode exactly.
///
/// Determinism: nothing in this header reads a clock. Deadline expiry is a
/// pure function of (policy.deadline_us, AnswerContext::queue_wait_us) and
/// hedge selection a pure function of (tier, the two legs' values), so
/// answers stay bit-identical at any thread count (§4.3's argument).
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace er {

/// How accurate a query's answer must be.
enum class AccuracyTier : std::uint8_t {
  /// Exact solve on the factor of the stitched system. The default.
  kExact = 0,
  /// A block-local engine answer is acceptable when one is resident and
  /// cheap (BackendPref::kAuto diverts unless the snapshot's engines are
  /// dense-factor ErBackend::kExact engines).
  kApprox = 1,
  /// Latency over accuracy: like kApprox, and the preferred hedge winner.
  kFast = 2,
};

/// Which backend a query wants, before tier/eligibility resolution.
enum class BackendPref : std::uint8_t {
  /// Resolve from the accuracy tier: kExact keeps the batch's RouteMode;
  /// kApprox/kFast take a resident block engine when the query is
  /// engine-eligible and the snapshot's engine_backend is not
  /// ErBackend::kExact, else the exact path.
  kAuto = 0,
  kExact = 1,        ///< force the exact path
  kLocalApprox = 2,  ///< block-local engine; exact fallback when ineligible
};

/// Per-query serving policy. The default value is the no-policy policy:
/// no deadline, exact tier, auto backend, no hedging — bit-identical to
/// the pre-policy front-end on every route mode.
struct QueryPolicy {
  /// Queueing budget in microseconds; 0 = none. A query whose deadline is
  /// <= the batch's AnswerContext::queue_wait_us reports kDeadlineMiss
  /// (answer NaN) without being evaluated — see §4.3 for why expiry is an
  /// explicit input rather than a clock read.
  std::uint32_t deadline_us = 0;
  AccuracyTier accuracy_tier = AccuracyTier::kExact;
  BackendPref backend_pref = BackendPref::kAuto;
  /// Race the block-local engine against the exact path (both legs are
  /// evaluated; a pure selection rule picks the winner). Only engages for
  /// engine-eligible queries.
  bool hedge = false;
};

/// True when `p` asks for anything beyond the default no-policy behaviour
/// (the front-end keeps the legacy fast path for all-default batches).
[[nodiscard]] constexpr bool is_default(const QueryPolicy& p) {
  return p.deadline_us == 0 && p.accuracy_tier == AccuracyTier::kExact &&
         p.backend_pref == BackendPref::kAuto && !p.hedge;
}

/// Per-query outcome reported through AnswerContext::statuses.
enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kInvalid = 1,       ///< unmapped / eliminated endpoint (answer NaN)
  kDeadlineMiss = 2,  ///< deadline expired before evaluation (answer NaN)
};

/// Deterministic hedge selection: which leg's answer a hedged query takes,
/// as a pure function of (tier, the engine leg's value). kExact always
/// takes the exact leg; kApprox/kFast take the engine leg whenever it
/// produced a value (non-NaN), falling back to the exact leg. Exposed so
/// tests can run a serial twin through the identical rule.
[[nodiscard]] constexpr bool hedge_prefers_engine(AccuracyTier tier,
                                                  real_t engine_value) {
  // NaN != NaN: a NaN engine leg never wins.
  return tier != AccuracyTier::kExact && engine_value == engine_value;
}

const char* to_string(AccuracyTier tier);
const char* to_string(BackendPref pref);
const char* to_string(QueryStatus status);

}  // namespace er
