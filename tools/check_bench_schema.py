#!/usr/bin/env python3
"""Validate a BENCH_serving.json file against the documented schema.

CI runs this after the churn smoke invocation so a schema change in
bench_serving breaks the pipeline instead of downstream readers of the
JSON trajectories (bench/README.md documents every field).

usage: check_bench_schema.py BENCH_serving.json
       {churn|standard|zipf|loopback|policy-mix}
"""
import json
import sys

COMMON_FIELDS = {
    "bench", "case", "mode", "threads", "queries",
    "reduced_nodes", "boundary_nodes", "blocks",
    # Registry-derived per-query latency percentiles (PR 6).
    "query_latency_p50_us", "query_latency_p95_us", "query_latency_p99_us",
}

# Fields every row of the given mode must carry (bench/README.md).
MODE_FIELDS = {
    "churn": COMMON_FIELDS | {
        "mods_submitted", "update_batches", "mods_coalesced",
        "publish_latency_mean_seconds", "publish_latency_max_seconds",
        # Registry-derived publish-latency percentiles (PR 6).
        "publish_latency_p50_ms", "publish_latency_p95_ms",
        "publish_latency_p99_ms",
        "staleness_mean_mods", "staleness_max_mods",
        "staleness_mean_versions", "staleness_max_versions",
        "queries_per_second", "churn_wall_seconds",
        "reused_block_fraction", "incremental_publish_seconds",
        "full_snapshot_build_seconds",
        # Publish accounting: serving bytes built vs the aliased model.
        "publish_bytes_materialized", "model_footprint_bytes",
        # Bounded-staleness back-pressure (PR 5).
        "staleness_bound_mods", "blocked_submits", "rejected_submits",
        "max_observed_staleness_mods",
        "identical",
    },
    "standard": COMMON_FIELDS | {
        "snapshot_build_seconds", "wall_seconds", "queries_per_second",
        "speedup", "identical", "cross_block_queries", "engine_answered",
        "max_rel_vs_reference",
    },
    # Result-cache scenario (--churn --zipf S, PR 8).
    "zipf": COMMON_FIELDS | {
        "zipf_s", "pool_pairs", "mods_submitted",
        "cache_hit_rate", "cache_hits", "cache_misses", "cache_entries",
        "cache_evictions", "cache_invalidations",
        "queries_per_second", "queries_per_second_uncached",
        "identical",
    },
    # Network serving scenario (--loopback, PR 9): end-to-end QPS and
    # client-observed request latency through the net/ daemon core.
    "loopback": COMMON_FIELDS | {
        "clients", "queries_per_second",
        "request_latency_p50_us", "request_latency_p95_us",
        "request_latency_p99_us",
        "requests_total", "retry_later_responses",
        "mods_submitted", "mods_applied",
        "identical",
    },
    # Per-query QueryPolicy scenario (--policy-mix, PR 10): tier mix,
    # hedging, and deadline accounting, plus per-tier latency
    # percentiles from the er_policy_latency_seconds{tier=...} histograms.
    "policy-mix": COMMON_FIELDS | {
        "queries_per_second",
        "served_exact", "served_approx", "served_fast",
        "hedged_queries", "hedge_win_fraction_engine",
        "deadline_misses", "queue_wait_us_injected",
        "policy_latency_exact_p50_us", "policy_latency_exact_p95_us",
        "policy_latency_exact_p99_us",
        "policy_latency_approx_p50_us", "policy_latency_approx_p95_us",
        "policy_latency_approx_p99_us",
        "policy_latency_fast_p50_us", "policy_latency_fast_p95_us",
        "policy_latency_fast_p99_us",
        "identical",
    },
}


def main() -> int:
    if len(sys.argv) != 3 or sys.argv[2] not in MODE_FIELDS:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path, mode = sys.argv[1], sys.argv[2]
    required = MODE_FIELDS[mode]
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list) or not rows:
        print(f"{path}: expected a non-empty JSON array", file=sys.stderr)
        return 1
    ok = True
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            print(f"{path}[{i}]: expected an object, got {type(row).__name__}",
                  file=sys.stderr)
            ok = False
            continue
        missing = required - row.keys()
        if missing:
            print(f"{path}[{i}]: missing fields {sorted(missing)}",
                  file=sys.stderr)
            ok = False
        if mode in ("churn", "zipf", "loopback", "policy-mix") \
                and row.get("identical") is not True:
            print(f"{path}[{i}]: {mode} row not bit-identical",
                  file=sys.stderr)
            ok = False
        if mode == "loopback" \
                and row.get("mods_applied") != row.get("mods_submitted"):
            print(f"{path}[{i}]: loopback mod feed applied "
                  f"{row.get('mods_applied')} of "
                  f"{row.get('mods_submitted')} submitted mods",
                  file=sys.stderr)
            ok = False
        if mode == "zipf" and row.get("zipf_s", 0) >= 1.0 \
                and row.get("cache_hit_rate", 0) < 0.5:
            print(f"{path}[{i}]: cache hit rate "
                  f"{row.get('cache_hit_rate')} below the 0.5 floor at "
                  f"zipf_s {row.get('zipf_s')}", file=sys.stderr)
            ok = False
        if mode == "policy-mix":
            frac = row.get("hedge_win_fraction_engine")
            if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
                print(f"{path}[{i}]: hedge_win_fraction_engine {frac!r} "
                      "outside [0, 1]", file=sys.stderr)
                ok = False
            served = sum(row.get(k, 0) for k in
                         ("served_exact", "served_approx", "served_fast"))
            expected = row.get("queries", 0) - row.get("deadline_misses", 0)
            if served != expected:
                print(f"{path}[{i}]: per-tier served counts sum to {served}, "
                      f"expected queries - deadline_misses = {expected}",
                      file=sys.stderr)
                ok = False
        # The exact route (label "sharded") must match the PCG reference.
        if mode == "standard" and row.get("mode") != "local-approx" \
                and not row.get("max_rel_vs_reference", 1.0) <= 1e-8:
            print(f"{path}[{i}]: exact route {row.get('max_rel_vs_reference')}"
                  " from the reference, above the 1e-8 bound",
                  file=sys.stderr)
            ok = False
    if ok:
        print(f"{path}: {len(rows)} rows OK ({mode} schema)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
