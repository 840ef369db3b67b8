#!/usr/bin/env python3
"""Perf regression gate over the planner benchmark results.

``benchmarks/bench_masked_mxm.py`` writes ``BENCH_planner.json`` with
wall times for each planner workload in blocking and nonblocking mode.
Raw milliseconds are machine-dependent, so the gate compares the
*ratio* of each optimized nonblocking path to the blocking run from the
same file — a machine-independent measure of what the planner buys —
against the committed baseline ratios in
``benchmarks/BENCH_planner.json``:

* ``masked_mxm.nb_pushed_ms / blocking_ms``   — mask pushdown
* ``dup_subexpression.nb_cse_ms / blocking_ms`` — hash-consing (CSE)
* ``repeated_algorithm.nb_warm_ms / blocking_ms`` — algo-block memo
* ``bfs_vxm.nonblocking_ms / blocking_ms`` — deferral's fixed cost on a
  hot loop of small ops with *nothing* to optimize (every level forces a
  masked, impure assign + vxm pair).  No rewrite fires here, so no
  counter is checked; the ratio guards the engine's per-forcing
  overhead — ROADMAP item 2's "nonblocking is never slower" — against
  creeping back up

``benchmarks/bench_serving.py`` additionally writes
``BENCH_serving.json`` (throughput and tail latency of the multi-tenant
serving layer vs naive one-context-per-query serial dispatch); when
that file is present two more ratios are gated against the committed
``benchmarks/BENCH_serving.json``:

* ``serving.nb_batched_ms / blocking_ms``     — batched throughput
* ``serving_p99.nb_batched_ms / blocking_ms`` — p99 latency under load

``benchmarks/bench_recovery.py`` writes ``BENCH_recovery.json``
(replica time-to-first-answer: warm restart from a checkpoint vs cold
rebuild from the edge list); when present one more ratio is gated
against the committed ``benchmarks/BENCH_recovery.json``:

* ``recovery.nb_warm_ms / blocking_ms``       — durability-plane restart

``benchmarks/bench_hypersparse.py`` writes ``BENCH_hypersparse.json``
(time-to-first-answer on a 2^30-row graph, DCSR vs a forced-CSR
handicap at 2^24 rows, plus small-op batching of independent mxv
queries); when present two more ratios are gated against the committed
``benchmarks/BENCH_hypersparse.json``:

* ``hypersparse_mxv.nb_dcsr_ms / blocking_ms`` — hypersparse carrier
* ``op_batching.nb_batched_ms / blocking_ms``  — small-op coalescing

``benchmarks/bench_streaming.py`` writes ``BENCH_streaming.json``
(pagerank after a small edge delta, warm delta-patched restart vs
``ENGINE_DELTA=0`` cold rebuild, plus sustained edge ingest with
buffered batches vs per-edge mutation); when present two more ratios
are gated against the committed ``benchmarks/BENCH_streaming.json``:

* ``streaming_pagerank.nb_warm_ms / blocking_ms``   — warm fixpoint
* ``streaming_ingest.nb_batched_ms / blocking_ms``  — batched ingest

``benchmarks/bench_store.py`` writes ``BENCH_store.json`` (pagerank
time-to-first-answer in a fresh context backed by a seeded on-disk
warm-start store vs the same cold start with the store disabled); when
present one more ratio is gated against the committed
``benchmarks/BENCH_store.json``:

* ``store.nb_warm_ms / blocking_ms``          — persistent warm start

The gate fails (exit 1) when a fresh ratio regresses more than the
tolerance (default 25%) over the baseline ratio, or when the workload's
optimizer counters show the optimization did not fire at all.  Run from
the repository root after the benchmarks:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_masked_mxm.py
    python tools/bench_gate.py

CI's perf-smoke job runs exactly this pair.

``--append-history PATH`` additionally records this run's ratios in a
persistent JSON history (CI keeps it in an actions cache keyed across
runs) and applies the **drift rule**: a single run inside the 25%
tolerance can still be the fourth small regression in a row, so the
gate also fails when a ratio's last ``--drift-window`` recorded values
are monotonically non-decreasing AND the newest is more than
``--drift-limit`` (default 10%) above the oldest — slow creep that the
per-run tolerance is blind to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (workload, optimized-ms key, counter that proves the rewrite fired —
#: ``None`` where the workload has nothing to rewrite and the ratio is
#: plain engine overhead)
GATED = (
    ("masked_mxm", "nb_pushed_ms", "masks_pushed"),
    ("dup_subexpression", "nb_cse_ms", "cse_reused"),
    ("repeated_algorithm", "nb_warm_ms", "algo_memo_hits"),
    ("bfs_vxm", "nonblocking_ms", None),
    ("serving", "nb_batched_ms", "serve_batched_queries"),
    ("serving_p99", "nb_batched_ms", "serve_batches"),
    ("recovery", "nb_warm_ms", "restored_graphs"),
    ("hypersparse_mxv", "nb_dcsr_ms", "format_dcsr_commits"),
    ("op_batching", "nb_batched_ms", "engine_batched_ops"),
    ("streaming_pagerank", "nb_warm_ms", "memo_delta_patches"),
    ("streaming_ingest", "nb_batched_ms", "ingest_batches"),
    ("store", "nb_warm_ms", "store_hits"),
)

#: workloads sourced from the serving bench (BENCH_serving.json) rather
#: than the planner bench — gated only when its results are present
SERVING_WORKLOADS = ("serving", "serving_p99")

#: workloads sourced from the recovery bench (BENCH_recovery.json) —
#: gated only when its results are present
RECOVERY_WORKLOADS = ("recovery",)

#: workloads sourced from the hypersparse bench
#: (BENCH_hypersparse.json) — gated only when its results are present
HYPERSPARSE_WORKLOADS = ("hypersparse_mxv", "op_batching")

#: workloads sourced from the streaming bench (BENCH_streaming.json) —
#: gated only when its results are present
STREAMING_WORKLOADS = ("streaming_pagerank", "streaming_ingest")

#: workloads sourced from the warm-start store bench (BENCH_store.json)
#: — gated only when its results are present
STORE_WORKLOADS = ("store",)


def _ratio(results: dict, workload: str, key: str) -> float:
    entry = results[workload]
    blocking = float(entry["blocking_ms"])
    if blocking <= 0:
        raise ValueError(f"{workload}: nonpositive blocking_ms")
    return float(entry[key]) / blocking


def check(fresh: dict, baseline: dict, tolerance: float,
          gated=GATED) -> list[str]:
    """Return a list of human-readable failures (empty = gate passes)."""
    failures = []
    for workload, key, counter in gated:
        if workload not in fresh:
            failures.append(f"{workload}: missing from fresh results")
            continue
        if workload not in baseline:
            failures.append(f"{workload}: missing from baseline")
            continue
        fired = 1 if counter is None else int(fresh[workload].get(counter, 0))
        if fired < 1:
            failures.append(
                f"{workload}: {counter}={fired} — the optimization never fired"
            )
        r_fresh = _ratio(fresh, workload, key)
        r_base = _ratio(baseline, workload, key)
        limit = r_base * (1.0 + tolerance)
        verdict = "ok" if r_fresh <= limit else "REGRESSED"
        print(
            f"  {workload:>20s}.{key}: {r_fresh:.3f}x blocking "
            f"(baseline {r_base:.3f}x, limit {limit:.3f}x) {verdict}"
        )
        if r_fresh > limit:
            failures.append(
                f"{workload}: {key} is {r_fresh:.3f}x blocking, "
                f"worse than baseline {r_base:.3f}x by more than "
                f"{tolerance:.0%}"
            )
    return failures


def fresh_ratios(fresh: dict, gated=GATED) -> dict[str, float]:
    """The gated ratios of one benchmark run, keyed ``workload.key``."""
    out = {}
    for workload, key, _ in gated:
        if workload in fresh:
            out[f"{workload}.{key}"] = _ratio(fresh, workload, key)
    return out


def append_history(history: dict, ratios: dict[str, float]) -> dict:
    """Append one run's ratios to the history structure (in place).

    The history is ``{"runs": [{"workload.key": ratio, ...}, ...]}`` —
    one dict per gate invocation, oldest first.
    """
    runs = history.setdefault("runs", [])
    runs.append({k: round(float(v), 6) for k, v in ratios.items()})
    return history


def check_drift(history: dict, window: int = 5,
                limit: float = 0.10) -> list[str]:
    """Return drift failures over the recorded history.

    A metric drifts when its last ``window`` recorded ratios are
    monotonically non-decreasing and the newest exceeds the oldest by
    more than ``limit``.  Fewer than ``window`` recordings, any dip in
    the window, or total growth within ``limit`` all pass — the rule
    only fires on sustained one-directional creep.
    """
    failures = []
    runs = history.get("runs", [])
    for workload, key, _ in GATED:
        metric = f"{workload}.{key}"
        series = [r[metric] for r in runs if metric in r]
        if len(series) < window:
            continue
        tail = series[-window:]
        monotonic = all(b >= a for a, b in zip(tail, tail[1:]))
        if monotonic and tail[-1] > tail[0] * (1.0 + limit):
            failures.append(
                f"{metric}: drifted {tail[0]:.3f}x -> {tail[-1]:.3f}x "
                f"over the last {window} runs (monotonic, "
                f"+{(tail[-1] / tail[0] - 1.0):.0%} > {limit:.0%})"
            )
    return failures


def _load_history(path: Path) -> dict:
    """The persisted ratio history, or a fresh one.

    The first CI run restores nothing (or an empty file from a cache
    miss), and a corrupted cache can restore *anything* — none of which
    should fail the gate before a single ratio is compared.  Any
    unreadable, non-object, or wrong-shape payload starts a new history
    with a printed notice; only a well-formed ``{"runs": [dict, ...]}``
    is carried forward.
    """
    try:
        history = json.loads(path.read_text())
    except OSError:
        print(f"bench_gate: no history at {path} — starting fresh")
        return {}
    except ValueError:
        print(f"bench_gate: unparseable history at {path} — starting fresh")
        return {}
    if not isinstance(history, dict):
        print(f"bench_gate: malformed history at {path} "
              f"(not an object) — starting fresh")
        return {}
    runs = history.get("runs", [])
    if not (isinstance(runs, list) and all(isinstance(r, dict) for r in runs)):
        print(f"bench_gate: malformed history at {path} "
              f"(bad \"runs\") — starting fresh")
        return {}
    return history


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--fresh", type=Path, default=Path("BENCH_planner.json"),
        help="results from the benchmark run under test",
    )
    p.add_argument(
        "--baseline", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "benchmarks" / "BENCH_planner.json",
        help="committed baseline results",
    )
    p.add_argument(
        "--fresh-serving", type=Path, default=Path("BENCH_serving.json"),
        help="results from the serving benchmark run under test "
             "(serving workloads are skipped when the file is absent)",
    )
    p.add_argument(
        "--baseline-serving", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "benchmarks" / "BENCH_serving.json",
        help="committed serving baseline results",
    )
    p.add_argument(
        "--fresh-recovery", type=Path, default=Path("BENCH_recovery.json"),
        help="results from the recovery benchmark run under test "
             "(recovery workloads are skipped when the file is absent)",
    )
    p.add_argument(
        "--baseline-recovery", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "benchmarks" / "BENCH_recovery.json",
        help="committed recovery baseline results",
    )
    p.add_argument(
        "--fresh-hypersparse", type=Path,
        default=Path("BENCH_hypersparse.json"),
        help="results from the hypersparse benchmark run under test "
             "(hypersparse workloads are skipped when the file is absent)",
    )
    p.add_argument(
        "--baseline-hypersparse", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "benchmarks" / "BENCH_hypersparse.json",
        help="committed hypersparse baseline results",
    )
    p.add_argument(
        "--fresh-streaming", type=Path,
        default=Path("BENCH_streaming.json"),
        help="results from the streaming benchmark run under test "
             "(streaming workloads are skipped when the file is absent)",
    )
    p.add_argument(
        "--baseline-streaming", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "benchmarks" / "BENCH_streaming.json",
        help="committed streaming baseline results",
    )
    p.add_argument(
        "--fresh-store", type=Path,
        default=Path("BENCH_store.json"),
        help="results from the warm-start store benchmark run under test "
             "(store workloads are skipped when the file is absent)",
    )
    p.add_argument(
        "--baseline-store", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "benchmarks" / "BENCH_store.json",
        help="committed warm-start store baseline results",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative regression of each ratio (default 0.25)",
    )
    p.add_argument(
        "--append-history", type=Path, default=None, metavar="PATH",
        help="append this run's ratios to a persistent JSON history and "
             "fail on sustained drift (see module docstring)",
    )
    p.add_argument(
        "--drift-window", type=int, default=5,
        help="history length the drift rule inspects (default 5)",
    )
    p.add_argument(
        "--drift-limit", type=float, default=0.10,
        help="allowed total growth across the drift window (default 0.10)",
    )
    args = p.parse_args(argv)

    try:
        fresh = json.loads(args.fresh.read_text())
    except OSError as exc:
        print(f"bench_gate: cannot read fresh results: {exc}", file=sys.stderr)
        return 2
    try:
        baseline = json.loads(args.baseline.read_text())
    except OSError as exc:
        print(f"bench_gate: cannot read baseline: {exc}", file=sys.stderr)
        return 2

    gated = GATED
    if args.fresh_serving.exists():
        try:
            fresh.update(json.loads(args.fresh_serving.read_text()))
            baseline.update(json.loads(args.baseline_serving.read_text()))
        except OSError as exc:
            print(f"bench_gate: cannot read serving results: {exc}",
                  file=sys.stderr)
            return 2
    else:
        print(f"bench_gate: {args.fresh_serving} absent — "
              f"serving workloads not gated this run")
        gated = tuple(g for g in gated if g[0] not in SERVING_WORKLOADS)

    if args.fresh_recovery.exists():
        try:
            fresh.update(json.loads(args.fresh_recovery.read_text()))
            baseline.update(json.loads(args.baseline_recovery.read_text()))
        except OSError as exc:
            print(f"bench_gate: cannot read recovery results: {exc}",
                  file=sys.stderr)
            return 2
    else:
        print(f"bench_gate: {args.fresh_recovery} absent — "
              f"recovery workloads not gated this run")
        gated = tuple(g for g in gated if g[0] not in RECOVERY_WORKLOADS)

    if args.fresh_hypersparse.exists():
        try:
            fresh.update(json.loads(args.fresh_hypersparse.read_text()))
            baseline.update(
                json.loads(args.baseline_hypersparse.read_text()))
        except OSError as exc:
            print(f"bench_gate: cannot read hypersparse results: {exc}",
                  file=sys.stderr)
            return 2
    else:
        print(f"bench_gate: {args.fresh_hypersparse} absent — "
              f"hypersparse workloads not gated this run")
        gated = tuple(g for g in gated if g[0] not in HYPERSPARSE_WORKLOADS)

    if args.fresh_streaming.exists():
        try:
            fresh.update(json.loads(args.fresh_streaming.read_text()))
            baseline.update(
                json.loads(args.baseline_streaming.read_text()))
        except OSError as exc:
            print(f"bench_gate: cannot read streaming results: {exc}",
                  file=sys.stderr)
            return 2
    else:
        print(f"bench_gate: {args.fresh_streaming} absent — "
              f"streaming workloads not gated this run")
        gated = tuple(g for g in gated if g[0] not in STREAMING_WORKLOADS)

    if args.fresh_store.exists():
        try:
            fresh.update(json.loads(args.fresh_store.read_text()))
            baseline.update(json.loads(args.baseline_store.read_text()))
        except OSError as exc:
            print(f"bench_gate: cannot read store results: {exc}",
                  file=sys.stderr)
            return 2
    else:
        print(f"bench_gate: {args.fresh_store} absent — "
              f"store workloads not gated this run")
        gated = tuple(g for g in gated if g[0] not in STORE_WORKLOADS)

    print(f"bench_gate: {args.fresh} vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    failures = check(fresh, baseline, args.tolerance, gated)

    if args.append_history is not None:
        history = _load_history(args.append_history)
        append_history(history, fresh_ratios(fresh, gated))
        args.append_history.parent.mkdir(parents=True, exist_ok=True)
        args.append_history.write_text(
            json.dumps(history, indent=2, sort_keys=True) + "\n"
        )
        n_runs = len(history["runs"])
        drift = check_drift(history, args.drift_window, args.drift_limit)
        print(f"bench_gate: history {args.append_history} now holds "
              f"{n_runs} run(s); drift rule "
              f"({args.drift_window}-run window, {args.drift_limit:.0%}): "
              f"{len(drift)} failure(s)")
        failures.extend(drift)

    if failures:
        for f in failures:
            print(f"bench_gate: FAIL: {f}", file=sys.stderr)
        return 1
    print("bench_gate: all gated ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
