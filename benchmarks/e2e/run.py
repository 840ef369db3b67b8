"""End-to-end benchmark: four workloads, named metrics per layer.

One run of one workload (what the driver calls)::

    python3 benchmarks/e2e/run.py --workload lib_algos --seed 7 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) declared in ``BENCHMARK.json`` and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.

Everything at once (what a person runs)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 42 [--sets K] [--smoke]

runs each workload untraced and traced in a process of its own, prints
the tables, and writes ``benchmarks/e2e/out/result.json`` plus one
Chrome trace per workload.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

SMOKE_SECONDS = 4


def _fail(msg: str, code: int = 3):
    print(f"e2e: {msg}", file=sys.stderr)
    raise SystemExit(code)


# -- one workload, one run ----------------------------------------------------

def run_one(args, spec: dict) -> int:
    common.bootstrap()
    try:
        from repro.core.context import Mode, init
        from repro.engine.stats import STATS
    except ImportError as exc:
        _fail(f"cannot import repro ({exc}); run from a checkout with src/")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; declared: {names}", 2)

    init(Mode.NONBLOCKING)
    trace = bool(args.trace)
    tr = common.Tracer(trace, STATS)
    seconds = float(args.seconds)
    if args.workload.startswith("lib_"):
        import lib_workloads
        res = lib_workloads.run(args.workload, args.seed, seconds, trace,
                                args.smoke, tr)
    elif args.workload == "serve_mixed":
        import serve_mixed
        res = serve_mixed.run(args.seed, seconds, trace, args.smoke, tr)
    else:
        import serve_stream
        res = serve_stream.run(args.seed, seconds, trace, args.smoke, tr)

    child_events = res.pop("child_events", [])
    if trace:
        import probes
        layer = res.setdefault("layer", {})
        if args.workload != "serve_stream":   # it reports its children's
            snap = STATS.snapshot()
            layer.update({f"store.{k}": snap[f"store_{k}"]
                          for k in ("hits", "misses", "stores")})
        layer.update(probes.run(args.workload, args.seed, args.smoke, tr))
        layer["failed_share"] = res["failed"] / max(res["attempted"], 1)
        res["layer_self_ms"] = tr.layer_summary()
        res["spans"] = len(tr.events) + len(child_events)
        common.write_chrome_trace(
            common.OUT / f"trace_{args.workload}.json",
            tr.events + child_events)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = res["layer"]
        unknown = sorted(set(values) - {m["name"] for m in declared})
        if unknown:
            _fail(f"undeclared per-layer metrics emitted: {unknown}", 4)
    else:
        values = {**res["derived"], **res["native"]}
    metrics = {}
    for m in declared:
        # A per-layer metric this workload never exercises reads 0:
        # the layer did no such work here.
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = ""
        if not trace and m["name"] in res["derived"]:
            note = "  = headline restated"
        elif not trace and m["name"] in res["samples"]:
            note = f"  n={res['samples'][m['name']]}"
        print(f"{args.workload:<13} {m['name']:<42} {value:>16.6g} {m['unit']}{note}")

    final = {"correct": res["failed"] == 0, "attempted": int(res["attempted"]),
             "failed": int(res["failed"]), "metrics": metrics}
    common.OUT.mkdir(parents=True, exist_ok=True)
    detail = {k: v for k, v in res.items() if k != "layer"}
    detail.update(final, workload=args.workload, seed=args.seed,
                  seconds=seconds, trace=int(trace))
    (common.OUT / f"run_{args.workload}_t{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, default=float))
    for line in res.get("failures", [])[:20]:
        print(f"e2e: FAILED {line}", file=sys.stderr)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


# -- every workload, untraced and traced --------------------------------------

def _launch(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.REPO)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        _fail(f"{workload} --trace {trace} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", 5)
    detail = json.loads(
        (common.OUT / f"run_{workload}_t{trace}.json").read_text())
    detail["process_wall_s"] = wall
    return json.loads(lines[-1]), detail


def _info(spec: dict, runs: dict) -> dict:
    """Context a reader needs beside the numbers, and ROADMAP item
    1(c)'s bookkeeping: "same numbers, less code" is checkable from
    this block alone."""
    common.bootstrap()
    import numpy
    import scipy
    from repro.engine import stats as engine_stats
    from repro.internals import config

    src = common.REPO / "src"
    overhead, lag = {}, {}
    for w, per in runs.items():
        overhead[w] = (per[1]["detail"]["closed_loop_wall_s"]
                       / per[0]["detail"]["closed_loop_wall_s"])
        if "generator_lag_p95_ms" in per[0]["detail"]:
            lag[w] = per[0]["detail"]["generator_lag_p95_ms"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fsync_policy": "JOURNAL_FSYNC=%s (library default)"
                        % bool(config.get_option("JOURNAL_FSYNC")),
        "ingest_batch": int(config.get_option("INGEST_BATCH")),
        "tracing_overhead": overhead,
        "generator_lag_p95_ms": lag,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in src.rglob("*.py")),
        "config_knobs": len(config._KNOWN),
        "stats_counters": len(engine_stats._COUNTERS),
    }


def run_all(args, spec: dict) -> int:
    seconds = float(args.seconds)
    workloads = [w["name"] for w in spec["workloads"]]
    sets, worst = [], 0
    for k in range(args.sets):
        runs = {}
        for w in workloads:
            runs[w] = {}
            for trace in (0, 1):
                final, detail = _launch(w, args.seed, seconds, trace, args.smoke)
                runs[w][trace] = {"final": final, "detail": detail}
                worst = max(worst, 0 if final["correct"] else 1)
                print(f"[set {k + 1}/{args.sets}] {w} trace={trace}: "
                      f"{detail['process_wall_s']:.1f}s attempted="
                      f"{final['attempted']} failed={final['failed']}",
                      flush=True)
        sets.append(runs)

    last = sets[-1]
    print("\n== end to end (untraced run; '=' marks a cell that restates "
          "the workload's headline) ==")
    for w in workloads:
        d = last[w][0]["detail"]
        for m in spec["end_to_end"]:
            cell = last[w][0]["final"]["metrics"][m["name"]]
            mark = "=" if m["name"] in d["derived"] else " "
            n = d["samples"].get(m["name"])
            print(f"{w:<13} {mark} {m['name']:<24} {cell['value']:>14.6g} "
                  f"{cell['unit']:<8}" + (f" n={n}" if n else ""))
        print(f"{w:<13}   {'failed_share':<24} "
              f"{d['failed'] / max(d['attempted'], 1):>14.6g} ratio    "
              f"n={d['attempted']}")
    print("\n== per layer (traced run) ==")
    for m in spec["per_layer"]:
        cells = "  ".join(
            f"{last[w][1]['final']['metrics'][m['name']]['value']:>12.5g}"
            for w in workloads)
        print(f"{m['name']:<40} {cells}  {m['unit']}")
    print(" " * 41 + "  ".join(f"{w:>12}" for w in workloads))

    over_bound = []
    summary = {}
    if args.sets > 1:
        print(f"\n== {args.sets} sets: median, quartiles, (max-min)/median ==")
        for w in workloads:
            for m in spec["end_to_end"]:
                vals = [s[w][0]["final"]["metrics"][m["name"]]["value"]
                        for s in sets]
                q1, mid, q3 = statistics.quantiles(vals, n=4)
                rel = (max(vals) - min(vals)) / mid if mid else 0.0
                summary[f"{w}/{m['name']}"] = {
                    "median": mid, "q1": q1, "q3": q3, "max_rel_spread": rel}
                flag = ""
                if rel > m["bound"] and m["name"] != "setup_s":
                    over_bound.append(f"{w}/{m['name']}")
                    flag = "  OVER BOUND"
                print(f"{w:<13} {m['name']:<24} {mid:>12.5g} "
                      f"[{q1:.5g}, {q3:.5g}] {rel:>7.3f} "
                      f"(bound {m['bound']}){flag}")

    result = {
        "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
        "info": _info(spec, last),
        "sets": [{w: {"end_to_end": s[w][0], "per_layer": s[w][1]}
                  for w in workloads} for s in sets],
        "spread": summary,
    }
    common.OUT.mkdir(parents=True, exist_ok=True)
    (common.OUT / "result.json").write_text(
        json.dumps(result, indent=1, default=float))
    print("\ninfo:", json.dumps(result["info"]))
    print(f"wrote {common.OUT / 'result.json'}")
    if over_bound:
        print("spread over bound: " + ", ".join(over_bound), file=sys.stderr)
        return 6
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload once "
                    "(driver mode); omit to run all, untraced and traced")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=1,
                    help="complete sets to run back to back (all-workload mode)")
    ap.add_argument("--smoke", action="store_true",
                    help="scale-8 graphs, short phases, 2 restart cycles")
    args = ap.parse_args()
    if not common.SPEC_PATH.is_file():
        _fail(f"{common.SPEC_PATH} not found")
    spec = common.load_spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
