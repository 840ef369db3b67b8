"""``serve_stream``: writes beside reads, durability on, kill, restart.

The serving stack runs in a child process (``stream_child.py serve``)
with a checkpoint directory and a warm store under
``benchmarks/e2e/out/``, default fsync policy.  Phases, in order:

Set-up ingests the first 128 write calls, so the measured phases start
on a graph past its fill-in transient (README, finding 3).

RW  open-loop reads (12 q/s) and open-loop writes (8 calls x 128 edges
    per second, sweeping their phase against the reads) on one loop, a
    checkpoint after every 10th call — read latency, ack latency;
B   a backlog of reads in 5 parts — ``drain_qps`` on a graph that moved;
W   closed-loop ``ingest_edges`` in 5 parts — edges/s;
    after every part of B and W, two quiet checkpoints with a cold 7 MB
    graph resident — ``checkpoint_s``;
then every tenant reads once more, a last checkpoint, four more
acknowledged flushes, and SIGKILL.  Fresh processes then restore a copy
of the killed directory and give their first three answers.

Why the phases are ordered and sized this way is in README.md.  This
process only orchestrates and checks: every answer against the oracle
at the generation it was answered at, and every acknowledged edge in
every restored graph.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import serve_common as sc
import stream_child
from common import Tracer, engine_totals, high, low, median, p95, percentile

RESTART_CYCLES = 5
CHILD = str(Path(__file__).resolve().parent / "stream_child.py")
#: Longest wait for the serving child to finish its phases.
SERVE_TIMEOUT_S = 150.0


def _spawn_server(cfg_path: Path) -> dict:
    """Run the serving child to READY, SIGKILL it, return what it wrote."""
    proc = subprocess.Popen([sys.executable, CHILD, "serve", str(cfg_path)],
                            stdout=subprocess.PIPE)
    try:
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        seen = b""
        while b"READY" not in seen:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([proc.stdout], [], [], max(left, 0))
            chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:       # timed out, or the child died (EOF)
                raise RuntimeError(
                    f"serving child did not reach READY (exit {proc.poll()})")
            seen += chunk
    finally:
        proc.kill()             # SIGKILL: no shutdown path runs
        proc.wait()
        proc.stdout.close()
    work = cfg_path.parent
    out = json.loads((work / "serve.json").read_text())
    with np.load(work / "answers.npz") as npz:
        out["answers"] = {k: npz[k] for k in npz.files}
    return out


def _restart(cfg: dict, cfg_path: Path, cycle: int) -> dict:
    work = cfg_path.parent
    shutil.copytree(work / "ck", work / f"ck-copy{cycle}")
    shutil.copytree(work / "store", work / f"store-copy{cycle}")
    cfg["spawned"] = time.time()
    cfg_path.write_text(json.dumps(cfg))
    subprocess.run([sys.executable, CHILD, "restart", str(cfg_path), str(cycle)],
                   check=True, timeout=SERVE_TIMEOUT_S)
    out = json.loads((work / f"restart{cycle}.json").read_text())
    with np.load(work / f"restart{cycle}.npz") as npz:
        out["arrays"] = {k: npz[k] for k in npz.files}
    return out


def _check(p: dict, served: dict, restarts: list) -> tuple[int, list[str]]:
    """``(attempted, failures)`` over reads, write calls, first answers."""
    import oracle

    base = oracle.undirected(*p["triples"])
    sent_at = dict(served["gens"])            # generation -> batches applied
    graphs: dict[int, object] = {}

    def graph_after(batches: int):
        if batches not in graphs:
            chunk = p["batches"][:batches]
            graphs[batches] = base if not chunk else oracle.upsert(
                base, *(np.concatenate([b[k] for b in chunk]) for k in range(3)))
        return graphs[batches]

    reads = served["recs_rw"] + served["recs_b"] + served["recs_last"]
    failures = sc.verify(reads, served["answers"],
                         lambda name, gen: graph_after(sent_at[gen]))

    # After the kill: every acknowledged call's edges are in every
    # restored graph, the restored graph is exactly the oracle's final
    # graph, and the first answers are right on it.
    final = graph_after(served["sent"])
    n = p["n"]
    coo = final.tocoo()
    want_keys = coo.row.astype(np.int64) * n + coo.col
    order = np.argsort(want_keys)
    want_keys, want_vals = want_keys[order], coo.data[order]
    call_keys = np.stack([b[0] * n + b[1]
                          for b in p["batches"][:served["sent"]]])
    lost_calls = np.zeros(len(call_keys), dtype=bool)
    cold = oracle.undirected(*p["cold_triples"])
    for cycle, r in enumerate(restarts):
        if not (r["cold"]["nvals"] == cold.nnz
                and np.isclose(r["cold"]["sum"], cold.data.sum(), rtol=1e-12)):
            failures.append(f"restart {cycle}: the cold graph came back changed")
        arr = r["arrays"]
        keys = arr["rows"].astype(np.int64) * n + arr["cols"]
        order = np.argsort(keys)
        keys, vals = keys[order], arr["vals"][order]
        lost_calls |= ~np.isin(call_keys, keys).all(axis=1)
        if not (np.array_equal(keys, want_keys)
                and np.array_equal(vals, want_vals)):
            failures.append(f"restart {cycle}: restored graph differs from "
                            f"the oracle's ({len(keys)} vs {len(want_keys)} edges)")
        for rec in r["recs"]:
            rec["gen0"] = rec["gen1"] = -1
        failures += [f"restart {cycle}: {f}" for f in
                     sc.verify(r["recs"], arr, lambda name, gen: final)]
    failures += [f"ingest call {i}: acknowledged edge missing after restore"
                 for i in np.flatnonzero(lost_calls)]
    attempted = len(reads) + len(call_keys) + len(restarts) * 5
    return attempted, failures


def run(seed: int, seconds: float, trace: bool, smoke: bool, tr: Tracer) -> dict:
    common.OUT.mkdir(parents=True, exist_ok=True)
    work = common.OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    p = stream_child.plan(seed, seconds, smoke)
    cfg = {"seed": seed, "seconds": seconds, "smoke": smoke, "trace": trace,
           "workdir": str(work), "epoch": tr.epoch, "hub": p["hub"]}
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    try:
        with tr.span("serve_stream.serving_child"):
            served = _spawn_server(cfg_path)
        cycles = 2 if smoke else RESTART_CYCLES
        restarts = []
        for cycle in range(cycles):
            with tr.span("serve_stream.restart_child", rid=cycle):
                restarts.append(_restart(cfg, cfg_path, cycle))
        attempted, failures = _check(p, served, restarts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = sc.latency_metrics(served["recs_rw"])
    drain = high(served["rates_b"])
    acks = [w["ack_ms"] for w in served["writes"]]
    w = served["w"]
    out = {
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "samples": {
            "setup_s": len(served["setups"]), "query_p50_ms": lat["samples"],
            "ingest_ack_p95_ms": len(acks), "ingest_edges_per_s": len(w["rates"]),
            "checkpoint_s": len(served["checkpoints"]),
            "drain_qps": len(served["rates_b"]),
            "restart_first_answer_s": len(restarts)},
        "native": {
            "setup_s": low(served["setups"]),
            "peak_rss_mb": served["rss_mb"],
            "query_p50_ms": lat["query_p50_ms"],
            "query_p95_ms": lat["query_p95_ms"],
            "drain_qps": drain,
            "ingest_edges_per_s": high(w["rates"]),
            "ingest_ack_p95_ms": p95(acks),
            "checkpoint_s": low(served["checkpoints"]),
            "restart_first_answer_s": low(
                [r["first_answer_s"] for r in restarts]),
        },
        # No library pass here: solve_s repeats the backlog's drain time.
        "derived": {"solve_s": len(served["recs_b"]) / drain},
        "closed_loop_wall_s": w["edges"] / high(w["rates"]),
        "latencies_ms": [r["latency_ms"] for r in served["recs_rw"]],
        "ack_ms": acks,
        "checkpoints_s": served["checkpoints"],
        "checkpoints_under_load_s": served["checkpoints_under_load"],
        "restarts_s": [r["first_answer_s"] for r in restarts],
        "generator_lag_p95_ms": percentile(
            [r["lag_ms"] for r in served["recs_rw"]]
            + [x["lag_ms"] for x in served["writes"]], 95.0),
        "fsync_policy": "JOURNAL_FSYNC default (on): every journal record "
                        "is fsynced before its ack",
        "restart_store": [r["stats"] for r in restarts],
        "child_events": served["events"] + [e for r in restarts
                                             for e in r["events"]],
    }
    if trace:
        st = served["stats"]
        waits = [r["total_ms"] - r["exec_ms"] for r in served["recs_rw"]
                 if "error" not in r]
        warm = [r["iterations"] for r in served["recs_rw"]
                if r["kind"] == "pagerank" and "iterations" in r]
        layer = {
            "serve.queue_wait_p50_ms": median(waits),
            "serve.queue_wait_p95_ms": percentile(waits, 95.0),
            "serve.generator_lag_p95_ms": out["generator_lag_p95_ms"],
            "serve.rejected": st["life"]["serve_rejected"],
            "serve.timeouts": st["life"]["serve_timeouts"],
            "serve.ingest_call_us": median(w["plain_s"]) * 1e6,
            "serve.flush_ms": median(w["flush_s"]) * 1e3,
            "serve.views_patched": st["rw"]["serve_views_patched"]
                                   + st["b"]["serve_views_patched"],
            "serve.journal_bytes_per_edge": served["journal_bytes_per_edge"],
            "serve.journal_appends": sum(
                st[k]["journal_appends"] for k in ("rw", "b", "w", "tail")),
            "serve.checkpoint_bytes": served["checkpoint_bytes"],
            "serve.restore_ms": low([r["restore_s"] for r in restarts]) * 1e3,
            "serve.replayed_records": median(
                [r["stats"]["journal_replayed"] for r in restarts]),
            "engine.kernel_share": st["b"]["kernel_s"] / served["wall_b"],
            "engine.us_per_node":
                served["wall_b"] / max(st["b"]["nodes_built"], 1) * 1e6,
            "algorithms.pagerank.iters": served["cold_iters"],
            "algorithms.pagerank.warm_iters": median(warm) if warm else 0,
            "algorithms.warm_hits": st["rw"]["algo_warm_hits"]
                                    + st["b"]["algo_warm_hits"],
            "store.stores": st["life"]["store_stores"],
            "store.hits": median([r["stats"]["store_hits"] for r in restarts]),
            "store.misses": median([r["stats"]["store_misses"] for r in restarts]),
            "store.bytes_on_disk": served["store_bytes"],
        }
        layer.update(sc.phase_layer_metrics(served["recs_rw"], "phase_a"))
        layer.update(sc.phase_layer_metrics(served["recs_b"], "phase_b"))
        layer.update(engine_totals(st["rw"], st["b"]))
        out["layer"] = layer
    return out
