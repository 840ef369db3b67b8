"""S2 — the durability plane: warm restart vs cold rebuild.

A serving replica dies; how fast is the replacement *useful*?  Two
paths to the same resident graph + answered query set:

* **cold rebuild** (``blocking_ms``) — re-derive the graph from its
  edge list (``to_matrix``: dedup, symmetrize, commit) and answer the
  first query on a stone-cold service;
* **warm restart** (``nb_warm_ms``) — ``GraphService.restore`` from a
  checkpoint directory (§VII blob deserialize + journal replay, warm
  algo-memo blocks and kernel-calibration rates rehydrated), then the
  same first query.

The timed quantity is *time to first answer* — readiness is what a
replacement replica is for; steady-state query latency is identical by
construction and only adds noise.  A full mixed query set then runs
untimed on both services and must agree exactly (parity), with the
proof counters riding along: ``restored_graphs`` > 0 shows restore
actually ran, ``algo_memo_hits`` during the warm parity run shows the
rehydrated blocks were used rather than recomputed.

A second (informational, ungated) section pushes the same load through
the asyncio front door with a generous per-query deadline and reports
the deadline-miss rate — the robustness-plane SLO under batched load.

Results land in ``BENCH_recovery.json``; ``tools/bench_gate.py`` gates
``recovery.nb_warm_ms / blocking_ms`` against the committed baseline
in ``benchmarks/BENCH_recovery.json``.
"""

import asyncio
import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table
from repro.core import types as T
from repro.engine.stats import STATS
from repro.generators import rmat, to_matrix
from repro.serve import GraphServer, GraphService, Query

import numpy as np

SCALE = 13
QUERIES = 6
REPS = 5
DEADLINE_MS = 2_000.0

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def emit_results():
    yield
    if _RESULTS:
        Path("BENCH_recovery.json").write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n"
        )


def _edge_list():
    n, rows, cols, _ = rmat(SCALE, 8, seed=7)
    return n, rows, cols


def _build_graph(n, rows, cols):
    return to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64,
                     make_undirected=True, no_self_loops=True)


def _plan(i: int, n: int) -> Query:
    if i % 6 == 5:
        return Query.make("pagerank", "g", tol=1e-6)
    return Query.make("bfs", "g", (i * 37) % n)


def _answer_all(service, n) -> list:
    s = service.open_session("bench", nthreads=2, memo_capacity=64)
    out = []
    for i in range(QUERIES):
        r = s.run(_plan(i, n))
        out.append({k: round(float(v), 9) for k, v in r.value["ranks"].items()}
                   if r.query.kind == "pagerank" else r.value)
    return out


def _first_answer(service, n):
    s = service.open_session("probe", nthreads=2)
    return s.run(Query.make("bfs", "g", 0)).value


def _cold_run(n, rows, cols):
    """Replica replacement the hard way: rebuild from the edge list."""
    t0 = time.perf_counter()
    service = GraphService(name="cold")
    service.register_graph("g", _build_graph(n, rows, cols))
    first = _first_answer(service, n)
    wall = (time.perf_counter() - t0) * 1e3
    values = _answer_all(service, n)  # untimed: parity material
    service.close()
    return wall, first, values


def _warm_run(ckpt: str, n):
    """Replica replacement via the durability plane."""
    before = STATS.snapshot()
    t0 = time.perf_counter()
    service = GraphService.restore(ckpt)
    first = _first_answer(service, n)
    wall = (time.perf_counter() - t0) * 1e3
    values = _answer_all(service, n)  # untimed: parity material
    after = STATS.snapshot()
    counters = {
        k: after[k] - before[k]
        for k in ("restored_graphs", "restored_blocks", "algo_memo_hits")
    }
    service.close()
    return wall, first, values, counters


def _deadline_load(ckpt: str, n):
    """The same mix through the front door under a per-query deadline."""
    service = GraphService.restore(ckpt)
    sessions = [service.open_session(f"t{i}", nthreads=2, memo_capacity=32)
                for i in range(3)]

    async def load():
        async with GraphServer(service, max_pending=QUERIES * 2,
                               per_tenant=QUERIES, batch_window=8,
                               deadline_ms=DEADLINE_MS) as srv:
            jobs = [srv.submit(sessions[i % 3], _plan(i, n))
                    for i in range(QUERIES)]
            return await asyncio.gather(*jobs, return_exceptions=True)

    results = asyncio.run(load())
    missed = sum(1 for r in results if isinstance(r, BaseException))
    service.close()
    return missed


@pytest.mark.benchmark(group="S2-recovery")
class TestWarmRestart:
    def test_warm_restart_vs_cold_rebuild(self):
        n, rows, cols = _edge_list()

        cold_wall, cold_first, cold_vals = None, None, None
        for _ in range(REPS):
            wall, first, vals = _cold_run(n, rows, cols)
            if cold_wall is None or wall < cold_wall:
                cold_wall, cold_first, cold_vals = wall, first, vals

        # Seed one checkpoint: a lived-in service (graphs + warm memo
        # blocks + calibration) compacted to disk.
        ckpt = tempfile.mkdtemp(prefix="bench-ckpt-")
        try:
            seed_svc = GraphService(name="seed", checkpoint_dir=ckpt)
            seed_svc.register_graph("g", _build_graph(n, rows, cols))
            _answer_all(seed_svc, n)
            seed_svc.checkpoint()
            seed_svc.close()

            warm_wall, counters = None, None
            for _ in range(REPS):
                wall, first, vals, ctr = _warm_run(ckpt, n)
                assert first == cold_first and vals == cold_vals, \
                    "restored replica diverged"
                if warm_wall is None or wall < warm_wall:
                    warm_wall, counters = wall, ctr

            missed = _deadline_load(ckpt, n)
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)

        assert counters["restored_graphs"] >= 1, "restore never ran"
        assert counters["algo_memo_hits"] >= 1, \
            "rehydrated warm blocks were never hit"

        _RESULTS["recovery"] = {
            "blocking_ms": cold_wall,
            "nb_warm_ms": warm_wall,
            "restored_graphs": counters["restored_graphs"],
            "restored_blocks": counters["restored_blocks"],
            "algo_memo_hits": counters["algo_memo_hits"],
            "queries": QUERIES,
        }
        _RESULTS["recovery_deadlines"] = {
            "deadline_ms": DEADLINE_MS,
            "queries": QUERIES,
            "missed": missed,
            "miss_rate": missed / QUERIES,
        }
        print_table(
            f"S2  replica time-to-first-answer, {QUERIES}-query parity "
            f"(rmat scale {SCALE})",
            ["variant", "wall ms", "proof"],
            [["cold rebuild", f"{cold_wall:.1f}", ""],
             ["warm restart", f"{warm_wall:.1f}",
              f"graphs={counters['restored_graphs']} "
              f"blocks={counters['restored_blocks']} "
              f"memo_hits={counters['algo_memo_hits']}"],
             [f"deadline {DEADLINE_MS:.0f} ms", "",
              f"missed {missed}/{QUERIES}"]],
        )
        # The durability contract: restoring state must beat
        # recomputing it, and the generous deadline must be met.
        assert warm_wall < cold_wall, "warm restart lost to cold rebuild"
        assert missed == 0, "deadline misses under a generous budget"
