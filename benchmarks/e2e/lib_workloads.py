"""``lib_algos`` and ``lib_smallops``: the library called directly.

Both run a fixed suite of algorithm calls in ``Mode.NONBLOCKING``, one
pass after another for ``--seconds``; every pass gets a fresh context
(cold memo) and freshly built matrices, and only the algorithm calls —
results materialised — are inside the timed region.  The traced run
also times the same suite in ``Mode.BLOCKING`` (the plain baseline
behind ``engine.nb_over_blocking``).
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from common import (ENGINE_COUNTS, Tracer, low, median, peak_rss_mb,
                    stats_delta)

SETUP_REPEATS = 5


def _graphs(workload: str, seed: int, smoke: bool) -> dict:
    """name -> (n, rows, cols, vals, undirected?)"""
    if workload == "lib_algos":
        return {"a": (*inputs.rmat_triples(8 if smoke else 13, seed, 0), True)}
    return {
        "a": (*inputs.rmat_triples(8 if smoke else 10, seed, 0), True),
        "g": (*inputs.grid_triples(24 if smoke else 96, seed), False),
    }


def _calls(workload: str, seed: int, graphs: dict):
    """The suite: ``(name, fn(mats) -> materialised result)``."""
    from repro import algorithms as alg

    def vec(v):
        return v.extract_tuples()

    if workload == "lib_algos":
        n, rows, cols, _, _ = graphs["a"]
        src = inputs.hub(n, rows, cols)
        return src, [
            ("bfs_levels", lambda m: vec(alg.bfs_levels(m["a"], src))),
            ("bfs_parents", lambda m: vec(alg.bfs_parents(m["a"], src))),
            ("sssp", lambda m: vec(alg.sssp(m["a"], src))),
            ("pagerank", lambda m: _pagerank(alg, m["a"])),
            ("triangle_count", lambda m: int(alg.triangle_count(m["a"]))),
            ("connected_components",
             lambda m: vec(alg.connected_components(m["a"]))),
        ]
    return 0, [
        ("core_numbers", lambda m: vec(alg.core_numbers(m["a"]))),
        ("maximal_independent_set",
         lambda m: vec(alg.maximal_independent_set(m["a"], seed=seed))),
        ("bfs_levels", lambda m: vec(alg.bfs_levels(m["g"], 0))),
        ("bfs_parents", lambda m: vec(alg.bfs_parents(m["g"], 0))),
    ]


def _pagerank(alg, a):
    ranks, iters = alg.pagerank(a, tol=inputs.PAGERANK_TOL)
    return ranks.extract_tuples(), int(iters)


def _build(graphs: dict, ctx, tr: Tracer) -> dict:
    from repro.core import types as T
    from repro.generators import to_matrix

    mats = {}
    for name, (n, rows, cols, vals, undirected) in graphs.items():
        with tr.span("core.to_matrix"):
            mats[name] = to_matrix(
                n, rows, cols, vals, T.FP64, make_undirected=undirected,
                no_self_loops=undirected, ctx=ctx)
    return mats


def _one_pass(mode, graphs, calls, tr: Tracer, stats, rid: int):
    """Fresh context, fresh matrices, the suite once.  Returns
    ``(wall_s, {call: ms}, {call: result}, stats delta)``; only the
    suite is timed."""
    from repro.core.context import Context

    ctx = Context.new(mode, None, {"nthreads": 1})
    try:
        mats = _build(graphs, ctx, tr)
        nnz = sum(m.nvals() for m in mats.values())
        before = stats.snapshot()
        ms, results = {}, {}
        with tr.span("lib.pass", rid=rid):
            t0 = time.perf_counter()
            for name, fn in calls:
                with tr.span(f"algorithms.{name}", rid=rid, stats=True):
                    t1 = time.perf_counter()
                    results[name] = fn(mats)
                    ms[name] = (time.perf_counter() - t1) * 1e3
            wall = time.perf_counter() - t0
        delta = stats_delta(before, stats.snapshot())
        delta["nnz"] = nnz
        return wall, ms, results, delta
    finally:
        ctx.free()


def _verify(workload: str, graphs: dict, src: int, passes: list) -> list[str]:
    """One line per wrong result, over every pass, against the oracle."""
    import oracle

    n, rows, cols, vals, _ = graphs["a"]
    a = oracle.undirected(n, rows, cols, vals)
    want: dict = {}
    if workload == "lib_algos":
        want = {
            "levels": oracle.bfs_levels(a, src), "dist": oracle.sssp(a, src),
            "ranks": oracle.pagerank(a), "tri": oracle.triangles(a),
            "comp": oracle.component_labels(a),
        }
    else:
        gn, grows, gcols, gvals, _ = graphs["g"]
        g = oracle.directed(gn, grows, gcols, gvals)
        want = {"core": oracle.core_numbers(a), "glevels": oracle.bfs_levels(g, 0)}

    def check(name, res) -> bool:
        if workload == "lib_algos":
            if name == "bfs_levels":
                return oracle.same_levels(
                    oracle.dense(n, *res, -1, np.int64), want["levels"])
            if name == "bfs_parents":
                return oracle.valid_parents(
                    a, src, oracle.dense(n, *res, -1, np.int64), want["levels"])
            if name == "sssp":
                return oracle.close(
                    oracle.dense(n, *res, np.inf, np.float64), want["dist"], 1e-9)
            if name == "pagerank":
                return oracle.ranks_close(
                    oracle.dense(n, *res[0], 0.0, np.float64), want["ranks"],
                    inputs.PAGERANK_TOL)
            if name == "triangle_count":
                return res == want["tri"]
            return oracle.same_partition(
                oracle.dense(n, *res, -1, np.int64), want["comp"])
        if name == "core_numbers":
            return bool(np.array_equal(
                oracle.dense(n, *res, 0, np.int64), want["core"]))
        if name == "maximal_independent_set":
            return oracle.maximal_independent(
                a, oracle.dense(n, *res, False, bool))
        levels = want["glevels"]
        if name == "bfs_levels":
            return oracle.same_levels(
                oracle.dense(gn, *res, -1, np.int64), levels)
        return oracle.valid_parents(
            g, 0, oracle.dense(gn, *res, -1, np.int64), levels)

    return [f"pass {i}: {name} differs from the oracle"
            for i, results in enumerate(passes)
            for name, res in results.items() if not check(name, res)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool, tr: Tracer) -> dict:
    from repro.core.context import Mode
    from repro.engine.stats import STATS

    # -- set-up, several times over; the median is reported ------------------
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tr.span("setup"):
            with tr.span("generators.triples"):
                graphs = _graphs(workload, seed, smoke)
            src, calls = _calls(workload, seed, graphs)
            _one_pass(Mode.NONBLOCKING, graphs, calls, tr, STATS, -1)  # warm-up
        setups.append(time.perf_counter() - t0)

    # -- measured: nonblocking passes for `seconds`; the traced run takes
    # turns with the same suite in blocking mode, so that both see the
    # same machine ------------------------------------------------------------
    walls, call_ms, kept, deltas, blocking = [], [], [], [], []
    off = Tracer(False)
    t_start = time.perf_counter()
    while len(walls) < 3 or time.perf_counter() - t_start < seconds:
        wall, ms, results, delta = _one_pass(
            Mode.NONBLOCKING, graphs, calls, tr, STATS, len(walls))
        walls.append(wall)
        call_ms.append(ms)
        kept.append(results)
        deltas.append(delta)
        if trace:
            wall, _, results, _ = _one_pass(
                Mode.BLOCKING, graphs, calls, off, STATS, -1)
            blocking.append(wall)
            kept.append(results)
    rss = peak_rss_mb()

    failures = _verify(workload, graphs, src, kept)
    solve = low(walls)
    out = {
        "attempted": sum(len(r) for r in kept),
        "failed": len(failures), "failures": failures,
        "samples": {"solve_s": len(walls), "setup_s": len(setups)},
        "native": {"setup_s": low(setups), "solve_s": solve,
                   "peak_rss_mb": rss},
        # Cells this workload has no phase for repeat its one headline
        # measurement — the pass wall — in the cell's unit.
        "derived": {
            "query_p50_ms": solve * 1e3, "query_p95_ms": solve * 1e3,
            "ingest_ack_p95_ms": solve * 1e3, "checkpoint_s": solve,
            "restart_first_answer_s": solve,
            "drain_qps": len(calls) / solve,
            "ingest_edges_per_s": deltas[0]["nnz"] / solve,
        },
        "closed_loop_wall_s": solve,
        "pass_walls_s": walls,
    }
    if trace:
        total = sum(walls)
        built = sum(d["nodes_built"] for d in deltas)
        layer = {
            "engine.nb_over_blocking": solve / low(blocking),
            "engine.kernel_share": sum(d["kernel_s"] for d in deltas) / total,
            "engine.us_per_node": total / max(built, 1) * 1e6,
            "algorithms.pagerank.iters": max(
                (r["pagerank"][1] for r in kept if "pagerank" in r), default=0),
        }
        for metric, counter in ENGINE_COUNTS.items():   # per pass: they repeat exactly
            layer[metric] = median([d[counter] for d in deltas])
        for name, _ in calls:
            layer[f"algorithms.{name}.ms"] = median([m[name] for m in call_ms])
        out["layer"] = layer
    return out
