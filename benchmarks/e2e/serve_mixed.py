"""``serve_mixed``: read-only serving through ``GraphServer.submit``.

Two resident graphs, four tenant sessions, 75 % BFS / 20 % pagerank /
5 % triangles.  Phase A is an open loop (Poisson arrivals): the
un-batched regime, where the front door's own cost shows.  Phase B is a
backlog all due at once: the batched regime, where coalescing shows.
No checkpoint directory, no store: durability is off here.
"""

from __future__ import annotations

import asyncio
import time

import inputs
import serve_common as sc
from common import (Tracer, engine_totals, high, low, median, peak_rss_mb,
                    percentile, stats_delta)

SETUP_REPEATS = 5
#: Phase A arrival rate (queries/s) and its share of ``--seconds``;
#: phase B's backlog is BACKLOG_PER_S queries per second of ``--seconds``,
#: drained in BACKLOG_PARTS equal parts (the best part gives the rate).
RATE_A = 12.0
SHARE_A = 0.7
BACKLOG_PER_S = 30
BACKLOG_PARTS = 5


def _setup(seed: int, smoke: bool, tr: Tracer):
    from repro.core import types as T
    from repro.generators import to_matrix
    from repro.serve import GraphService

    with tr.span("setup"):
        scales = {"g0": 8, "g1": 8} if smoke else {"g0": 11, "g1": 10}
        triples = {}
        svc = GraphService(name="mixed")
        for k, (name, scale) in enumerate(sorted(scales.items())):
            with tr.span("generators.triples"):
                triples[name] = inputs.rmat_triples(scale, seed, k)
            n, rows, cols, vals = triples[name]
            with tr.span("core.to_matrix"):
                mat = to_matrix(n, rows, cols, vals, T.FP64,
                                make_undirected=True, no_self_loops=True)
            with tr.span("serve.register_graph"):
                svc.register_graph(name, mat)
        sessions = sc.open_sessions(svc, tr)
        sc.warm_up(svc, sessions, sorted(scales), tr)
    return svc, sessions, triples


def run(seed: int, seconds: float, trace: bool, smoke: bool, tr: Tracer) -> dict:
    from repro.engine.stats import STATS
    from repro.serve import GraphServer

    setups, svc = [], None
    for _ in range(SETUP_REPEATS):
        if svc is not None:
            svc.close()
        t0 = time.perf_counter()
        svc, sessions, triples = _setup(seed, smoke, tr)
        setups.append(time.perf_counter() - t0)
    sizes = {name: t[0] for name, t in triples.items()}

    rng = inputs.rng_for(seed, 10)
    due = inputs.poisson_times(rng, RATE_A, seconds * SHARE_A)
    plan_a = inputs.query_plan(rng, len(due), sizes, shuffle=False)
    plan_b = inputs.query_plan(rng, int(BACKLOG_PER_S * seconds), sizes)

    async def phases():
        async with GraphServer(svc, **sc.ADMISSION) as srv:
            s0 = STATS.snapshot()
            with tr.span("phase_a"):
                recs_a = await sc.open_loop(srv, svc, sessions, plan_a, due, tr)
            s1 = STATS.snapshot()
            with tr.span("phase_b"):
                t0 = time.perf_counter()
                recs_b, rates = await sc.backlog(
                    srv, svc, sessions, plan_b, tr, rid0=len(plan_a),
                    parts=BACKLOG_PARTS)
                wall_b = time.perf_counter() - t0
            return recs_a, recs_b, rates, wall_b, s0, s1, STATS.snapshot()

    recs_a, recs_b, rates, wall_b, s0, s1, s2 = asyncio.run(phases())
    rss = peak_rss_mb()
    svc.close()

    recs = recs_a + recs_b
    answers = sc.compact(recs, sizes)

    import oracle
    graphs = {name: oracle.undirected(*t) for name, t in triples.items()}
    failures = sc.verify(recs, answers, lambda name, gen: graphs[name])

    lat = sc.latency_metrics(recs_a)
    drain = high(rates)
    drain_s = len(plan_b) / drain       # the backlog at the undisturbed rate
    nnz = median([g.nnz for g in graphs.values()])
    out = {
        "attempted": len(recs), "failed": len(failures), "failures": failures,
        "samples": {"query_p50_ms": lat["samples"], "drain_qps": len(rates),
                    "setup_s": len(setups)},
        "native": {"setup_s": low(setups), "peak_rss_mb": rss,
                   "query_p50_ms": lat["query_p50_ms"],
                   "query_p95_ms": lat["query_p95_ms"], "drain_qps": drain},
        # No library pass, no writes, no durability here: time cells
        # repeat the backlog's drain wall, the write-latency cell the
        # read tail, the edge-rate cell the drain rate in edges swept.
        "derived": {"solve_s": drain_s, "checkpoint_s": drain_s,
                    "restart_first_answer_s": drain_s,
                    "ingest_ack_p95_ms": lat["query_p95_ms"],
                    "ingest_edges_per_s": drain * nnz},
        "closed_loop_wall_s": drain_s,
        "latencies_ms": [r["latency_ms"] for r in recs_a],
        "generator_lag_p95_ms": percentile([r["lag_ms"] for r in recs_a], 95.0),
    }
    if trace:
        da, db = stats_delta(s0, s1), stats_delta(s1, s2)
        waits = [r["total_ms"] - r["exec_ms"] for r in recs_a if "error" not in r]
        layer = {
            "serve.queue_wait_p50_ms": median(waits),
            "serve.queue_wait_p95_ms": percentile(waits, 95.0),
            "serve.generator_lag_p95_ms": out["generator_lag_p95_ms"],
            "serve.rejected": da["serve_rejected"] + db["serve_rejected"],
            "serve.timeouts": da["serve_timeouts"] + db["serve_timeouts"],
            "engine.kernel_share": db["kernel_s"] / wall_b,
            "engine.us_per_node": wall_b / max(db["nodes_built"], 1) * 1e6,
        }
        layer.update(sc.phase_layer_metrics(recs_a, "phase_a"))
        layer.update(sc.phase_layer_metrics(recs_b, "phase_b"))
        layer.update(engine_totals(da, db))
        out["layer"] = layer
    return out
