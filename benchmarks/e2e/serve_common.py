"""Load generation and answer checking shared by both serving workloads.

One asyncio loop thread generates load and hosts the in-process
``GraphServer`` front door (no sockets); the server runs windows on the
default executor.  Open-loop phases time every query from the moment it
was *due*, so a stall is charged to the queries it delayed, and record
how late the generator itself ran.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

import inputs
from common import Tracer, median, p95

TENANTS = 4
MEMO_CAPACITY = 32
#: Admission bounds wide enough that no workload here is ever shed:
#: a shed query would be a failed operation, not a latency sample.
ADMISSION = {"max_pending": 1 << 16, "per_tenant": 1 << 16}


def make_query(kind: str, graph: str, source):
    from repro.serve import Query

    if kind == "bfs":
        return Query.make("bfs", graph, source)
    if kind == "pagerank":
        return Query.make("pagerank", graph, tol=inputs.PAGERANK_TOL)
    return Query.make("triangles", graph)


def open_sessions(svc, tr: Tracer) -> list:
    sessions = []
    for i in range(TENANTS):
        with tr.span("serve.open_session"):
            sessions.append(svc.open_session(
                f"t{i}", nthreads=1, memo_capacity=MEMO_CAPACITY))
    return sessions


def warm_up(svc, sessions, graphs, tr: Tracer) -> None:
    """One query of each kind per tenant and graph, so the measured
    phases start with filled memo tiers."""
    for session in sessions:
        for g in graphs:
            for kind in ("bfs", "pagerank", "triangles"):
                with tr.span("serve.execute"):
                    svc.execute(session, make_query(kind, g, 0))


def _record(plan_row, rid, due, gen0):
    kind, graph, source = plan_row
    return {"rid": rid, "kind": kind, "graph": graph, "source": source,
            "due": due, "gen0": gen0}


async def _submit(srv, svc, sessions, plan_row, rid, rec, tr: Tracer):
    kind, graph, source = plan_row
    try:
        with tr.span("serve.submit", rid=rid):
            res = await srv.submit(
                sessions[rid % len(sessions)], make_query(kind, graph, source))
    except Exception as exc:   # shed, timed out or raised: a failed query
        rec["done"] = time.perf_counter()
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return
    rec["done"] = time.perf_counter()
    rec["gen1"] = svc.graph_generation(graph)
    rec["value"] = res.value
    rec["exec_ms"] = res.latency_ms
    rec["total_ms"] = res.total_ms
    rec["batched"] = res.batched


async def open_loop(srv, svc, sessions, plan, due, tr: Tracer, rid0=0) -> list:
    """Fire ``plan[i]`` at ``due[i]`` seconds after the start, whatever
    the server is doing.  Latency counts from the due time."""
    start = time.perf_counter()
    recs, tasks = [], []
    for i, row in enumerate(plan):
        delay = due[i] - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.perf_counter()
        rec = _record(row, rid0 + i, start + due[i],
                      svc.graph_generation(row[1]))
        rec["lag_ms"] = (now - rec["due"]) * 1e3
        recs.append(rec)
        tasks.append(asyncio.ensure_future(
            _submit(srv, svc, sessions, row, rid0 + i, rec, tr)))
    await asyncio.gather(*tasks)
    for rec in recs:
        rec["latency_ms"] = (rec["done"] - rec["due"]) * 1e3
    return recs


async def backlog(srv, svc, sessions, plan, tr: Tracer, rid0=0, parts=1,
                  between=None):
    """*plan* in *parts* equal backlogs, each with every query due at
    once and drained before the next is submitted (closed by
    construction: nothing arrives while one drains).  Returns
    ``(records, [queries/s of each part])``; ``between()`` runs after
    each part, outside its timing."""
    recs, rates = [], []
    bounds = [round(len(plan) * k / parts) for k in range(parts + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        start = time.perf_counter()
        part = [_record(plan[i], rid0 + i, start,
                        svc.graph_generation(plan[i][1])) for i in range(lo, hi)]
        await asyncio.gather(*[
            _submit(srv, svc, sessions, plan[lo + k], rid0 + lo + k, rec, tr)
            for k, rec in enumerate(part)])
        rates.append((hi - lo) / (time.perf_counter() - start))
        for rec in part:
            rec["latency_ms"] = (rec["done"] - start) * 1e3
        recs += part
        if between is not None:
            between()
    return recs, rates


def latency_metrics(recs: list) -> dict:
    ok = [r["latency_ms"] for r in recs if "error" not in r]
    return {"query_p50_ms": median(ok), "query_p95_ms": p95(ok),
            "samples": len(ok)}


def phase_layer_metrics(recs: list, suffix: str) -> dict:
    """Batching seen from outside: riders of one shared execution come
    back with the very same ``latency_ms``, so distinct values count
    the shared executions."""
    ok = [r for r in recs if "error" not in r]
    shared = {r["exec_ms"] for r in ok if r["batched"]}
    executions = len(shared) + sum(1 for r in ok if not r["batched"])
    return {
        f"serve.batch_size_mean.{suffix}": len(ok) / max(executions, 1),
        f"serve.batched_share.{suffix}":
            sum(1 for r in ok if r["batched"]) / max(len(ok), 1),
    }


# -- answers: compact form and oracle check -----------------------------------

def compact(recs: list, sizes: dict) -> dict:
    """Answers as arrays (``a<rid>``), so a child can hand them over in
    one ``.npz``: BFS levels dense with -1, ranks dense, a count as is."""
    out = {}
    for rec in recs:
        value = rec.pop("value", None)
        if value is None:
            continue
        n = sizes[rec["graph"]]
        if rec["kind"] == "bfs":
            arr = np.full(n, -1, dtype=np.int64)
            arr[np.fromiter(value.keys(), dtype=np.int64, count=len(value))] = \
                np.fromiter(value.values(), dtype=np.int64, count=len(value))
        elif rec["kind"] == "pagerank":
            ranks = value["ranks"]
            arr = np.zeros(n)
            arr[np.fromiter(ranks.keys(), dtype=np.int64, count=len(ranks))] = \
                np.fromiter(ranks.values(), dtype=np.float64, count=len(ranks))
            rec["iterations"] = value["iterations"]
        else:
            arr = np.array([value], dtype=np.int64)
        out[f"a{rec['rid']}"] = arr
    return out


def verify(recs: list, answers: dict, graph_at) -> list[str]:
    """One line per failure among *recs*: an error, a missing answer, or
    an answer matching the oracle at none of the graph generations the
    query can have run at (``gen0`` when submitted … ``gen1`` when
    answered).  ``graph_at(name, gen)`` returns the oracle's matrix."""
    import oracle

    cache: dict = {}

    def want(rec, gen):
        key = (rec["kind"], rec["graph"], gen, rec["source"])
        if key not in cache:
            a = graph_at(rec["graph"], gen)
            if rec["kind"] == "bfs":
                cache[key] = oracle.bfs_levels(a, rec["source"])
            elif rec["kind"] == "pagerank":
                cache[key] = oracle.pagerank(a)
            else:
                cache[key] = oracle.triangles(a)
        return cache[key]

    def matches(rec, got, gen) -> bool:
        ref = want(rec, gen)
        if rec["kind"] == "bfs":
            return oracle.same_levels(got, ref)
        if rec["kind"] == "pagerank":
            return oracle.ranks_close(got, ref, inputs.PAGERANK_TOL)
        return int(got[0]) == ref

    failures = []
    for rec in recs:
        got = answers.get(f"a{rec['rid']}")
        label = f"{rec['kind']} rid={rec['rid']} graph={rec['graph']}"
        if "error" in rec or got is None:
            failures.append(f"{label}: {rec.get('error', 'no answer')}")
        elif not any(matches(rec, got, gen)
                     for gen in range(rec["gen0"], rec["gen1"] + 1)):
            failures.append(f"{label}: wrong at every generation "
                            f"{rec['gen0']}..{rec['gen1']}")
    return failures
