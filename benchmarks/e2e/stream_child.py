"""Child processes of ``serve_stream``.

``serve``   — the serving process: builds the durable service, runs the
              phases, writes what it observed, prints ``READY`` and
              waits to be SIGKILLed (no shutdown path runs).
``restart`` — a fresh process: ``GraphService.restore`` on a copy of the
              killed directory, then the first bfs, pagerank and
              triangles answers.

Neither imports scipy or the oracle: the parent checks the answers.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import common  # noqa: E402
import inputs  # noqa: E402

SETUP_REPEATS = 5
#: Phase RW: open-loop reads and writes side by side, for this share of
#: ``--seconds``; a checkpoint after every CHECKPOINT_CALLS-th write call.
SHARE_RW = 0.8
READ_RATE = 12.0
WRITE_CALLS_PER_S = 8.0           # x 128 edges = 1024 edges/s
#: 8 calls fill the ingest buffer and flush it, 2 more and the
#: checkpoint folds them: every checkpoint meets the same work, and one
#: call in ten flushes (so the ack p95 sits inside the flushing calls,
#: not on the edge between them and the plain ones).
CHECKPOINT_CALLS = 10
#: Phase B: reads all due at once, per second of ``--seconds``, drained
#: in BACKLOG_PARTS equal parts (the best part gives the rate).
BACKLOG_PER_S = 25
BACKLOG_PARTS = 5
#: Phase W: closed-loop ingest calls per second of ``--seconds``
#: (count-based, so the final graph depends on the seed alone), timed
#: in W_CHUNKS equal parts; the best part gives the rate.
W_CALLS_PER_S = 400
W_CHUNKS = 5
#: Quiet checkpoints — the ``checkpoint_s`` samples: QUIET_PER_GAP after
#: every part of B and of W (so they are spread over ~8 s), each folding
#: QUIET_CALLS buffered ingest calls, no read in flight, and with a
#: second resident graph nobody reads or writes registered after RW
#: (~7 MB of state to snapshot).
QUIET_PER_GAP = 2
QUIET_CALLS = 2
COLD_SCALE = 15
#: Flushes acknowledged after the last checkpoint: what restore replays.
TAIL_FLUSHES = 4
GRAPH = "g"
SCALE = 10
#: Ingest calls applied during set-up, before any session opens.  The
#: pool's fresh pairs reach vertices the RMAT draw left isolated, and
#: while those are being attached a warm-started pagerank needs ~45
#: sweeps; once they are, ~15 (README, finding 3).  Without this the
#: first seconds of RW are that transient, its length differs by seed,
#: and ``query_p95_ms`` measures how many pageranks fell inside it.
PRE_CALLS = 128


def plan(seed: int, seconds: float, smoke: bool) -> dict:
    """Everything the run sends, from the seed alone — the parent calls
    this too, to know what each graph generation must contain."""
    scale = 8 if smoke else SCALE
    n, rows, cols, vals = inputs.rmat_triples(scale, seed, 0)
    rng = inputs.rng_for(seed, 20)
    read_due = inputs.even_times(rng, READ_RATE, seconds * SHARE_RW)
    write_due = inputs.swept_times(rng, WRITE_CALLS_PER_S, seconds * SHARE_RW)
    reads_rw = inputs.query_plan(rng, len(read_due), {GRAPH: n}, shuffle=False)
    reads_b = inputs.query_plan(rng, int(BACKLOG_PER_S * seconds), {GRAPH: n})
    from repro.internals import config
    per_flush = int(config.get_option("INGEST_BATCH")) // inputs.BATCH_EDGES
    n_c = (BACKLOG_PARTS + W_CHUNKS) * QUIET_PER_GAP * QUIET_CALLS
    n_w = int(W_CALLS_PER_S * seconds)
    n_tail = TAIL_FLUSHES * per_flush
    pool = inputs.edge_pool(n, rows, cols)
    n_pre = 16 if smoke else PRE_CALLS
    batches = inputs.edge_batches(rng, pool,
                                  n_pre + len(write_due) + n_c + n_w)
    # The tail rewrites pairs already written, with new weights:
    # value-only by construction (README, finding on stale blocks).
    batches += [(r, c, np.tile(rng.uniform(0.05, 1.0, len(r) // 2), 2))
                for r, c, _ in batches[:n_tail]]
    return {
        "n": n, "triples": (n, rows, cols, vals),
        "cold_triples": inputs.rmat_triples(9 if smoke else COLD_SCALE, seed, 1),
        "hub": inputs.hub(n, rows, cols),
        "read_due": read_due, "write_due": write_due,
        "reads_rw": reads_rw, "reads_b": reads_b, "batches": batches,
        "n_pre": n_pre, "n_rw": len(write_due), "n_c": n_c, "n_w": n_w,
        "n_tail": n_tail,
        "checkpoint_due": write_due[CHECKPOINT_CALLS - 1::CHECKPOINT_CALLS]
                          + 0.5 / WRITE_CALLS_PER_S,
    }


def _dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


# -- the serving process ------------------------------------------------------

def _setup(cfg: dict, p: dict, tr, tag: str):
    from repro.core import types as T
    from repro.generators import to_matrix
    from repro.serve import GraphService
    import serve_common as sc

    work = Path(cfg["workdir"])
    with tr.span("setup"):
        n, rows, cols, vals = p["triples"]
        with tr.span("serve.GraphService"):
            svc = GraphService(name="stream",
                               checkpoint_dir=str(work / f"ck{tag}"),
                               store_dir=str(work / f"store{tag}"))
        with tr.span("core.to_matrix"):
            mat = to_matrix(n, rows, cols, vals, T.FP64,
                            make_undirected=True, no_self_loops=True)
        with tr.span("serve.register_graph"):
            svc.register_graph(GRAPH, mat)
        for batch in p["batches"][:p["n_pre"]]:
            svc.ingest_edges(GRAPH, *batch)
        svc.flush_ingest(GRAPH)
        sessions = sc.open_sessions(svc, tr)
        cold = svc.execute(sessions[0], sc.make_query("pagerank", GRAPH, None))
        sc.warm_up(svc, sessions, [GRAPH], tr)
    return svc, sessions, int(cold.value["iterations"])


async def _writes_and_checkpoints(svc, p, tr, start, log):
    """One sequential stream of writes and checkpoints in due order.
    No ingest call is in flight while a checkpoint runs, so each
    generation's content is exactly "every batch sent so far".  A write
    that found the stream still busy at its due time is charged the
    wait (its latency counts from due); one that slept until due is
    timed from the call, not from due: how late the event loop woke
    (3-8 ms whenever a pagerank holds the interpreter, by which of them
    decided the p95) is the generator's lag and is reported as that."""
    loop = asyncio.get_running_loop()
    events = sorted(
        [(t, 0, i) for i, t in enumerate(p["write_due"])]
        + [(t, 1, i) for i, t in enumerate(p["checkpoint_due"])])
    for due, is_checkpoint, i in events:
        delay = due - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        t0 = time.perf_counter()
        since = t0 if delay > 0 else start + due
        if is_checkpoint:
            with tr.span("serve.checkpoint", rid=f"c{i}", stats=True):
                await loop.run_in_executor(None, svc.checkpoint)
            log["checkpoints"].append(time.perf_counter() - t0)
        else:
            rows, cols, vals = p["batches"][log["sent"]]
            with tr.span("serve.ingest_edges", rid=f"w{log['sent']}"):
                ack = svc.ingest_edges(GRAPH, rows, cols, vals)
            done = time.perf_counter()
            log["writes"].append({
                "lag_ms": (t0 - start - due) * 1e3,
                "call_ms": (done - t0) * 1e3,
                "ack_ms": (done - since) * 1e3,
                "durable": bool(ack["durable"])})
            log["sent"] += 1
        _note_generation(svc, log)


def _note_generation(svc, log) -> None:
    gen = svc.graph_generation(GRAPH)
    if gen != log["gens"][-1][0]:
        log["gens"].append((gen, log["sent"]))


def _closed_loop_ingest(svc, p, tr, log, count: int, chunks: int = 1,
                        between=None) -> dict:
    """The next *count* ingest calls back to back in *chunks* equal
    parts, each ended by a flush (``between()`` runs after each part,
    untimed).  Returns each part's edges/s and the per-call times split
    into plain and flush-triggering calls."""
    plain, flushing, rates = [], [], []
    bounds = [round(count * k / chunks) for k in range(chunks + 1)]
    for size in (hi - lo for lo, hi in zip(bounds, bounds[1:])):
        t0 = time.perf_counter()
        for i in range(log["sent"], log["sent"] + size):
            rows, cols, vals = p["batches"][i]
            t1 = time.perf_counter()
            with tr.span("serve.ingest_edges", rid=f"w{i}"):
                ack = svc.ingest_edges(GRAPH, rows, cols, vals)
            (flushing if ack["durable"] else plain).append(
                time.perf_counter() - t1)
            log["sent"] = i + 1
            if ack["durable"]:
                _note_generation(svc, log)
        with tr.span("serve.flush_ingest"):
            svc.flush_ingest(GRAPH)
        rates.append(size * inputs.BATCH_EDGES / (time.perf_counter() - t0))
        _note_generation(svc, log)
        if between is not None:
            between()
    return {"rates": rates, "edges": count * inputs.BATCH_EDGES,
            "plain_s": plain, "flush_s": flushing}


def serve(cfg: dict) -> None:
    common.bootstrap()
    from repro.core.context import Mode, init
    from repro.engine.stats import STATS
    from repro.serve import GraphServer
    import serve_common as sc

    init(Mode.NONBLOCKING)
    born = STATS.snapshot()
    tr = common.Tracer(cfg["trace"], STATS, pid=2, epoch=cfg["epoch"])
    p = plan(cfg["seed"], cfg["seconds"], cfg["smoke"])
    work = Path(cfg["workdir"])

    setups, svc = [], None
    for k in range(SETUP_REPEATS):
        if svc is not None:
            svc.close()
        t0 = time.perf_counter()
        svc, sessions, cold_iters = _setup(
            cfg, p, tr, "" if k == SETUP_REPEATS - 1 else f"-setup{k}")
        setups.append(time.perf_counter() - t0)

    log = {"gens": [(svc.graph_generation(GRAPH), p["n_pre"])],
           "sent": p["n_pre"],
           "writes": [], "checkpoints": []}
    sizes = {GRAPH: p["n"]}

    quiet = []

    def quiet_checkpoints():
        for _ in range(QUIET_PER_GAP):
            for i in range(log["sent"], log["sent"] + QUIET_CALLS):
                svc.ingest_edges(GRAPH, *p["batches"][i])
                log["sent"] = i + 1
            t0 = time.perf_counter()
            with tr.span("serve.checkpoint", rid=f"q{len(quiet)}", stats=True):
                svc.checkpoint()
            quiet.append(time.perf_counter() - t0)
            _note_generation(svc, log)

    def cold_tenant_arrives():
        from repro.core import types as T
        from repro.generators import to_matrix

        cn, crows, ccols, cvals = p["cold_triples"]
        with tr.span("core.to_matrix"):
            cold = to_matrix(cn, crows, ccols, cvals, T.FP64,
                             make_undirected=True, no_self_loops=True)
        with tr.span("serve.register_graph"):
            svc.register_graph("cold", cold)
        _note_generation(svc, log)

    async def phases():
        async with GraphServer(svc, **sc.ADMISSION) as srv:
            s0 = STATS.snapshot()
            with tr.span("phase_rw"):
                start = time.perf_counter()
                writer = asyncio.ensure_future(
                    _writes_and_checkpoints(svc, p, tr, start, log))
                recs_rw = await sc.open_loop(
                    srv, svc, sessions, p["reads_rw"], p["read_due"], tr)
                await writer
            s1 = STATS.snapshot()
            cold_tenant_arrives()
            with tr.span("phase_b"):
                t0 = time.perf_counter()
                recs_b, rates_b = await sc.backlog(
                    srv, svc, sessions, p["reads_b"], tr,
                    rid0=len(p["reads_rw"]), parts=BACKLOG_PARTS,
                    between=quiet_checkpoints)
                wall_b = time.perf_counter() - t0
            return recs_rw, recs_b, rates_b, wall_b, s0, s1, STATS.snapshot()

    recs_rw, recs_b, rates_b, wall_b, s0, s1, s2 = asyncio.run(phases())

    journal = Path(cfg["workdir"]) / "ck"
    with tr.span("phase_w"):
        w = _closed_loop_ingest(svc, p, tr, log, p["n_w"], W_CHUNKS,
                                between=quiet_checkpoints)
    s3 = STATS.snapshot()

    # Every tenant reads once more, so the last checkpoint carries warm
    # blocks of the graph as it now is; then a short acknowledged tail:
    # restore loads the snapshot and replays TAIL_FLUSHES journal records.
    recs_last = []
    with tr.span("last_reads"):
        for k, session in enumerate(sessions):
            for kind in ("bfs", "pagerank", "triangles"):
                rid = len(recs_rw) + len(recs_b) + len(recs_last)
                source = p["hub"] if kind == "bfs" else None
                gen = svc.graph_generation(GRAPH)
                with tr.span("serve.execute", rid=rid):
                    res = svc.execute(session, sc.make_query(kind, GRAPH, source))
                recs_last.append({"rid": rid, "kind": kind, "graph": GRAPH,
                                  "source": source, "gen0": gen, "gen1": gen,
                                  "value": res.value})
    with tr.span("serve.checkpoint", stats=True):
        svc.checkpoint()
    _note_generation(svc, log)
    checkpoint_bytes = _dir_bytes(journal) - _dir_bytes(journal, "journal-*.rjl")
    j0 = _dir_bytes(journal, "journal-*.rjl")
    tail = _closed_loop_ingest(svc, p, tr, log, p["n_tail"])
    tail_journal_bytes = _dir_bytes(journal, "journal-*.rjl") - j0
    s4 = STATS.snapshot()

    recs = recs_rw + recs_b + recs_last
    np.savez(work / "answers.npz", **sc.compact(recs, sizes))
    delta = common.stats_delta
    out = {
        "setups": setups, "cold_iters": cold_iters, "rss_mb": common.peak_rss_mb(),
        "recs_rw": recs_rw, "recs_b": recs_b, "recs_last": recs_last,
        "wall_b": wall_b, "rates_b": rates_b,
        "writes": log["writes"], "checkpoints": quiet,
        "checkpoints_under_load": log["checkpoints"],
        "gens": log["gens"], "sent": log["sent"], "w": w,
        "journal_bytes_per_edge": tail_journal_bytes / tail["edges"],
        "checkpoint_bytes": checkpoint_bytes,
        "store_bytes": _dir_bytes(work / "store"),
        "stats": {"rw": delta(s0, s1), "b": delta(s1, s2), "w": delta(s2, s3),
                  "tail": delta(s3, s4), "life": delta(born, s4)},
        "events": tr.events,
    }
    (work / "serve.json").write_text(json.dumps(out, default=float))
    print("READY", flush=True)
    time.sleep(3600)      # killed here, with the journal and store open


# -- a fresh process after the kill -------------------------------------------

def restart(cfg: dict, cycle: int) -> None:
    common.bootstrap()
    work = Path(cfg["workdir"])
    os.environ["REPRO_STORE_DIR"] = str(work / f"store-copy{cycle}")
    from repro.core.context import Mode, init
    from repro.engine.stats import STATS
    from repro.serve import GraphService
    import serve_common as sc
    import_s = time.time() - cfg["spawned"]

    init(Mode.NONBLOCKING)
    tr = common.Tracer(cfg["trace"], STATS, pid=10 + cycle, epoch=cfg["epoch"])
    t0 = time.perf_counter()
    with tr.span("serve.restore", stats=True):
        svc = GraphService.restore(str(work / f"ck-copy{cycle}"), name="stream")
    restore_s = time.perf_counter() - t0
    session = svc.open_session("t0", nthreads=1, memo_capacity=sc.MEMO_CAPACITY)
    recs = []
    for rid, kind in enumerate(("bfs", "pagerank", "triangles")):
        source = cfg["hub"] if kind == "bfs" else None
        with tr.span("serve.execute", rid=rid, stats=True):
            res = svc.execute(session, sc.make_query(kind, GRAPH, source))
        recs.append({"rid": rid, "kind": kind, "graph": GRAPH, "source": source,
                     "value": res.value, "gen0": 0, "gen1": 0})
    first_answer_s = time.perf_counter() - t0

    rows, cols, vals = session.view(GRAPH).extract_tuples()
    n = svc.graphs()[GRAPH]["nrows"]
    np.savez(work / f"restart{cycle}.npz", rows=rows, cols=cols, vals=vals,
             **sc.compact(recs, {GRAPH: n}))
    _, _, cold_vals = session.view("cold").extract_tuples()
    snap = STATS.snapshot()
    (work / f"restart{cycle}.json").write_text(json.dumps({
        "cold": {"nvals": int(len(cold_vals)), "sum": float(cold_vals.sum())},
        "import_s": import_s, "restore_s": restore_s,
        "first_answer_s": first_answer_s, "recs": recs,
        "stats": {k: snap[k] for k in (
            "store_hits", "store_misses", "store_stores", "restored_blocks",
            "restored_graphs", "journal_replayed")},
        "events": tr.events,
    }, default=float))
    svc.close()


if __name__ == "__main__":
    config = json.loads(Path(sys.argv[2]).read_text())
    if sys.argv[1] == "serve":
        serve(config)
    else:
        restart(config, int(sys.argv[3]))
