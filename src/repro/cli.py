"""Command-line interface: ``python -m repro <command>``.

Release-grade libraries ship a small CLI for smoke-testing an install
and poking at data files without writing a script:

* ``info``        — version, spec level, predefined-object census.
* ``mm-info F``   — header + shape/nnz/degree stats of a MatrixMarket file.
* ``demo NAME``   — run a built-in algorithm demo on a generated graph
  (``bfs``, ``triangles``, ``pagerank``, ``sssp``, ``components``).
* ``selftest``    — a fast end-to-end exercise of every subsystem.
* ``serve``       — host a demo graph behind the multi-tenant serving
  layer (:mod:`repro.serve`), push a scripted mixed query load through
  the asyncio front door, and print per-tenant stats on shutdown.

``--engine-stats`` (global flag) dumps the lazy-engine counters — nodes
built/forced/fused, memo reuses, per-kernel wall time —
after the command runs, answering "did nonblocking mode actually
optimize anything?".  ``--trace-out PATH`` writes the engine's planner
and kernel spans as Chrome trace JSON for chrome://tracing / Perfetto.

``--chaos SEED`` (global flag) runs the command under low-probability
transient fault injection (:mod:`repro.faults`): kernels randomly fail
with retryable errors and the resilience machinery must recover every
one — results stay exact.  ``--chaos-rate`` tunes the per-site
injection probability; an injection summary prints afterwards.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Pure-Python GraphBLAS 2.0 (IPDPSW 2021 reproduction)",
    )
    p.add_argument(
        "--engine-stats", action="store_true",
        help="dump lazy-engine counters and kernel timings after the command",
    )
    p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the engine's planner/kernel spans as Chrome trace "
             "JSON (load in chrome://tracing or Perfetto)",
    )
    p.add_argument(
        "--no-result-cache", action="store_true",
        help="disable the algorithm-block result memo (ablation; same "
             "as REPRO_ENGINE_ALGO_MEMO=0)",
    )
    p.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="attach the persistent warm-start store rooted at DIR "
             "(same as REPRO_STORE_DIR): memoized algo blocks persist "
             "across runs, so repeating a demo/serve command starts warm",
    )
    p.add_argument(
        "--chaos", type=int, metavar="SEED", default=None,
        help="run under deterministic transient fault injection with this "
             "seed (results must still be exact)",
    )
    p.add_argument(
        "--chaos-rate", type=float, metavar="P", default=0.05,
        help="per-site injection probability for --chaos (default 0.05)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and capability summary")

    mm = sub.add_parser("mm-info", help="describe a MatrixMarket file")
    mm.add_argument("path")

    demo = sub.add_parser("demo", help="run an algorithm demo")
    demo.add_argument(
        "name",
        choices=["bfs", "triangles", "pagerank", "sssp", "components"],
    )
    demo.add_argument("--scale", type=int, default=9,
                      help="RMAT scale (default 9)")
    demo.add_argument("--seed", type=int, default=42)

    sub.add_parser("selftest", help="fast end-to-end smoke test")

    serve = sub.add_parser(
        "serve", help="host a demo graph through the serving layer"
    )
    serve.add_argument("--scale", type=int, default=8,
                       help="RMAT scale of the hosted graph (default 8)")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--tenants", type=int, default=3,
                       help="concurrent tenant sessions (default 3)")
    serve.add_argument("--queries", type=int, default=24,
                       help="total queries in the scripted load (default 24)")
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-query deadline; expired queries fail with the "
             "transient GrB_TIMEOUT (default: QUERY_DEADLINE_MS knob)",
    )
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="durability plane: warm-restart from DIR when it holds a "
             "checkpoint, journal mutations to it while serving, and "
             "write a fresh checkpoint on shutdown",
    )
    return p


def _cmd_info(out) -> int:
    import repro
    from repro.core import binaryop, indexunaryop, monoid, semiring, unaryop
    from repro.core.context import get_version
    from repro.core.types import PREDEFINED_TYPES

    major, minor = get_version()
    out.write(f"repro {repro.__version__} — GraphBLAS C API "
              f"{major}.{minor} (pure Python)\n")
    out.write(f"  predefined types:      {len(PREDEFINED_TYPES)}\n")
    out.write(f"  unary op families:     "
              f"{len(unaryop.PREDEFINED_UNARY_FAMILIES)}\n")
    out.write(f"  binary op families:    "
              f"{len(binaryop.PREDEFINED_BINARY_FAMILIES)}\n")
    out.write(f"  index-unary families:  "
              f"{len(indexunaryop.PREDEFINED_INDEXUNARY)}\n")
    out.write(f"  monoid families:       {len(monoid.PREDEFINED_MONOIDS)}\n")
    out.write(f"  semiring families:     "
              f"{len(semiring.PREDEFINED_SEMIRINGS)} (+4 boolean)\n")
    return 0


def _cmd_mm_info(path: str, out) -> int:
    from repro.io import mmread

    m = mmread(path)
    out.write(f"{path}: {m.nrows} x {m.ncols}, nvals={m.nvals()}, "
              f"domain={m.type.name}\n")
    rows, cols, vals = m.extract_tuples()
    if len(rows):
        deg = np.bincount(rows, minlength=m.nrows)
        out.write(f"  out-degree: max={deg.max()}, mean={deg.mean():.2f}\n")
        if not m.type.is_bool:
            out.write(f"  values: min={vals.min()}, max={vals.max()}\n")
        loops = int((rows == cols).sum())
        out.write(f"  self-loops: {loops}\n")
    return 0


def _cmd_demo(name: str, scale: int, seed: int, out) -> int:
    from repro import algorithms as alg
    from repro.core import types as T
    from repro.generators import rmat, to_matrix

    n, rows, cols, vals = rmat(scale, 8, seed=seed)
    undirected = name in ("triangles", "components")
    a = to_matrix(
        n, rows, cols,
        np.ones(len(rows)) if name != "sssp" else 1.0 + (vals * 9),
        T.BOOL if name in ("bfs", "components") else T.FP64,
        make_undirected=undirected, no_self_loops=True,
    )
    out.write(f"RMAT scale {scale}: {n} vertices, {a.nvals()} edges\n")
    t0 = time.perf_counter()
    if name == "bfs":
        lv = alg.bfs_levels(a, 0)
        idx, depths = lv.extract_tuples()
        result = (f"reached {len(idx)} vertices, "
                  f"max depth {depths.max() if len(depths) else 0}")
    elif name == "triangles":
        result = f"{alg.triangle_count(a)} triangles"
    elif name == "pagerank":
        ranks, iters = alg.pagerank(a)
        top = max(ranks.to_dict().items(), key=lambda kv: kv[1])
        result = f"{iters} iterations; top vertex {top[0]}"
    elif name == "sssp":
        d = alg.sssp(a, 0, max_iters=64)
        result = f"reached {d.nvals()} vertices"
    else:
        cc = alg.connected_components(a)
        ncomp = len(set(int(v) for v in cc.to_dict().values()))
        result = f"{ncomp} components"
    elapsed = (time.perf_counter() - t0) * 1e3
    out.write(f"{name}: {result}  ({elapsed:.1f} ms)\n")
    return 0


def _cmd_selftest(out) -> int:
    from repro import grb
    from repro.algorithms import triangle_count
    from repro.generators import rmat, to_matrix

    checks = 0
    # core round trip
    a = grb.Matrix.new(grb.FP64, 3, 3)
    a.build([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
    c = grb.Matrix.new(grb.FP64, 3, 3)
    grb.mxm(c, None, None, grb.PLUS_TIMES_SEMIRING[grb.FP64], a, a)
    grb.wait(c)
    assert c.nvals() == 3
    checks += 1
    # select + apply (§VIII)
    u = grb.Matrix.new(grb.FP64, 3, 3)
    grb.select(u, None, None, grb.TRIU, a, 1)
    r = grb.Matrix.new(grb.INT64, 3, 3)
    grb.apply(r, None, None, grb.ROWINDEX_INT64, a, 0)
    assert r.nvals() == a.nvals()
    checks += 1
    # serialize round trip (§VII)
    blob = grb.matrix_serialize(a)
    assert grb.matrix_deserialize(blob).nvals() == a.nvals()
    checks += 1
    # error model (§V / §IX)
    bad = grb.Matrix.new(grb.FP64, 2, 2)
    bad.build([0, 0], [0, 0], [1.0, 2.0], dup=None)
    try:
        grb.wait(bad)
        raise AssertionError("duplicate not detected")
    except grb.DuplicateIndexError:
        checks += 1
    # an algorithm end to end
    n, rows, cols, _ = rmat(7, 8, seed=1)
    g = to_matrix(n, rows, cols, np.ones(len(rows)), grb.FP64,
                  make_undirected=True, no_self_loops=True)
    assert triangle_count(g) >= 0
    checks += 1
    out.write(f"selftest: {checks}/5 subsystem checks passed\n")
    return 0


def _cmd_serve(
    scale: int,
    seed: int,
    tenants: int,
    queries: int,
    out,
    *,
    deadline_ms: float | None = None,
    checkpoint_dir: str | None = None,
) -> int:
    import asyncio

    from repro.core import types as T
    from repro.generators import rmat, to_matrix
    from repro.serve import CheckpointStore, GraphServer, GraphService, Query

    if checkpoint_dir and CheckpointStore(checkpoint_dir).has_state():
        service = GraphService.restore(checkpoint_dir)
        meta = service.graphs()["demo"]
        out.write(f"warm restart from {checkpoint_dir}\n")
    else:
        n_, rows, cols, _ = rmat(scale, 8, seed=seed)
        graph = to_matrix(n_, rows, cols, np.ones(len(rows)), T.FP64,
                          make_undirected=True, no_self_loops=True)
        service = GraphService(checkpoint_dir=checkpoint_dir)
        meta = service.register_graph("demo", graph)
    n = meta["nrows"]
    out.write(f"serving graph 'demo': {meta['nrows']} vertices, "
              f"{meta['nvals']} edges\n")
    sessions = [
        service.open_session(f"tenant-{i}", nthreads=2, memo_capacity=16)
        for i in range(max(1, tenants))
    ]

    def plan(i: int) -> Query:
        # Mixed load: mostly BFS (batchable), some analytics.
        if i % 4 == 3:
            return Query.make("triangles", "demo") if i % 8 == 3 else \
                Query.make("pagerank", "demo", tol=1e-6)
        return Query.make("bfs", "demo", (i * 37) % n)

    async def run_load() -> list:
        async with GraphServer(
            service, batch_window=8, deadline_ms=deadline_ms
        ) as server:
            jobs = [
                server.submit(sessions[i % len(sessions)], plan(i))
                for i in range(max(1, queries))
            ]
            return await asyncio.gather(*jobs, return_exceptions=True)

    t0 = time.perf_counter()
    results = asyncio.run(run_load())
    wall = time.perf_counter() - t0
    ok = sum(1 for r in results if not isinstance(r, BaseException))
    batched = sum(
        1 for r in results
        if not isinstance(r, BaseException) and r.batched
    )
    out.write(f"served {ok}/{len(results)} queries in {wall * 1e3:.1f} ms "
              f"({ok / wall:.0f} q/s, {batched} batched)\n")
    out.write("per-tenant stats:\n")
    for tenant, snap in sorted(service.tenant_stats().items()):
        out.write(
            f"  {tenant:<12} completed={snap.get('queries_completed', 0)} "
            f"batched={snap.get('queries_batched', 0)} "
            f"kernels={snap.get('kernels', 0)} "
            f"kernel_ms={snap.get('kernel_time_ms', 0.0):.1f} "
            f"p99_ms={snap.get('latency_p99_ms', 0.0):.1f} "
            f"memo={snap.get('memo_entries', 0)} "
            f"degraded={snap.get('degraded', False)}\n"
        )
    if checkpoint_dir:
        manifest = service.checkpoint()
        if manifest is not None:
            out.write(
                f"checkpoint gen {manifest['gen']} -> "
                f"{checkpoint_dir} ({len(manifest['graphs'])} graphs, "
                f"{len(manifest.get('blocks', []))} warm blocks)\n"
            )
    service.close()
    return 0 if ok == len(results) else 1


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    from repro.core.context import Mode, finalize, init, is_initialized

    owned = not is_initialized()
    if owned:
        init(Mode.NONBLOCKING)
    memo_was = None
    if args.no_result_cache:
        from repro.internals import config

        memo_was = config.get_option("ENGINE_ALGO_MEMO")
        config.set_option("ENGINE_ALGO_MEMO", False)
    store_was = None
    if args.store_dir:
        from repro.internals import config

        store_was = config.set_option("STORE_DIR", args.store_dir)
    if args.chaos is not None:
        from repro import faults

        faults.enable_chaos(args.chaos, rate=args.chaos_rate)
    try:
        if args.command == "info":
            return _cmd_info(out)
        if args.command == "mm-info":
            return _cmd_mm_info(args.path, out)
        if args.command == "demo":
            return _cmd_demo(args.name, args.scale, args.seed, out)
        if args.command == "selftest":
            return _cmd_selftest(out)
        if args.command == "serve":
            return _cmd_serve(
                args.scale, args.seed, args.tenants, args.queries, out,
                deadline_ms=args.deadline_ms,
                checkpoint_dir=args.checkpoint_dir,
            )
        return 2  # pragma: no cover - argparse enforces choices
    finally:
        if args.engine_stats:
            from repro.engine.stats import STATS

            out.write(STATS.format() + "\n")
        if args.trace_out:
            from repro.engine.stats import STATS

            n = STATS.write_trace(args.trace_out)
            out.write(f"wrote {n} trace events to {args.trace_out}\n")
        if args.chaos is not None:
            from repro.faults import PLANE

            out.write(PLANE.format() + "\n")
            PLANE.disable()
        if memo_was is not None:
            from repro.internals import config

            config.set_option("ENGINE_ALGO_MEMO", memo_was)
        if store_was is not None:
            from repro.internals import config

            config.set_option("STORE_DIR", store_was)
        if owned and is_initialized():
            finalize()
