"""Per-layer probes run at the end of a traced run, on the workload's
primary graph: one layer's public functions at a time, with a plain
outside yardstick where one exists (``scipy.sparse`` for the kernels,
the blocking call for the engine, ``GraphService.execute`` for the
front door).  None of this is inside any end-to-end timing.
"""

from __future__ import annotations

import asyncio
import math
import shutil
import subprocess
import sys
import time

import numpy as np

import common
import inputs
from common import Tracer, median

#: Each probe repeats until it has run this long (and at least 3 times).
MIN_PROBE_S = 0.12


def _time(fn, tr: Tracer, name: str, min_s: float = MIN_PROBE_S) -> float:
    """Median seconds of one call of *fn*."""
    samples = []
    t_start = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - t_start < min_s:
        with tr.span(name):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
    return median(samples)


def primary_triples(workload: str, seed: int, smoke: bool):
    scale = {"lib_algos": 13, "lib_smallops": 10, "serve_mixed": 11,
             "serve_stream": 10}[workload]
    return inputs.rmat_triples(8 if smoke else scale, seed, 0)


def _unique_undirected(n, rows, cols, vals):
    """Sorted unique COO of the symmetric, loop-free graph (first
    weight of a repeated pair; the carriers need unique pairs)."""
    keep = rows != cols
    r = np.concatenate([rows[keep], cols[keep]])
    c = np.concatenate([cols[keep], rows[keep]])
    v = np.concatenate([vals[keep], vals[keep]])
    keys, first = np.unique(r * n + c, return_index=True)
    return keys // n, keys % n, v[first]


# -- internals: kernel table next to scipy.sparse ------------------------------

def kernel_table(n, rows, cols, vals, tr: Tracer) -> dict:
    import scipy.sparse as sp

    from repro.core import types as T
    from repro.core.binaryop import MAX, PLUS, TIMES
    from repro.core.indexunaryop import TRIL
    from repro.core.monoid import PLUS_MONOID
    from repro.core.semiring import PLUS_TIMES_SEMIRING
    from repro.core.unaryop import AINV
    from repro.internals import applyselect, build, ewise, mxm, reduce, stream
    from repro.internals.containers import (VecData, coo_to_csr, coo_to_dcsr,
                                            pair_keys)

    fp, ring = T.FP64, PLUS_TIMES_SEMIRING[T.FP64]
    r, c, v = _unique_undirected(n, rows, cols, vals)
    nnz = len(r)
    # A thin row block of A keeps the SpGEMM to ~1e6 products.
    deg = np.bincount(r, minlength=n)
    products = np.cumsum(deg[c])
    cut = int(np.searchsorted(products, 1_000_000))
    top = int(r[min(cut, nnz - 1)]) + 1
    sub = r < top
    n_products = int(deg[c[sub]].sum())
    # A second operand overlapping A in part: the directed raw pairs.
    dk, dfirst = np.unique(rows * n + cols, return_index=True)
    dr, dc, dv = dk // n, dk % n, vals[dfirst]
    x = np.random.default_rng(0).random(n)
    delta = inputs.edge_batches(np.random.default_rng(1),
                                inputs.edge_pool(n, rows, cols), 16)
    d_rows, d_cols, d_vals = (np.concatenate([b[k] for b in delta])
                              for k in range(3))

    out = {}
    for fmt, make in (("csr", coo_to_csr), ("dcsr", coo_to_dcsr)):
        a = make(n, n, fp, r, c, v, presorted=True)
        a_sub = make(n, n, fp, r[sub], c[sub], v[sub], presorted=True)
        b = make(n, n, fp, dr, dc, dv, presorted=True)
        u = VecData(n, fp, np.arange(n, dtype=np.int64), x)
        mask = pair_keys(r[sub], c[sub], n)
        cases = {
            "mxm": (lambda: mxm.mxm(a_sub, a, ring), n_products),
            "mxm_masked": (lambda: mxm.mxm(a_sub, a, ring, mask_keys=mask),
                           n_products),
            "mxv": (lambda: mxm.mxv(a, u, ring), nnz),
            "vxm": (lambda: mxm.vxm(u, a, ring), nnz),
            "ewise_union": (lambda: ewise.mat_union(a, b, PLUS[fp], fp),
                            nnz + len(dr)),
            "ewise_intersect": (lambda: ewise.mat_intersect(a, b, TIMES[fp], fp),
                                nnz + len(dr)),
            "reduce_rows": (lambda: reduce.mat_reduce_rows(a, PLUS_MONOID[fp], fp),
                            nnz),
            "select_tril": (lambda: applyselect.mat_select(a, TRIL, 0), nnz),
            "apply_unary": (lambda: applyselect.mat_apply_unary(a, AINV[fp], fp),
                            nnz),
            "transpose": (lambda: a.transpose(), nnz),
            "build": (lambda: build.build_matrix(n, n, fp, rows, cols, vals,
                                                 MAX[fp]), len(rows)),
            "stream_merge": (lambda: stream.apply_delta(
                a, stream.build_delta(a, d_rows, d_cols, d_vals)), len(d_rows)),
        }
        wanted = cases if fmt == "csr" else {
            k: cases[k] for k in ("mxm", "mxv", "ewise_union", "reduce_rows")}
        for family, (fn, work) in wanted.items():
            out[f"internals.{family}.{fmt}.ns_per_nnz"] = (
                _time(fn, tr, f"internals.{family}.{fmt}") / work * 1e9)

    a = sp.csr_matrix((v, (r, c)), shape=(n, n))
    a_sub = sp.csr_matrix((v[sub], (r[sub], c[sub])), shape=(n, n))
    b = sp.csr_matrix((dv, (dr, dc)), shape=(n, n))
    yard = {
        "mxm": (lambda: a_sub @ a, n_products),
        "mxv": (lambda: a @ x, nnz),
        "ewise_union": (lambda: a + b, nnz + len(dr)),
        "ewise_intersect": (lambda: a.multiply(b), nnz + len(dr)),
        "reduce_rows": (lambda: a.sum(axis=1), nnz),
        "select_tril": (lambda: sp.tril(a, format="csr"), nnz),
        "transpose": (lambda: a.T.tocsr(), nnz),
        "build": (lambda: sp.coo_matrix((vals, (rows, cols)),
                                        shape=(n, n)).tocsr(), len(rows)),
    }
    ratios = []
    for family, (fn, work) in yard.items():
        ns = _time(fn, tr, f"scipy.{family}") / work * 1e9
        out[f"scipy.{family}.ns_per_nnz"] = ns
        ratios.append(out[f"internals.{family}.csr.ns_per_nnz"] / ns)
    out["internals.vs_scipy.geomean"] = math.exp(
        sum(math.log(x) for x in ratios) / len(ratios))
    return out


# -- ops and engine: fixed cost of one trivial call ----------------------------

def call_overheads(tr: Tracer) -> dict:
    from repro.core import types as T
    from repro.core.context import Context, Mode
    from repro.core.matrix import Matrix
    from repro.core.semiring import PLUS_TIMES_SEMIRING
    from repro.core.unaryop import AINV
    from repro.core.vector import Vector
    from repro.internals import applyselect, mxm
    from repro.internals.containers import VecData, coo_to_csr
    from repro.ops.apply import apply
    from repro.ops.mxm import mxv

    fp, ring = T.FP64, PLUS_TIMES_SEMIRING[T.FP64]
    one = np.array([0], dtype=np.int64)
    raw_a = coo_to_csr(4, 4, fp, one, one, np.array([2.0]))
    raw_u = VecData(4, fp, one, np.array([3.0]))

    def operands(mode):
        ctx = Context.new(mode, None, {"nthreads": 1})
        a = Matrix.new(fp, 4, 4, ctx)
        a.set_element(2.0, 0, 0)
        u = Vector.new(fp, 4, ctx)
        u.set_element(3.0, 0)
        a.wait()
        u.wait()
        return ctx, a, u, Vector.new(fp, 4, ctx)

    def per_call(fn, name, reps=300):
        def batch():
            for _ in range(reps):
                fn()
        return _time(batch, tr, name) / reps * 1e6

    ctx, a, u, w = operands(Mode.BLOCKING)
    ops_mxv = per_call(lambda: mxv(w, None, None, ring, a, u), "ops.mxv")
    ops_apply = per_call(lambda: apply(w, None, None, AINV[fp], u), "ops.apply")
    ctx.free()
    raw_mxv = per_call(lambda: mxm.mxv(raw_a, raw_u, ring), "internals.mxv")
    raw_apply = per_call(
        lambda: applyselect.vec_apply_unary(raw_u, AINV[fp], fp),
        "internals.apply_unary")

    ctx, a, u, w = operands(Mode.NONBLOCKING)

    def submit_and_force():
        apply(w, None, None, AINV[fp], u)
        w.wait()
    nb_apply = per_call(submit_and_force, "engine.submit_force")
    ctx.free()
    return {
        "ops.call_overhead_us":
            ((ops_mxv - raw_mxv) + (ops_apply - raw_apply)) / 2,
        "engine.nb_op_overhead_us": nb_apply - ops_apply,
    }


# -- serve: the floor and the front door ----------------------------------------

def serve_floor(n, rows, cols, vals, hub: int, tr: Tracer) -> dict:
    import serve_common as sc
    from repro.core import types as T
    from repro.generators import to_matrix
    from repro.serve import GraphServer, GraphService

    svc = GraphService(name="probe")
    try:
        svc.register_graph("g", to_matrix(
            n, rows, cols, vals, T.FP64, make_undirected=True,
            no_self_loops=True))
        session = svc.open_session("t0", nthreads=1,
                                   memo_capacity=sc.MEMO_CAPACITY)
        sc.warm_up(svc, [session], ["g"], Tracer(False))
        out = {}
        for kind in ("bfs", "pagerank", "triangles"):
            query = sc.make_query(kind, "g", hub if kind == "bfs" else None)
            out[f"serve.direct_exec_ms.{kind}"] = _time(
                lambda: svc.execute(session, query), tr, "serve.execute") * 1e3

        async def lone_submits():
            query = sc.make_query("bfs", "g", hub)
            async with GraphServer(svc, **sc.ADMISSION) as srv:
                samples = []
                for _ in range(30):
                    with tr.span("serve.submit"):
                        t0 = time.perf_counter()
                        await srv.submit(session, query)
                        samples.append(time.perf_counter() - t0)
                return median(samples) * 1e3

        out["serve.front_door_overhead_ms"] = (
            asyncio.run(lone_submits()) - out["serve.direct_exec_ms.bfs"])
        return out
    finally:
        svc.close()


# -- formats and store: one resident graph's blob -------------------------------

def blob_probes(n, rows, cols, vals, tr: Tracer) -> dict:
    from repro.core import types as T
    from repro.formats.serialize import carrier_deserialize, carrier_serialize
    from repro.internals.containers import coo_to_csr
    from repro.store import WarmStore

    r, c, v = _unique_undirected(n, rows, cols, vals)
    carrier = coo_to_csr(n, n, T.FP64, r, c, v, presorted=True)
    blob = carrier_serialize(carrier)
    mb = len(blob) / 1e6
    out = {
        "formats.serialize_mb_per_s":
            mb / _time(lambda: carrier_serialize(carrier), tr, "formats.serialize"),
        "formats.deserialize_mb_per_s":
            mb / _time(lambda: carrier_deserialize(blob), tr, "formats.deserialize"),
        "formats.bytes_per_nnz": len(blob) / len(r),
    }
    root = common.OUT / f"tmp-store-probe-{time.time_ns()}"
    try:
        store = WarmStore(str(root))
        keys = iter(f"{i:032x}" for i in range(10_000))
        out["store.put_ms"] = _time(
            lambda: store.put(next(keys), blob, 1.0), tr, "store.put") * 1e3
        out["store.get_ms"] = _time(
            lambda: store.get(f"{0:032x}"), tr, "store.get") * 1e3
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


# -- core: build rate and import cost -------------------------------------------

def core_probes(n, rows, cols, vals, tr: Tracer) -> dict:
    from repro.core import types as T
    from repro.generators import to_matrix

    build_s = _time(lambda: to_matrix(
        n, rows, cols, vals, T.FP64, make_undirected=True, no_self_loops=True),
        tr, "core.to_matrix")
    src = str(common.REPO / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import repro"
    import_s = _time(
        lambda: subprocess.run([sys.executable, "-c", code], check=True),
        tr, "core.import", min_s=0.0)
    return {"core.build_edges_per_s": 2 * len(rows) / build_s,
            "core.import_s": import_s}


def run(workload: str, seed: int, smoke: bool, tr: Tracer) -> dict:
    n, rows, cols, vals = primary_triples(workload, seed, smoke)
    hub = inputs.hub(n, rows, cols)
    out = {}
    with tr.span("probes"):
        out.update(kernel_table(n, rows, cols, vals, tr))
        out.update(call_overheads(tr))
        out.update(serve_floor(n, rows, cols, vals, hub, tr))
        out.update(blob_probes(n, rows, cols, vals, tr))
        out.update(core_probes(n, rows, cols, vals, tr))
    return out
