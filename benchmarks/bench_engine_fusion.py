"""E2 — the lazy engine: blocking vs nonblocking, unfused vs fused.

The §III/§V execution freedoms only matter if they buy something.  This
bench runs the same two pipelines three ways:

* **blocking**      — every method executes inline at the call;
* **nb-unfused**    — nonblocking deferral, fusion planner disabled
  (``ENGINE_FUSION`` off): one forcing, standalone kernels;
* **nb-fused**      — full engine: the forcing fuses in-place chains
  into single-pass pipelines, hoists value-independent selects ahead of
  maps, and skips intermediate write-backs.

Pipelines:

* ``mxm → apply → select(TRIL)`` in place — the Fig. 3 shape.  Fusion
  elides the two intermediate write-backs and filters *before* the map.
* a long in-place ``apply`` chain (8 maps, alternating value and
  index-unary operators) — the pathological 1.X shape where every step
  pays a full carrier rebuild.  Standalone, each coordinate-reading
  step re-expands CSR row pointers to COO; the fused pipeline
  materializes the coordinates once and streams all eight maps.

Expected shape: nb-fused ≤ blocking on both, with the gap widest on the
apply chain; the engine stats must show fusion actually fired.
"""

import time

import pytest

from benchmarks.conftest import print_table, rmat_graph
from repro.core import binaryop as B
from repro.core import types as T
from repro.core.context import Context, Mode, WaitMode
from repro.core.indexunaryop import ROWINDEX, TRIL
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.unaryop import AINV
from repro.engine.stats import STATS
from repro.internals import config
from repro.ops.apply import apply
from repro.ops.mxm import mxm
from repro.ops.select import select

SCALE = 10          # mxm workload: SpGEMM dominates, small graph suffices
CHAIN_SCALE = 13    # apply workload: needs enough nnz to dwarf call overhead
APPLY_CHAIN = 8
REPS = 5


def _ctx_graph(ctx, scale=SCALE, edge_factor=8):
    base = rmat_graph(scale, edge_factor)
    r, c, v = base.extract_tuples()
    m = Matrix.new(T.FP64, base.nrows, base.ncols, ctx)
    m.build(r, c, v)
    m.wait(WaitMode.MATERIALIZE)
    return m


def _fig3_chain(ctx, a):
    c = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
    mxm(c, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
    apply(c, None, None, AINV[T.FP64], c)
    select(c, None, None, TRIL, c, 0)
    c.wait(WaitMode.MATERIALIZE)
    return c


def _apply_chain(ctx, a):
    c = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
    apply(c, None, None, B.TIMES[T.FP64], a, 1.0000001)
    for k in range(APPLY_CHAIN - 1):
        if k % 2:
            apply(c, None, None, B.TIMES[T.FP64], c, 1.0000001)
        else:
            apply(c, None, None, ROWINDEX[T.INT64], c, 1)
    c.wait(WaitMode.MATERIALIZE)
    return c


def _best(fn, *args):
    best = float("inf")
    out = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.fixture(scope="module")
def contexts():
    bl = Context.new(Mode.BLOCKING, None, None)
    nb = Context.new(Mode.NONBLOCKING, None, None)
    return bl, nb


@pytest.mark.benchmark(group="E2-engine-fusion")
class TestEngineFusion:
    def _three_ways(self, contexts, pipeline, scale=SCALE, edge_factor=8):
        bl, nb = contexts
        a_bl = _ctx_graph(bl, scale, edge_factor)
        a_nb = _ctx_graph(nb, scale, edge_factor)
        t_blocking, r0 = _best(pipeline, bl, a_bl)
        with config.option("ENGINE_FUSION", False):
            t_unfused, r1 = _best(pipeline, nb, a_nb)
        STATS.reset()
        t_fused, r2 = _best(pipeline, nb, a_nb)
        snap = STATS.snapshot()
        # All three agree exactly (mode transparency).
        assert sorted(r0.to_dict()) == sorted(r1.to_dict()) == sorted(r2.to_dict())
        return t_blocking, t_unfused, t_fused, snap

    def test_fig3_mxm_apply_select(self, contexts):
        tb, tu, tf, snap = self._three_ways(contexts, _fig3_chain)
        print_table(
            "E2a  mxm → apply → select(TRIL), in place",
            ["variant", "best ms"],
            [["blocking", f"{tb * 1e3:.2f}"],
             ["nb-unfused", f"{tu * 1e3:.2f}"],
             ["nb-fused", f"{tf * 1e3:.2f}"],
             ["chains_fused", snap["chains_fused"]],
             ["selects_hoisted", snap["selects_hoisted"]]],
        )
        assert snap["chains_fused"] >= 1, "fusion never fired"
        assert snap["selects_hoisted"] >= 1, "TRIL did not hoist"
        # Loose shape guard: fusion must not lose to blocking.
        assert tf < tb * 1.10

    def test_long_apply_chain(self, contexts):
        tb, tu, tf, snap = self._three_ways(
            contexts, _apply_chain, scale=CHAIN_SCALE, edge_factor=16
        )
        print_table(
            f"E2b  {APPLY_CHAIN}-deep in-place apply chain",
            ["variant", "best ms"],
            [["blocking", f"{tb * 1e3:.2f}"],
             ["nb-unfused", f"{tu * 1e3:.2f}"],
             ["nb-fused", f"{tf * 1e3:.2f}"],
             ["nodes_fused", snap["nodes_fused"]]],
        )
        assert snap["chains_fused"] >= 1, "fusion never fired"
        assert snap["nodes_fused"] >= APPLY_CHAIN - 1
        # The whole point: one fused pass beats N inline kernels.
        assert tf < tb
