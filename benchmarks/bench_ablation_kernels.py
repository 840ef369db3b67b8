"""AB1 — ablations of the kernel design choices DESIGN.md calls out.

* masked-SpGEMM push-down on vs off (the reason ``C⟨L⟩ = L·Lᵀ`` wins);
* the FIRST/SECOND/ONEB multiply shortcuts, timed as the only path
  (their off-variant was retired with the knob; EXPERIMENTS AB1 keeps
  the last on-vs-off measurement);
* ESC SpGEMM row-partitioning across context thread counts.

Expected shapes: push-down wins and its advantage grows with mask
selectivity; thread scaling is modest-but-real (NumPy releases the GIL
in kernels).
"""

import time

import pytest

from benchmarks.conftest import print_table, rmat_graph
from repro.core import types as T
from repro.core.indexunaryop import TRIL
from repro.core.matrix import Matrix
from repro.core.semiring import (
    MIN_FIRST_SEMIRING,
    PLUS_SECOND_SEMIRING,
    PLUS_TIMES_SEMIRING,
)
from repro.internals import config
from repro.ops.mxm import mxm
from repro.ops.select import select

pytestmark = pytest.mark.usefixtures("no_result_memo")

SCALE = 10


@pytest.fixture(scope="module")
def tri_inputs():
    """Triangle-counting shaped workload: L and the structural mask L."""
    g = rmat_graph(SCALE, undirected=True)
    low = Matrix.new(T.FP64, g.nrows, g.ncols)
    select(low, None, None, TRIL, g, -1)
    low.wait()
    return low


def _masked_mxm(low, pushdown: bool):
    from repro.core.descriptor import DESC_S
    with config.option("MASK_PUSHDOWN", pushdown):
        c = Matrix.new(T.FP64, low.nrows, low.ncols)
        mxm(c, low, None, PLUS_TIMES_SEMIRING[T.FP64], low, low, desc=DESC_S)
        c.wait()
    return c


def _plain_mxm(a, semiring):
    c = Matrix.new(T.FP64, a.nrows, a.ncols)
    mxm(c, None, None, semiring, a, a)
    c.wait()
    return c


@pytest.mark.benchmark(group="AB1-mask-pushdown")
class TestMaskPushdown:
    def test_pushdown_on(self, benchmark, tri_inputs):
        benchmark(_masked_mxm, tri_inputs, True)

    def test_pushdown_off(self, benchmark, tri_inputs):
        benchmark(_masked_mxm, tri_inputs, False)


def _bfs(pushdown: bool):
    from repro.algorithms import bfs_levels
    g = rmat_graph(12, 16, T.BOOL, undirected=True)
    import numpy as np
    src = int(np.bincount(g.extract_tuples()[0], minlength=g.nrows).argmax())
    with config.option("MASK_PUSHDOWN", pushdown):
        return bfs_levels(g, src).nvals()


@pytest.mark.benchmark(group="AB1-bfs-complement-pushdown")
class TestComplementPushdown:
    """BFS's DESC_RSC vxm: the visited set as a complemented mask."""

    def test_bfs_pushdown_on(self, benchmark):
        benchmark(_bfs, True)

    def test_bfs_pushdown_off(self, benchmark):
        benchmark(_bfs, False)


@pytest.mark.benchmark(group="AB1-mult-shortcuts")
class TestMultShortcuts:
    @pytest.mark.parametrize(
        "name,sr",
        [("min_first", MIN_FIRST_SEMIRING), ("plus_second", PLUS_SECOND_SEMIRING)],
        ids=["min_first", "plus_second"],
    )
    def test_shortcut(self, benchmark, name, sr):
        benchmark(_plain_mxm, rmat_graph(SCALE), sr[T.FP64])


def test_ablation_report(benchmark, capsys, tri_inputs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, reps=3):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    on = timed(lambda: _masked_mxm(tri_inputs, True))
    off = timed(lambda: _masked_mxm(tri_inputs, False))
    rows = [["masked mxm (tri-count shape)", f"{on:8.2f}", f"{off:8.2f}",
             f"{off / on:5.2f}x"]]
    g = rmat_graph(SCALE)
    for label, sr in (("min.first mxm", MIN_FIRST_SEMIRING[T.FP64]),
                      ("plus.second mxm", PLUS_SECOND_SEMIRING[T.FP64])):
        s_on = timed(lambda: _plain_mxm(g, sr))
        rows.append([label, f"{s_on:8.2f}", "       -", "    -"])
    b_on = timed(lambda: _bfs(True))
    b_off = timed(lambda: _bfs(False))
    rows.append(["BFS (complement push-down)", f"{b_on:8.2f}",
                 f"{b_off:8.2f}", f"{b_off / b_on:5.2f}x"])
    with capsys.disabled():
        print_table(
            f"Kernel ablations (RMAT scale {SCALE}; ms)",
            ["kernel", "optimized", "ablated", "win"], rows,
        )
