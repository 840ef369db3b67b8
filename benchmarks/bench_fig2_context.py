"""F2 — Figure 2: execution contexts driving resources (§IV).

Series: mxm wall-clock under contexts with nthreads ∈ {1, 2, 4, 8}
(the implementation-defined exec spec of GrB_Context_new), plus the
O(1) costs of context creation and GrB_Context_switch.  Expected shape:
monotone non-increasing time with more threads on a large-enough
product (NumPy kernels release the GIL), flat line for tiny inputs
where overhead dominates.
"""

import time

import pytest

from benchmarks.conftest import print_table
from repro.core import types as T
from repro.core.context import Context, Mode, context_switch
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.generators import rmat, to_matrix
from repro.ops.mxm import mxm

pytestmark = pytest.mark.usefixtures("no_result_memo")

PT = PLUS_TIMES_SEMIRING[T.FP64]
SCALE = 12
THREADS = [1, 2, 4, 8]


def _graph_in(ctx):
    n, rows, cols, vals = rmat(SCALE, 8, seed=17)
    return to_matrix(n, rows, cols, vals, T.FP64, ctx=ctx)


def _mxm_under(ctx, a):
    c = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
    mxm(c, None, None, PT, a, a)
    c.wait()
    return c


@pytest.mark.benchmark(group="F2-threads")
class TestContextThreads:
    @pytest.mark.parametrize("nthreads", THREADS, ids=lambda n: f"n{n}")
    def test_mxm_under_context(self, benchmark, nthreads):
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": nthreads})
        a = _graph_in(ctx)
        benchmark(_mxm_under, ctx, a)


@pytest.mark.benchmark(group="F2-overhead")
class TestContextOverhead:
    def test_context_new(self, benchmark):
        benchmark(Context.new, Mode.NONBLOCKING, None, {"nthreads": 2})

    def test_context_switch(self, benchmark):
        c1 = Context.new(Mode.NONBLOCKING, None, None)
        c2 = Context.new(Mode.NONBLOCKING, None, None)
        m = Matrix.new(T.FP64, 8, 8, c1)
        state = [c1, c2]

        def flip():
            state.reverse()
            context_switch(m, state[0])

        benchmark(flip)

    def test_nested_context_resolution(self, benchmark):
        """Cost of resolving nthreads through a 4-deep hierarchy."""
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        for _ in range(3):
            ctx = Context.new(Mode.NONBLOCKING, ctx, None)
        benchmark(lambda: ctx.nthreads)


def test_fig2_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    base = None
    for nthreads in THREADS:
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": nthreads})
        a = _graph_in(ctx)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _mxm_under(ctx, a)
            best = min(best, time.perf_counter() - t0)
        if base is None:
            base = best
        rows.append([f"nthreads={nthreads}", f"{best * 1e3:8.1f} ms",
                     f"{base / best:5.2f}x"])
    with capsys.disabled():
        print_table(
            f"Figure 2: mxm under per-context thread counts (RMAT scale {SCALE})",
            ["context exec spec", "wall clock", "speedup vs 1"], rows,
        )
