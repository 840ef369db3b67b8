"""F2 — Figure 2: execution contexts driving resources (§IV).

Series: mxm wall-clock under contexts with nthreads ∈ {1, 2, 4, 8}
(the implementation-defined exec spec of GrB_Context_new), at RMAT
scales 12 and 13, on CSR carriers and on carriers with a row list, plus
the O(1) costs of context creation and GrB_Context_switch.  The threads
run mxm's row blocks (about 2^17 products each), so the expected shape
is monotone non-increasing time up to the core count on a product with
many blocks (NumPy kernels release the GIL), and a flat line where one
block holds everything.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_fig2_context.py
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
REPORT_SCALES = [12, 13]
THREADS = [1, 2, 4, 8]
#: The DCSR rows embed the same graph at every 256th row and column of a
#: 256× larger dimension, past the hypersparse policy's floor: the same
#: products, on carriers with a row list.
DCSR_STRIDE = 256


def _graph_in(ctx, scale=SCALE, fmt="csr"):
    n, rows, cols, vals = rmat(scale, 8, seed=17)
    if fmt == "dcsr":
        n, rows, cols = n * DCSR_STRIDE, rows * DCSR_STRIDE, cols * DCSR_STRIDE
    a = to_matrix(n, rows, cols, vals, T.FP64, ctx=ctx)
    assert (a._capture().row_ids is not None) == (fmt == "dcsr")
    return a


def _mxm_under(ctx, a):
    c = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
    mxm(c, None, None, PT, a, a)
    c.wait()
    return c


@pytest.mark.benchmark(group="F2-threads")
class TestContextThreads:
    @pytest.mark.parametrize("fmt", ["csr", "dcsr"])
    @pytest.mark.parametrize("nthreads", THREADS, ids=lambda n: f"n{n}")
    def test_mxm_under_context(self, benchmark, nthreads, fmt):
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": nthreads})
        a = _graph_in(ctx, fmt=fmt)
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
    for scale in REPORT_SCALES:
        for fmt in ("csr", "dcsr"):
            base = None
            for nthreads in THREADS:
                ctx = Context.new(Mode.NONBLOCKING, None,
                                  {"nthreads": nthreads})
                a = _graph_in(ctx, scale, fmt)
                best = float("inf")
                for _ in range(5):
                    t0 = time.perf_counter()
                    _mxm_under(ctx, a)
                    best = min(best, time.perf_counter() - t0)
                if base is None:
                    base = best
                rows.append([scale, fmt, f"nthreads={nthreads}",
                             f"{best * 1e3:8.1f} ms", f"{base / best:5.2f}x"])
                ctx.free()
    with capsys.disabled():
        print_table(
            "Figure 2: A·A under per-context thread counts (RMAT, min of 5)",
            ["scale", "format", "context exec spec", "wall clock",
             "speedup vs 1"], rows,
        )
