"""T2 — Table II: GrB_Scalar variants of the extended methods (§VI).

Measures each Table II variant against its typed counterpart.  The
paper's claim is semantic uniformity at negligible cost: the scalar
variants should sit within a small constant factor of the typed ones,
while changing the *behaviour* exactly as §VI specifies (empty instead
of identity, deferred extraction).
"""

import time

import pytest

from benchmarks.conftest import print_table, rmat_graph
from repro.core import binaryop as B
from repro.core import monoid as M
from repro.core import types as T
from repro.core.indexunaryop import VALUEGT
from repro.core.matrix import Matrix
from repro.core.scalar import Scalar
from repro.core.vector import Vector
from repro.ops.apply import apply
from repro.ops.assign import assign
from repro.ops.reduce import reduce, reduce_scalar
from repro.ops.select import select

pytestmark = pytest.mark.usefixtures("no_result_memo")

SCALE = 10


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(SCALE)


@pytest.mark.benchmark(group="T2-reduce")
class TestReduceVariants:
    def test_reduce_typed(self, benchmark, graph):
        benchmark(reduce_scalar, M.PLUS_MONOID[T.FP64], graph)

    def test_reduce_grb_scalar_monoid(self, benchmark, graph):
        s = Scalar.new(T.FP64)

        def run():
            reduce(s, None, M.PLUS_MONOID[T.FP64], graph)
            return s.extract_element()

        benchmark(run)

    def test_reduce_grb_scalar_binop(self, benchmark, graph):
        """The new BinaryOp-reducer variant (§VI)."""
        s = Scalar.new(T.FP64)

        def run():
            reduce(s, None, B.PLUS[T.FP64], graph)
            return s.extract_element()

        benchmark(run)


@pytest.mark.benchmark(group="T2-element")
class TestElementVariants:
    def test_extract_element_typed(self, benchmark, graph):
        rows, cols, _ = graph.extract_tuples()
        i, j = int(rows[0]), int(cols[0])
        benchmark(graph.extract_element, i, j)

    def test_extract_element_grb_scalar(self, benchmark, graph):
        rows, cols, _ = graph.extract_tuples()
        i, j = int(rows[0]), int(cols[0])
        out = Scalar.new(T.FP64)
        benchmark(graph.extract_element, i, j, out)

    def test_set_element_typed(self, benchmark):
        m = Matrix.new(T.FP64, 64, 64)
        benchmark(m.set_element, 1.5, 3, 4)

    def test_set_element_grb_scalar(self, benchmark):
        m = Matrix.new(T.FP64, 64, 64)
        s = Scalar.new(T.FP64)
        s.set_element(1.5)
        s.wait()
        benchmark(m.set_element, s, 3, 4)


@pytest.mark.benchmark(group="T2-ops")
class TestOperationVariants:
    def test_apply_bind_typed_scalar(self, benchmark, graph):
        out = Matrix.new(T.FP64, graph.nrows, graph.ncols)

        def run():
            apply(out, None, None, B.TIMES[T.FP64], graph, 2.0)
            out.wait()

        benchmark(run)

    def test_apply_bind_grb_scalar(self, benchmark, graph):
        out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
        s = Scalar.new(T.FP64)
        s.set_element(2.0)
        s.wait()

        def run():
            apply(out, None, None, B.TIMES[T.FP64], graph, s)
            out.wait()

        benchmark(run)

    def test_select_typed_scalar(self, benchmark, graph):
        out = Matrix.new(T.FP64, graph.nrows, graph.ncols)

        def run():
            select(out, None, None, VALUEGT[T.FP64], graph, 0.5)
            out.wait()

        benchmark(run)

    def test_select_grb_scalar(self, benchmark, graph):
        out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
        s = Scalar.new(T.FP64)
        s.set_element(0.5)
        s.wait()

        def run():
            select(out, None, None, VALUEGT[T.FP64], graph, s)
            out.wait()

        benchmark(run)

    def test_assign_typed_scalar(self, benchmark, graph):
        out = Vector.new(T.FP64, graph.nrows)

        def run():
            assign(out, None, None, 1.0, None)
            out.wait()

        benchmark(run)

    def test_assign_grb_scalar(self, benchmark, graph):
        out = Vector.new(T.FP64, graph.nrows)
        s = Scalar.new(T.FP64)
        s.set_element(1.0)
        s.wait()

        def run():
            assign(out, None, None, s, None)
            out.wait()

        benchmark(run)


def test_table2_report(benchmark, capsys, graph):
    """Table II rows: typed vs GrB_Scalar variant timings + semantics."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, reps=30):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps * 1e3

    s = Scalar.new(T.FP64)
    out_m = Matrix.new(T.FP64, graph.nrows, graph.ncols)
    sg = Scalar.new(T.FP64)
    sg.set_element(0.5)
    sg.wait()
    rows = [
        ["reduce (monoid)", f"{timed(lambda: reduce_scalar(M.PLUS_MONOID[T.FP64], graph)):.3f} ms",
         f"{timed(lambda: (reduce(s, None, M.PLUS_MONOID[T.FP64], graph), s.nvals())):.3f} ms"],
        ["reduce (binop — new)", "n/a (needs identity)",
         f"{timed(lambda: (reduce(s, None, B.PLUS[T.FP64], graph), s.nvals())):.3f} ms"],
        ["select s-arg", f"{timed(lambda: (select(out_m, None, None, VALUEGT[T.FP64], graph, 0.5), out_m.wait())):.3f} ms",
         f"{timed(lambda: (select(out_m, None, None, VALUEGT[T.FP64], graph, sg), out_m.wait())):.3f} ms"],
    ]
    # semantics: empty reduce
    empty = Matrix.new(T.FP64, 4, 4)
    s_e = Scalar.new(T.FP64)
    reduce(s_e, None, M.PLUS_MONOID[T.FP64], empty)
    rows.append(["empty-reduce result",
                 f"identity ({reduce_scalar(M.PLUS_MONOID[T.FP64], empty)})",
                 f"empty scalar (nvals={s_e.nvals()})"])
    with capsys.disabled():
        print_table(
            f"Table II: typed vs GrB_Scalar variants (RMAT scale {SCALE}, "
            f"nvals={graph.nvals()})",
            ["method", "typed variant", "GrB_Scalar variant"], rows,
        )
