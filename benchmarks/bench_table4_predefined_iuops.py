"""T4 — Table IV: predefined index-unary operators vs user-defined ones.

The §II performance claim in operator form: a *predefined* index-unary
operator runs vectorized, while an equivalent *user-defined* operator
pays one interpreter call per stored element (the C API's
function-pointer-per-scalar cost).  Expected shape: predefined ≫ UDF,
with the gap growing with nnz.
"""

import time

import pytest

from benchmarks.conftest import print_table, rmat_graph
from repro.core import indexunaryop as IU
from repro.core import types as T
from repro.core.matrix import Matrix
from repro.ops.apply import apply
from repro.ops.select import select

pytestmark = pytest.mark.usefixtures("no_result_memo")

SCALE = 11

UDF_EQUIVALENTS = {
    "TRIL": (IU.TRIL, lambda v, i, j, s: j <= i + s, T.INT64),
    "TRIU": (IU.TRIU, lambda v, i, j, s: j >= i + s, T.INT64),
    "DIAG": (IU.DIAG, lambda v, i, j, s: j == i + s, T.INT64),
    "OFFDIAG": (IU.OFFDIAG, lambda v, i, j, s: j != i + s, T.INT64),
    "ROWLE": (IU.ROWLE, lambda v, i, j, s: i <= s, T.INT64),
    "COLGT": (IU.COLGT, lambda v, i, j, s: j > s, T.INT64),
    "VALUEGT": (IU.VALUEGT[T.FP64], lambda v, i, j, s: v > s, T.FP64),
    "VALUELE": (IU.VALUELE[T.FP64], lambda v, i, j, s: v <= s, T.FP64),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(SCALE)


def _run_select(graph, op, s):
    out = Matrix.new(graph.type, graph.nrows, graph.ncols)
    select(out, None, None, op, graph, s)
    out.wait()
    return out


@pytest.mark.benchmark(group="T4-select-predefined")
class TestPredefinedSelect:
    @pytest.mark.parametrize("name", list(UDF_EQUIVALENTS), ids=str)
    def test_predefined(self, benchmark, graph, name):
        op, _, _ = UDF_EQUIVALENTS[name]
        benchmark(_run_select, graph, op, 0)


@pytest.mark.benchmark(group="T4-select-udf")
class TestUserDefinedSelect:
    @pytest.mark.parametrize("name", ["TRIL", "VALUEGT"], ids=str)
    def test_udf(self, benchmark, graph, name):
        _, fn, s_type = UDF_EQUIVALENTS[name]
        op = IU.IndexUnaryOp.new(fn, T.BOOL, T.FP64, s_type)
        benchmark(_run_select, graph, op, 0)


@pytest.mark.benchmark(group="T4-apply")
class TestIndexApply:
    def test_predefined_rowindex(self, benchmark, graph):
        out = Matrix.new(T.INT64, graph.nrows, graph.ncols)

        def run():
            apply(out, None, None, IU.ROWINDEX[T.INT64], graph, 0)
            out.wait()

        benchmark(run)

    def test_udf_rowindex(self, benchmark, graph):
        op = IU.IndexUnaryOp.new(lambda v, i, j, s: i + s,
                                 T.INT64, T.FP64, T.INT64)
        out = Matrix.new(T.INT64, graph.nrows, graph.ncols)

        def run():
            apply(out, None, None, op, graph, 0)
            out.wait()

        benchmark(run)


def test_table4_report(benchmark, capsys, graph):
    """Table IV rows: each predefined op vs its user-defined equivalent."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, reps=3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps * 1e3

    rows = []
    for name, (op, fn, s_type) in UDF_EQUIVALENTS.items():
        udf = IU.IndexUnaryOp.new(fn, T.BOOL, T.FP64, s_type)
        t_pre = timed(lambda o=op: _run_select(graph, o, 0))
        t_udf = timed(lambda o=udf: _run_select(graph, o, 0))
        rows.append([f"GrB_{name}", f"{t_pre:8.2f}", f"{t_udf:8.2f}",
                     f"{t_udf / t_pre:6.1f}x"])
    with capsys.disabled():
        print_table(
            f"Table IV: predefined vs user-defined index-unary select "
            f"(RMAT scale {SCALE}, nnz={graph.nvals()}; ms)",
            ["operator", "predefined", "user-defined", "speedup"], rows,
        )
