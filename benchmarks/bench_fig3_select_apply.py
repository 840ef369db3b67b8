"""F3 — Figure 3: the select and apply examples (§VIII).

Conformance first (the exact operator semantics of the figure on its
5-vertex-style graph), then performance series: the figure's two
operations — select(my_triu_eq) and apply(COLINDEX) — swept over RMAT
scales.  Expected shape: both scale linearly in nnz; the user-defined
select (the paper's §VIII-A example operator) tracks the UDF line of
Table IV while COLINDEX tracks the vectorized line.
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

SCALES = [8, 10, 12]


def my_triu_eq(v, i, j, s):
    """The paper's my_triu_eq_INT32, FP64-valued here."""
    return (j > i) and (v > s)


MY_TRIU = IU.IndexUnaryOp.new(my_triu_eq, T.BOOL, T.FP64, T.FP64,
                              name="my_triu_eq")


def run_fig3_select(graph):
    out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
    select(out, None, None, MY_TRIU, graph, 0.0)
    out.wait()
    return out


def run_fig3_select_predefined(graph):
    """The same filter out of predefined ops: TRIU(1) then VALUEGT."""
    mid = Matrix.new(T.FP64, graph.nrows, graph.ncols)
    select(mid, None, None, IU.TRIU, graph, 1)
    out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
    select(out, None, None, IU.VALUEGT[T.FP64], mid, 0.0)
    out.wait()
    return out


def run_fig3_apply(graph):
    out = Matrix.new(T.INT64, graph.nrows, graph.ncols)
    apply(out, None, None, IU.COLINDEX[T.INT64], graph, 1)
    out.wait()
    return out


def test_fig3_conformance():
    """The figure's semantics on a concrete small graph."""
    g = Matrix.new(T.FP64, 5, 5)
    rows = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    cols = [1, 3, 2, 4, 0, 3, 1, 4, 0, 2]
    vals = [2.0, 5.0, 1.0, 4.0, 3.0, 7.0, 6.0, 2.0, 9.0, 1.0]
    g.build(rows, cols, vals)

    sel = run_fig3_select(g)
    for (i, j), v in sel.to_dict().items():
        assert j > i and v > 0
    assert sel.to_dict() == run_fig3_select_predefined(g).to_dict()

    app = run_fig3_apply(g)
    assert app.nvals() == g.nvals()
    for (i, j), v in app.to_dict().items():
        assert v == j + 1


@pytest.mark.benchmark(group="F3-select")
class TestFigThreeSelect:
    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"scale{s}")
    def test_select_udf(self, benchmark, scale):
        benchmark(run_fig3_select, rmat_graph(scale))

    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"scale{s}")
    def test_select_predefined(self, benchmark, scale):
        benchmark(run_fig3_select_predefined, rmat_graph(scale))


@pytest.mark.benchmark(group="F3-apply")
class TestFigThreeApply:
    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"scale{s}")
    def test_apply_colindex(self, benchmark, scale):
        benchmark(run_fig3_apply, rmat_graph(scale))


def test_fig3_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, arg, reps=3):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(arg)
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    rows = []
    for scale in SCALES:
        g = rmat_graph(scale)
        rows.append([
            f"scale {scale} (nnz={g.nvals()})",
            f"{timed(run_fig3_select, g):8.2f}",
            f"{timed(run_fig3_select_predefined, g):8.2f}",
            f"{timed(run_fig3_apply, g):8.2f}",
        ])
    with capsys.disabled():
        print_table(
            "Figure 3: select(my_triu_eq) / predefined select pipeline / "
            "apply(COLINDEX); ms",
            ["workload", "select UDF", "select predef", "apply COLINDEX"],
            rows,
        )
