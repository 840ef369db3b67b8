"""M1 — the §II motivation, measured: index-aware ops vs the 1.X idioms.

Three implementations of the same two index-aware computations
(strict-upper-triangle extraction, replace-values-with-row-index):

1. **1.X packed** — indices stored in the values array (storage and
   bandwidth doubled), user-defined operators unpack per element;
   includes the packing pass, which 1.X programs had to run whenever
   the pattern changed.
2. **2.0 UDF** — an ``IndexUnaryOp.new`` operator: no packed storage,
   but still one function call per stored element.
3. **2.0 predefined** — ``GrB_TRIU``/``GrB_ROWINDEX``: vectorized.

Expected shape (the paper's claim): predefined ≫ UDF ≥ 1.X packed,
with 1.X also paying ~2x storage.  This is the headline reproduction.
"""

import time

import pytest

from benchmarks.conftest import print_table, rmat_graph
from repro import compat
from repro.core import indexunaryop as IU
from repro.core import types as T
from repro.core.matrix import Matrix
from repro.ops.apply import apply
from repro.ops.select import select

pytestmark = pytest.mark.usefixtures("no_result_memo")

SCALES = [8, 10, 12]


# -- the three select idioms -------------------------------------------------

def select_1x_packed(graph):
    packed = compat.pack_index_matrix(graph)
    return compat.select_triu_value_packed_1x(packed, 0.0, T.FP64)


def select_20_udf(graph):
    op = IU.IndexUnaryOp.new(
        lambda v, i, j, s: (j > i) and (v > s), T.BOOL, T.FP64, T.FP64,
    )
    out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
    select(out, None, None, op, graph, 0.0)
    out.wait()
    return out


def select_20_predefined(graph):
    mid = Matrix.new(T.FP64, graph.nrows, graph.ncols)
    select(mid, None, None, IU.TRIU, graph, 1)
    out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
    select(out, None, None, IU.VALUEGT[T.FP64], mid, 0.0)
    out.wait()
    return out


# -- the three apply idioms ----------------------------------------------------

def apply_1x_packed(graph):
    packed = compat.pack_index_matrix(graph)
    return compat.apply_rowindex_packed_1x(packed, 0)


def apply_20_udf(graph):
    op = IU.IndexUnaryOp.new(lambda v, i, j, s: i + s, T.INT64, T.FP64,
                             T.INT64)
    out = Matrix.new(T.INT64, graph.nrows, graph.ncols)
    apply(out, None, None, op, graph, 0)
    out.wait()
    return out


def apply_20_predefined(graph):
    out = Matrix.new(T.INT64, graph.nrows, graph.ncols)
    apply(out, None, None, IU.ROWINDEX[T.INT64], graph, 0)
    out.wait()
    return out


def test_all_three_idioms_agree():
    g = rmat_graph(8)
    a = select_1x_packed(g).to_dict()
    b = select_20_udf(g).to_dict()
    c = select_20_predefined(g).to_dict()
    assert a == b == c
    x = apply_1x_packed(g).to_dict()
    y = apply_20_udf(g).to_dict()
    z = apply_20_predefined(g).to_dict()
    assert x == y == z


@pytest.mark.benchmark(group="M1-select")
class TestSelectIdioms:
    @pytest.mark.parametrize("scale", [10], ids=lambda s: f"scale{s}")
    def test_1x_packed(self, benchmark, scale):
        benchmark(select_1x_packed, rmat_graph(scale))

    @pytest.mark.parametrize("scale", [10], ids=lambda s: f"scale{s}")
    def test_20_udf(self, benchmark, scale):
        benchmark(select_20_udf, rmat_graph(scale))

    @pytest.mark.parametrize("scale", [10], ids=lambda s: f"scale{s}")
    def test_20_predefined(self, benchmark, scale):
        benchmark(select_20_predefined, rmat_graph(scale))


@pytest.mark.benchmark(group="M1-apply")
class TestApplyIdioms:
    @pytest.mark.parametrize("scale", [10], ids=lambda s: f"scale{s}")
    def test_1x_packed(self, benchmark, scale):
        benchmark(apply_1x_packed, rmat_graph(scale))

    @pytest.mark.parametrize("scale", [10], ids=lambda s: f"scale{s}")
    def test_20_udf(self, benchmark, scale):
        benchmark(apply_20_udf, rmat_graph(scale))

    @pytest.mark.parametrize("scale", [10], ids=lambda s: f"scale{s}")
    def test_20_predefined(self, benchmark, scale):
        benchmark(apply_20_predefined, rmat_graph(scale))


def test_motivation_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, g, reps=3):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(g)
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    sel_rows, app_rows = [], []
    for scale in SCALES:
        g = rmat_graph(scale)
        label = f"scale {scale} (nnz={g.nvals()})"
        t1 = timed(select_1x_packed, g)
        t2 = timed(select_20_udf, g)
        t3 = timed(select_20_predefined, g)
        sel_rows.append([label, f"{t1:9.2f}", f"{t2:9.2f}", f"{t3:9.2f}",
                         f"{t1 / t3:6.1f}x"])
        t1 = timed(apply_1x_packed, g)
        t2 = timed(apply_20_udf, g)
        t3 = timed(apply_20_predefined, g)
        app_rows.append([label, f"{t1:9.2f}", f"{t2:9.2f}", f"{t3:9.2f}",
                         f"{t1 / t3:6.1f}x"])

    # storage overhead of the 1.X packed representation
    g = rmat_graph(10)
    plain_bytes = g.nvals() * 8
    packed = compat.pack_index_matrix(g)
    packed_bytes = g.nvals() * 8 * 3   # (i, j, v) per element
    with capsys.disabled():
        print_table(
            "§II motivation — select: 1.X packed vs 2.0 UDF vs 2.0 "
            "predefined (ms)",
            ["workload", "1.X packed", "2.0 UDF", "2.0 predef",
             "1.X/predef"],
            sel_rows,
        )
        print_table(
            "§II motivation — apply(rowindex): same three idioms (ms)",
            ["workload", "1.X packed", "2.0 UDF", "2.0 predef",
             "1.X/predef"],
            app_rows,
        )
        print(f"\n1.X values-array storage: {packed_bytes} bytes vs "
              f"{plain_bytes} bytes plain "
              f"({packed_bytes / plain_bytes:.1f}x, the 'stored and "
              f"streamed twice' cost of §II; packed nvals="
              f"{packed.nvals()})")
