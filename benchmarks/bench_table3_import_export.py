"""T3 — Table III: import/export formats + serialization (§VII).

Regenerates the Table III format matrix as a throughput series over an
nnz sweep.  Expected shape: CSR export is nearly free (internal
storage), CSC pays a transpose, COO pays an expansion, dense pays
densification; import mirrors that, and the export *hint* is CSR.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import print_table, rmat_graph
from repro.core import types as T
from repro.formats import (
    Format,
    matrix_deserialize,
    matrix_export,
    matrix_export_hint,
    matrix_export_size,
    matrix_import,
    matrix_serialize,
    vector_export,
    vector_import,
)
from repro.core.vector import Vector

pytestmark = pytest.mark.usefixtures("no_result_memo")

SCALE = 11
MATRIX_FORMATS = [
    Format.CSR_MATRIX,
    Format.CSC_MATRIX,
    Format.COO_MATRIX,
]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(SCALE)


@pytest.fixture(scope="module")
def exported(graph):
    return {
        fmt: matrix_export(graph, fmt)
        for fmt in MATRIX_FORMATS
    }


@pytest.mark.benchmark(group="T3-export")
class TestExport:
    @pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=lambda f: f.name)
    def test_export(self, benchmark, graph, fmt):
        benchmark(matrix_export, graph, fmt)

    def test_export_dense(self, benchmark):
        small = rmat_graph(8)
        benchmark(matrix_export, small, Format.DENSE_ROW_MATRIX)

    def test_export_size(self, benchmark, graph):
        benchmark(matrix_export_size, graph, Format.CSR_MATRIX)

    def test_export_hint(self, benchmark, graph):
        benchmark(matrix_export_hint, graph)


@pytest.mark.benchmark(group="T3-import")
class TestImport:
    @pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=lambda f: f.name)
    def test_import(self, benchmark, graph, exported, fmt):
        ip, ind, vals = exported[fmt]
        n = graph.nrows
        benchmark(matrix_import, T.FP64, n, n, ip, ind, vals, fmt)

    def test_import_dense(self, benchmark):
        small = rmat_graph(8)
        _, _, vals = matrix_export(small, Format.DENSE_ROW_MATRIX)
        n = small.nrows
        benchmark(matrix_import, T.FP64, n, n, None, None, vals,
                  Format.DENSE_ROW_MATRIX)


@pytest.mark.benchmark(group="T3-serialize")
class TestSerialize:
    def test_serialize(self, benchmark, graph):
        benchmark(matrix_serialize, graph)

    def test_deserialize(self, benchmark, graph):
        blob = matrix_serialize(graph)
        benchmark(matrix_deserialize, blob)


@pytest.mark.benchmark(group="T3-vector")
class TestVectorFormats:
    @pytest.fixture(scope="class")
    def vec(self):
        rng = np.random.default_rng(0)
        n = 1 << 16
        idx = np.flatnonzero(rng.random(n) < 0.2)
        v = Vector.new(T.FP64, n)
        v.build(idx, rng.random(len(idx)))
        v.wait()
        return v

    def test_sparse_vector_export(self, benchmark, vec):
        benchmark(vector_export, vec, Format.SPARSE_VECTOR)

    def test_dense_vector_export(self, benchmark, vec):
        benchmark(vector_export, vec, Format.DENSE_VECTOR)

    def test_sparse_vector_import(self, benchmark, vec):
        idx, vals = vector_export(vec, Format.SPARSE_VECTOR)
        benchmark(vector_import, T.FP64, vec.size, idx, vals,
                  Format.SPARSE_VECTOR)


def test_table3_report(benchmark, capsys):
    """The Table III grid: per-format import/export times over an nnz sweep."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, reps=5):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps * 1e3

    rows = []
    for scale in (8, 10, 12):
        g = rmat_graph(scale)
        n = g.nrows
        row = [f"scale {scale} (nnz={g.nvals()})"]
        for fmt in MATRIX_FORMATS:
            data = matrix_export(g, fmt)
            exp = timed(lambda f=fmt: matrix_export(g, f))
            imp = timed(lambda f=fmt, d=data: matrix_import(
                T.FP64, n, n, d[0], d[1], d[2], f))
            row.append(f"{exp:.2f}/{imp:.2f}")
        blob = matrix_serialize(g)
        ser = timed(lambda: matrix_serialize(g))
        deser = timed(lambda: matrix_deserialize(blob))
        row.append(f"{ser:.2f}/{deser:.2f}")
        rows.append(row)
    hint = matrix_export_hint(rmat_graph(8)).name
    with capsys.disabled():
        print_table(
            f"Table III: export/import ms per format (hint = {hint})",
            ["workload", "CSR", "CSC", "COO", "serialize"],
            rows,
        )
