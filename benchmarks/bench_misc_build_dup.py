"""M2 — §IX cleanup: the optional ``dup`` in build.

Series over duplicate rates: build with dup=PLUS (fold), dup=FIRST
(keep first), and dup=NULL (detect-and-error / accept when clean).
Expected shape: the NULL-dup clean path is the cheapest (a run-length
scan instead of a reduction); folding cost grows mildly with the
duplicate rate; detection on a duplicate-bearing input costs the same
scan and raises.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.core import binaryop as B
from repro.core import types as T
from repro.core.errors import DuplicateIndexError
from repro.core.matrix import Matrix

pytestmark = pytest.mark.usefixtures("no_result_memo")

N = 1 << 11
BASE_EDGES = 40_000


def _triples(dup_rate: float, seed: int = 7):
    rng = np.random.default_rng(seed)
    uniq = rng.choice(N * N, size=BASE_EDGES, replace=False)
    extra = rng.choice(uniq, size=int(BASE_EDGES * dup_rate)) \
        if dup_rate else np.empty(0, dtype=np.int64)
    flat = np.concatenate([uniq, extra])
    rng.shuffle(flat)
    rows, cols = np.divmod(flat.astype(np.int64), N)
    return rows, cols, rng.random(len(flat))


def _build(rows, cols, vals, dup):
    m = Matrix.new(T.FP64, N, N)
    m.build(rows, cols, vals, dup)
    m.wait()
    return m


@pytest.mark.benchmark(group="M2-build")
class TestBuildDup:
    @pytest.mark.parametrize("rate", [0.0, 0.25], ids=["clean", "dup25"])
    def test_build_dup_plus(self, benchmark, rate):
        rows, cols, vals = _triples(rate)
        benchmark(_build, rows, cols, vals, B.PLUS[T.FP64])

    @pytest.mark.parametrize("rate", [0.0, 0.25], ids=["clean", "dup25"])
    def test_build_dup_first(self, benchmark, rate):
        rows, cols, vals = _triples(rate)
        benchmark(_build, rows, cols, vals, B.FIRST[T.FP64])

    def test_build_null_dup_clean(self, benchmark):
        rows, cols, vals = _triples(0.0)
        benchmark(_build, rows, cols, vals, None)

    def test_build_null_dup_detects(self, benchmark):
        rows, cols, vals = _triples(0.25)

        def run():
            try:
                _build(rows, cols, vals, None)
            except DuplicateIndexError:
                return True
            raise AssertionError("duplicates not detected")

        benchmark(run)

    def test_build_udf_dup(self, benchmark):
        """User-defined dup pays the per-duplicate Python call."""
        rows, cols, vals = _triples(0.25)
        op = B.BinaryOp.new(lambda x, y: x + y, T.FP64, T.FP64, T.FP64)
        benchmark(_build, rows, cols, vals, op)


def test_build_dup_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, reps=3):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    rows = []
    for rate in (0.0, 0.1, 0.25, 0.5):
        r, c, v = _triples(rate)
        t_plus = timed(lambda: _build(r, c, v, B.PLUS[T.FP64]))
        t_first = timed(lambda: _build(r, c, v, B.FIRST[T.FP64]))
        if rate == 0.0:
            t_null = timed(lambda: _build(r, c, v, None))
            null_label = f"{t_null:7.2f} (accepts)"
        else:
            def detect():
                try:
                    _build(r, c, v, None)
                except DuplicateIndexError:
                    pass
            t_null = timed(detect)
            null_label = f"{t_null:7.2f} (errors)"
        rows.append([f"dup rate {rate:4.2f}", f"{t_plus:7.2f}",
                     f"{t_first:7.2f}", null_label])
    with capsys.disabled():
        print_table(
            f"§IX: build with optional dup ({BASE_EDGES} base edges; ms)",
            ["workload", "dup=PLUS", "dup=FIRST", "dup=NULL"], rows,
        )
