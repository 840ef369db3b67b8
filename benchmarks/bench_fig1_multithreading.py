"""F1 — Figure 1: the two-thread pipeline with completion hand-off (§III).

Runs the exact Fig. 1 dataflow (C = AB; Esh = DC; publish; Dres = A·Esh
while thread 1 computes G = EF and then Hres = G·Esh) two ways:

* sequentially on one thread,
* as the paper's two-thread program with ``wait(COMPLETE)`` + an
  acquire/release flag.

Expected shape: the threaded run is never slower than the sum of its
serial parts by more than synchronization overhead, results are
bit-identical, and the overlap (thread 1's G = EF hiding behind thread
0's chain) yields wall-clock ≤ sequential.
"""

import threading
import time

import pytest

from benchmarks.conftest import print_table
from repro.core import types as T
from repro.core.context import WaitMode
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.sequence import wait
from repro.generators import random_matrix_data
from repro.ops.mxm import mxm

pytestmark = pytest.mark.usefixtures("no_result_memo")

PT = PLUS_TIMES_SEMIRING[T.FP64]
N = 700
DENSITY = 0.01


def _mk(seed: int) -> Matrix:
    rows, cols, vals = random_matrix_data(N, N, DENSITY, seed=seed)
    m = Matrix.new(T.FP64, N, N)
    m.build(rows, cols, vals)
    m.wait()
    return m


@pytest.fixture(scope="module")
def inputs():
    return {k: _mk(s) for k, s in zip("ABDEF", range(5))}


def run_sequential(inp):
    A, B, D, E, F = (inp[k] for k in "ABDEF")
    C = Matrix.new(T.FP64, N, N)
    Esh = Matrix.new(T.FP64, N, N)
    G = Matrix.new(T.FP64, N, N)
    Dres = Matrix.new(T.FP64, N, N)
    Hres = Matrix.new(T.FP64, N, N)
    mxm(C, None, None, PT, A, B)
    mxm(Esh, None, None, PT, D, C)
    mxm(G, None, None, PT, E, F)
    mxm(Dres, None, None, PT, A, Esh)
    mxm(Hres, None, None, PT, G, Esh)
    wait(Dres, WaitMode.MATERIALIZE)
    wait(Hres, WaitMode.MATERIALIZE)
    return Dres, Hres


def run_two_threads(inp):
    A, B, D, E, F = (inp[k] for k in "ABDEF")
    flag = threading.Event()
    Esh = Matrix.new(T.FP64, N, N)
    Dres = Matrix.new(T.FP64, N, N)
    Hres = Matrix.new(T.FP64, N, N)

    def thread0():
        C = Matrix.new(T.FP64, N, N)
        mxm(C, None, None, PT, A, B)
        mxm(Esh, None, None, PT, D, C)
        wait(Esh, WaitMode.COMPLETE)
        flag.set()
        mxm(Dres, None, None, PT, A, Esh)
        wait(Dres, WaitMode.COMPLETE)

    def thread1():
        G = Matrix.new(T.FP64, N, N)
        mxm(G, None, None, PT, E, F)
        flag.wait()
        mxm(Hres, None, None, PT, G, Esh)
        wait(Hres, WaitMode.COMPLETE)

    t0 = threading.Thread(target=thread0)
    t1 = threading.Thread(target=thread1)
    t0.start(); t1.start()
    t0.join(); t1.join()
    wait(Dres, WaitMode.MATERIALIZE)
    wait(Hres, WaitMode.MATERIALIZE)
    return Dres, Hres


@pytest.mark.benchmark(group="F1-pipeline")
class TestFigOnePipeline:
    def test_sequential(self, benchmark, inputs):
        benchmark(run_sequential, inputs)

    def test_two_threads(self, benchmark, inputs):
        benchmark(run_two_threads, inputs)


def test_fig1_results_identical(inputs):
    import numpy as np
    d_seq, h_seq = run_sequential(inputs)
    d_thr, h_thr = run_two_threads(inputs)
    assert np.allclose(d_seq.to_dense(), d_thr.to_dense())
    assert np.allclose(h_seq.to_dense(), h_thr.to_dense())


def test_fig1_report(benchmark, capsys, inputs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for label, fn in (("sequential", run_sequential),
                      ("two threads (Fig. 1)", run_two_threads)):
        best = min(
            (lambda t0=time.perf_counter(): (fn(inputs),
                                             time.perf_counter() - t0))()[1]
            for _ in range(3)
        )
        rows.append([label, f"{best * 1e3:9.1f} ms"])
    with capsys.disabled():
        print_table(
            f"Figure 1: two-thread pipeline vs sequential "
            f"(n={N}, density={DENSITY})",
            ["execution", "wall clock"], rows,
        )
