"""S3 — the hypersparse form: mxv with a row list at 2^30 rows.

One workload, written to ``BENCH_hypersparse.json`` and gated by
``tools/bench_gate.py`` against the committed baseline:

* ``hypersparse_mxv`` — time-to-first-answer on a 1000-edge graph at
  2^30 vertices: build the graph, commit it, run one ``mxv``.  The
  row-list path (``nb_dcsr_ms``) runs at the full dimension — a dense
  row pointer *cannot* represent it at all (it alone would be 8 GiB)
  — so the dense-pointer handicap (``blocking_ms``) runs an equal-size
  edge set at 2^24 rows, a 64× smaller dimension, assembled with
  ``coo_to_csr`` and wrapped as is.  Even spotted that factor, CSR
  pays O(nrows) on the dense pointer (allocation + cumsum at assembly)
  while the row list pays O(nnz log nnz); the acceptance bar is
  **≥ 10×** in the row list's favour.  Proof: ``format_dcsr_commits``
  > 0 (the policy engaged) and every stored array of the committed
  graph scales with the entry count, none with the row count.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_hypersparse.py
    python tools/bench_gate.py
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.core import types as T
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.vector import Vector
from repro.engine.stats import STATS
from repro.internals.containers import coo_to_csr
from repro.ops.mxm import mxv

HUGE_ROWS = 1 << 30     # the row-list dimension (no dense pointer exists)
CSR_ROWS = 1 << 24      # the dense-pointer handicap dimension (64x smaller)
NNZ = 1_000
SPEEDUP_FLOOR = 10.0    # acceptance: row list at 2^30 vs CSR at 2^24
REPS = 3

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def emit_results():
    yield
    if _RESULTS:
        Path("BENCH_hypersparse.json").write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n"
        )


def _edges(nrows: int):
    rng = np.random.default_rng(1234)
    rows = np.unique(rng.integers(0, nrows, NNZ, dtype=np.int64))
    cols = rng.integers(0, nrows, len(rows), dtype=np.int64)
    vals = rng.random(len(rows)) + 0.5
    return rows, cols, vals


def _answer_once(nrows: int, csr: bool) -> tuple[float, Matrix, int]:
    """Edge list -> committed graph -> first mxv answer, one wall time.

    Build/commit is inside the timed region on purpose: that is where
    CSR pays its O(nrows) dense-pointer cost (allocation + cumsum),
    which is exactly the cost the hypersparse form removes.  ``csr``
    assembles the dense pointer directly (``coo_to_csr``) instead of
    letting the policy pick.
    """
    rows, cols, vals = _edges(nrows)
    seeds = np.unique(cols)[:200]
    ones = np.ones(len(seeds))
    t0 = time.perf_counter()
    if csr:
        m = Matrix.from_data(coo_to_csr(nrows, nrows, T.FP64, rows, cols,
                                        vals, presorted=True))
    else:
        m = Matrix.new(T.FP64, nrows, nrows)
        m.build(rows, cols, vals)
    u = Vector.new(T.FP64, nrows)
    u.build(seeds, ones)
    w = Vector.new(T.FP64, nrows)
    mxv(w, None, None, PLUS_TIMES_SEMIRING[T.FP64], m, u)
    n = w.nvals()   # forces the sequence
    wall = (time.perf_counter() - t0) * 1e3
    return wall, m, n


def _time_to_answer(nrows: int, csr: bool,
                    reps: int = REPS) -> tuple[float, Matrix, int]:
    best = m = n = None
    for _ in range(reps):
        wall, m, n = _answer_once(nrows, csr)
        if best is None or wall < best:
            best = wall
    return best, m, n


@pytest.mark.benchmark(group="S3-hypersparse")
class TestHypersparseMxv:
    def test_dcsr_vs_forced_csr(self):
        # -- dense-pointer handicap at the largest feasible dimension --
        csr_ms, m_c, csr_n = _time_to_answer(CSR_ROWS, csr=True)
        assert m_c._capture().row_ids is None

        # -- row list at the full dimension ---------------------------
        before = STATS.snapshot()
        dcsr_ms, m_d, dcsr_n = _time_to_answer(HUGE_ROWS, csr=False)
        after = STATS.snapshot()

        assert csr_n > 0 and dcsr_n > 0, "a run produced an empty answer"
        carrier = m_d._capture()
        assert carrier.row_ids is not None, "policy never engaged"
        # O(nnz) allocation proof: every stored array scales with the
        # entry count, none with the 2^30 row count.
        assert len(carrier.indptr) == len(carrier.row_ids) + 1 <= NNZ + 1

        dcsr_commits = after.get("format_dcsr_commits", 0) - \
            before.get("format_dcsr_commits", 0)
        assert dcsr_commits >= 1, "no commit ever landed on a row list"

        speedup = csr_ms / dcsr_ms if dcsr_ms > 0 else float("inf")
        _RESULTS["hypersparse_mxv"] = {
            "blocking_ms": csr_ms,
            "nb_dcsr_ms": dcsr_ms,
            "csr_rows": CSR_ROWS,
            "dcsr_rows": HUGE_ROWS,
            "nnz": NNZ,
            "speedup": round(speedup, 2),
            "format_dcsr_commits": dcsr_commits,
        }
        print_table(
            f"S3  mxv on a {NNZ}-edge graph",
            ["carrier", "rows", "wall ms", "proof"],
            [["dense pointer", f"2^{CSR_ROWS.bit_length() - 1}",
              f"{csr_ms:.2f}", ""],
             ["row list", f"2^{HUGE_ROWS.bit_length() - 1}",
              f"{dcsr_ms:.2f}",
              f"commits={dcsr_commits} speedup={speedup:.1f}x"]],
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"Row-list mxv at 2^30 rows is only {speedup:.1f}x the CSR "
            f"run at 2^24 rows (need >= {SPEEDUP_FLOOR:.0f}x)"
        )
