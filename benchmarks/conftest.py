"""Benchmark harness fixtures: library lifecycle and cached workloads.

Run with:  pytest benchmarks/ --benchmark-only

Each bench module regenerates one table/figure of the paper (see
DESIGN.md's experiment index and EXPERIMENTS.md for measured results).
Workloads are RMAT scale-free graphs and uniform random matrices at
laptop scale; the *shapes* (who wins, by what factor) are the
reproduction target, not the authors' absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.context import Mode, finalize, init, is_initialized
from repro.generators import rmat, to_matrix
from repro.internals import config


@pytest.fixture(scope="session", autouse=True)
def grb_lifecycle():
    if is_initialized():
        finalize()
    init(Mode.NONBLOCKING)
    yield
    if is_initialized():
        finalize()


@pytest.fixture
def no_result_memo():
    """Pin the algorithm-block memo off: a paper-artefact bench repeats
    one algorithm over an unchanged graph, so with the memo on every
    round after the first skips its setup kernels.  Every T / F / M /
    A / AB module opts in with ``pytestmark`` (``tests/test_docs.py``
    checks); the engine-era benches pin their own."""
    with config.option("ENGINE_ALGO_MEMO", False):
        yield


_GRAPH_CACHE: dict = {}


def rmat_graph(scale: int, edge_factor: int = 8, t=T.FP64, *,
               undirected: bool = False, seed: int = 42):
    """Cached RMAT adjacency matrix (dedup'd, no self loops)."""
    key = (scale, edge_factor, t.name, undirected, seed)
    if key not in _GRAPH_CACHE:
        n, rows, cols, vals = rmat(scale, edge_factor, seed=seed)
        _GRAPH_CACHE[key] = to_matrix(
            n, rows, cols, vals, t,
            make_undirected=undirected, no_self_loops=True,
        )
    return _GRAPH_CACHE[key]


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a paper-style results table into the captured stdout."""
    widths = [
        max(len(str(h)), *(len(str(r[k])) for r in rows)) if rows else len(str(h))
        for k, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title}")
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
