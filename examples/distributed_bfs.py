#!/usr/bin/env python3
"""Domain scenario: the distributed future of §IV, simulated.

The paper's conclusion points the GraphBLAS at distributed systems,
with ``GrB_Context`` as the resource-scoping mechanism.  This script
runs a simulated 4-rank cluster: the adjacency matrix is scattered into
row blocks, each block lives in a *nested per-rank context* under the
top-level context — exactly the MPI-outer/threads-inner hierarchy §IV
describes — and a level-synchronous BFS runs with one allgather per
level.  The ranks take turns on one thread; the cluster counts every
message and byte its collectives would move.  The result is checked
against the single-node BFS.

Run:  python examples/distributed_bfs.py
"""

import numpy as np

from repro import grb
from repro.algorithms import bfs_levels
from repro.core.context import default_context
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.distributed import (
    Cluster,
    DistMatrix,
    DistVector,
    dist_bfs_levels,
    dist_mxv,
)
from repro.generators import rmat, to_matrix

SCALE, RANKS = 10, 4


def main() -> None:
    grb.init(grb.Mode.NONBLOCKING)

    n, rows, cols, _ = rmat(SCALE, 8, seed=99)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    print(f"RMAT scale {SCALE}: {n} vertices, {len(rows)} edges, "
          f"{RANKS} simulated ranks")

    # Each rank nests its own context under the top-level one (§IV):
    # two local threads per rank — the hierarchy the paper sketches.
    cluster = Cluster(RANKS, default_context(), nthreads=2)
    a = DistMatrix.from_triples(
        cluster, n, n, grb.BOOL, rows, cols, np.ones(len(rows), dtype=bool),
        grb.LOR[grb.BOOL],
    )
    levels = dist_bfs_levels(cluster, a, 0)
    # Also one distributed SpMV to exercise the numeric path.
    af = DistMatrix.from_triples(
        cluster, n, n, grb.FP64, rows, cols, np.ones(len(rows)),
        grb.MAX[grb.FP64],
    )
    ones = DistVector.from_global_dense(cluster, np.ones(n), grb.FP64)
    dist_mxv(cluster, af, ones, PLUS_TIMES_SEMIRING[grb.FP64])

    got = {int(i): int(v) for i, v in levels.to_dict().items()}
    stats = cluster.stats.snapshot()
    print(f"per-rank edge blocks: {[b.nvals() for b in a.blocks]}")
    print(f"communication: {stats['messages']} messages, "
          f"{stats['bytes'] / 1e3:.1f} KB, {stats['collectives']} collectives")

    # single-node reference
    A = to_matrix(n, rows, cols, np.ones(len(rows), dtype=bool), grb.BOOL)
    expected = {int(k): int(v) for k, v in bfs_levels(A, 0).to_dict().items()}
    assert got == expected
    print(f"distributed BFS levels match single-node BFS "
          f"({len(got)} reached vertices, max level "
          f"{max(got.values()) if got else 0})")

    grb.finalize()


if __name__ == "__main__":
    main()
