#!/usr/bin/env python3
"""Domain scenario: triangle census of a scale-free social network.

The motivating workload class of the GraphBLAS line of work: count
triangles (a clustering proxy) on an RMAT graph.  The 2.0 ``select``
makes orienting the edges a single call (Fig. 3's idiom: the library
keeps each edge toward its lower-degree endpoint, this script times the
plain lower triangle too); the same filter under GraphBLAS 1.X needs the
extract-filter-build round-trip, which this script also runs for
comparison — the §II motivation made concrete.

Run:  python examples/triangle_census.py [scale]
"""

import sys
import time

import numpy as np

from repro import grb
from repro.algorithms import triangle_count, triangle_count_burkhardt
from repro.compat import extract_filter_build_select
from repro.generators import rmat, to_matrix


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    grb.init(grb.Mode.NONBLOCKING)

    n, rows, cols, vals = rmat(scale, 8, seed=11)
    A = to_matrix(n, rows, cols, np.ones(len(rows)), grb.FP64,
                  make_undirected=True, no_self_loops=True)
    print(f"RMAT scale={scale}: {A.nrows} vertices, {A.nvals()} directed edges")

    t0 = time.perf_counter()
    tri = triangle_count(A)
    t_masked = time.perf_counter() - t0

    t0 = time.perf_counter()
    tri_b = triangle_count_burkhardt(A)
    t_burk = time.perf_counter() - t0

    assert tri == tri_b, (tri, tri_b)
    print(f"triangles = {tri}")
    print(f"  masked D·Dᵀ (degree order):    {t_masked * 1e3:8.1f} ms")
    print(f"  unmasked A²⊙A (Burkhardt):     {t_burk * 1e3:8.1f} ms")

    # -- the 1.X way to get L: copy everything out and back ----------------
    t0 = time.perf_counter()
    L_1x = extract_filter_build_select(
        A, lambda v, i, j: j < i  # strict lower triangle
    )
    t_1x = time.perf_counter() - t0

    t0 = time.perf_counter()
    L_20 = grb.Matrix.new(grb.FP64, n, n)
    grb.select(L_20, None, None, grb.TRIL, A, -1)
    grb.wait(L_20)
    t_20 = time.perf_counter() - t0

    assert L_1x.nvals() == L_20.nvals()
    print(f"lower-triangle extraction: 1.X round-trip {t_1x * 1e3:6.1f} ms "
          f"vs 2.0 select {t_20 * 1e3:6.1f} ms")

    grb.finalize()


if __name__ == "__main__":
    main()
