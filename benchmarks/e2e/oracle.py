"""Independent oracle: scipy.sparse / scipy.sparse.csgraph / networkx only.

Nothing here imports ``repro``.  Each function takes the raw generator
triples (or a matrix built from them by :func:`undirected`) and answers
the same question the library is asked, by a different route, so a
wrong answer cannot hide behind a shared kernel.  All checks return
``True``/``False``; the caller counts failures.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def undirected(n: int, rows, cols, vals) -> sp.csr_matrix:
    """Symmetric, loop-free CSR; a pair given twice keeps its largest
    weight (what the benchmark asks ``to_matrix`` for)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    keep = rows != cols
    r = np.concatenate([rows[keep], cols[keep]])
    c = np.concatenate([cols[keep], rows[keep]])
    v = np.concatenate([vals[keep], vals[keep]])
    key = r * n + c
    order = np.lexsort((v, key))           # within a key, largest last
    key, v = key[order], v[order]
    last = np.append(key[1:] != key[:-1], True)
    key, v = key[last], v[last]
    return sp.csr_matrix((v, (key // n, key % n)), shape=(n, n))


def directed(n: int, rows, cols, vals) -> sp.csr_matrix:
    """CSR of unique directed triples (the 2-D grid)."""
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows), np.asarray(cols))), shape=(n, n))


def upsert(a: sp.csr_matrix, rows, cols, vals) -> sp.csr_matrix:
    """*a* with the writes applied in order, last write to a pair wins."""
    n = a.shape[0]
    coo = a.tocoo()
    key = np.concatenate([coo.row.astype(np.int64) * n + coo.col,
                          np.asarray(rows, dtype=np.int64) * n
                          + np.asarray(cols, dtype=np.int64)])
    val = np.concatenate([coo.data, np.asarray(vals, dtype=np.float64)])
    # np.unique on the reversed stream returns each key's *last* write.
    uniq, first_rev = np.unique(key[::-1], return_index=True)
    val = val[::-1][first_rev]
    return sp.csr_matrix((val, (uniq // n, uniq % n)), shape=(n, n))


def pattern(a: sp.csr_matrix) -> sp.csr_matrix:
    p = a.copy()
    p.data = np.ones_like(p.data)
    return p


# -- answers ------------------------------------------------------------------

def bfs_levels(a: sp.csr_matrix, source: int) -> np.ndarray:
    """Hop count from *source*, -1 where unreachable."""
    d = csgraph.dijkstra(a, directed=True, indices=source, unweighted=True)
    out = np.full(a.shape[0], -1, dtype=np.int64)
    ok = np.isfinite(d)
    out[ok] = d[ok].astype(np.int64)
    return out


def sssp(a: sp.csr_matrix, source: int) -> np.ndarray:
    """Weighted distance from *source*, inf where unreachable."""
    return csgraph.dijkstra(a, directed=True, indices=source)


def pagerank(a: sp.csr_matrix, damping: float = 0.85) -> np.ndarray:
    """Power iteration on the pattern to 1e-13, sinks spread uniformly."""
    n = a.shape[0]
    p = pattern(a)
    deg = np.asarray(p.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    pt = p.T.tocsr()
    r = np.full(n, 1.0 / n)
    for _ in range(1000):
        sink = r[deg == 0].sum()
        new = (1.0 - damping) / n + damping * (pt @ (r * inv) + sink / n)
        done = np.abs(new - r).sum() < 1e-13
        r = new
        if done:
            break
    return r


def triangles(a: sp.csr_matrix) -> int:
    low = sp.tril(pattern(a), k=-1, format="csr")
    return int((low @ low).multiply(low).sum())


def component_labels(a: sp.csr_matrix) -> np.ndarray:
    return csgraph.connected_components(a, directed=False)[1]


def core_numbers(a: sp.csr_matrix) -> np.ndarray:
    import networkx as nx

    g = nx.from_scipy_sparse_array(pattern(a))
    core = nx.core_number(g)
    return np.array([core[i] for i in range(a.shape[0])], dtype=np.int64)


# -- checks -------------------------------------------------------------------

def dense(n: int, idx, vals, fill, dtype) -> np.ndarray:
    out = np.full(n, fill, dtype=dtype)
    out[np.asarray(idx, dtype=np.int64)] = vals
    return out


def same_levels(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.array_equal(got, want))


def close(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """Elementwise within *tol*, with infinities in the same places."""
    fin = np.isfinite(want)
    if not np.array_equal(fin, np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got[fin] - want[fin])
                       <= tol * np.maximum(1.0, np.abs(want[fin]))))


def ranks_close(got: np.ndarray, want: np.ndarray, tol: float,
                damping: float = 0.85) -> bool:
    """Within what the stopping rule guarantees: an iteration stopped
    when its L1 step fell under *tol* is at most ``tol / (1 - damping)``
    (L1) from the fixpoint.  A neighbouring graph generation is four
    orders of magnitude further away."""
    return bool(np.abs(got - want).sum() <= tol / (1.0 - damping))


def same_partition(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal up to relabelling: the label pairs form a bijection."""
    pairs = np.unique(np.stack([got, want]), axis=1)
    return (len(np.unique(pairs[0])) == pairs.shape[1]
            and len(np.unique(pairs[1])) == pairs.shape[1])


def valid_parents(a: sp.csr_matrix, source: int, parents: np.ndarray,
                  levels: np.ndarray) -> bool:
    """*parents* (-1 = unreached) is a BFS tree of *a* from *source*:
    it reaches exactly the reachable set and every parent is an
    in-neighbour one level up (any tie-break is a correct answer)."""
    reached = parents >= 0
    if not np.array_equal(reached, levels >= 0) or parents[source] != source:
        return False
    child = np.flatnonzero(reached)
    child = child[child != source]
    par = parents[child]
    if not np.all(levels[par] == levels[child] - 1):
        return False
    return bool(np.all(np.asarray(a[par, child]).ravel() != 0))


def maximal_independent(a: sp.csr_matrix, member: np.ndarray) -> bool:
    """No two members adjacent; every non-member has a member neighbour."""
    p = pattern(a)
    nbr_members = p @ member.astype(np.float64)
    return bool(np.all(nbr_members[member] == 0)
                and np.all(nbr_members[~member] > 0))
