"""Seeded inputs.  ``--seed`` drives every generator here — graphs,
sources, arrival times, query mix, edge batches — and the program under
test only ever sees what these functions return.  The serving child and
the verifying parent call the same functions with the same seed, so the
parent knows exactly what was sent without asking the child.
"""

from __future__ import annotations

import numpy as np

#: Query mix of both serving workloads (share of bfs, pagerank; the
#: rest is triangles).
MIX = (0.75, 0.20)
PAGERANK_TOL = 1e-6
#: Directed entries per ingest call (64 undirected pairs, both ways):
#: an eighth of the default INGEST_BATCH, so one call in eight flushes.
BATCH_EDGES = 128


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per purpose, all derived from ``--seed``."""
    return np.random.default_rng([int(seed), int(stream)])


#: Generator seed of the RMAT skeletons (the repo's other benches use
#: the same default).
SKELETON_SEED = 42


def rmat_triples(scale: int, seed: int, stream: int):
    """``(n, rows, cols, vals)`` of an RMAT graph for this ``--seed``.

    The pattern is one fixed RMAT draw per scale and stream; the seed
    draws the weights (and, elsewhere, sources, arrivals, query order
    and edge batches).  Triangle work differs by a quarter between two
    RMAT draws of one scale — and as much between two *labellings* of
    one draw, since ``tril`` depends on vertex order — so a seeded
    pattern would make seed-to-seed spread measure a lottery over
    graphs, not the machine and the program."""
    from repro.generators import rmat

    n, rows, cols, _ = rmat(scale, 8, seed=SKELETON_SEED + stream)
    weights = rng_for(seed, 100 + stream).uniform(0.05, 1.0, len(rows))
    return n, rows, cols, weights


def grid_triples(side: int, seed: int):
    from repro.generators import grid_2d

    return grid_2d(side, seed=int(seed))


def hub(n: int, rows, cols) -> int:
    """Highest-degree vertex: a source that is never isolated, so every
    seed traverses the giant component."""
    keep = rows != cols
    deg = (np.bincount(rows[keep], minlength=n)
           + np.bincount(cols[keep], minlength=n))
    return int(np.argmax(deg))


def poisson_times(rng: np.random.Generator, rate: float, duration: float):
    """Arrival times of a Poisson process of *rate* over *duration* s."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    due = np.cumsum(gaps)
    return due[due < duration]


def even_times(rng: np.random.Generator, rate: float, duration: float):
    """Evenly spaced arrival times at *rate*, with a seeded phase."""
    return (np.arange(int(rate * duration)) + rng.random()) / rate


def swept_times(rng: np.random.Generator, rate: float, duration: float):
    """One arrival in every ``1/rate`` slot, placed in its slot by the
    golden-ratio sequence from a seeded start.  Against another evenly
    spaced stream ``even_times`` keeps one relative phase for the whole
    run — the seed then decides whether every write lands on a running
    read or none does (``ingest_ack_p95_ms`` read 3.4 or 6.7 ms by seed
    alone).  This sweeps every relative phase within each run, whatever
    the seed; consecutive arrivals stay 0.62 or 1.62 slots apart."""
    i = np.arange(int(rate * duration))
    return (i + (rng.random() + i * 0.6180339887498949) % 1.0) / rate


def query_plan(rng: np.random.Generator, count: int, graphs: dict[str, int],
               shuffle: bool = True):
    """*count* queries as ``(kind, graph, source)``.  The mix is exact
    in every block of 20 (15 bfs, 4 pagerank, 1 triangles) and each
    kind takes the graphs in turn, so two seeds offer the same load and
    not a binomial draw of it.  The seed draws the BFS sources (uniform
    over the graph's vertices) and the order within a block — or, with
    ``shuffle=False`` (open-loop phases), only where the fixed order
    starts: the heavy kinds then arrive evenly spaced, never bunched."""
    names = sorted(graphs)
    n_bfs = round(MIX[0] * 20)
    n_pr = round(MIX[1] * 20)
    kinds = ["bfs"] * 20
    for i in range(n_pr):
        kinds[(2 + i * 20 // n_pr) % 20] = "pagerank"
    free = [i for i, k in enumerate(kinds) if k == "bfs"]
    for i in range(20 - n_bfs - n_pr):
        kinds[free[len(free) // 2 + i]] = "triangles"
    turn = {"bfs": 0, "pagerank": 0, "triangles": 0}
    plan = []
    offset = int(rng.integers(20))
    while len(plan) < count + 20:
        block = []
        for kind in kinds:
            g = names[turn[kind] % len(names)]
            turn[kind] += 1
            source = int(rng.integers(graphs[g])) if kind == "bfs" else None
            block.append((kind, g, source))
        order = rng.permutation(20) if shuffle else range(20)
        plan.extend(block[i] for i in order)
    start = 0 if shuffle else offset
    return plan[start:start + count]


def edge_pool(n: int, rows, cols):
    """Undirected pairs the stream writes to: every pair of the base
    graph plus as many fresh ones (a fixed draw, like the pattern).
    Bounding the key space bounds the graph — at most twice its edges
    however long the closed-loop phase runs — and once every pair has
    been written the graph's shape no longer depends on the seed, so
    what restore loads is the same work for every seed."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    keep = lo != hi
    base = np.unique(lo[keep] * n + hi[keep])
    rng = np.random.default_rng(SKELETON_SEED)
    fresh_lo = rng.integers(0, n - 1, size=len(base))
    fresh_hi = rng.integers(fresh_lo + 1, n)
    keys = np.unique(np.concatenate([base, fresh_lo * n + fresh_hi]))
    return keys // n, keys % n


def edge_batches(rng: np.random.Generator, pool, count: int):
    """*count* ingest calls: ``(rows, cols, vals)`` of BATCH_EDGES
    directed entries — each drawn pair written both ways with one
    weight, so the graph stays symmetric."""
    lo, hi = pool
    half = BATCH_EDGES // 2
    pick = rng.integers(len(lo), size=(count, half))
    w = rng.uniform(0.05, 1.0, size=(count, half))
    out = []
    for i in range(count):
        a, b = lo[pick[i]], hi[pick[i]]
        out.append((np.concatenate([a, b]), np.concatenate([b, a]),
                    np.concatenate([w[i], w[i]])))
    return out
