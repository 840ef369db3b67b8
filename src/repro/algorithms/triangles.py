"""Triangle counting — the flagship use of the new ``select`` (§VIII, Fig. 3).

The masked-product formulation: orient every undirected edge once,
giving a strictly "lower" matrix D, and the triangle count is
``sum(D .* (D @ Dᵀ))`` — one masked mxm whose structural mask D prunes
the product to the wedges that close.  Any strict total order on the
vertices gives the right count; what the order changes is the work.
``(D·Dᵀ)`` expands ``Σₖ c(k)²`` products, c(k) being the entries of
column k of D, so :func:`triangle_count` orders vertices by
``(degree, id)`` and keeps A(i,j) iff ``(deg j, j) < (deg i, i)``: every
vertex then keeps only its edges toward lower-degree vertices and no
column of D is long.  On a scale-13 RMAT graph that is 4× fewer
products than the strict lower triangle in the given vertex order.

Building D is one ``select`` with an index-unary operator — §VIII's
functional input mask.  The operator here reads a degree array beside
the indices; when every degree ties it is exactly the Fig. 3
``select(TRIL, -1)`` the Sandia algorithm starts from.  Under 1.X the
same filter needed the extract/filter/build round-trip
(:func:`repro.compat.onex.extract_filter_build_select`).

:func:`triangle_count_burkhardt` gives the simpler (more expensive)
``sum(A² .* A) / 6`` formulation as a cross-check and as the baseline
the masked variant is benchmarked against.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import types as _t
from ..core.descriptor import DESC_S
from ..core.indexunaryop import OFFDIAG, IndexUnaryOp
from ..core.matrix import Matrix
from ..core.monoid import PLUS_MONOID
from ..core.semiring import PLUS_TIMES_SEMIRING
from ..ops.mxm import mxm
from ..ops.reduce import reduce_scalar
from ..ops.select import select

__all__ = ["triangle_count", "triangle_count_burkhardt"]


def _pattern(a: Matrix) -> Matrix:
    """INT64 pattern copy of a (memoized across calls on unchanged a)."""
    from ._blocks import pattern_matrix

    return pattern_matrix(a, _t.INT64)


def _degree_order(deg) -> IndexUnaryOp:
    """The index-unary operator keeping A(i,j) iff ``(deg j, j) <
    (deg i, i)``, over the degree carrier *deg* (a vertex with no entry
    has degree 0).  Vectorised: one gather of both endpoints' degrees.
    The degree array is dense unless the vector is hypersparse, where
    it is looked up by binary search instead."""
    if deg.nvals * 8 >= deg.size:
        dense = deg.to_dense(0)

        def at(idx):
            return dense[idx]
    else:
        def at(idx):
            pos = np.minimum(np.searchsorted(deg.indices, idx), deg.nvals - 1)
            return np.where(deg.indices[pos] == idx, deg.values[pos], 0)

    def keep(values, rows, cols, s):
        di, dj = at(rows), at(cols)
        return (dj < di) | ((dj == di) & (cols < rows))

    return IndexUnaryOp("degree_order", None, _t.BOOL, _t.INT64,
                        lambda v, i, j, s: bool(keep(v, i, j, s)), keep,
                        uses_value=False)


def _oriented(a: Matrix) -> Matrix:
    """D = select(A's pattern, (deg j, j) < (deg i, i)): each undirected
    edge once, stored in the row of its higher-ordered endpoint."""
    from ._blocks import degree_vector

    pat = _pattern(a)
    deg = degree_vector(a, _t.INT64)._capture()
    d = Matrix.new(_t.INT64, a.nrows, a.ncols, a.context)
    select(d, None, None, _degree_order(deg), pat, 0)
    return d


def triangle_count(a: Matrix) -> int:
    """Triangles in the undirected graph with symmetric pattern ``a``.

    D = the degree-oriented pattern (:func:`_oriented`); count =
    sum(D .* (D Dᵀ)).

    Incremental (``ENGINE_DELTA``): the count is stored as a warm block
    when the pattern is symmetric; a batched delta write updates it
    exactly (wedge closures on the delta) so the next call returns
    without running the masked mxm at all.
    """
    from . import _blocks, delta as _delta

    warm = _blocks.load_warm(a, "triangles", ())
    if warm is not None:
        return int(warm[0])
    t0 = time.perf_counter()

    def build_wedges():
        d = _oriented(a)
        c = Matrix.new(_t.INT64, a.nrows, a.ncols, a.context)
        # C⟨D,structure⟩ = D ⊕.⊗ Dᵀ — mask prunes the product to wedges
        # that close a triangle.
        mxm(c, d, None, PLUS_TIMES_SEMIRING[_t.INT64], d, d, desc=_DESC_ST1)
        return c

    # The wedge matrix is by far the most expensive pure derivative of
    # ``a`` in the whole algorithm suite — exactly what the block memo
    # (and, through it, the persistent warm-start store) is for.  The
    # kind names the orientation: a block built over another one holds
    # other wedges.
    c = _blocks.memoized_matrix(a, "wedges:deg", build_wedges)
    total = int(reduce_scalar(PLUS_MONOID[_t.INT64], c))
    try:
        if _delta.pattern_symmetric(a._capture()):
            _blocks.store_warm(
                a, "triangles", total,
                meta={"base_nnz": a.nvals()},
                cost_ms=(time.perf_counter() - t0) * 1e3,
            )
    except Exception:
        pass  # best-effort: warmth must never fail the algorithm
    return total


def triangle_count_burkhardt(a: Matrix) -> int:
    """Burkhardt variant: sum(A² .* A) / 6 over the loop-free pattern —
    unmasked baseline.  Self loops are dropped first, as the degree
    order drops them in :func:`triangle_count`."""
    pat = Matrix.new(_t.INT64, a.nrows, a.ncols, a.context)
    select(pat, None, None, OFFDIAG, _pattern(a), 0)
    sq = Matrix.new(_t.INT64, a.nrows, a.ncols, a.context)
    mxm(sq, pat, None, PLUS_TIMES_SEMIRING[_t.INT64], pat, pat, desc=DESC_S)
    total = reduce_scalar(PLUS_MONOID[_t.INT64], sq)
    return int(total) // 6


# structural mask + transposed second input
from ..core.descriptor import Descriptor as _Descriptor  # noqa: E402

_DESC_ST1 = _Descriptor(structure=True, tran1=True)._freeze()
