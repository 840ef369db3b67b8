"""Matrix multiply operations: ``mxm``, ``mxv``, ``vxm``.

C-style argument order matches the specification:

    ``mxm(C, Mask, accum, semiring, A, B, desc)``

Descriptor ``INP0``/``INP1`` transpose the matrix inputs; the mask and
accumulator follow the standard write-back.  When the shared context
resolves ``nthreads > 1``, ``mxm`` hands it to the kernel, whose row
blocks then run on the context's worker pool (§IV resource scoping).
"""

from __future__ import annotations

from ..core.descriptor import Descriptor
from ..core.errors import DimensionMismatchError, DomainMismatchError
from ..core.matrix import Matrix
from ..core.semiring import Semiring
from ..core.vector import Vector
from ..internals import config
from ..internals import mxm as _k
from ..internals.maskaccum import mat_mask_keys, vec_mask_keys
from .common import (
    capture_source,
    check_accum,
    check_context,
    check_output_cast,
    mask_metadata,
    require,
    resolve_desc,
    writeback_closure,
)

__all__ = ["mxm", "mxv", "vxm"]


def _check_semiring(semiring: Semiring) -> None:
    if not isinstance(semiring, Semiring):
        raise DomainMismatchError(f"expected a Semiring, got {semiring!r}")


def mxm(
    C: Matrix,
    Mask: Matrix | None,
    accum,
    semiring: Semiring,
    A: Matrix,
    B: Matrix,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_mxm``: C⟨Mask⟩ = accum(C, A ⊕.⊗ B)."""
    d = resolve_desc(desc)
    _check_semiring(semiring)
    accum = check_accum(accum)
    check_output_cast(semiring.out_type, C.type)
    ctx = check_context(C, Mask, A, B)

    a_shape = (A.ncols, A.nrows) if d.transpose0 else (A.nrows, A.ncols)
    b_shape = (B.ncols, B.nrows) if d.transpose1 else (B.nrows, B.ncols)
    require(
        a_shape[1] == b_shape[0], DimensionMismatchError,
        f"mxm inner dimensions: {a_shape} x {b_shape}",
    )
    require(
        (C.nrows, C.ncols) == (a_shape[0], b_shape[1]), DimensionMismatchError,
        f"mxm output shape {(C.nrows, C.ncols)} != {(a_shape[0], b_shape[1])}",
    )
    if Mask is not None:
        require(
            (Mask.nrows, Mask.ncols) == (C.nrows, C.ncols),
            DimensionMismatchError, "mask shape must match output",
        )

    a_src = capture_source(A)
    b_src = capture_source(B) if B is not A else a_src
    mask_src = capture_source(Mask)
    tran0, tran1 = d.transpose0, d.transpose1
    comp, struct = d.mask_complement, d.mask_structure

    def compute(datas):
        a = datas[0].transpose() if tran0 else datas[0]
        b = datas[1].transpose() if tran1 else datas[1]
        # Masked-SpGEMM push-down: no product this op's mask excludes
        # can reach the output, so the kernel skips it (complemented
        # masks filter inverted — the visited-set pattern of BFS).
        mask_keys = None
        if mask_src is not None and config.MASK_PUSHDOWN:
            mask_keys = mat_mask_keys(mask_src.resolve(), struct)
        # Resolved at execution time (not submit time): a context that
        # degraded to serial while this node was deferred must not
        # re-enter its worker pool.
        threaded = ctx.nthreads > 1 and not ctx.is_degraded
        return _k.mxm(a, b, semiring, mask_keys, comp,
                      ctx if threaded else None)

    writeback, pure = writeback_closure(
        False, C.type, mask_src, accum,
        complement=comp, structure=struct, replace=d.replace,
    )
    inputs = [a_src, b_src] if mask_src is None else [a_src, b_src, mask_src]
    C._submit_op(
        kind="mxm", label="mxm", inputs=inputs,
        compute=compute, writeback=writeback,
        out_type=C.type, pure=pure,
        mask_info=mask_metadata(
            mask_src, accum, complement=comp, replace=d.replace,
        ),
    )
    return C


def mxv(
    w: Vector,
    mask: Vector | None,
    accum,
    semiring: Semiring,
    A: Matrix,
    u: Vector,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_mxv``: w⟨mask⟩ = accum(w, A ⊕.⊗ u)."""
    d = resolve_desc(desc)
    _check_semiring(semiring)
    accum = check_accum(accum)
    check_output_cast(semiring.out_type, w.type)
    check_context(w, mask, A, u)

    a_shape = (A.ncols, A.nrows) if d.transpose0 else (A.nrows, A.ncols)
    require(a_shape[1] == u.size, DimensionMismatchError,
            f"mxv inner dimension: {a_shape} x {u.size}")
    require(w.size == a_shape[0], DimensionMismatchError,
            f"mxv output size {w.size} != {a_shape[0]}")
    if mask is not None:
        require(mask.size == w.size, DimensionMismatchError,
                "mask size must match output")

    a_src = capture_source(A)
    u_src = capture_source(u)
    mask_src = capture_source(mask)
    tran0 = d.transpose0
    comp, struct = d.mask_complement, d.mask_structure

    def compute(datas):
        a = datas[0].transpose() if tran0 else datas[0]
        mask_keys = None
        if mask_src is not None and config.MASK_PUSHDOWN:
            mask_keys = vec_mask_keys(mask_src.resolve(), struct)
        return _k.mxv(a, datas[1], semiring, mask_keys, comp)

    writeback, pure = writeback_closure(
        True, w.type, mask_src, accum,
        complement=comp, structure=struct, replace=d.replace,
    )

    inputs = [a_src, u_src] if mask_src is None else [a_src, u_src, mask_src]
    w._submit_op(
        kind="mxv", label="mxv", inputs=inputs,
        compute=compute, writeback=writeback,
        out_type=w.type, pure=pure,
        mask_info=mask_metadata(
            mask_src, accum, complement=comp, replace=d.replace,
        ),
    )
    return w


def vxm(
    w: Vector,
    mask: Vector | None,
    accum,
    semiring: Semiring,
    u: Vector,
    A: Matrix,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_vxm``: w'⟨mask'⟩ = accum(w', u' ⊕.⊗ A).

    The descriptor's INP1 transposes A (the second input).
    """
    d = resolve_desc(desc)
    _check_semiring(semiring)
    accum = check_accum(accum)
    check_output_cast(semiring.out_type, w.type)
    check_context(w, mask, u, A)

    a_shape = (A.ncols, A.nrows) if d.transpose1 else (A.nrows, A.ncols)
    require(u.size == a_shape[0], DimensionMismatchError,
            f"vxm inner dimension: {u.size} x {a_shape}")
    require(w.size == a_shape[1], DimensionMismatchError,
            f"vxm output size {w.size} != {a_shape[1]}")
    if mask is not None:
        require(mask.size == w.size, DimensionMismatchError,
                "mask size must match output")

    a_src = capture_source(A)
    u_src = capture_source(u)
    mask_src = capture_source(mask)
    tran1 = d.transpose1
    comp, struct = d.mask_complement, d.mask_structure

    def compute(datas):
        a = datas[0].transpose() if tran1 else datas[0]
        mask_keys = None
        if mask_src is not None and config.MASK_PUSHDOWN:
            mask_keys = vec_mask_keys(mask_src.resolve(), struct)
        return _k.vxm(datas[1], a, semiring, mask_keys, comp)

    writeback, pure = writeback_closure(
        True, w.type, mask_src, accum,
        complement=comp, structure=struct, replace=d.replace,
    )
    inputs = [a_src, u_src] if mask_src is None else [a_src, u_src, mask_src]
    w._submit_op(
        kind="vxm", label="vxm", inputs=inputs,
        compute=compute, writeback=writeback,
        out_type=w.type, pure=pure,
        mask_info=mask_metadata(
            mask_src, accum, complement=comp, replace=d.replace,
        ),
    )
    return w
