"""Elementwise operations: ``eWiseAdd`` (union) and ``eWiseMult``
(intersection), vector and matrix variants.

Per the specification the operator argument may be a ``BinaryOp``, a
``Monoid`` (its operator is used), or a ``Semiring`` (its additive
monoid's operator for eWiseAdd, its multiply operator for eWiseMult).
"""

from __future__ import annotations

from typing import Union

from ..core.binaryop import BinaryOp
from ..core.descriptor import Descriptor
from ..core.errors import DimensionMismatchError, DomainMismatchError
from ..core.matrix import Matrix
from ..core.monoid import Monoid
from ..core.semiring import Semiring
from ..core.vector import Vector
from ..internals import ewise as _k
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

__all__ = ["ewise_add", "ewise_mult"]

OpLike = Union[BinaryOp, Monoid, Semiring]


def _resolve_op(op: OpLike, *, add: bool) -> BinaryOp:
    if isinstance(op, BinaryOp):
        return op
    if isinstance(op, Monoid):
        return op.op
    if isinstance(op, Semiring):
        return op.add.op if add else op.mult
    raise DomainMismatchError(
        f"eWise operator must be BinaryOp/Monoid/Semiring, got {op!r}"
    )


def _ewise_mat(
    C: Matrix, Mask, accum, op: OpLike, A: Matrix, B: Matrix, desc, *, union: bool
) -> Matrix:
    d = resolve_desc(desc)
    binop = _resolve_op(op, add=union)
    accum = check_accum(accum)
    check_output_cast(binop.out_type, C.type)
    check_context(C, Mask, A, B)

    a_shape = (A.ncols, A.nrows) if d.transpose0 else (A.nrows, A.ncols)
    b_shape = (B.ncols, B.nrows) if d.transpose1 else (B.nrows, B.ncols)
    require(a_shape == b_shape, DimensionMismatchError,
            f"eWise inputs: {a_shape} vs {b_shape}")
    require((C.nrows, C.ncols) == a_shape, DimensionMismatchError,
            f"eWise output shape {(C.nrows, C.ncols)} != {a_shape}")
    if Mask is not None:
        require((Mask.nrows, Mask.ncols) == (C.nrows, C.ncols),
                DimensionMismatchError, "mask shape must match output")

    a_src = capture_source(A)
    b_src = capture_source(B) if B is not A else a_src
    mask_src = capture_source(Mask)
    tran0, tran1 = d.transpose0, d.transpose1

    if union:
        def compute(datas):
            a = datas[0].transpose() if tran0 else datas[0]
            b = datas[1].transpose() if tran1 else datas[1]
            return _k.mat_union(a, b, binop, binop.out_type)
    else:
        def compute(datas):
            a = datas[0].transpose() if tran0 else datas[0]
            b = datas[1].transpose() if tran1 else datas[1]
            return _k.mat_intersect(a, b, binop, binop.out_type)

    writeback, pure = writeback_closure(
        False, C.type, mask_src, accum,
        complement=d.mask_complement,
        structure=d.mask_structure,
        replace=d.replace,
    )
    inputs = [a_src, b_src] if mask_src is None else [a_src, b_src, mask_src]
    C._submit_op(
        kind="eWiseAdd" if union else "eWiseMult",
        label="eWiseAdd" if union else "eWiseMult",
        inputs=inputs, compute=compute, writeback=writeback,
        out_type=C.type, pure=pure,
        complete_safe=pure and binop.is_builtin,
        mask_info=mask_metadata(
            mask_src, accum,
            complement=d.mask_complement, replace=d.replace,
        ),
    )
    return C


def _ewise_vec(
    w: Vector, mask, accum, op: OpLike, u: Vector, v: Vector, desc, *, union: bool
) -> Vector:
    d = resolve_desc(desc)
    binop = _resolve_op(op, add=union)
    accum = check_accum(accum)
    check_output_cast(binop.out_type, w.type)
    check_context(w, mask, u, v)
    require(u.size == v.size, DimensionMismatchError,
            f"eWise inputs: {u.size} vs {v.size}")
    require(w.size == u.size, DimensionMismatchError,
            f"eWise output size {w.size} != {u.size}")
    if mask is not None:
        require(mask.size == w.size, DimensionMismatchError,
                "mask size must match output")

    u_src = capture_source(u)
    v_src = capture_source(v) if v is not u else u_src
    mask_src = capture_source(mask)

    if union:
        def compute(datas):
            return _k.vec_union(datas[0], datas[1], binop, binop.out_type)
    else:
        def compute(datas):
            return _k.vec_intersect(datas[0], datas[1], binop, binop.out_type)

    writeback, pure = writeback_closure(
        True, w.type, mask_src, accum,
        complement=d.mask_complement,
        structure=d.mask_structure,
        replace=d.replace,
    )
    inputs = [u_src, v_src] if mask_src is None else [u_src, v_src, mask_src]
    w._submit_op(
        kind="eWiseAdd" if union else "eWiseMult",
        label="eWiseAdd" if union else "eWiseMult",
        inputs=inputs, compute=compute, writeback=writeback,
        out_type=w.type, pure=pure,
        complete_safe=pure and binop.is_builtin,
        mask_info=mask_metadata(
            mask_src, accum,
            complement=d.mask_complement, replace=d.replace,
        ),
    )
    return w


def ewise_add(out, mask, accum, op: OpLike, a, b, desc: Descriptor | None = None):
    """``GrB_eWiseAdd``: result over the structural *union*.

    Dispatches on output type: Vector or Matrix variants.
    """
    if isinstance(out, Matrix):
        return _ewise_mat(out, mask, accum, op, a, b, desc, union=True)
    if isinstance(out, Vector):
        return _ewise_vec(out, mask, accum, op, a, b, desc, union=True)
    raise DomainMismatchError(f"eWiseAdd output must be Vector/Matrix, got {out!r}")


def ewise_mult(out, mask, accum, op: OpLike, a, b, desc: Descriptor | None = None):
    """``GrB_eWiseMult``: result over the structural *intersection*."""
    if isinstance(out, Matrix):
        return _ewise_mat(out, mask, accum, op, a, b, desc, union=False)
    if isinstance(out, Vector):
        return _ewise_vec(out, mask, accum, op, a, b, desc, union=False)
    raise DomainMismatchError(f"eWiseMult output must be Vector/Matrix, got {out!r}")
