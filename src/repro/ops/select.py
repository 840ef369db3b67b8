"""``GrB_select`` — the new functional-input-mask operation (§VIII-C).

    select(C, Mask, accum, f, A, s, desc)

``f`` is a boolean-returning index-unary operator; stored elements where
``f(a_ij, i, j, s)`` is true are kept (unchanged), others are
annihilated.  In the paper's notation:

    C⟨M, r⟩ = C ⊙ A[T]⟨f(A[T], ind(A[T]), 2, s)⟩
"""

from __future__ import annotations

from ..core.descriptor import Descriptor
from ..core.errors import DimensionMismatchError, DomainMismatchError
from ..core.indexunaryop import IndexUnaryOp
from ..core.matrix import Matrix
from ..core.types import BOOL
from ..core.vector import Vector
from .apply import _submit_stages
from .common import (
    check_accum,
    check_context,
    check_output_cast,
    require,
    resolve_desc,
    scalar_value,
)

__all__ = ["select"]


def select(
    out,
    mask,
    accum,
    op: IndexUnaryOp,
    a,
    s,
    desc: Descriptor | None = None,
):
    """Polymorphic ``GrB_select`` (vector and matrix variants)."""
    d = resolve_desc(desc)
    accum = check_accum(accum)
    require(isinstance(op, IndexUnaryOp), DomainMismatchError,
            f"select requires an IndexUnaryOp, got {op!r}")
    require(op.out_type == BOOL or not op.is_builtin, DomainMismatchError,
            f"select operator must return BOOL, got {op.out_type.name}")
    check_output_cast(a.type, out.type)
    check_context(out, mask, a)

    if isinstance(out, Vector):
        require(isinstance(a, Vector), DomainMismatchError,
                "vector select requires a vector input")
        if op.uses_column and op.is_builtin:
            raise DomainMismatchError(
                f"{op.name} accesses the column index and is only defined "
                "for matrices (Table IV)"
            )
        require(out.size == a.size, DimensionMismatchError,
                f"select output size {out.size} != input {a.size}")
        if mask is not None:
            require(mask.size == out.size, DimensionMismatchError,
                    "mask size must match output")
    elif isinstance(out, Matrix):
        require(isinstance(a, Matrix), DomainMismatchError,
                "matrix select requires a matrix input")
        in_shape = (a.ncols, a.nrows) if d.transpose0 else (a.nrows, a.ncols)
        require((out.nrows, out.ncols) == in_shape, DimensionMismatchError,
                f"select output shape {(out.nrows, out.ncols)} != input {in_shape}")
        if mask is not None:
            require((mask.nrows, mask.ncols) == (out.nrows, out.ncols),
                    DimensionMismatchError, "mask shape must match output")
    else:
        raise DomainMismatchError(f"select output must be Vector/Matrix, got {out!r}")

    sval = scalar_value(s, what="select scalar")
    # _submit_stages attaches the planner metadata (mask/accum shape)
    # the fuse pass reads before absorbing an in-place producer.
    return _submit_stages(
        out, mask, accum, a, d,
        [("select", op, sval)], "select", op=op, kind="select",
    )
