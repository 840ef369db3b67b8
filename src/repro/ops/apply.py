"""``GrB_apply`` — elementwise map over stored values, four flavours:

* **unary**: ``apply(w, mask, accum, unop, u, desc)``
* **bind-first** (Table II scalar variant):
  ``apply(w, mask, accum, binop, s, u, desc)`` computes ``binop(s, u_i)``
* **bind-second**: ``apply(w, mask, accum, binop, u, s, desc)``
* **index-unary** (§VIII-B): ``apply(w, mask, accum, iuop, u, s, desc)``
  computes ``f(u_i, i, 0, s)`` / ``f(a_ij, i, j, s)``.

Dispatch is positional, mirroring the C polymorphic interface; the
scalar ``s`` may be a plain value or a ``GrB_Scalar`` (Table II).
When the input matrix is transposed via the descriptor, index-unary
operators see post-transpose coordinates (§VIII-B).
"""

from __future__ import annotations

from typing import Any

from ..core.binaryop import BinaryOp
from ..core.descriptor import Descriptor
from ..core.errors import DimensionMismatchError, DomainMismatchError
from ..core.indexunaryop import IndexUnaryOp
from ..core.matrix import Matrix
from ..core.unaryop import UnaryOp
from ..core.vector import Vector
from .common import (
    capture_source,
    check_accum,
    check_context,
    check_output_cast,
    mask_metadata,
    require,
    resolve_desc,
    scalar_value,
    writeback_closure,
)

__all__ = ["apply"]


def _check_output(out, mask, inp, d) -> None:
    check_context(out, mask, inp)
    if isinstance(out, Vector):
        require(isinstance(inp, Vector), DomainMismatchError,
                "vector apply requires a vector input")
        require(out.size == inp.size, DimensionMismatchError,
                f"apply output size {out.size} != input {inp.size}")
        if mask is not None:
            require(mask.size == out.size, DimensionMismatchError,
                    "mask size must match output")
    else:
        require(isinstance(inp, Matrix), DomainMismatchError,
                "matrix apply requires a matrix input")
        in_shape = (inp.ncols, inp.nrows) if d.transpose0 else (inp.nrows, inp.ncols)
        require((out.nrows, out.ncols) == in_shape, DimensionMismatchError,
                f"apply output shape {(out.nrows, out.ncols)} != input {in_shape}")
        if mask is not None:
            require((mask.nrows, mask.ncols) == (out.nrows, out.ncols),
                    DimensionMismatchError, "mask shape must match output")


def _submit_stages(out, mask, accum, u, d, stages, label, *, op, kind="apply"):
    """Submit an apply/select-style node: a fusable stage pipeline over
    the input, then the standard write-back."""
    u_src = capture_source(u)
    mask_src = capture_source(mask)
    is_vec = isinstance(out, Vector)
    if not is_vec and d.transpose0:
        stages = [("transpose",)] + stages
    writeback, pure = writeback_closure(
        is_vec, out.type, mask_src, accum,
        complement=d.mask_complement,
        structure=d.mask_structure,
        replace=d.replace,
    )
    inputs = [u_src] if mask_src is None else [u_src, mask_src]
    out._submit_op(
        kind=kind,
        label=label,
        inputs=inputs,
        writeback=writeback,
        stages=stages,
        pipe_input=0,
        out_type=out.type,
        pure=pure,
        # Built-in operators are numpy ufuncs over already-validated
        # carriers: they cannot raise an execution error, so a COMPLETE
        # wait may leave the node deferred.
        complete_safe=pure and op.is_builtin,
        # Planner metadata: the write-back shape tells the fuse pass
        # whether this node may absorb its in-place producer.
        mask_info=mask_metadata(
            mask_src, accum,
            complement=d.mask_complement, replace=d.replace,
        ),
    )
    return out


def apply(
    out,
    mask,
    accum,
    op,
    arg1,
    arg2: Any = None,
    desc: Descriptor | None = None,
):
    """Polymorphic ``GrB_apply`` (see module docstring for flavours)."""
    # Allow the C calling style where desc is the last positional arg of
    # the unary variant: apply(w, mask, accum, unop, u, desc).
    if isinstance(arg2, Descriptor) and desc is None:
        desc, arg2 = arg2, None
    d = resolve_desc(desc)
    accum = check_accum(accum)

    if isinstance(op, UnaryOp):
        require(arg2 is None, DomainMismatchError,
                "unary apply takes exactly one input container")
        return _apply_unary(out, mask, accum, op, arg1, d)
    if isinstance(op, IndexUnaryOp):
        return _apply_index(out, mask, accum, op, arg1, arg2, d)
    if isinstance(op, BinaryOp):
        first_is_container = isinstance(arg1, (Vector, Matrix))
        second_is_container = isinstance(arg2, (Vector, Matrix))
        require(first_is_container != second_is_container, DomainMismatchError,
                "binary apply binds a scalar to exactly one operand side")
        if first_is_container:
            return _apply_bind2nd(out, mask, accum, op, arg1, arg2, d)
        return _apply_bind1st(out, mask, accum, op, arg1, arg2, d)
    raise DomainMismatchError(f"apply operator of unsupported kind: {op!r}")


def _apply_unary(out, mask, accum, op: UnaryOp, u, d):
    _check_output(out, mask, u, d)
    check_output_cast(op.out_type, out.type)
    return _submit_stages(
        out, mask, accum, u, d,
        [("unary", op, op.out_type)], "apply(unary)", op=op,
    )


def _apply_bind1st(out, mask, accum, op: BinaryOp, s, u, d):
    _check_output(out, mask, u, d)
    check_output_cast(op.out_type, out.type)
    sval = scalar_value(s, what="bind-first scalar")
    return _submit_stages(
        out, mask, accum, u, d,
        [("bind1st", op, sval, op.out_type)], "apply(bind1st)", op=op,
    )


def _apply_bind2nd(out, mask, accum, op: BinaryOp, u, s, d):
    _check_output(out, mask, u, d)
    check_output_cast(op.out_type, out.type)
    sval = scalar_value(s, what="bind-second scalar")
    return _submit_stages(
        out, mask, accum, u, d,
        [("bind2nd", op, sval, op.out_type)], "apply(bind2nd)", op=op,
    )


def _apply_index(out, mask, accum, op: IndexUnaryOp, u, s, d):
    """§VIII-B: w⟨m,r⟩ = w ⊙ f(u, ind(u), 1, s)."""
    _check_output(out, mask, u, d)
    check_output_cast(op.out_type, out.type)
    if isinstance(out, Vector) and op.uses_column and op.is_builtin:
        raise DomainMismatchError(
            f"{op.name} accesses the column index and is only defined for "
            "matrices (Table IV)"
        )
    sval = scalar_value(s, what="index-unary scalar")
    return _submit_stages(
        out, mask, accum, u, d,
        [("index", op, sval, op.out_type)], "apply(index)", op=op,
    )
