"""Shared validation and dispatch helpers for the operations layer.

Every GraphBLAS operation follows the same protocol:

1. **Validate** all arguments (API errors raise here, before anything is
   modified — the §V guarantee).
2. **Capture** the input carriers (forcing their sequences — inputs must
   be definite; output-side work can stay deferred).
3. **Submit** a thunk to the output object's sequence.  The thunk
   receives the output's *current* carrier (so accumulation chains
   deferred in nonblocking mode compose in order), computes the result
   T, and funnels it through the standard mask/accumulator write-back.

Context rule (§IV): all matrices and vectors participating in one
method call must share an execution context.
"""

from __future__ import annotations

from typing import Any

from ..core.binaryop import BinaryOp
from ..core.context import Context
from ..core.descriptor import NULL_DESC, Descriptor
from ..core.errors import (
    DomainMismatchError,
    EmptyObjectError,
    InvalidValueError,
    NullPointerError,
)
from ..core.matrix import Matrix
from ..core.scalar import Scalar
from ..core.vector import Vector

__all__ = [
    "resolve_desc",
    "check_context",
    "check_accum",
    "scalar_value",
    "require",
    "check_output_cast",
    "capture_source",
    "writeback_closure",
    "mask_metadata",
]


def resolve_desc(desc: Descriptor | None) -> Descriptor:
    """``None`` plays the role of ``GrB_NULL``: all defaults."""
    if desc is None:
        return NULL_DESC
    if not isinstance(desc, Descriptor):
        raise InvalidValueError(f"not a descriptor: {desc!r}")
    return desc


def check_context(*objs: Any) -> Context:
    """Enforce the shared-context rule; returns the common context."""
    ctx: Context | None = None
    for obj in objs:
        if obj is None:
            continue
        if isinstance(obj, (Matrix, Vector, Scalar)):
            obj._check_valid()
            c = obj.context
            c.check_valid()
            if ctx is None:
                ctx = c
            elif c is not ctx:
                raise InvalidValueError(
                    "all GraphBLAS objects in a method must share a context "
                    f"(§IV): {ctx!r} vs {c!r}"
                )
    if ctx is None:
        raise NullPointerError("operation requires at least one GraphBLAS object")
    return ctx


def check_accum(accum: BinaryOp | None) -> BinaryOp | None:
    if accum is None:
        return None
    if not isinstance(accum, BinaryOp):
        raise DomainMismatchError(f"accumulator must be a BinaryOp, got {accum!r}")
    return accum


def scalar_value(s: Any, *, what: str = "scalar") -> Any:
    """Resolve a ``<type> s`` argument that may be a ``GrB_Scalar``.

    Table II makes the scalar argument uniformly a ``GrB_Scalar``; the
    typed variants pass plain values.  An *empty* scalar where a value
    is required is the EMPTY_OBJECT execution error (§VI).
    """
    if isinstance(s, Scalar):
        data = s._capture()
        if not data.present:
            raise EmptyObjectError(f"empty GrB_Scalar used as {what}")
        return data.value
    if s is None:
        raise NullPointerError(f"{what} is NULL")
    return s


def require(cond: bool, exc_cls, message: str) -> None:
    if not cond:
        raise exc_cls(message)


def capture_source(obj):
    """Capture an input container as an engine :class:`Source`.

    In nonblocking mode a pending input is captured as a reference to
    its producing DAG node — a snapshot, without forcing its sequence
    (§III: using an object as an input adds a data edge; only
    value-*reads* force).  Materialized inputs capture their immutable
    carrier directly, which is also the blocking-mode path.
    """
    if obj is None:
        return None
    return obj._as_source()


def writeback_closure(
    is_vec: bool,
    out_type,
    mask_src,
    accum: BinaryOp | None,
    *,
    complement: bool = False,
    structure: bool = False,
    replace: bool = False,
):
    """Build ``(writeback, pure)`` for the standard ``C⟨M, r⟩ = C ⊙ T``
    funnel.

    ``pure`` is true when the write-back ignores the output's previous
    state entirely (no mask, no complement, no accumulator — the funnel
    degenerates to a domain cast of T).  Purity is what entitles the
    engine's fusion pass to absorb the node into a consumer.
    """
    if mask_src is None and not complement and accum is None:
        def writeback(prev, t):
            return t.astype(out_type)

        return writeback, True

    from ..internals.maskaccum import mat_write_back, vec_write_back

    funnel = vec_write_back if is_vec else mat_write_back

    def writeback(prev, t):
        mask_data = mask_src.resolve() if mask_src is not None else None
        return funnel(
            prev, t, out_type, mask_data, accum,
            complement=complement, structure=structure, replace=replace,
        )

    return writeback, False


def mask_metadata(
    mask_src,
    accum: BinaryOp | None,
    *,
    complement: bool = False,
    replace: bool = False,
):
    """Describe a write-back for the planner (``None`` when pure).

    The write-back closure is opaque to the engine; this record is what
    the fuse pass reasons about.  It must describe the same funnel
    :func:`writeback_closure` builds from the same arguments.
    """
    if mask_src is None and not complement and accum is None:
        return None
    from ..engine.dag import MaskInfo

    return MaskInfo(replace=replace, has_accum=accum is not None)


def check_output_cast(result_type, out_type) -> None:
    """The result domain must cast into the output's domain (API error).

    UDTs have no implicit casts (spec rule), so a UDT-valued result can
    only land in an output of the very same UDT.
    """
    from ..core.types import cast_allowed

    if not cast_allowed(result_type, out_type):
        raise DomainMismatchError(
            f"result domain {result_type.name} does not cast to output "
            f"domain {out_type.name}"
        )


