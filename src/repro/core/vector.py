"""``GrB_Vector`` — the opaque sparse vector object.

Wraps a :class:`~repro.internals.containers.VecData` carrier behind the
sequence/completion machinery.  Constructors accept the optional
``GrB_Context`` argument introduced in 2.0 (§IV, Fig. 2):

    ``GrB_Vector_new(&v, type, nsize, ctx)``

Value-reading methods (``nvals``, ``extractElement``, ``extractTuples``
and export) force the sequence; mutating methods go through it.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..internals.build import build_vector
from ..internals.containers import VecData, empty_vec, insert_value
from ..internals.stream import REMOVED, apply_vector_writes
from .binaryop import BinaryOp
from .context import Context
from .errors import (
    InvalidIndexError,
    InvalidValueError,
    NoValue,
    NullPointerError,
)
from .scalar import Scalar
from .sequence import OpaqueObject
from .types import Type

__all__ = ["Vector"]

_INT = np.int64


class Vector(OpaqueObject):
    """An opaque sparse vector of a fixed domain and size."""

    __slots__ = ("_type", "_size")

    def __init__(self, t: Type, size: int, ctx: Context | None = None):
        if t is None:
            raise NullPointerError("vector type is NULL")
        if size < 0:
            raise InvalidValueError(f"vector size must be >= 0, got {size}")
        super().__init__(ctx)
        self._type = t
        self._size = int(size)
        self._data = empty_vec(self._size, t)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def new(cls, t: Type, size: int, ctx: Context | None = None) -> "Vector":
        """``GrB_Vector_new(&v, d, nsize, ctx)`` (Fig. 2 signature)."""
        return cls(t, size, ctx)

    def dup(self) -> "Vector":
        """``GrB_Vector_dup`` — deep-copy semantics (carriers immutable)."""
        data = self._capture()
        out = Vector(self._type, self._size, self._ctx)
        out._data = data
        return out

    @classmethod
    def from_data(cls, data: VecData, ctx: Context | None = None) -> "Vector":
        """Internal/advanced: wrap an existing carrier (no copy)."""
        out = cls(data.type, data.size, ctx)
        out._data = data
        return out

    # -- shape / pattern --------------------------------------------------------

    @property
    def type(self) -> Type:
        return self._type

    @property
    def size(self) -> int:
        """``GrB_Vector_size``."""
        return self._size

    def nvals(self) -> int:
        """``GrB_Vector_nvals`` (forces the sequence)."""
        return self._capture().nvals

    # -- element access -----------------------------------------------------------

    def build(
        self,
        indices: Iterable[int],
        values: Iterable[Any],
        dup: BinaryOp | None = None,
    ) -> None:
        """``GrB_Vector_build`` with the §IX optional-``dup`` rule.

        ``dup=None`` (``GrB_NULL``) makes duplicate indices an execution
        error — deferred in nonblocking mode, so it surfaces at
        ``wait``/first read, which the error-model tests exercise.
        """
        if self.nvals() != 0:
            from .errors import OutputNotEmptyError
            raise OutputNotEmptyError("build requires an empty vector")
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if idx.size != vals.size:
            raise InvalidValueError("indices/values length mismatch")
        size, t = self._size, self._type
        self._submit(
            lambda _d: build_vector(size, t, idx, vals, dup),
            "Vector_build",
        )

    def set_element(self, value: Any, index: int) -> None:
        """``GrB_Vector_setElement`` (plain value or ``GrB_Scalar``)."""
        index = self._check_index(index)
        if isinstance(value, Scalar):
            src = value._capture()
            if not src.present:
                self.remove_element(index)
                return
            value = src.value
        self._submit_write(
            index, self._type.coerce_scalar(value), "Vector_setElement"
        )

    def remove_element(self, index: int) -> None:
        """``GrB_Vector_removeElement``."""
        self._submit_write(
            self._check_index(index), REMOVED, "Vector_removeElement"
        )

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not (0 <= index < self._size):
            raise InvalidIndexError(f"index {index} out of range [0, {self._size})")
        return index

    def _write_one(self, d: VecData, index: int, value: Any) -> VecData:
        """One element write applied by splicing (blocking mode)."""
        t = self._type
        pos = int(np.searchsorted(d.indices, index))
        present = pos < d.nvals and d.indices[pos] == index
        if value is REMOVED:
            if not present:
                return d
            return VecData(
                d.size, t, np.delete(d.indices, pos), np.delete(d.values, pos),
            )
        if present:
            vals = d.values.copy()
            vals[pos] = value
            return VecData(d.size, t, d.indices, vals)
        new_idx = np.insert(d.indices, pos, index).astype(_INT)
        new_vals = insert_value(d.values, pos, value, t)
        return VecData(d.size, t, new_idx, new_vals)

    _apply_writes = staticmethod(apply_vector_writes)

    def extract_element(self, index: int, out: Scalar | None = None):
        """``GrB_Vector_extractElement``.

        Typed form (``out=None``): returns the value or raises
        :class:`NoValue`.  ``GrB_Scalar`` form (Table II): stores into
        ``out`` (empty when the element does not exist) and returns it —
        this variant never needs an immediate NO_VALUE test.
        """
        index = self._check_index(index)
        d = self._capture()
        pos = int(np.searchsorted(d.indices, index))
        present = pos < d.nvals and d.indices[pos] == index
        if out is not None:
            out._store_kernel_result(d.values[pos] if present else None)
            return out
        if not present:
            raise NoValue(f"no element at index {index}")
        return d.values[pos]

    def extract_tuples(self) -> tuple[np.ndarray, np.ndarray]:
        """``GrB_Vector_extractTuples`` — (indices, values) copies."""
        d = self._capture()
        return d.indices.copy(), d.values.copy()

    def clear(self) -> None:
        """``GrB_Vector_clear``."""
        size, t = self._size, self._type
        self._submit(lambda _d: empty_vec(size, t), "Vector_clear",
                     can_raise=False)

    def resize(self, new_size: int) -> None:
        """``GrB_Vector_resize`` — shrink drops out-of-range elements."""
        new_size = int(new_size)
        if new_size < 0:
            raise InvalidValueError("size must be >= 0")
        t = self._type

        def thunk(d: VecData) -> VecData:
            keep = d.indices < new_size
            return VecData(new_size, t, d.indices[keep], d.values[keep])

        self._submit(thunk, "Vector_resize", can_raise=False)
        self._size = new_size

    # -- pythonic conveniences (not part of the C surface) -------------------

    def to_dict(self) -> dict[int, Any]:
        d = self._capture()
        return {int(i): v for i, v in zip(d.indices, d.values)}

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            if not self._valid:
                return "Vector(<freed>)"
            state = ("<pending>" if self._tail is not None
                     else f"nvals={self._data.nvals}")
            return f"Vector({self._type.name}, size={self._size}, {state})"
