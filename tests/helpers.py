"""Construction/comparison helpers shared by the test modules."""

from __future__ import annotations

import contextlib

import numpy as np

from repro.core import types as T
from repro.core.matrix import Matrix
from repro.core.vector import Vector
from repro.internals import containers

__all__ = [
    "mat_from_dict",
    "vec_from_dict",
    "mat_to_dict",
    "vec_to_dict",
    "assert_mat_equal",
    "assert_vec_equal",
    "random_dict_matrix",
    "random_dict_vector",
    "force_format",
]


@contextlib.contextmanager
def force_format(fmt: str):
    """Pin the hypersparse policy for a test: ``"dcsr"`` gives every
    matrix with rows a row list, ``"csr"`` none up to ``MAX_NROWS``
    (past it a dense pointer cannot exist, so the policy still lists
    rows).  Patches the policy's module constants; there is no option
    for it outside tests."""
    saved = containers.HYPERSPARSE_MIN_ROWS, containers.HYPERSPARSE_FACTOR
    if fmt == "dcsr":
        pinned = (0, 0)
    elif fmt == "csr":
        pinned = (containers.MAX_NROWS + 1, 0)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    containers.HYPERSPARSE_MIN_ROWS, containers.HYPERSPARSE_FACTOR = pinned
    try:
        yield
    finally:
        containers.HYPERSPARSE_MIN_ROWS, containers.HYPERSPARSE_FACTOR = saved


def mat_from_dict(d: dict, nrows: int, ncols: int, t=T.FP64, ctx=None) -> Matrix:
    m = Matrix.new(t, nrows, ncols, ctx)
    if d:
        rows, cols = zip(*d.keys())
        m.build(list(rows), list(cols), list(d.values()), None)
    m.wait()
    return m


def vec_from_dict(d: dict, size: int, t=T.FP64, ctx=None) -> Vector:
    v = Vector.new(t, size, ctx)
    if d:
        v.build(list(d.keys()), list(d.values()), None)
    v.wait()
    return v


def mat_to_dict(m: Matrix) -> dict:
    rows, cols, vals = m.extract_tuples()
    return {(int(i), int(j)): v for i, j, v in zip(rows, cols, vals)}


def vec_to_dict(v: Vector) -> dict:
    idx, vals = v.extract_tuples()
    return {int(i): val for i, val in zip(idx, vals)}


def _values_close(a, b) -> bool:
    try:
        return bool(np.isclose(float(a), float(b), rtol=1e-9, atol=1e-12))
    except (TypeError, ValueError):
        return a == b


def assert_mat_equal(m: Matrix, expected: dict, label: str = "") -> None:
    got = mat_to_dict(m)
    assert set(got) == set(expected), (
        f"{label} pattern mismatch: extra={set(got) - set(expected)}, "
        f"missing={set(expected) - set(got)}"
    )
    for key in expected:
        assert _values_close(got[key], expected[key]), (
            f"{label} value at {key}: got {got[key]!r}, want {expected[key]!r}"
        )


def assert_vec_equal(v: Vector, expected: dict, label: str = "") -> None:
    got = vec_to_dict(v)
    assert set(got) == set(expected), (
        f"{label} pattern mismatch: extra={set(got) - set(expected)}, "
        f"missing={set(expected) - set(got)}"
    )
    for key in expected:
        assert _values_close(got[key], expected[key]), (
            f"{label} value at {key}: got {got[key]!r}, want {expected[key]!r}"
        )


def random_dict_matrix(rng, nrows, ncols, density=0.3, *, low=1, high=9) -> dict:
    d = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                d[(i, j)] = float(rng.integers(low, high))
    return d


def random_dict_vector(rng, size, density=0.4, *, low=1, high=9) -> dict:
    return {
        i: float(rng.integers(low, high))
        for i in range(size)
        if rng.random() < density
    }
