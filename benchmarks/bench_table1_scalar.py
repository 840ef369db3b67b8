"""T1 — Table I: GrB_Scalar manipulation methods (§VI).

Regenerates Table I as a micro-benchmark: each method must be O(1) and
cheap; the GrB_Scalar extract path must not pay the NO_VALUE test
overhead the typed path pays (that is the §VI argument for scalars).
"""

import pytest

from repro.core import types as T
from repro.core.errors import NoValue
from repro.core.scalar import Scalar

pytestmark = pytest.mark.usefixtures("no_result_memo")


@pytest.fixture
def full_scalar():
    s = Scalar.new(T.FP64)
    s.set_element(2.5)
    s.wait()
    return s


@pytest.mark.benchmark(group="T1-scalar")
class TestTableOneMethods:
    def test_scalar_new(self, benchmark):
        benchmark(Scalar.new, T.FP64)

    def test_scalar_dup(self, benchmark, full_scalar):
        benchmark(full_scalar.dup)

    def test_scalar_clear(self, benchmark, full_scalar):
        benchmark(full_scalar.clear)

    def test_scalar_nvals(self, benchmark, full_scalar):
        benchmark(full_scalar.nvals)

    def test_scalar_set_element(self, benchmark, full_scalar):
        benchmark(full_scalar.set_element, 3.25)

    def test_scalar_extract_element(self, benchmark, full_scalar):
        benchmark(full_scalar.extract_element)

    def test_scalar_extract_missing_via_typed_path(self, benchmark):
        """The 1.X-style flow: test-and-branch on NO_VALUE every call."""
        empty = Scalar.new(T.FP64)
        empty.wait()

        def typed_extract():
            try:
                return empty.extract_element()
            except NoValue:
                return None

        benchmark(typed_extract)

    def test_scalar_extract_missing_via_scalar_path(self, benchmark):
        """§VI flow: extract into a GrB_Scalar — emptiness is state, not
        a control-flow event."""
        from repro.core.vector import Vector
        v = Vector.new(T.FP64, 4)
        v.wait()
        out = Scalar.new(T.FP64)

        benchmark(v.extract_element, 2, out)


def test_table1_report(benchmark, capsys):
    """Print the Table I surface with per-method timing."""
    import time

    from benchmarks.conftest import print_table

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    methods = {
        "GrB_Scalar_new": lambda: Scalar.new(T.FP64),
        "GrB_Scalar_dup": None,
        "GrB_Scalar_clear": None,
        "GrB_Scalar_nvals": None,
        "GrB_Scalar_setElement": None,
        "GrB_Scalar_extractElement": None,
    }
    s = Scalar.new(T.FP64)
    s.set_element(1.0)
    s.wait()
    methods["GrB_Scalar_dup"] = s.dup
    methods["GrB_Scalar_clear"] = lambda: s.dup().clear()
    methods["GrB_Scalar_nvals"] = s.nvals
    methods["GrB_Scalar_setElement"] = lambda: s.set_element(2.0)
    methods["GrB_Scalar_extractElement"] = s.extract_element
    reps = 20000
    for name, fn in methods.items():
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call = (time.perf_counter() - t0) / reps
        rows.append([name, f"{per_call * 1e6:8.2f} us"])
    with capsys.disabled():
        print_table("Table I: GrB_Scalar manipulation methods",
                    ["method", "time/call"], rows)
