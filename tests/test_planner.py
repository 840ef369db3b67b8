"""The multi-pass planner: CSE, mask pushdown, pass faults, tracing.

PR-3 rebuilt the lazy engine's planner as a pipeline of passes
(``normalize → cse → pushdown → fuse → schedule``) over one immutable
plan IR.  This battery checks each pass's *observable* contract:

* hash-cons CSE publishes one kernel result through every duplicate
  node (``kernel_count`` stays honest — reuse is not a kernel);
* mask pushdown filters inside the producing mxm-family kernel only
  when provably legal, and falls back to the unfiltered §V outcome
  when the optimized chain fails;
* a fault at any pass boundary skips that pass (the previous IR stays
  valid) and the forcing still completes with exact results;
* every pass and kernel records a span that round-trips through the
  Chrome-trace JSON writer;
* the applicability gate runs a pass only when its precondition holds
  on the forced subgraph — and when none does, planning leaves no
  trace at all (no span, no counter), while the result memo, consulted
  directly, still hits.
"""

import json

import numpy as np
import pytest

from repro.core import binaryop as B
from repro.core import types as T
from repro.core import unaryop as U
from repro.core.context import Context, Mode, WaitMode, default_context
from repro.core.descriptor import DESC_RSC, DESC_SC
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.vector import Vector
from repro.engine.stats import STATS
from repro.faults.plane import PLANE, FaultSpec
from repro.internals import config
from repro.ops.apply import apply
from repro.ops.ewise import ewise_add
from repro.ops.mxm import mxm, vxm

from .helpers import mat_to_dict

N = 24


@pytest.fixture(autouse=True)
def clean_plane_and_stats():
    # This module asserts the CSE / pushdown pass counters, so pin those
    # passes and the kernel mask filter they feed on: the CI ablation
    # matrix runs the whole suite with each knob exported off, and these
    # contracts are knob-on behaviour (the explicit knob tests below
    # override with their own inner option()).
    STATS.reset()
    with config.option("ENGINE_CSE", True), \
            config.option("ENGINE_PUSHDOWN", True), \
            config.option("MASK_PUSHDOWN", True):
        yield
    PLANE.disable()


def _graph(ctx, seed=0, n=N, density=0.2, t=T.FP64):
    rng = np.random.default_rng(seed)
    d = rng.random((n, n)) * (rng.random((n, n)) < density)
    r, c = np.nonzero(d)
    m = Matrix.new(t, n, n, ctx)
    m.build(r, c, d[r, c])
    m.wait(WaitMode.MATERIALIZE)
    return m


def _sr():
    return PLUS_TIMES_SEMIRING[T.FP64]


def _blocking_oracle(pipeline):
    ctx = Context.new(Mode.BLOCKING, None, None)
    return pipeline(ctx)


def _nonblocking(pipeline):
    ctx = Context.new(Mode.NONBLOCKING, None, None)
    STATS.reset()
    return pipeline(ctx)


# ---------------------------------------------------------------------------
# CSE
# ---------------------------------------------------------------------------


def _dup_mxm_pipeline(ctx):
    """sum = (A @ A) + (A @ A): the duplicate pair forces together."""
    a = _graph(ctx)
    x1 = Matrix.new(T.FP64, N, N, ctx)
    mxm(x1, None, None, _sr(), a, a)
    x2 = Matrix.new(T.FP64, N, N, ctx)
    mxm(x2, None, None, _sr(), a, a)
    s = Matrix.new(T.FP64, N, N, ctx)
    ewise_add(s, None, None, B.PLUS[T.FP64], x1, x2)
    s.wait(WaitMode.MATERIALIZE)
    return mat_to_dict(s)


class TestCSE:
    def test_duplicate_mxm_runs_one_kernel(self):
        oracle = _blocking_oracle(_dup_mxm_pipeline)
        got = _nonblocking(_dup_mxm_pipeline)
        assert got == oracle
        snap = default_context().engine_stats()
        assert snap["cse_hits"] == 1
        assert snap["cse_reused"] == 1
        # The whole point: the duplicate publishes a shared result, it
        # does not run (or count as) a second kernel.
        assert snap["kernel_count"].get("mxm") == 1

    def test_transitive_cse_three_duplicates(self):
        def pipeline(ctx):
            a = _graph(ctx, seed=2)
            outs = []
            for _ in range(3):
                x = Matrix.new(T.FP64, N, N, ctx)
                mxm(x, None, None, _sr(), a, a)
                outs.append(x)
            s = Matrix.new(T.FP64, N, N, ctx)
            ewise_add(s, None, None, B.PLUS[T.FP64], outs[0], outs[1])
            ewise_add(s, None, B.PLUS[T.FP64], B.PLUS[T.FP64], s, outs[2])
            s.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(s)

        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        snap = default_context().engine_stats()
        assert snap["cse_hits"] == 2
        assert snap["cse_reused"] == 2
        assert snap["kernel_count"].get("mxm") == 1

    def test_distinct_expressions_do_not_alias(self):
        def pipeline(ctx):
            a = _graph(ctx, seed=3)
            b2 = _graph(ctx, seed=4)
            x1 = Matrix.new(T.FP64, N, N, ctx)
            mxm(x1, None, None, _sr(), a, a)
            x2 = Matrix.new(T.FP64, N, N, ctx)
            mxm(x2, None, None, _sr(), a, b2)  # different rhs
            s = Matrix.new(T.FP64, N, N, ctx)
            ewise_add(s, None, None, B.PLUS[T.FP64], x1, x2)
            s.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(s)

        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        snap = default_context().engine_stats()
        assert snap["cse_hits"] == 0
        assert snap["kernel_count"].get("mxm") == 2

    def test_user_defined_op_is_not_cse_safe(self):
        from repro.core.unaryop import UnaryOp

        twice = UnaryOp.new(lambda x: 2.0 * x, T.FP64, T.FP64, name="twice")

        def pipeline(ctx):
            a = _graph(ctx, seed=5)
            x1 = Matrix.new(T.FP64, N, N, ctx)
            apply(x1, None, None, twice, a)
            x2 = Matrix.new(T.FP64, N, N, ctx)
            apply(x2, None, None, twice, a)
            s = Matrix.new(T.FP64, N, N, ctx)
            ewise_add(s, None, None, B.PLUS[T.FP64], x1, x2)
            s.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(s)

        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        # No structural key for user-defined operators: identity-based
        # hash-consing must not assume they are value-pure.
        assert default_context().engine_stats()["cse_hits"] == 0

    def test_engine_cse_option_disables_the_pass(self):
        oracle = _blocking_oracle(_dup_mxm_pipeline)
        with config.option("ENGINE_CSE", False):
            got = _nonblocking(_dup_mxm_pipeline)
        assert got == oracle
        snap = default_context().engine_stats()
        assert snap["cse_hits"] == 0
        assert snap["kernel_count"].get("mxm") == 2

    def test_rep_failure_falls_back_to_own_kernel(self):
        """If the representative's kernel fails, the duplicate runs its
        own kernel instead of publishing a missing result (§V: each
        output carries its own fate)."""
        from repro.core.errors import OutOfMemoryError

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=6)
        x1 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x1, None, None, _sr(), a, a)
        x2 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x2, None, None, _sr(), a, a)
        s = Matrix.new(T.FP64, N, N, ctx)
        ewise_add(s, None, None, B.PLUS[T.FP64], x1, x2)
        STATS.reset()
        PLANE.configure(1, [FaultSpec(site="kernel.mxm", max_hits=1)])
        with pytest.raises(OutOfMemoryError):
            s.wait(WaitMode.MATERIALIZE)
        PLANE.disable()
        snap = default_context().engine_stats()
        assert snap["cse_fallbacks"] == 1
        # Exactly one of the duplicates failed; the other fell back to
        # its own kernel and holds the true product.
        states = sorted((x1.error() == "", x2.error() == ""))
        assert states == [False, True]
        ok = x1 if x1.error() == "" else x2
        bad = x2 if ok is x1 else x1
        assert ok.nvals() > 0
        assert bad.nvals() == 0  # pre-failure state: the empty matrix


# ---------------------------------------------------------------------------
# Mask pushdown
# ---------------------------------------------------------------------------


def _pushdown_pipeline(desc):
    def pipeline(ctx):
        a = _graph(ctx, seed=7)
        m = _graph(ctx, seed=8, density=0.4)
        c = Matrix.new(T.FP64, N, N, ctx)
        mxm(c, None, None, _sr(), a, a)
        apply(c, m, None, U.IDENTITY[T.FP64], c, desc)
        c.wait(WaitMode.MATERIALIZE)
        return mat_to_dict(c)

    return pipeline


class TestMaskPushdown:
    def test_inplace_masked_consumer_pushes(self):
        pipeline = _pushdown_pipeline(DESC_RSC)
        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        snap = default_context().engine_stats()
        assert snap["masks_pushed"] == 1
        assert snap["pushdown_fallbacks"] == 0
        # The consumer keeps its full write-back.
        assert snap["kernel_count"].get("apply") == 1

    def test_no_push_without_replace(self):
        """In-place consumer without REPLACE: write-back merges old C —
        the producer's own unfiltered value — at mask-false positions,
        so filtering the producer would be wrong.  The pass must refuse
        (and the result must still be exact)."""
        pipeline = _pushdown_pipeline(DESC_SC)
        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        assert default_context().engine_stats()["masks_pushed"] == 0

    def test_no_push_when_producer_is_live_tail(self):
        """The producer's unfiltered value stays observable through its
        own handle, so the mask must not leak into it."""

        def pipeline(ctx):
            a = _graph(ctx, seed=9)
            m = _graph(ctx, seed=10, density=0.4)
            y = Matrix.new(T.FP64, N, N, ctx)
            mxm(y, None, None, _sr(), a, a)
            out = Matrix.new(T.FP64, N, N, ctx)
            apply(out, m, None, U.IDENTITY[T.FP64], y, DESC_RSC)
            out.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(out), mat_to_dict(y)

        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        assert default_context().engine_stats()["masks_pushed"] == 0

    def test_vector_pushdown_bfs_shape(self):
        """vxm producer + complemented structural vector mask — the BFS
        'unvisited frontier expansion' shape."""

        def pipeline(ctx):
            a = _graph(ctx, seed=11, density=0.3)
            u = Vector.new(T.FP64, N, ctx)
            for i in range(0, N, 3):
                u.set_element(1.0, i)
            visited = Vector.new(T.BOOL, N, ctx)
            for i in range(0, N, 2):
                visited.set_element(True, i)
            visited.wait(WaitMode.MATERIALIZE)
            w = Vector.new(T.FP64, N, ctx)
            vxm(w, None, None, _sr(), u, a)
            apply(w, visited, None, U.IDENTITY[T.FP64], w, DESC_RSC)
            w.wait(WaitMode.MATERIALIZE)
            return sorted(w.to_dict().items())

        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        assert default_context().engine_stats()["masks_pushed"] == 1

    def test_pushed_producer_failure_reruns_unfiltered(self):
        """A pushed kernel that faults re-runs with the filter stripped;
        the chain's outcome is exactly the unoptimized one."""
        pipeline = _pushdown_pipeline(DESC_RSC)
        oracle = _blocking_oracle(pipeline)
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=7)
        m = _graph(ctx, seed=8, density=0.4)
        c = Matrix.new(T.FP64, N, N, ctx)
        mxm(c, None, None, _sr(), a, a)
        apply(c, m, None, U.IDENTITY[T.FP64], c, DESC_RSC)
        STATS.reset()
        PLANE.configure(1, [FaultSpec(site="kernel.mxm", max_hits=1)])
        c.wait(WaitMode.MATERIALIZE)
        PLANE.disable()
        snap = default_context().engine_stats()
        assert snap["masks_pushed"] == 1
        assert snap["pushdown_fallbacks"] >= 1
        assert mat_to_dict(c) == oracle

    def test_pushed_consumer_failure_restores_producer(self):
        """The *consumer* of a pushed mask faults after the producer
        committed a filtered carrier: the fallback must recompute the
        producer clean before re-running the consumer, or the §V
        pre-failure walk would observe a filtered intermediate."""
        pipeline = _pushdown_pipeline(DESC_RSC)
        oracle = _blocking_oracle(pipeline)
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=7)
        m = _graph(ctx, seed=8, density=0.4)
        c = Matrix.new(T.FP64, N, N, ctx)
        mxm(c, None, None, _sr(), a, a)
        apply(c, m, None, U.IDENTITY[T.FP64], c, DESC_RSC)
        STATS.reset()
        PLANE.configure(1, [FaultSpec(site="kernel.pipeline", max_hits=1)])
        c.wait(WaitMode.MATERIALIZE)
        PLANE.disable()
        snap = default_context().engine_stats()
        assert snap["pushdown_fallbacks"] >= 1
        assert mat_to_dict(c) == oracle


# ---------------------------------------------------------------------------
# Planner pass faults
# ---------------------------------------------------------------------------


class TestPlannerPassFaults:
    def test_faulted_pass_is_skipped_not_fatal(self):
        oracle = _blocking_oracle(_dup_mxm_pipeline)
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        STATS.reset()
        PLANE.configure(3, [FaultSpec(site="planner.cse", rate=1.0)])
        got = _dup_mxm_pipeline(ctx)
        PLANE.disable()
        assert got == oracle
        snap = default_context().engine_stats()
        # The pass never ran, so no aliases — but nothing broke either.
        assert snap["cse_hits"] == 0
        assert snap["kernel_count"].get("mxm") == 2
        assert snap["planner_pass_failures"] >= 1
        assert snap["planner_faults"].get("planner.cse", 0) >= 1

    def test_every_pass_faulted_still_exact(self):
        """With the whole planner on fire, forcing degrades to plain
        topological execution — and stays exact."""
        pipeline = _pushdown_pipeline(DESC_RSC)
        oracle = _blocking_oracle(pipeline)
        PLANE.configure(4, [FaultSpec(site="planner.*", rate=1.0)])
        got = _nonblocking(pipeline)
        PLANE.disable()
        assert got == oracle
        snap = default_context().engine_stats()
        # normalize, pushdown, fuse, schedule
        assert snap["planner_pass_failures"] >= 4
        assert snap["masks_pushed"] == 0
        assert snap["chains_fused"] == 0

    def test_pass_fault_counters_per_site(self):
        PLANE.configure(5, [FaultSpec(site="planner.fuse", rate=1.0)])
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=12)
        c = Matrix.new(T.FP64, N, N, ctx)
        mxm(c, None, None, _sr(), a, a)
        apply(c, None, None, U.AINV[T.FP64], c)
        c.wait(WaitMode.MATERIALIZE)
        PLANE.disable()
        faults = default_context().engine_stats()["planner_faults"]
        assert set(faults) == {"planner.fuse"}
        assert faults["planner.fuse"] >= 1


# ---------------------------------------------------------------------------
# Spans and Chrome-trace output
# ---------------------------------------------------------------------------


class TestTracing:
    def _workload(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        _dup_mxm_pipeline(ctx)
        pipeline = _pushdown_pipeline(DESC_RSC)
        pipeline(ctx)

    def test_spans_cover_passes_kernels_and_forces(self):
        STATS.reset()
        self._workload()
        events = STATS.trace_events()
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"planner", "kernel", "force"} <= cats
        names = {e["name"] for e in events}
        for p in ("normalize", "cse", "pushdown", "fuse", "schedule"):
            assert f"planner.{p}" in names
        # Decision instants ride along.
        assert any(e.get("ph") == "i" for e in events)

    def test_trace_events_are_chrome_trace_shaped(self):
        STATS.reset()
        self._workload()
        events = STATS.trace_events()
        assert events[0]["ph"] == "M"  # thread-name metadata first
        for e in events:
            assert "name" in e and "pid" in e and "ph" in e
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
        json.dumps(events)  # must be serializable as-is

    def test_buffered_events_render_to_the_chrome_shape(self):
        """Spans are buffered as tuples; the rendered events keep the
        exact dict shape, key for key."""
        from repro.engine.stats import _T0, EngineStats

        stats = EngineStats()
        stats.span("k", "kernel", _T0 + 2.0, 0.5, {"node": "mxm"})
        stats.span("clamped", "kernel", _T0 + 3.0, -1.0)
        stats.instant("decision", "planner", {"kind": "fuse"})
        stats.instant("bare", "memo")
        meta, x, clamped, i, bare = stats.trace_events()
        assert meta == {"name": "thread_name", "ph": "M", "pid": 1,
                        "tid": 0, "args": {"name": meta["args"]["name"]}}
        assert list(x) == ["name", "cat", "ph", "ts", "dur", "pid", "tid",
                           "args"]
        assert x == {"name": "k", "cat": "kernel", "ph": "X",
                     "ts": pytest.approx(2e6), "dur": pytest.approx(5e5),
                     "pid": 1, "tid": 0, "args": {"node": "mxm"}}
        assert clamped["dur"] == 0.0 and clamped["args"] == {}
        assert list(i) == ["name", "cat", "ph", "s", "ts", "pid", "tid",
                           "args"]
        assert (i["ph"], i["s"], i["args"]) == ("i", "t", {"kind": "fuse"})
        assert i["ts"] > 0
        assert bare["args"] == {}
        assert stats.snapshot()["spans_recorded"] == 4

    def test_write_trace_round_trips(self, tmp_path):
        STATS.reset()
        self._workload()
        path = tmp_path / "trace.json"
        n = STATS.write_trace(str(path))
        assert n > 0
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) >= n - len(doc["traceEvents"]) + len(spans)
        assert any(e["name"].startswith("force:") for e in spans)

    def test_engine_stats_exposes_spans_on_request(self):
        STATS.reset()
        self._workload()
        ctx = default_context()
        assert "trace_events" not in ctx.engine_stats()
        snap = ctx.engine_stats(include_spans=True)
        assert len(snap["trace_events"]) == snap["spans_recorded"] + 1
        assert snap["spans_recorded"] > 0

    def test_span_ring_keeps_the_newest_spans(self):
        """Past ``SPAN_CAP`` the buffer is a ring: it holds the newest
        spans, and ``spans_dropped`` counts the ones pushed out."""
        from repro.engine.stats import _T0, SPAN_CAP, EngineStats

        stats = EngineStats()
        k = 5
        for i in range(SPAN_CAP + k):
            if i % 2:
                stats.instant(f"e{i}", "planner")
            else:
                stats.span(f"e{i}", "kernel", _T0 + i, 0.0)
        snap = stats.snapshot()
        assert snap["spans_recorded"] == SPAN_CAP
        assert snap["spans_dropped"] == k
        names = [e["name"] for e in stats.trace_events() if e["ph"] != "M"]
        assert names == [f"e{i}" for i in range(k, SPAN_CAP + k)]

    def test_reset_clears_spans(self):
        self._workload()
        STATS.reset()
        assert STATS.trace_events() == []
        assert STATS.snapshot()["spans_recorded"] == 0


# ---------------------------------------------------------------------------
# Structural keys (hash-cons identity)
# ---------------------------------------------------------------------------


class TestStructuralKeys:
    def _tail(self, obj):
        return obj._tail

    def test_equal_expressions_equal_keys(self):
        from repro.engine.dag import structural_key

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=13)
        x1 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x1, None, None, _sr(), a, a)
        x2 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x2, None, None, _sr(), a, a)
        k1 = structural_key(self._tail(x1))
        k2 = structural_key(self._tail(x2))
        assert k1 is not None and k1 == k2

    def test_different_inputs_different_keys(self):
        from repro.engine.dag import structural_key

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=13)
        b2 = _graph(ctx, seed=14)
        x1 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x1, None, None, _sr(), a, a)
        x2 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x2, None, None, _sr(), a, b2)
        assert structural_key(self._tail(x1)) != structural_key(self._tail(x2))

    def test_canon_map_routes_through_aliases(self):
        from repro.engine.dag import structural_key

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=13)
        x1 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x1, None, None, _sr(), a, a)
        x2 = Matrix.new(T.FP64, N, N, ctx)
        mxm(x2, None, None, _sr(), a, a)
        y1 = Matrix.new(T.FP64, N, N, ctx)
        ewise_add(y1, None, None, B.PLUS[T.FP64], x1, x1)
        y2 = Matrix.new(T.FP64, N, N, ctx)
        ewise_add(y2, None, None, B.PLUS[T.FP64], x2, x2)
        n1, n2 = self._tail(x1), self._tail(x2)
        # Without canon the consumers hash differently (different input
        # node identities); with x2 canonicalized to x1 they agree.
        assert structural_key(self._tail(y1)) != structural_key(self._tail(y2))
        canon = {id(n2): id(n1)}
        assert (structural_key(self._tail(y1), canon)
                == structural_key(self._tail(y2), canon))


# ---------------------------------------------------------------------------
# The applicability gate
# ---------------------------------------------------------------------------


def _planner_spans():
    return [e["name"] for e in STATS.trace_events()
            if e.get("cat") == "planner" and e.get("ph") == "X"]


_REWRITE_COUNTERS = (
    "cse_hits", "cse_reused", "masks_pushed", "chains_fused", "nodes_fused",
    "planner_pass_failures",
)


def _assert_no_planning():
    assert _planner_spans() == []
    snap = STATS.snapshot()
    assert {k: snap[k] for k in _REWRITE_COUNTERS} == dict.fromkeys(
        _REWRITE_COUNTERS, 0)


class TestApplicabilityGate:
    """Each pass: a minimal subgraph where its precondition holds (it
    runs and fires as before) and a near miss where it does not (no
    ``planner.*`` span, counters untouched)."""

    @pytest.fixture(autouse=True)
    def all_passes_on(self):
        with config.option("ENGINE_FUSION", True), \
                config.option("ENGINE_MEMO", True):
            yield

    # -- CSE ----------------------------------------------------------------

    def test_cse_fires_on_two_nodes_of_one_signature(self):
        assert _nonblocking(_dup_mxm_pipeline) == \
            _blocking_oracle(_dup_mxm_pipeline)
        assert _planner_spans() == [
            "planner.normalize", "planner.cse", "planner.schedule"]
        assert STATS.snapshot()["cse_reused"] == 1

    def test_cse_near_miss_different_operations(self):
        """Two pure products, but over different semirings: no two
        nodes share a signature, so nothing could alias."""
        from repro.core.semiring import MIN_PLUS_SEMIRING

        def pipeline(ctx):
            a = _graph(ctx, seed=21)
            x1 = Matrix.new(T.FP64, N, N, ctx)
            mxm(x1, None, None, _sr(), a, a)
            x2 = Matrix.new(T.FP64, N, N, ctx)
            mxm(x2, None, None, MIN_PLUS_SEMIRING[T.FP64], a, a)
            s = Matrix.new(T.FP64, N, N, ctx)
            ewise_add(s, None, None, B.PLUS[T.FP64], x1, x2)
            s.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(s)

        assert _nonblocking(pipeline) == _blocking_oracle(pipeline)
        _assert_no_planning()
        assert STATS.snapshot()["kernel_count"].get("mxm") == 2

    # -- pushdown -------------------------------------------------------------

    def test_pushdown_fires_on_masked_consumer_of_a_pushable_producer(self):
        """With fusion ablated the pushdown precondition alone holds,
        and only that pass runs."""
        with config.option("ENGINE_FUSION", False):
            pipeline = _pushdown_pipeline(DESC_RSC)
            assert _nonblocking(pipeline) == _blocking_oracle(pipeline)
        assert _planner_spans() == [
            "planner.normalize", "planner.pushdown", "planner.schedule"]
        assert STATS.snapshot()["masks_pushed"] == 1

    def test_pushdown_near_miss_materialized_producer(self):
        """The same masked consumer over an already-forced product: no
        pending producer to push into."""
        def pipeline(ctx):
            a = _graph(ctx, seed=7)
            m = _graph(ctx, seed=8, density=0.4)
            c = Matrix.new(T.FP64, N, N, ctx)
            mxm(c, None, None, _sr(), a, a)
            c.wait(WaitMode.MATERIALIZE)
            STATS.reset()
            apply(c, m, None, U.IDENTITY[T.FP64], c, DESC_RSC)
            c.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(c)

        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        _assert_no_planning()

    # -- fuse -----------------------------------------------------------------

    def test_fuse_fires_on_stage_consumer_of_a_pure_producer(self):
        """Nothing here is masked, so pushdown cannot fire."""
        def pipeline(ctx):
            a = _graph(ctx, seed=12)
            c = Matrix.new(T.FP64, N, N, ctx)
            mxm(c, None, None, _sr(), a, a)
            apply(c, None, None, U.AINV[T.FP64], c)
            c.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(c)

        assert _nonblocking(pipeline) == _blocking_oracle(pipeline)
        assert _planner_spans() == [
            "planner.normalize", "planner.fuse", "planner.schedule"]
        snap = STATS.snapshot()
        assert snap["chains_fused"] == 1 and snap["nodes_fused"] == 1

    def test_fuse_near_miss_producer_is_a_live_tail(self):
        """The producer is still its owner's tail (observable), so the
        consumer could not absorb it: the precondition fails."""
        def pipeline(ctx):
            a = _graph(ctx, seed=12)
            y = Matrix.new(T.FP64, N, N, ctx)
            mxm(y, None, None, _sr(), a, a)
            out = Matrix.new(T.FP64, N, N, ctx)
            apply(out, None, None, U.AINV[T.FP64], y)
            out.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(out), mat_to_dict(y)

        assert _nonblocking(pipeline) == _blocking_oracle(pipeline)
        _assert_no_planning()

    # -- the result memo, consulted directly ------------------------------------

    def test_one_node_resubmission_hits_the_memo_without_planning(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=30)
        first = Matrix.new(T.FP64, N, N, ctx)
        mxm(first, None, None, _sr(), a, a)
        first.wait(WaitMode.MATERIALIZE)
        STATS.reset()
        again = Matrix.new(T.FP64, N, N, ctx)
        mxm(again, None, None, _sr(), a, a)
        again.wait(WaitMode.MATERIALIZE)
        snap = STATS.snapshot()
        assert snap["memo_hits"] == 1 and snap["memo_reused"] == 1
        assert snap["kernel_count"].get("mxm") is None    # never ran
        assert _planner_spans() == []
        assert mat_to_dict(again) == mat_to_dict(first)

    def test_memo_hit_is_claimed_when_passes_do_run(self):
        """A memo hit inside a subgraph that is planned stays locked:
        the fuse pass must not absorb the node the memo answers."""
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = _graph(ctx, seed=31)
        first = Matrix.new(T.FP64, N, N, ctx)
        mxm(first, None, None, _sr(), a, a)
        first.wait(WaitMode.MATERIALIZE)
        STATS.reset()
        c = Matrix.new(T.FP64, N, N, ctx)
        mxm(c, None, None, _sr(), a, a)             # memo hit
        apply(c, None, None, U.AINV[T.FP64], c)     # would fuse it
        c.wait(WaitMode.MATERIALIZE)
        snap = STATS.snapshot()
        assert snap["memo_reused"] == 1
        assert snap["chains_fused"] == 0
        assert "planner.fuse" in _planner_spans()   # it ran, and refused
        assert mat_to_dict(c) == {
            k: -v for k, v in mat_to_dict(first).items()}

    def test_in_place_node_stores_nothing(self):
        """``apply(f, …, f)`` is keyed on a version its own submission
        superseded: it may hit, it never stores."""
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        f = Vector.new(T.FP64, N, ctx)
        f.set_element(1.0, 3)
        f.wait(WaitMode.MATERIALIZE)
        STATS.reset()
        apply(f, None, None, U.AINV[T.FP64], f)
        f.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["memo_stores"] == 0
        out = Vector.new(T.FP64, N, ctx)
        apply(out, None, None, U.AINV[T.FP64], f)   # not in place: stored
        out.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["memo_stores"] == 1

    # -- the loop the gate exists for ---------------------------------------------

    def test_bfs_parents_emits_no_planner_span(self):
        from repro.algorithms import bfs_parents
        from repro.generators import grid_2d, to_matrix

        def grid(mode):
            g = to_matrix(*grid_2d(6), ctx=Context.new(mode, None, None))
            g.wait(WaitMode.MATERIALIZE)
            return g

        g = grid(Mode.NONBLOCKING)
        STATS.reset()
        parents = bfs_parents(g, 0)
        parents.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["forces"] >= 10     # one per level
        _assert_no_planning()
        oracle = bfs_parents(grid(Mode.BLOCKING), 0)
        assert parents.to_dict() == oracle.to_dict()
