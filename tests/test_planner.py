"""The planner: masked consumers, pass faults, tracing, the gate.

The lazy engine's planner is a pipeline of passes (``fuse →
schedule``) over one immutable plan IR.  This battery checks each
pass's *observable* contract:

* a masked consumer of a pending product stays exact: the in-place
  REPLACE shape fuses, every other shape runs node by node, and a
  failing fused chain re-runs unfused to the exact §V outcome;
* a fault at any pass boundary skips that pass (the previous IR stays
  valid) and the forcing still completes with exact results;
* every pass and kernel records a span that round-trips through the
  Chrome-trace JSON writer;
* the applicability gate runs the passes only when fusion's
  precondition holds on the forced subgraph — and when it does not,
  planning leaves no trace at all (no span, no counter).
"""

import json

import numpy as np
import pytest

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
from repro.ops.mxm import mxm, vxm

from .helpers import mat_to_dict

N = 24


@pytest.fixture(autouse=True)
def clean_plane_and_stats():
    # This module asserts the fuse pass counters, so pin that pass and
    # the kernel mask filter: the CI ablation matrix runs the whole
    # suite with each knob exported off, and these contracts are knob-on
    # behaviour (the explicit knob tests below override with their own
    # inner option()).
    STATS.reset()
    with config.option("ENGINE_FUSION", True), \
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
# Masked consumers of a pending product
# ---------------------------------------------------------------------------


def _masked_consumer_pipeline(desc):
    def pipeline(ctx):
        a = _graph(ctx, seed=7)
        m = _graph(ctx, seed=8, density=0.4)
        c = Matrix.new(T.FP64, N, N, ctx)
        mxm(c, None, None, _sr(), a, a)
        apply(c, m, None, U.IDENTITY[T.FP64], c, desc)
        c.wait(WaitMode.MATERIALIZE)
        return mat_to_dict(c)

    return pipeline


def _pending_masked_consumer(ctx):
    """The in-place REPLACE shape, left pending for a fault to hit."""
    a = _graph(ctx, seed=7)
    m = _graph(ctx, seed=8, density=0.4)
    c = Matrix.new(T.FP64, N, N, ctx)
    mxm(c, None, None, _sr(), a, a)
    apply(c, m, None, U.IDENTITY[T.FP64], c, DESC_RSC)
    return c


class TestMaskedConsumer:
    """A masked consumer over a pending product.  The planner has no
    pass that moves the consumer's mask into the producer: the in-place
    REPLACE shape fuses, every other shape runs node by node, and all
    of them stay exact — also when a kernel in the chain fails."""

    def test_inplace_masked_consumer_fuses(self):
        pipeline = _masked_consumer_pipeline(DESC_RSC)
        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        snap = default_context().engine_stats()
        assert snap["chains_fused"] == 1 and snap["nodes_fused"] == 1
        assert snap["masks_pushed"] == 0

    def test_inplace_masked_consumer_without_replace_runs_unfused(self):
        """In-place consumer without REPLACE: the write-back merges old
        C — the producer's own value — at mask-false positions, so the
        consumer may not absorb its producer."""
        pipeline = _masked_consumer_pipeline(DESC_SC)
        oracle = _blocking_oracle(pipeline)
        assert _nonblocking(pipeline) == oracle
        assert default_context().engine_stats()["chains_fused"] == 0

    def test_masked_consumer_of_a_live_tail_runs_unfused(self):
        """The producer's value stays observable through its own
        handle, so the consumer may not absorb it."""

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
        assert default_context().engine_stats()["chains_fused"] == 0

    def test_vector_masked_consumer_bfs_shape(self):
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
        assert default_context().engine_stats()["chains_fused"] == 1

    def test_fused_producer_failure_reruns_unfused(self):
        """The product faults inside the fused evaluation: the chain
        re-runs node by node and its outcome is exactly the unfused
        one."""
        oracle = _blocking_oracle(_masked_consumer_pipeline(DESC_RSC))
        c = _pending_masked_consumer(Context.new(Mode.NONBLOCKING, None, None))
        STATS.reset()
        PLANE.configure(1, [FaultSpec(site="kernel.mxm", max_hits=1)])
        c.wait(WaitMode.MATERIALIZE)
        PLANE.disable()
        assert default_context().engine_stats()["chains_fused"] == 1
        assert mat_to_dict(c) == oracle

    def test_fused_consumer_failure_reruns_unfused(self):
        """The consumer's stage faults after the product ran inside the
        fused evaluation: the fallback recomputes the product on its own
        before re-running the consumer."""
        oracle = _blocking_oracle(_masked_consumer_pipeline(DESC_RSC))
        c = _pending_masked_consumer(Context.new(Mode.NONBLOCKING, None, None))
        STATS.reset()
        PLANE.configure(1, [FaultSpec(site="kernel.pipeline", max_hits=1)])
        c.wait(WaitMode.MATERIALIZE)
        PLANE.disable()
        assert default_context().engine_stats()["chains_fused"] == 1
        assert mat_to_dict(c) == oracle


# ---------------------------------------------------------------------------
# Planner pass faults
# ---------------------------------------------------------------------------


def _fused_pipeline(ctx):
    """c = −(A ⊕.⊗ A), in place: the apply absorbs the product."""
    a = _graph(ctx, seed=12)
    c = Matrix.new(T.FP64, N, N, ctx)
    mxm(c, None, None, _sr(), a, a)
    apply(c, None, None, U.AINV[T.FP64], c)
    c.wait(WaitMode.MATERIALIZE)
    return mat_to_dict(c)


class TestPlannerPassFaults:
    def test_faulted_pass_is_skipped_not_fatal(self):
        oracle = _blocking_oracle(_fused_pipeline)
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        STATS.reset()
        PLANE.configure(3, [FaultSpec(site="planner.fuse", rate=1.0)])
        got = _fused_pipeline(ctx)
        PLANE.disable()
        assert got == oracle
        snap = default_context().engine_stats()
        # The pass never ran, so nothing fused — but nothing broke either.
        assert snap["chains_fused"] == 0
        assert snap["kernel_count"].get("mxm") == 1
        assert snap["kernel_count"].get("apply") == 1
        assert snap["planner_pass_failures"] >= 1
        assert snap["planner_faults"].get("planner.fuse", 0) >= 1

    def test_every_pass_faulted_still_exact(self):
        """With the whole planner on fire, forcing degrades to plain
        topological execution — and stays exact."""
        pipeline = _masked_consumer_pipeline(DESC_RSC)
        oracle = _blocking_oracle(pipeline)
        PLANE.configure(4, [FaultSpec(site="planner.*", rate=1.0)])
        got = _nonblocking(pipeline)
        PLANE.disable()
        assert got == oracle
        snap = default_context().engine_stats()
        # fuse, schedule
        assert snap["planner_pass_failures"] >= 2
        assert snap["chains_fused"] == 0

    def test_pass_fault_counters_per_site(self):
        """A skipped schedule drops the fuse pass's decisions: the
        forcing runs unfused, and only the faulted site is counted."""
        oracle = _blocking_oracle(_fused_pipeline)
        PLANE.configure(5, [FaultSpec(site="planner.schedule", rate=1.0)])
        got = _nonblocking(_fused_pipeline)
        PLANE.disable()
        assert got == oracle
        snap = default_context().engine_stats()
        assert snap["chains_fused"] == 0
        faults = snap["planner_faults"]
        assert set(faults) == {"planner.schedule"}
        assert faults["planner.schedule"] >= 1


# ---------------------------------------------------------------------------
# Spans and Chrome-trace output
# ---------------------------------------------------------------------------


class TestTracing:
    def _workload(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        _fused_pipeline(ctx)
        pipeline = _masked_consumer_pipeline(DESC_RSC)
        pipeline(ctx)

    def test_spans_cover_passes_kernels_and_forces(self):
        STATS.reset()
        self._workload()
        events = STATS.trace_events()
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"planner", "kernel", "force"} <= cats
        names = {e["name"] for e in events}
        for p in ("fuse", "schedule"):
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
# The applicability gate
# ---------------------------------------------------------------------------


def _planner_spans():
    return [e["name"] for e in STATS.trace_events()
            if e.get("cat") == "planner" and e.get("ph") == "X"]


_REWRITE_COUNTERS = (
    "chains_fused", "nodes_fused", "planner_pass_failures",
)


def _assert_no_planning():
    assert _planner_spans() == []
    snap = STATS.snapshot()
    assert {k: snap[k] for k in _REWRITE_COUNTERS} == dict.fromkeys(
        _REWRITE_COUNTERS, 0)


class TestApplicabilityGate:
    """A minimal subgraph where fusion's precondition holds (the
    passes run and fire) and near misses where it does not (no
    ``planner.*`` span, counters untouched)."""

    # -- a masked consumer ------------------------------------------------------

    def test_masked_consumer_plans_nothing_with_fusion_off(self):
        """The in-place masked consumer is a fuse candidate and nothing
        else: with fusion ablated no precondition holds."""
        with config.option("ENGINE_FUSION", False):
            pipeline = _masked_consumer_pipeline(DESC_RSC)
            assert _nonblocking(pipeline) == _blocking_oracle(pipeline)
        _assert_no_planning()

    def test_fuse_near_miss_materialized_producer(self):
        """The same masked consumer over an already-forced product: no
        pending producer to absorb."""
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
        assert _nonblocking(_fused_pipeline) == \
            _blocking_oracle(_fused_pipeline)
        assert _planner_spans() == ["planner.fuse", "planner.schedule"]
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
