"""Streaming delta ingest + incremental recomputation: parity harness.

The one property everything below enforces: **a warm (delta-patched)
answer is indistinguishable from a cold rebuild.**  The batteries:

* ``Matrix.update_batch`` — merge semantics vs a from-scratch rebuild
  over random bases and batches (Hypothesis), last-write-wins,
  validation, ack counts;
* the memo patch tier — derived blocks (degree, pattern, tril) are
  *updated* from the write set, not dropped, and match a rebuild;
* warm fixpoint algorithms — pagerank / components / triangles after
  random symmetric delta schedules equal the ``ENGINE_DELTA=0`` cold
  oracle on an identical graph;
* the serving layer — ingest buffering, one journal record per flush,
  in-place view patching, restore parity;
* soundness under chaos — transient kernel faults during the delta
  path never yield a wrong (vs. merely recomputed) answer;
* the ``ENGINE_DELTA=0`` ablation — everything still *works* with the
  tier off, it just recomputes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import connected_components, pagerank, triangle_count
from repro.core import types as T
from repro.core.binaryop import SECOND
from repro.core.context import Context, Mode
from repro.core.errors import InvalidIndexError, InvalidValueError
from repro.core.matrix import Matrix
from repro.faults import PLANE, enable_chaos
from repro.internals import config
from repro.engine.stats import STATS

from .helpers import mat_to_dict

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

N = 24


@pytest.fixture()
def delta_on():
    # Counter asserts (memo_delta_patches, algo_warm_hits,
    # serve_views_patched) need the whole plumbing on even under the CI
    # ablation matrix (REPRO_ENGINE_DELTA=0 / REPRO_ENGINE_ALGO_MEMO=0 /
    # REPRO_ENGINE_MEMO=0 full-suite runs).
    with config.option("ENGINE_MEMO", True), \
            config.option("ENGINE_ALGO_MEMO", True), \
            config.option("ENGINE_DELTA", True):
        yield


def _ctx(mode=Mode.NONBLOCKING):
    return Context.new(mode, None, None)


def _mat(d: dict, n: int = N, ctx=None, t=T.FP64) -> Matrix:
    m = Matrix.new(t, n, n, ctx)
    if d:
        rows, cols = zip(*d.keys())
        m.build(list(rows), list(cols), list(d.values()), dup=SECOND[t])
    m.wait()
    return m


@st.composite
def base_and_batches(draw):
    """A random base dict plus 1-3 random write batches (with dups)."""
    base = draw(st.dictionaries(
        st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
        st.floats(-50, 50, allow_nan=False, width=32),
        max_size=60,
    ))
    batches = draw(st.lists(
        st.lists(
            st.tuples(st.integers(0, N - 1), st.integers(0, N - 1),
                      st.floats(-50, 50, allow_nan=False, width=32)),
            max_size=25,
        ),
        min_size=1, max_size=3,
    ))
    return base, batches


@st.composite
def sym_graph_and_deltas(draw):
    """A random symmetric loop-free graph plus symmetric edge deltas."""
    pairs = draw(st.sets(
        st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
        min_size=4, max_size=50,
    ))
    base = set()
    for (i, j) in pairs:
        if i != j:
            base.add((min(i, j), max(i, j)))
    deltas = draw(st.lists(
        st.sets(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
                min_size=1, max_size=6),
        min_size=1, max_size=3,
    ))
    clean = []
    for d in deltas:
        clean.append({(min(i, j), max(i, j)) for (i, j) in d if i != j})
    return sorted(base), [sorted(d) for d in clean if d]


def _sym_arrays(pairs):
    """Undirected pair list -> symmetric COO arrays."""
    r = np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=np.int64)
    c = np.array([p[1] for p in pairs] + [p[0] for p in pairs], dtype=np.int64)
    return r, c, np.ones(len(r))


# ---------------------------------------------------------------------------
# Matrix.update_batch semantics
# ---------------------------------------------------------------------------

class TestUpdateBatch:
    @SETTINGS
    @given(base_and_batches())
    def test_matches_from_scratch_rebuild(self, case):
        base, batches = case
        ctx = _ctx()
        m = _mat(dict(base), ctx=ctx)
        model = dict(base)
        for batch in batches:
            rows = [e[0] for e in batch]
            cols = [e[1] for e in batch]
            vals = [e[2] for e in batch]
            before = set(model)
            ack = m.update_batch(rows, cols, vals)
            for i, j, v in batch:           # last write wins, like the ack
                model[(i, j)] = v
            assert ack["nvals"] == len(model)
            assert ack["inserted"] == len(set(model) - before)
            assert ack["inserted"] + ack["updated"] == len(
                {(i, j) for i, j, _ in batch}
            )
        got = mat_to_dict(m)
        assert set(got) == set(model)
        for k, v in model.items():
            assert got[k] == pytest.approx(v)

    def test_empty_batch_is_noop(self):
        ctx = _ctx()
        m = _mat({(0, 1): 2.0}, ctx=ctx)
        version = m._version
        ack = m.update_batch([], [], [])
        assert ack == {"inserted": 0, "updated": 0, "nvals": 1}
        assert m._version == version          # no commit, no invalidation

    def test_bounds_and_length_validation(self):
        ctx = _ctx()
        m = _mat({(0, 1): 2.0}, ctx=ctx)
        with pytest.raises(InvalidIndexError):
            m.update_batch([N], [0], [1.0])
        with pytest.raises(InvalidValueError):
            m.update_batch([0, 1], [0], [1.0])
        assert mat_to_dict(m) == {(0, 1): 2.0}   # failed writes change nothing

    def test_works_in_blocking_mode(self):
        ctx = _ctx(Mode.BLOCKING)
        m = _mat({(0, 0): 1.0}, ctx=ctx)
        m.update_batch([0, 1], [0, 1], [5.0, 6.0])
        assert mat_to_dict(m) == {(0, 0): 5.0, (1, 1): 6.0}


# ---------------------------------------------------------------------------
# The memo patch tier: blocks updated, not dropped
# ---------------------------------------------------------------------------

class TestPatchTier:
    def _warm_graph(self, ctx):
        pairs = [(i, i + 1) for i in range(10)] + [(0, 5), (2, 9)]
        r, c, v = _sym_arrays(pairs)
        m = Matrix.new(T.FP64, N, N, ctx)
        m.build(r, c, v, dup=SECOND[T.FP64])
        m.wait()
        return m

    def test_symmetric_delta_patches_blocks(self, delta_on):
        ctx = _ctx()
        m = self._warm_graph(ctx)
        pagerank(m, tol=1e-4)
        triangle_count(m)
        connected_components(m)
        before = STATS.snapshot()
        m.update_batch(*_sym_arrays([(3, 12)]))
        after = STATS.snapshot()
        patched = after.get("memo_delta_patches", 0) - before.get("memo_delta_patches", 0)
        assert patched > 0
        warm_before = after.get("algo_warm_hits", 0)
        pagerank(m, tol=1e-4)
        triangle_count(m)
        connected_components(m)
        assert STATS.snapshot().get("algo_warm_hits", 0) > warm_before

    def test_patched_answers_match_cold_oracle(self):
        ctx = _ctx()
        m = self._warm_graph(ctx)
        pr0, _ = pagerank(m, tol=1e-5)
        triangle_count(m)
        connected_components(m)
        delta = [(1, 8), (4, 11), (0, 9)]
        m.update_batch(*_sym_arrays(delta))
        pr, _ = pagerank(m, tol=1e-5)
        tc = triangle_count(m)
        cc = connected_components(m)
        with config.option("ENGINE_DELTA", 0):
            oracle = Matrix.from_data(m._capture(), ctx)
            pr_c, _ = pagerank(oracle, tol=1e-5)
            tc_c = triangle_count(oracle)
            cc_c = connected_components(oracle)
        warm, cold = pr.to_dict(), pr_c.to_dict()
        assert set(warm) == set(cold)
        assert all(warm[k] == pytest.approx(cold[k], abs=5e-5) for k in warm)
        assert tc == tc_c
        assert cc.to_dict() == cc_c.to_dict()

    def test_delta_off_drops_instead_of_patching(self):
        ctx = _ctx()
        with config.option("ENGINE_DELTA", 0):
            m = self._warm_graph(ctx)
            pagerank(m, tol=1e-4)
            before = STATS.snapshot()
            m.update_batch(*_sym_arrays([(3, 12)]))
            after = STATS.snapshot()
            assert after.get("memo_delta_patches", 0) == before.get("memo_delta_patches", 0)
            # still correct, just recomputed
            pr, _ = pagerank(m, tol=1e-4)
            assert after.get("algo_warm_hits", 0) == STATS.snapshot().get("algo_warm_hits", 0)

    def test_asymmetric_delta_falls_back_cold(self):
        """A directed write breaks the undirected rules' precondition:
        the entries must drop and the next call recomputes — exactly."""
        ctx = _ctx()
        m = self._warm_graph(ctx)
        triangle_count(m)
        connected_components(m)
        m.update_batch([2], [13], [1.0])      # one direction only
        tc = triangle_count(m)
        with config.option("ENGINE_DELTA", 0):
            oracle = Matrix.from_data(m._capture(), ctx)
            assert tc == triangle_count(oracle)


# ---------------------------------------------------------------------------
# Warm fixpoints across random delta schedules (the core parity property)
# ---------------------------------------------------------------------------

class TestWarmAlgorithmParity:
    @SETTINGS
    @given(sym_graph_and_deltas())
    def test_incremental_equals_cold(self, case):
        base, deltas = case
        ctx = _ctx()
        m = Matrix.new(T.FP64, N, N, ctx)
        r, c, v = _sym_arrays(base)
        m.build(r, c, v, dup=SECOND[T.FP64])
        m.wait()
        # Prime the warm blocks, then stream the schedule through.
        pagerank(m, tol=1e-5)
        triangle_count(m)
        connected_components(m)
        for d in deltas:
            m.update_batch(*_sym_arrays(d))
        pr, _ = pagerank(m, tol=1e-5)
        tc = triangle_count(m)
        cc = connected_components(m)
        with config.option("ENGINE_DELTA", 0):
            oracle = Matrix.from_data(m._capture(), ctx)
            pr_c, _ = pagerank(oracle, tol=1e-5)
            tc_c = triangle_count(oracle)
            cc_c = connected_components(oracle)
        warm, cold = pr.to_dict(), pr_c.to_dict()
        assert set(warm) == set(cold)
        assert all(warm[k] == pytest.approx(cold[k], abs=5e-5) for k in warm)
        assert tc == tc_c
        assert cc.to_dict() == cc_c.to_dict()


# ---------------------------------------------------------------------------
# Serving: ingest buffering, journal coalescing, view patching
# ---------------------------------------------------------------------------

class TestServiceIngest:
    def _service(self, tmp_path=None):
        from repro.serve.service import GraphService

        svc = GraphService(
            Mode.NONBLOCKING, name="svc-stream",
            checkpoint_dir=str(tmp_path) if tmp_path else None,
        )
        pairs = [(i, i + 1) for i in range(12)] + [(0, 6), (3, 10)]
        r, c, v = _sym_arrays(pairs)
        m = Matrix.new(T.FP64, N, N, svc.root)
        m.build(r, c, v, dup=SECOND[T.FP64])
        svc.register_graph("g", m)
        return svc

    def test_buffer_and_explicit_flush(self):
        svc = self._service()
        try:
            ack = svc.ingest_edges("g", [1], [7], [1.0])
            assert ack == {"name": "g", "accepted": 1, "pending": 1,
                           "durable": False}
            before_gen = svc.graph_generation("g")
            assert svc.flush_ingest() == {"g": 1}
            assert svc.graph_generation("g") == before_gen + 1
            assert svc.flush_ingest() == {}       # idempotent
        finally:
            svc.close()

    def test_auto_flush_at_batch_limit(self):
        svc = self._service()
        try:
            with config.option("INGEST_BATCH", 3):
                before = STATS.snapshot().get("ingest_batches", 0)
                acks = [svc.ingest_edges("g", [i], [i + 2], [1.0])
                        for i in range(3)]
                assert [a["durable"] for a in acks] == [False, False, True]
                assert STATS.snapshot().get("ingest_batches", 0) == before + 1
        finally:
            svc.close()

    def test_flush_is_one_journal_record(self, tmp_path):
        svc = self._service(tmp_path)
        try:
            before = STATS.snapshot().get("journal_appends", 0)
            for i in range(8):
                svc.ingest_edges("g", [i], [i + 4], [float(i)])
            svc.flush_ingest()
            assert STATS.snapshot().get("journal_appends", 0) == before + 1
        finally:
            svc.close()

    def test_mutate_flushes_buffered_ingest_first(self):
        """Write order: buffered edges land before the mutation, so a
        mutate of the same key wins."""
        svc = self._service()
        try:
            svc.ingest_edges("g", [2], [9], [111.0])
            svc.mutate_graph("g", [2], [9], [222.0])
            carrier = svc._graphs["g"]
            d = {(int(i), int(j)): float(x) for i, j, x in
                 zip(carrier.row_indices(), carrier.col_indices, carrier.values)}
            assert d[(2, 9)] == 222.0
        finally:
            svc.close()

    def test_restore_replays_flushed_ingest(self, tmp_path):
        svc = self._service(tmp_path)
        try:
            for i in range(5):
                svc.ingest_edges("g", [i], [i + 5], [float(i + 1)])
        finally:
            svc.close()       # close flushes — accepted edges are durable
        from repro.serve.service import GraphService

        svc2 = GraphService.restore(str(tmp_path), name="svc-replay")
        try:
            carrier = svc2._graphs["g"]
            d = {(int(i), int(j)): float(x) for i, j, x in
                 zip(carrier.row_indices(), carrier.col_indices, carrier.values)}
            for i in range(5):
                assert d[(i, i + 5)] == float(i + 1)
        finally:
            svc2.close()

    def test_view_patched_in_place(self, delta_on):
        svc = self._service()
        try:
            sess = svc.open_session("tenant-a")
            v1 = sess.view("g")
            pagerank(v1, tol=1e-4)
            before = STATS.snapshot().get("serve_views_patched", 0)
            svc.mutate_graph("g", *_sym_arrays([(4, 13)]))
            v2 = sess.view("g")
            assert v2 is v1                      # same object, same uid
            assert STATS.snapshot().get("serve_views_patched", 0) == before + 1
            # and the patched view serves the new value
            d = mat_to_dict(v2)
            assert (4, 13) in d and (13, 4) in d
        finally:
            svc.close()

    def test_view_refetches_with_delta_off(self):
        svc = self._service()
        try:
            with config.option("ENGINE_DELTA", 0):
                sess = svc.open_session("tenant-b")
                v1 = sess.view("g")
                svc.mutate_graph("g", *_sym_arrays([(4, 13)]))
                v2 = sess.view("g")
                assert v2 is not v1
                d = mat_to_dict(v2)
                assert (4, 13) in d
        finally:
            svc.close()

    def test_ingest_validates_on_admission(self):
        svc = self._service()
        try:
            with pytest.raises(Exception):
                svc.ingest_edges("g", [N + 3], [0], [1.0])
            with pytest.raises(InvalidValueError):
                svc.ingest_edges("missing", [0], [0], [1.0])
            assert svc.flush_ingest() == {}       # nothing buffered
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# Chaos: transient faults during the delta path never corrupt state
# ---------------------------------------------------------------------------

class TestStreamingUnderChaos:
    def test_update_batch_and_warm_queries_exact_under_chaos(self, delta_on):
        ctx = _ctx()
        pairs = [(i, i + 1) for i in range(10)] + [(0, 5)]
        m = Matrix.new(T.FP64, N, N, ctx)
        r, c, v = _sym_arrays(pairs)
        m.build(r, c, v, dup=SECOND[T.FP64])
        m.wait()
        pagerank(m, tol=1e-4)
        triangle_count(m)
        enable_chaos(99, rate=0.25)
        try:
            for k in range(4):
                m.update_batch(*_sym_arrays([(k, k + 7)]))
            pr, _ = pagerank(m, tol=1e-4)
            tc = triangle_count(m)
        finally:
            PLANE.disable()
        with config.option("ENGINE_DELTA", 0):
            oracle = Matrix.from_data(m._capture(), ctx)
            pr_c, _ = pagerank(oracle, tol=1e-4)
            assert tc == triangle_count(oracle)
        warm, cold = pr.to_dict(), pr_c.to_dict()
        assert set(warm) == set(cold)
        assert all(warm[k] == pytest.approx(cold[k], abs=5e-4) for k in warm)
