"""The durability & recovery plane (:mod:`repro.serve.recovery` et al.).

Battery structure:

* journal framing — pack/iter round trip, torn-tail tolerance, strict
  rejection of corruption;
* ``apply_edges`` — idempotent last-write-wins upsert semantics (the
  property journal replay's exactness rests on);
* checkpoint/restore — snapshot + journal replay reproduces the live
  service's carriers bit for bit, warm blocks and calibration ride
  along;
* the hard-kill chaos harness — a Hypothesis property that crash-kills
  the service at *every* kernel / commit / journal / checkpoint
  boundary in turn and asserts the restored replica matches a
  never-crashed oracle with zero lost acknowledged mutations;
* query deadlines — expired queries stop within one kernel boundary
  with the transient ``GrB_TIMEOUT``, carriers stay last-committed,
  the admission slot frees immediately;
* per-tenant circuit breakers — trip, typed transient shed, half-open
  probe, recovery restoring the context;
* server shutdown — bounded drain, typed rejection, no leaked tasks.
"""

import asyncio
import contextlib
import json
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.context import DEGRADE_AFTER_FAULTS
from repro.core.errors import (
    IndexOutOfBoundsError,
    InvalidObjectError,
    TimeoutExpiredError,
)
from repro.core.info import Info
from repro.core.matrix import Matrix
from repro.core.types import FP64, INT64
from repro.engine import cancel
from repro.engine.stats import STATS
from repro.faults.plane import PLANE, FaultSpec, SimulatedCrash
from repro.internals import config
from repro.serve import (
    GraphServer,
    GraphService,
    Query,
    ServiceShutdownError,
    TenantBreakerOpenError,
)
from repro.serve.recovery import (
    OP_MUTATE,
    apply_edges,
    iter_records,
    pack_record,
)


def ring(n: int = 32, chord: int = 5, t=INT64) -> Matrix:
    rows = np.arange(n)
    r = np.concatenate([rows, (rows + chord) % n])
    c = np.concatenate([(rows + 1) % n, rows])
    a = Matrix.new(t, n, n)
    a.build(r, c, np.ones(len(r), dtype=t.np_dtype), dup=lambda x, y: x)
    a.wait()
    return a


def carrier_tuples(d):
    return d.row_indices(), d.col_indices, d.values


def assert_carriers_equal(a, b):
    assert a.nrows == b.nrows and a.ncols == b.ncols
    ra, ca, va = carrier_tuples(a)
    rb, cb, vb = carrier_tuples(b)
    np.testing.assert_array_equal(ra, rb)
    np.testing.assert_array_equal(ca, cb)
    np.testing.assert_array_equal(va, vb)


@contextlib.contextmanager
def _block_memo_on():
    """Pin the algorithm-block memo *and* the result memo it rides on:
    the CI ablation rows export each off, and the warm-block tests are
    about what happens when blocks exist."""
    with config.option("ENGINE_ALGO_MEMO", True), \
            config.option("ENGINE_MEMO", True):
        yield


def _cold_answer(carrier, query):
    """What a service that has only ever seen *carrier* answers."""
    cold = GraphService()
    try:
        cold.register_graph("g", Matrix.from_data(carrier))
        return cold.open_session("t").run(query).value
    finally:
        cold.close()


@pytest.fixture(autouse=True)
def _clean_plane():
    yield
    PLANE.disable()


# ---------------------------------------------------------------------------
# Journal framing
# ---------------------------------------------------------------------------

class TestJournalFraming:
    def test_round_trip(self):
        recs = [
            pack_record(OP_MUTATE, {"graph": "g", "seq": i}, bytes([i] * i))
            for i in range(1, 5)
        ]
        out = list(iter_records(b"".join(recs)))
        assert [h["seq"] for _, h, _ in out] == [1, 2, 3, 4]
        assert [b for _, _, b in out] == [bytes([i] * i) for i in range(1, 5)]

    def test_torn_tail_stops_replay(self):
        a = pack_record(OP_MUTATE, {"seq": 1}, b"x" * 8)
        b = pack_record(OP_MUTATE, {"seq": 2}, b"y" * 8)
        torn = a + b[: len(b) - 3]
        out = list(iter_records(torn))
        assert [h["seq"] for _, h, _ in out] == [1]

    def test_strict_raises_on_corruption(self):
        blob = bytearray(pack_record(OP_MUTATE, {"seq": 1}, b"z" * 16))
        blob[len(blob) - 4] ^= 0xFF
        with pytest.raises(InvalidObjectError):
            list(iter_records(bytes(blob), strict=True))

    def test_mid_stream_corruption_tolerant_stop(self):
        a = pack_record(OP_MUTATE, {"seq": 1}, b"x")
        b = bytearray(pack_record(OP_MUTATE, {"seq": 2}, b"y"))
        b[10] ^= 0x40
        c = pack_record(OP_MUTATE, {"seq": 3}, b"z")
        out = list(iter_records(a + bytes(b) + c))
        # Replay stops at the first bad frame: record 3 was written
        # after it, which cannot happen for an append-only journal's
        # acked prefix — treating it as tail-garbage is the safe read.
        assert [h["seq"] for _, h, _ in out] == [1]


# ---------------------------------------------------------------------------
# apply_edges
# ---------------------------------------------------------------------------

class TestApplyEdges:
    def test_upsert_and_last_write_wins(self):
        base = ring(8, 3, FP64)._capture()
        out = apply_edges(base, [0, 0, 2], [5, 5, 2], [1.0, 9.0, 4.0])
        r, c, v = carrier_tuples(out)
        d = {(int(i), int(j)): float(x) for i, j, x in zip(r, c, v)}
        assert d[(0, 5)] == 9.0          # within-batch last write wins
        assert d[(2, 2)] == 4.0
        # existing edge overwritten, not duplicated
        out2 = apply_edges(out, [0], [1], [7.0])
        assert out2.nvals == out.nvals
        d2 = {(int(i), int(j)): float(x)
              for i, j, x in zip(*carrier_tuples(out2))}
        assert d2[(0, 1)] == 7.0

    def test_replay_is_idempotent_per_batch(self):
        base = ring(8, 3, FP64)._capture()
        once = apply_edges(base, [1, 2], [3, 4], [5.0, 6.0])
        twice = apply_edges(once, [1, 2], [3, 4], [5.0, 6.0])
        assert_carriers_equal(once, twice)

    def test_bounds_checked(self):
        base = ring(8, 3, FP64)._capture()
        with pytest.raises(IndexOutOfBoundsError):
            apply_edges(base, [8], [0], [1.0])


# ---------------------------------------------------------------------------
# Checkpoint / restore
# ---------------------------------------------------------------------------

class TestCheckpointRestore:
    def test_snapshot_plus_journal_round_trip(self, tmp_path):
        svc = GraphService(checkpoint_dir=str(tmp_path))
        svc.register_graph("g", ring(24, 5, FP64))
        svc.register_graph("h", ring(12, 3, FP64))
        svc.mutate_graph("g", [0, 1], [7, 8], [2.0, 3.0])
        svc.checkpoint()                       # folds journal into snapshot
        svc.mutate_graph("g", [2], [9], [4.0])  # lives only in the journal
        expect_g = svc._graphs["g"]
        expect_h = svc._graphs["h"]
        svc.close()

        restored = GraphService.restore(str(tmp_path))
        assert set(restored.graphs()) == {"g", "h"}
        assert_carriers_equal(restored._graphs["g"], expect_g)
        assert_carriers_equal(restored._graphs["h"], expect_h)
        s = restored.open_session("t")
        out = s.run(Query.make("bfs", "g", source=0))
        assert out.value[0] == 0
        restored.close()

    def test_restore_without_checkpoint_replays_registrations(self, tmp_path):
        svc = GraphService(checkpoint_dir=str(tmp_path))
        svc.register_graph("g", ring(16, 3, FP64))
        svc.mutate_graph("g", [5], [1], [9.0])
        expect = svc._graphs["g"]
        svc.close()                             # never checkpointed
        restored = GraphService.restore(str(tmp_path))
        assert_carriers_equal(restored._graphs["g"], expect)
        restored.close()

    def test_warm_blocks_and_calibration_rehydrate(self, tmp_path):
        with _block_memo_on():
            svc = GraphService(checkpoint_dir=str(tmp_path))
            svc.register_graph("g", ring(24, 5))
            s = svc.open_session("t")
            s.run(Query.make("pagerank", "g"))   # builds memo blocks
            man = svc.checkpoint()
            assert len(man["blocks"]) > 0
            svc.close()

            before = STATS.snapshot()["algo_memo_hits"]
            restored = GraphService.restore(str(tmp_path))
            assert STATS.snapshot()["restored_blocks"] > 0
            s2 = restored.open_session("t")
            s2.run(Query.make("pagerank", "g"))
            after = STATS.snapshot()["algo_memo_hits"]
            assert after > before  # restored blocks served the cold query
            restored.close()

    def test_parent_manifest_with_calibration_key_restores(self, tmp_path):
        """A manifest written before the cost model's rates stopped
        being persisted carries a ``calibration`` key: ignored."""
        with _block_memo_on():
            svc = GraphService(checkpoint_dir=str(tmp_path))
            svc.register_graph("g", ring(24, 5))
            want = svc.open_session("t").run(Query.make("pagerank", "g"))
            man = svc.checkpoint()
            path = svc._store.manifest_path
            svc.close()
            path.write_text(json.dumps({**man, "calibration": {
                "product_ms": 5e-06, "stage_ms": 1e-06}}))

            STATS.reset()
            restored = GraphService.restore(str(tmp_path))
            got = restored.open_session("t").run(Query.make("pagerank", "g"))
            assert np.array_equal(got.value, want.value)
            assert STATS.snapshot()["restored_blocks"] == len(man["blocks"])
            assert not [ev["name"] for ev in STATS.trace_events()
                        if "calibration" in ev["name"]]
            restored.close()

    def test_replay_reaches_restored_blocks(self, tmp_path):
        """Checkpoint, then pattern-changing writes, then a crash: the
        checkpointed blocks describe the snapshot, the journal moves the
        graph on.  Replay must patch or drop them — a stale ``pattern``
        block made the first pagerank after restore answer for a graph
        that no longer existed (PR 11 finding 2, off by 0.28 L1)."""
        with _block_memo_on():
            svc = GraphService(checkpoint_dir=str(tmp_path))
            svc.register_graph("g", ring(24, 5, FP64))
            s = svc.open_session("t")
            s.run(Query.make("pagerank", "g"))   # builds memo blocks
            assert len(svc.checkpoint()["blocks"]) > 0
            # New edges into and out of vertex 0: ranks move visibly.
            hub = np.arange(1, 24)
            svc.mutate_graph(
                "g", np.concatenate([hub, np.zeros(23, dtype=np.int64)]),
                np.concatenate([np.zeros(23, dtype=np.int64), hub]),
                np.ones(46),
            )
            final = svc._graphs["g"]
            # No close(): the process dies here, the journal is all
            # there is.

            restored = GraphService.restore(str(tmp_path))
            assert_carriers_equal(restored._graphs["g"], final)
            got = restored.open_session("t").run(
                Query.make("pagerank", "g")).value["ranks"]
            restored.close()
            svc.close()

            want = _cold_answer(final, Query.make("pagerank", "g"))["ranks"]
        assert sum(abs(got[k] - want[k]) for k in want) < 1e-6

    def test_writes_after_restore_reach_restored_blocks(self, tmp_path):
        """Same staleness on the live side: a tenant that opens its
        first view *after* a post-restore write must not be seeded with
        blocks of the pre-write graph."""
        with _block_memo_on():
            svc = GraphService(checkpoint_dir=str(tmp_path))
            svc.register_graph("g", ring(24, 5, FP64))
            svc.open_session("t").run(Query.make("pagerank", "g"))
            svc.checkpoint()
            svc.close()

            restored = GraphService.restore(str(tmp_path))
            hub = np.arange(1, 24)
            restored.mutate_graph(
                "g", hub, np.zeros(23, dtype=np.int64), np.ones(23))
            final = restored._graphs["g"]
            got = restored.open_session("late").run(
                Query.make("pagerank", "g")).value["ranks"]
            restored.close()

            want = _cold_answer(final, Query.make("pagerank", "g"))["ranks"]
        assert sum(abs(got[k] - want[k]) for k in want) < 1e-6

    def test_checkpoint_attributes_blocks_by_generation_not_id(self, tmp_path):
        """Carriers die every generation and ``id()`` values come back:
        a block built over a long-gone generation must never be
        checkpointed as the current graph's (PR 11 finding 1).  Each
        round leaves one orphaned block behind (a dropped view's memo
        entry) and publishes a new generation; the rounds stop at the
        first generation whose carrier reuses an orphan's id — the
        state the old ``id(carrier)`` attribution mistook for current."""
        from repro.algorithms._blocks import pattern_matrix
        from repro.core.types import BOOL

        with _block_memo_on():
            svc = GraphService(checkpoint_dir=str(tmp_path))
            svc.register_graph("g", ring(16, 3, FP64))
            session = svc.open_session("t", memo_capacity=4096)
            orphan_ids = set()
            for gen in range(400):
                view = svc.graph_view("g", session.ctx)
                pattern_matrix(view, BOOL).wait()
                orphan_ids.add(id(svc._graphs["g"]))
                del view
                # A new edge every round: the pattern really changes.
                svc.mutate_graph("g", [gen % 16], [(gen * 7 + 2) % 16], [1.0])
                if id(svc._graphs["g"]) in orphan_ids:
                    break
            else:
                pytest.skip("the allocator never reused a carrier id")
            final = svc._graphs["g"]
            man = svc.checkpoint()
            # Nothing was built over the current generation.
            assert man["blocks"] == []
            svc.close()

            restored = GraphService.restore(str(tmp_path))
            got = restored.open_session("t").run(
                Query.make("bfs", "g", source=0)).value
            restored.close()
            want = _cold_answer(final, Query.make("bfs", "g", source=0))
        assert got == want

    def test_mutation_durable_before_ack(self, tmp_path):
        # The WAL property, observed from outside: after mutate_graph
        # returns, a brand-new store on the same directory already
        # replays the write — durability preceded the ack.
        svc = GraphService(checkpoint_dir=str(tmp_path))
        svc.register_graph("g", ring(8, 3, FP64))
        svc.mutate_graph("g", [4], [0], [8.0])
        expect = svc._graphs["g"]
        restored = GraphService.restore(str(tmp_path))
        assert_carriers_equal(restored._graphs["g"], expect)
        restored.close()
        svc.close()


# ---------------------------------------------------------------------------
# Hard-kill chaos: crash at every boundary, recover, compare to oracle
# ---------------------------------------------------------------------------

CRASH_SITES = (
    "journal.append",
    "journal.commit",
    "checkpoint.write",
    "kernel.*",
    "txn.commit",
)

MUTATIONS = (
    ([0, 3], [5, 1], [2.0, 3.0]),
    ([2], [2], [4.0]),
    ([1, 4], [0, 4], [5.0, 6.0]),
)


class TestKillAtEveryBoundary:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        site=st.sampled_from(CRASH_SITES),
        skip=st.integers(0, 6),
        mid_checkpoint=st.booleans(),
        run_query=st.booleans(),
    )
    def test_recovery_parity(self, site, skip, mid_checkpoint, run_query):
        workdir = tempfile.mkdtemp(prefix="repro-kill-")
        base = ring(16, 3, FP64)
        base_carrier = base._capture()

        svc = GraphService(checkpoint_dir=workdir)
        acked = 0
        crashed = False
        PLANE.configure(
            11, [FaultSpec(site=site, kind="crash", rate=1.0, skip=skip)]
        )
        try:
            svc.register_graph("g", base)
            registered = True
            for i, (r, c, v) in enumerate(MUTATIONS):
                if mid_checkpoint and i == 1:
                    svc.checkpoint()
                if run_query and i == 1:
                    s = svc.open_session(f"t{i}")
                    s.run(Query.make("bfs", "g", source=0))
                svc.mutate_graph("g", r, c, v)
                acked += 1
        except SimulatedCrash:
            crashed = True
            registered = acked >= 0 and "g" in svc._graphs or False
        finally:
            PLANE.disable()
            if svc._store is not None:
                svc._store.close()

        # The never-crashed oracle: the acked prefix applied purely,
        # with an at-least-once window of exactly the one in-flight
        # mutation (journaled at the instant of the kill but not acked).
        states = [base_carrier]
        for r, c, v in MUTATIONS:
            states.append(apply_edges(states[-1], r, c, v))
        allowed = {acked}
        if crashed and acked < len(MUTATIONS):
            allowed.add(acked + 1)

        restored = GraphService.restore(workdir)
        if "g" not in restored._graphs:
            # Killed before the registration was ever journaled — there
            # was no acknowledged state to lose.
            assert crashed and acked == 0
            restored.close()
            return
        got = restored._graphs["g"]
        matched = None
        for n in sorted(allowed):
            r, c, v = carrier_tuples(states[n])
            rg, cg, vg = carrier_tuples(got)
            if (np.array_equal(r, rg) and np.array_equal(c, cg)
                    and np.array_equal(v, vg)):
                matched = n
                break
        assert matched is not None, (
            f"restored state matches no acked prefix: acked={acked} "
            f"allowed={allowed} site={site} skip={skip}"
        )
        # Query parity against a never-crashed replica of that state.
        s = restored.open_session("t")
        got_bfs = s.run(Query.make("bfs", "g", source=0)).value
        oracle_svc = GraphService(name="oracle")
        oracle_svc._publish_carrier("g", states[matched])
        os_ = oracle_svc.open_session("t")
        want_bfs = os_.run(Query.make("bfs", "g", source=0)).value
        assert got_bfs == want_bfs
        oracle_svc.close()
        restored.close()


# ---------------------------------------------------------------------------
# Deadlines & cancellation
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_expired_deadline_raises_transient_timeout(self, tmp_path):
        svc = GraphService()
        svc.register_graph("g", ring(48, 7))
        s = svc.open_session("t")
        with pytest.raises(TimeoutExpiredError) as exc:
            s.run(Query.make("pagerank", "g", deadline_ms=1e-4))
        assert exc.value.transient
        assert exc.value.info == Info.TIMEOUT
        assert s.ctx.local_stats().snapshot()["queries_timeout"] == 1
        # Carriers stay last-committed: the same session keeps serving.
        assert s.run(Query.make("triangles", "g")).value >= 0
        svc.close()

    def test_cancel_stops_within_one_kernel_boundary(self):
        svc = GraphService()
        svc.register_graph("g", ring(48, 7))
        s = svc.open_session("t")
        token = cancel.CancelToken.after_ms(None, label="t:pagerank")
        token.cancel("client abandoned")
        before = sum(STATS.snapshot()["kernel_count"].values())
        with pytest.raises(TimeoutExpiredError):
            s.run(Query.make("pagerank", "g"), token=token)
        after = sum(STATS.snapshot()["kernel_count"].values())
        # Cancelled before dispatch: not a single kernel may start.
        assert after == before
        assert STATS.snapshot()["cancel_stops"] >= 1
        svc.close()

    def test_config_default_deadline_applies(self):
        svc = GraphService()
        svc.register_graph("g", ring(48, 7))
        s = svc.open_session("t")
        with config.option("QUERY_DEADLINE_MS", 1e-4):
            with pytest.raises(TimeoutExpiredError):
                s.run(Query.make("pagerank", "g"))
        svc.close()

    def test_server_deadline_frees_slot_immediately(self):
        async def main():
            svc = GraphService()
            svc.register_graph("g", ring(48, 7))
            s = svc.open_session("t")
            server = GraphServer(svc, max_pending=2, per_tenant=2)
            async with server:
                with pytest.raises(TimeoutExpiredError):
                    await server.submit(
                        s, Query.make("pagerank", "g", deadline_ms=1e-4)
                    )
                # The slot is reusable at once: both slots free.
                snap = server.admission.snapshot()
                assert snap["pending"] == 0
                out = await server.submit(s, Query.make("triangles", "g"))
                assert out.value >= 0
            svc.close()

        asyncio.run(main())

    def test_deadline_not_part_of_dedup_key(self):
        a = Query.make("bfs", "g", source=1, deadline_ms=5.0)
        b = Query.make("bfs", "g", source=1, deadline_ms=500.0)
        assert a.dedup_key == b.dedup_key


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------

def _fail_queries(server, session, n):
    async def go():
        for _ in range(n):
            with pytest.raises(Exception):
                await server.submit(
                    session, Query.make("bfs", "missing", source=0)
                )
    return go


class TestCircuitBreakers:
    def test_full_lifecycle(self):
        async def main():
            svc = GraphService()
            svc.register_graph("g", ring(24, 5))
            s = svc.open_session("t1")
            other = svc.open_session("t2")
            with config.option("BREAKER_THRESHOLD", 3), \
                    config.option("BREAKER_COOLDOWN", 0.1):
                async with GraphServer(svc) as server:
                    await _fail_queries(server, s, 3)()
                    assert svc.health.breaker("t1").snapshot()["state"] == "open"
                    # Open: typed, transient, immediate shed.
                    with pytest.raises(TenantBreakerOpenError) as exc:
                        await server.submit(s, Query.make("triangles", "g"))
                    assert exc.value.transient
                    assert exc.value.tenant == "t1"
                    # Sibling tenant entirely unaffected.
                    out = await server.submit(
                        other, Query.make("triangles", "g")
                    )
                    assert out.value >= 0
                    # Half-open after the cooldown: one probe recovers.
                    await asyncio.sleep(0.15)
                    out = await server.submit(s, Query.make("triangles", "g"))
                    assert out.value >= 0
                    snap = svc.health.breaker("t1").snapshot()
                    assert snap["state"] == "closed"
                    assert snap["trips"] == 1 and snap["recoveries"] == 1
            svc.close()

        asyncio.run(main())

    def test_failed_probe_reopens(self):
        async def main():
            svc = GraphService()
            svc.register_graph("g", ring(24, 5))
            s = svc.open_session("t1")
            with config.option("BREAKER_THRESHOLD", 2), \
                    config.option("BREAKER_COOLDOWN", 0.05):
                async with GraphServer(svc) as server:
                    await _fail_queries(server, s, 2)()
                    await asyncio.sleep(0.08)
                    await _fail_queries(server, s, 1)()   # failing probe
                    assert svc.health.breaker("t1").snapshot()["state"] == "open"
            svc.close()

        asyncio.run(main())

    def test_recovery_restores_degraded_context(self):
        svc = GraphService()
        svc.register_graph("g", ring(24, 5))
        s = svc.open_session("t1")
        for _ in range(DEGRADE_AFTER_FAULTS):
            s.ctx.record_worker_fault()   # serial demotion, as faults do
        assert s.ctx.is_degraded
        with config.option("BREAKER_THRESHOLD", 1), \
                config.option("BREAKER_COOLDOWN", 0.01):
            with pytest.raises(Exception):
                s.run(Query.make("bfs", "missing", source=0))
            assert svc.health.breaker("t1").snapshot()["state"] == "open"
            time.sleep(0.02)
            assert svc.health.admit("t1") == "probe"
            s.run(Query.make("triangles", "g"))
        assert not s.ctx.is_degraded   # recovery undid the demotion
        svc.close()

    def test_threshold_zero_disables(self):
        svc = GraphService()
        svc.register_graph("g", ring(24, 5))
        s = svc.open_session("t1")
        with config.option("BREAKER_THRESHOLD", 0):
            for _ in range(8):
                with pytest.raises(Exception):
                    s.run(Query.make("bfs", "missing", source=0))
            assert svc.health.admit("t1") == "ok"
        svc.close()


# ---------------------------------------------------------------------------
# Server shutdown semantics
# ---------------------------------------------------------------------------

class TestShutdown:
    def test_submit_before_start_is_typed(self):
        async def main():
            svc = GraphService()
            svc.register_graph("g", ring(16, 3))
            s = svc.open_session("t")
            server = GraphServer(svc)
            with pytest.raises(ServiceShutdownError) as exc:
                await server.submit(s, Query.make("triangles", "g"))
            assert exc.value.transient
            svc.close()

        asyncio.run(main())

    def test_submit_after_stop_is_typed_and_no_tasks_leak(self):
        async def main():
            svc = GraphService()
            svc.register_graph("g", ring(16, 3))
            s = svc.open_session("t")
            server = GraphServer(svc)
            await server.start()
            out = await server.submit(s, Query.make("triangles", "g"))
            assert out.value >= 0
            await server.stop(grace=2.0)
            with pytest.raises(ServiceShutdownError):
                await server.submit(s, Query.make("triangles", "g"))
            pending = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            assert pending == []
            svc.close()

        asyncio.run(main())

    def test_stop_drains_inflight_work(self):
        async def main():
            svc = GraphService()
            svc.register_graph("g", ring(24, 5))
            s = svc.open_session("t")
            server = GraphServer(svc, batch_window=4)
            await server.start()
            futs = [
                asyncio.ensure_future(
                    server.submit(s, Query.make("bfs", "g", source=i))
                )
                for i in range(4)
            ]
            await asyncio.sleep(0)   # let submissions enqueue
            await server.stop(grace=5.0)
            done = await asyncio.gather(*futs, return_exceptions=True)
            for res in done:
                # Every future resolved: a result or a typed rejection.
                assert not isinstance(res, BaseException) or isinstance(
                    res, ServiceShutdownError
                )
            assert server.admission.snapshot()["pending"] == 0
            svc.close()

        asyncio.run(main())
