"""The multi-tenant serving layer (:mod:`repro.serve`).

Battery structure:

* resource-spec split of :class:`Context` (memo quota, fault domain);
* service/session basics (resident graphs, zero-copy views, lifecycle);
* tenant isolation — free, memo pressure, and degradation in one
  tenant never perturb a sibling's results or memo entries;
* admission-control rejection semantics (typed, transient, immediate);
* batcher grouping + parity of coalesced execution vs serial per-query
  dispatch;
* a chaos property: seeded faults targeted at one tenant's fault
  domain, fault-free oracle parity in the other;
* a thread-safety stress over concurrent sessions (satellite: guarded
  per-Context bookkeeping).
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.algorithms import bfs_levels, pagerank, triangle_count
from repro.core import binaryop as B
from repro.core import types as T
from repro.core.context import (
    DEGRADE_AFTER_FAULTS,
    Context,
    Mode,
    ResourceSpec,
)
from repro.core.errors import (
    InsufficientSpaceError,
    InvalidValueError,
)
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.sequence import wait
from repro.core.types import INT64
from repro.engine.stats import STATS
from repro.faults.plane import PLANE, FaultSpec, configure_from_env
from repro.internals import config
from repro.ops.ewise import ewise_add
from repro.ops.mxm import mxm
from repro.serve import (
    AdmissionController,
    GraphServer,
    GraphService,
    Query,
    ServiceOverloadError,
    coalesce,
)


def ring_graph(n: int = 48, chord: int = 7) -> Matrix:
    """Symmetric ring-with-chords graph: connected, deterministic."""
    rows = np.arange(n)
    r = np.concatenate([rows, (rows + 1) % n, rows, (rows + chord) % n])
    c = np.concatenate([(rows + 1) % n, rows, (rows + chord) % n, rows])
    a = Matrix.new(INT64, n, n)
    a.build(r, c, np.ones(len(r), dtype=np.int64), dup=lambda x, y: x)
    a.wait()
    return a


@pytest.fixture(autouse=True)
def serving_knobs():
    # These tests exercise the batcher and per-tenant memos directly,
    # so they pin the knobs on even under the CI ablation matrix
    # (REPRO_SERVE_BATCH=0 etc.); the knob-behavior tests flip them
    # off explicitly.
    with config.option("SERVE_BATCH", True), \
            config.option("ENGINE_ALGO_MEMO", True):
        yield
    PLANE.disable()
    configure_from_env()


@pytest.fixture
def service():
    svc = GraphService()
    svc.register_graph("g", ring_graph())
    yield svc
    svc.close()


# -- the Context split: resource spec vs session state ------------------------


class TestResourceSpec:
    def test_new_spec_keys_resolve_through_ancestors(self):
        parent = Context.new(Mode.NONBLOCKING, exec_spec={
            "memo_capacity": 9, "fault_domain": "team-a"})
        child = Context.new(Mode.NONBLOCKING, parent=parent)
        assert child.memo_capacity == 9
        assert child.fault_domain == "team-a"
        override = Context.new(
            Mode.NONBLOCKING, parent=parent,
            exec_spec={"fault_domain": "team-b"})
        assert override.fault_domain == "team-b"
        assert override.memo_capacity == 9

    def test_defaults_are_none(self):
        ctx = Context.new(Mode.NONBLOCKING)
        assert ctx.memo_capacity is None
        assert ctx.fault_domain is None

    def test_spec_validation(self):
        with pytest.raises(InvalidValueError):
            ResourceSpec({"memo_capacity": 0})
        with pytest.raises(InvalidValueError):
            ResourceSpec({"fault_domain": ""})
        with pytest.raises(InvalidValueError):
            ResourceSpec({"quota": 3})
        assert ResourceSpec({"nthreads": 2}).get("nthreads") == 2

    def test_context_accepts_resource_spec_object(self):
        spec = ResourceSpec({"nthreads": 2, "memo_capacity": 4})
        ctx = Context.new(Mode.NONBLOCKING, exec_spec=spec)
        assert ctx.nthreads == 2
        assert ctx.exec_spec() == {"nthreads": 2, "memo_capacity": 4}

    def test_memo_capacity_bounds_the_context_memo(self):
        ctx = Context.new(Mode.NONBLOCKING, exec_spec={"memo_capacity": 3})
        assert ctx.result_memo().capacity == 3
        default = Context.new(Mode.NONBLOCKING)
        assert default.result_memo().capacity == \
            config.get_option("MEMO_CAPACITY")


# -- service + session basics -------------------------------------------------


class TestService:
    def test_register_and_views_share_the_carrier(self, service):
        meta = service.graphs()["g"]
        assert meta["nrows"] == 48
        s = service.open_session("t", memo_capacity=4)
        view = s.view("g")
        assert view.context is s.ctx
        assert view._data is service._graphs["g"]  # zero-copy
        assert s.ctx.fault_domain == "t"
        assert s.ctx.memo_capacity == 4

    def test_resident_snapshot_survives_later_writes(self, service):
        a = ring_graph(8, 3)
        service.register_graph("snap", a)
        before = service.graphs()["snap"]["nvals"]
        a.set_element(1, 0, 4)  # write AFTER registration
        a.wait()
        assert service.graphs()["snap"]["nvals"] == before

    def test_unknown_graph_rejected(self, service):
        s = service.open_session("t")
        with pytest.raises(InvalidValueError):
            service.execute(s, Query.make("triangles", "nope"))

    def test_duplicate_tenant_rejected(self, service):
        service.open_session("t")
        with pytest.raises(InvalidValueError):
            service.open_session("t")

    def test_close_frees_the_tenant_context(self, service):
        s = service.open_session("t")
        ctx = s.ctx
        s.close()
        assert ctx.is_freed
        assert "t" not in service.sessions()
        # The tenant name is reusable after close.
        service.open_session("t")

    def test_query_validation(self):
        with pytest.raises(InvalidValueError):
            Query.make("bfs", "g")               # bfs needs a source
        with pytest.raises(InvalidValueError):
            Query.make("triangles", "g", 3)      # triangles takes none
        with pytest.raises(InvalidValueError):
            Query.make("sssp", "g")              # unknown kind

    def test_single_query_parity_and_plain_data(self, service):
        a = ring_graph()
        s = service.open_session("t")
        res = service.execute(s, Query.make("bfs", "g", 5))
        oracle = {int(k): int(v) for k, v in
                  bfs_levels(a, 5).to_dict().items()}
        assert res.value == oracle
        assert all(type(k) is int and type(v) is int
                   for k, v in res.value.items())
        tri = service.execute(s, Query.make("triangles", "g"))
        assert tri.value == int(triangle_count(a))
        pr = service.execute(s, Query.make("pagerank", "g", tol=1e-7))
        ranks, _ = pagerank(a, tol=1e-7)
        want = {int(k): float(v) for k, v in ranks.to_dict().items()}
        assert pr.value["ranks"] == pytest.approx(want)


# -- tenant isolation ---------------------------------------------------------


class TestTenantIsolation:
    def test_free_of_one_tenant_leaves_sibling_serving(self, service):
        a_sess = service.open_session("a")
        b_sess = service.open_session("b")
        service.execute(b_sess, Query.make("bfs", "g", 0))
        before = b_sess.stats()["memo_entries"]
        a_sess.close()
        assert b_sess.stats()["memo_entries"] == before
        res = service.execute(b_sess, Query.make("bfs", "g", 1))
        oracle = {int(k): int(v) for k, v in
                  bfs_levels(ring_graph(), 1).to_dict().items()}
        assert res.value == oracle

    def test_memo_pressure_in_one_tenant_spares_the_sibling(self, service):
        a_sess = service.open_session("a", memo_capacity=2)
        b_sess = service.open_session("b", memo_capacity=16)
        service.execute(b_sess, Query.make("triangles", "g"))
        b_entries = b_sess.stats()["memo_entries"]
        assert b_entries > 0
        # Thrash tenant a's tiny memo with distinct queries.
        for src in range(6):
            service.execute(a_sess, Query.make("bfs", "g", src))
        assert len(a_sess.ctx.result_memo()) <= 2
        assert b_sess.stats()["memo_entries"] == b_entries

    def test_block_memo_hits_roll_up_to_the_tenant(self, service):
        """Repeated queries on one session are served from the session's
        block memo, and the tenant rollup counts every hit: the first
        ``triangles`` builds its degree vector over the pattern it just
        stored (one hit), each later one hits the wedge block."""
        s = service.open_session("t")
        other = service.open_session("u")
        n = 4
        before = STATS.snapshot()["algo_memo_hits"]
        for _ in range(n):
            service.execute(s, Query.make("triangles", "g"))
        assert s.stats()["algo_memo_hits"] == n
        assert STATS.snapshot()["algo_memo_hits"] - before == n
        assert other.stats()["algo_memo_hits"] == 0

    def test_degradation_is_tenant_local(self, service):
        a_sess = service.open_session("a", nthreads=4)
        b_sess = service.open_session("b", nthreads=4)
        threshold = DEGRADE_AFTER_FAULTS
        for _ in range(threshold):
            a_sess.ctx.record_worker_fault()
        assert a_sess.is_degraded
        assert not b_sess.is_degraded
        assert b_sess.ctx.nthreads == 4
        # Both still answer correctly; a's queries just run serial.
        oracle = {int(k): int(v) for k, v in
                  bfs_levels(ring_graph(), 2).to_dict().items()}
        assert service.execute(
            a_sess, Query.make("bfs", "g", 2)).value == oracle
        assert service.execute(
            b_sess, Query.make("bfs", "g", 2)).value == oracle
        assert a_sess.stats()["worker_faults"] == threshold
        assert b_sess.stats()["worker_faults"] == 0

    def test_per_tenant_stats_rollup(self, service):
        busy = service.open_session("busy")
        idle = service.open_session("idle")
        service.execute(busy, Query.make("triangles", "g"))
        busy_snap = busy.stats()
        idle_snap = idle.stats()
        assert busy_snap["kernels"] > 0
        assert busy_snap["kernel_time_ms"] > 0
        assert busy_snap["queries_completed"] == 1
        assert idle_snap["kernels"] == 0
        assert idle_snap["queries_completed"] == 0
        # The rollup also surfaces through Context.engine_stats().
        snap = busy.ctx.engine_stats()
        assert snap["tenant"]["kernels"] == busy_snap["kernels"]
        assert snap["fault_domain"] == "busy"


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_tenant_cap_and_queue_full(self):
        adm = AdmissionController(max_pending=3, per_tenant=2)
        adm.try_admit("a")
        adm.try_admit("a")
        with pytest.raises(ServiceOverloadError) as exc_info:
            adm.try_admit("a")
        assert exc_info.value.reason == "tenant-cap"
        adm.try_admit("b")
        with pytest.raises(ServiceOverloadError) as exc_info:
            adm.try_admit("c")
        assert exc_info.value.reason == "queue-full"
        adm.release("a")
        adm.try_admit("c")  # slot freed
        snap = adm.snapshot()
        assert snap["rejected_total"] == 2
        assert snap["rejected_by_tenant"] == {"a": 1, "c": 1}

    def test_rejection_is_typed_and_transient(self):
        adm = AdmissionController(max_pending=1, per_tenant=1)
        adm.try_admit("a")
        with pytest.raises(InsufficientSpaceError) as exc_info:
            adm.try_admit("b")
        assert exc_info.value.transient is True
        assert isinstance(exc_info.value, ServiceOverloadError)

    def test_server_sheds_under_flood_then_recovers(self, service):
        s = service.open_session("t")
        base = STATS.snapshot()

        async def flood():
            async with GraphServer(
                service, max_pending=32, per_tenant=3, batch_window=4,
            ) as server:
                jobs = [
                    server.submit(s, Query.make("bfs", "g", i))
                    for i in range(10)
                ]
                results = await asyncio.gather(*jobs,
                                               return_exceptions=True)
                # After the flood drains, the tenant is admitted again.
                retry = await server.submit(s, Query.make("bfs", "g", 0))
                return results, retry

        results, retry = asyncio.run(flood())
        shed = [r for r in results if isinstance(r, ServiceOverloadError)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert len(shed) + len(served) == 10
        assert shed, "flood above the tenant cap must shed"
        assert all(r.reason == "tenant-cap" for r in shed)
        oracle = {int(k): int(v) for k, v in
                  bfs_levels(ring_graph(), 0).to_dict().items()}
        assert retry.value == oracle
        snap = STATS.snapshot()
        assert snap["serve_rejected"] - base["serve_rejected"] == len(shed)
        assert snap["serve_completed"] - base["serve_completed"] \
            >= len(served)


# -- the batcher --------------------------------------------------------------


class TestBatcher:
    def _entries(self, service):
        a_sess = service.open_session("a")
        b_sess = service.open_session("b")
        return a_sess, b_sess, [
            (a_sess, Query.make("bfs", "g", 0)),
            (b_sess, Query.make("bfs", "g", 7)),
            (a_sess, Query.make("triangles", "g")),
            (b_sess, Query.make("triangles", "g")),
            (a_sess, Query.make("pagerank", "g", tol=1e-4)),
        ]

    def test_grouping(self, service):
        _, _, entries = self._entries(service)
        base = STATS.snapshot()
        groups = coalesce(entries)
        modes = sorted(g.mode for g in groups)
        assert modes == ["dedup", "msbfs", "single"]
        by_mode = {g.mode: g for g in groups}
        assert len(by_mode["msbfs"].entries) == 2
        assert len(by_mode["dedup"].entries) == 2
        snap = STATS.snapshot()
        assert snap["serve_batches"] - base["serve_batches"] == 2
        assert snap["serve_batched_queries"] \
            - base["serve_batched_queries"] == 4

    def test_knob_disables_coalescing(self, service):
        _, _, entries = self._entries(service)
        base = STATS.snapshot()["serve_batches"]
        with config.option("SERVE_BATCH", False):
            groups = coalesce(entries)
        assert all(g.mode == "single" for g in groups)
        assert STATS.snapshot()["serve_batches"] == base

    def test_degraded_tenant_excluded_from_shared_groups(self, service):
        a_sess, _, entries = self._entries(service)
        for _ in range(DEGRADE_AFTER_FAULTS):
            a_sess.ctx.record_worker_fault()
        groups = coalesce(entries)
        for g in groups:
            if len(g.entries) > 1:
                assert all(s is not a_sess for _, s, _ in g.entries)

    def test_batched_parity_vs_serial(self, service):
        a = ring_graph()
        a_sess, b_sess, entries = self._entries(service)
        results = service.execute_window(entries)
        assert not any(isinstance(r, Exception) for r in results)
        # Riders of shared groups are marked; answers match serial.
        assert results[0].batched and results[1].batched
        assert results[2].batched and results[3].batched
        assert not results[4].batched
        for res, (_, query) in zip(results[:2], entries[:2]):
            oracle = {int(k): int(v) for k, v in
                      bfs_levels(a, query.source).to_dict().items()}
            assert res.value == oracle
        assert results[2].value == results[3].value == int(triangle_count(a))
        serial = b_sess.run(Query.make("pagerank", "g", tol=1e-4))
        assert results[4].value["ranks"] == \
            pytest.approx(serial.value["ranks"])
        # Tenant rollups saw the batched completions.
        assert a_sess.stats()["queries_batched"] == 2
        assert b_sess.stats()["queries_batched"] == 2

    def test_window_falls_back_per_query_on_missing_graph(self, service):
        a_sess = service.open_session("a")
        b_sess = service.open_session("b")
        entries = [
            (a_sess, Query.make("bfs", "gone", 0)),
            (b_sess, Query.make("bfs", "gone", 1)),
            (b_sess, Query.make("triangles", "g")),
        ]
        results = service.execute_window(entries)
        assert isinstance(results[0], InvalidValueError)
        assert isinstance(results[1], InvalidValueError)
        assert results[2].value == int(triangle_count(ring_graph()))

    def test_server_batches_concurrent_load(self, service):
        a = ring_graph()
        sessions = [service.open_session(f"t{i}") for i in range(3)]

        async def load():
            async with GraphServer(service, batch_window=8) as server:
                jobs = [
                    server.submit(sessions[i % 3], Query.make("bfs", "g", i))
                    for i in range(9)
                ]
                return await asyncio.gather(*jobs)

        results = asyncio.run(load())
        for i, res in enumerate(results):
            oracle = {int(k): int(v) for k, v in
                      bfs_levels(a, i).to_dict().items()}
            assert res.value == oracle
            assert res.total_ms >= res.latency_ms >= 0.0
        assert any(r.batched for r in results)
        assert STATS.snapshot()["serve_batches"] >= 1


# -- chaos: faults scoped to one tenant's domain ------------------------------


@pytest.fixture
def small_blocks(monkeypatch):
    """One product per block, so even a 4×4 mxm runs several blocks on
    its context's worker pool (where ``parallel.worker`` faults land)."""
    from repro.internals import mxm as kernels

    monkeypatch.setattr(kernels, "BLOCK_PRODUCTS", 1)


def diamond(ctx):
    """Two mxm chains joined by an eWise add: two threaded block batches
    per forcing on a context with ``nthreads > 1``."""
    def _mat(d):
        m = Matrix.new(T.FP64, 4, 4, ctx)
        r, c = zip(*d)
        m.build(np.array(r), np.array(c), np.array(list(d.values())))
        return m

    a = _mat({(0, 1): 2.0, (1, 2): 3.0, (2, 0): 4.0, (3, 3): 1.0})
    b = _mat({(0, 0): 1.0, (1, 1): 2.0, (2, 3): 3.0})
    c = Matrix.new(T.FP64, 4, 4, ctx)
    d = Matrix.new(T.FP64, 4, 4, ctx)
    e = Matrix.new(T.FP64, 4, 4, ctx)
    pt = PLUS_TIMES_SEMIRING[T.FP64]
    mxm(c, None, None, pt, a, a)
    mxm(d, None, None, pt, b, b)
    ewise_add(e, None, None, B.PLUS[T.FP64], c, d)
    wait(e)
    return e.to_dict()


@pytest.mark.usefixtures("small_blocks")
class TestServingChaos:
    def test_targeted_faults_respect_the_domain_boundary(self, service):
        chaos = service.open_session("chaos", nthreads=4)
        calm = service.open_session("calm", nthreads=4)
        oracle = diamond(Context.new(Mode.NONBLOCKING))
        PLANE.configure(seed=7, specs=[
            FaultSpec(site="parallel.worker", rate=1.0, max_hits=1,
                      where={"domain": "chaos"}),
        ])
        try:
            # Both tenants run the same parallel program under targeted
            # chaos; answers stay exact either way.
            assert diamond(chaos.ctx) == oracle
            assert diamond(calm.ctx) == oracle
            snap = PLANE.snapshot()
        finally:
            PLANE.disable()
        # Every injection landed in the chaos tenant's domain.
        assert snap["injected_total"] >= 1
        assert snap["by_domain"].get("chaos", 0) == snap["injected_total"]
        assert "calm" not in snap["by_domain"]
        assert chaos.stats()["worker_faults"] == snap["injected_total"]
        assert calm.stats()["worker_faults"] == 0
        assert not calm.is_degraded

    def test_crashed_tenant_degrades_alone_and_keeps_serving(self, service):
        chaos = service.open_session("chaos", nthreads=4)
        calm = service.open_session("calm", nthreads=4)
        oracle = diamond(Context.new(Mode.NONBLOCKING))
        PLANE.configure(seed=11, specs=[
            FaultSpec(site="parallel.worker", rate=1.0,
                      where={"domain": "chaos"}),
        ])
        try:
            for _ in range(DEGRADE_AFTER_FAULTS + 1):
                assert diamond(chaos.ctx) == oracle
        finally:
            PLANE.disable()
        assert chaos.is_degraded, "persistent targeted faults must degrade"
        assert not calm.is_degraded
        # The degraded tenant is still serving (serially), still exact;
        # the sibling keeps its parallel share.
        want = {int(k): int(v) for k, v in
                bfs_levels(ring_graph(), 9).to_dict().items()}
        assert service.execute(chaos, Query.make("bfs", "g", 9)).value \
            == want
        assert service.execute(calm, Query.make("bfs", "g", 9)).value \
            == want
        assert chaos.stats()["degraded"] and not calm.stats()["degraded"]


# -- thread safety under concurrent sessions ----------------------------------


class TestConcurrentSessions:
    def test_stress_many_tenants_in_parallel(self, service):
        """Satellite regression: per-Context bookkeeping (stats rollup,
        memo, latency record) must stay consistent under concurrent
        sessions hammering the service from their own threads."""
        a = ring_graph()
        oracles = {
            src: {int(k): int(v) for k, v in
                  bfs_levels(a, src).to_dict().items()}
            for src in range(8)
        }
        tri = int(triangle_count(a))
        n_tenants, per_tenant = 4, 10
        sessions = [
            service.open_session(f"t{i}", nthreads=2, memo_capacity=8)
            for i in range(n_tenants)
        ]
        errors: list = []

        def tenant_load(idx: int) -> None:
            sess = sessions[idx]
            try:
                for j in range(per_tenant):
                    if j % 3 == 2:
                        res = service.execute(
                            sess, Query.make("triangles", "g"))
                        assert res.value == tri
                    else:
                        src = (idx * 3 + j) % 8
                        res = service.execute(
                            sess, Query.make("bfs", "g", src))
                        assert res.value == oracles[src]
                    # Concurrent introspection must not corrupt state.
                    sess.stats()
                    sess.ctx.engine_stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant_load, args=(i,))
            for i in range(n_tenants)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for sess in sessions:
            snap = sess.stats()
            assert snap["queries_completed"] == per_tenant
            assert snap["queries_recorded"] == per_tenant
            assert snap["kernels"] > 0
        total = sum(s.stats()["queries_completed"] for s in sessions)
        assert total == n_tenants * per_tenant
