"""The persistent warm-start store (:mod:`repro.store`).

A second *process* (or a fresh Context standing in for one) computing
the same graph must find the algorithm blocks a previous run persisted
— keyed on content, not process-local identity — and the store must be
impossible to distinguish from "slower" on every failure path: corrupt
entries, injected I/O faults, eviction races, and the ablated knob all
degrade to a cold rebuild of the exact same answer.

Battery:

* cross-context warm start (zero algo-memo misses, exact parity);
* the real thing: a **subprocess** serves pagerank with zero setup
  kernels from a store its parent seeded;
* key soundness — format-policy flips and graph writes miss, ``warm:*``
  fixpoints never persist;
* LRU-by-atime eviction under ``STORE_MAX_BYTES``;
* injected ``store.read`` / ``store.write`` faults (miss / skipped
  persist, never an error);
* Hypothesis corruption fuzz over the entry envelope (bit flips,
  truncation → counted miss, quarantined file).
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import pagerank
from repro.core import types as T
from repro.core.context import Context, Mode, WaitMode
from repro.core.matrix import Matrix
from repro.engine.stats import STATS
from repro.faults import PLANE, configure_from_env
from repro.faults.plane import FaultSpec
from repro.generators import erdos_renyi
from repro.internals import config
from repro.store import WarmStore, tier

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Format-policy knobs pinned for every test: the store key embeds the
#: fingerprint, so the battery must not depend on the ambient ablation
#: row's policy.
_PINNED_FORMAT = (("FORMAT_AUTO", True),
                  ("FORMAT_DCSR_MIN_ROWS", 1 << 20),
                  ("FORMAT_DCSR_FACTOR", 16))


@pytest.fixture(autouse=True)
def store_on(tmp_path):
    """Pin the whole warm-start stack on (the suite also runs under
    ablation rows like ``REPRO_STORE_ENABLE=0``) and root the store in a fresh
    temp dir so every test starts cold on disk."""
    pins = [config.option("ENGINE_MEMO", True),
            config.option("ENGINE_ALGO_MEMO", True),
            config.option("STORE_ENABLE", True),
            config.option("STORE_DIR", str(tmp_path / "store"))]
    pins += [config.option(k, v) for k, v in _PINNED_FORMAT]
    for p in pins:
        p.__enter__()
    STATS.reset()
    yield tmp_path / "store"
    for p in reversed(pins):
        p.__exit__(None, None, None)
    PLANE.disable()
    configure_from_env()


def _graph(ctx, seed=3):
    n, rows, cols, _ = erdos_renyi(40, 0.08, seed=seed)
    keep = rows != cols
    a = Matrix.new(T.FP64, n, n, ctx)
    a.build(rows[keep], cols[keep], np.ones(int(keep.sum())))
    a.wait(WaitMode.MATERIALIZE)
    return a


def _fresh_ctx():
    return Context.new(Mode.NONBLOCKING, None, None)


# ---------------------------------------------------------------------------
# Warm start across contexts (the in-process restart proxy)
# ---------------------------------------------------------------------------


class TestWarmStart:
    def test_cold_run_persists_setup_blocks(self, store_on):
        a = _graph(_fresh_ctx())
        pagerank(a)
        snap = STATS.snapshot()
        # pattern matrix + degree vector, both admitted to disk
        assert snap["store_stores"] == 2
        assert snap["store_hits"] == 0
        assert WarmStore(str(store_on)).entry_count() == 2

    def test_fresh_context_serves_from_disk(self, store_on):
        r1, it1 = pagerank(_graph(_fresh_ctx()))
        STATS.reset()
        # a fresh Context is a stand-in for a fresh process: new uids,
        # empty memo — only the disk tier can connect the two runs.
        r2, it2 = pagerank(_graph(_fresh_ctx()))
        snap = STATS.snapshot()
        assert snap["algo_memo_misses"] == 0
        assert snap["store_hits"] == 2
        assert snap["store_misses"] == 0
        assert snap["store_stores"] == 0       # probe-hit never re-persists
        assert it2 == it1
        assert r1.to_dict() == r2.to_dict()

    def test_parent_calibration_sidecar_is_ignored(self, store_on):
        """A store directory written before the calibration sidecar was
        dropped still holds a ``calibration.json``: it is never read."""
        store_on.mkdir()
        (store_on / "calibration.json").write_text(json.dumps({
            "format": 1,
            "rates": {"product_ms": 5e-06, "stage_ms": 1e-06},
            "admission": {"overhead_ms": 1.25, "samples": 4},
        }))
        assert tier.active_store() is not None  # first open of the dir
        r1, it1 = pagerank(_graph(_fresh_ctx()))
        r2, it2 = pagerank(_graph(_fresh_ctx()))
        snap = STATS.snapshot()
        assert (snap["store_stores"], snap["store_hits"]) == (2, 2)
        assert it2 == it1 and r1.to_dict() == r2.to_dict()
        assert not [ev["name"] for ev in STATS.trace_events()
                    if "calibration" in ev["name"]]

    def test_disk_hit_reenters_memo(self, store_on):
        """A store hit is re-inserted in the in-memory memo: the second
        call in the *same* fresh context hits memory, not disk."""
        pagerank(_graph(_fresh_ctx()))
        ctx = _fresh_ctx()
        a = _graph(ctx)
        STATS.reset()
        pagerank(a)
        assert STATS.snapshot()["store_hits"] == 2
        STATS.reset()
        pagerank(a)
        snap = STATS.snapshot()
        assert snap["algo_memo_hits"] == 2
        assert snap["store_hits"] == 0

    def test_store_disabled_is_bit_identical_and_diskless(self, store_on):
        with config.option("STORE_ENABLE", False):
            assert tier.active_store() is None
            r1, it1 = pagerank(_graph(_fresh_ctx()))
            r2, it2 = pagerank(_graph(_fresh_ctx()))
        snap = STATS.snapshot()
        assert snap["store_stores"] == 0 and snap["store_hits"] == 0
        assert not (store_on / "entries").exists()
        assert it1 == it2 and r1.to_dict() == r2.to_dict()

    def test_graph_write_changes_digest_and_misses(self, store_on):
        ctx = _fresh_ctx()
        a = _graph(ctx)
        pagerank(a)
        # a *content* change (all edges are 1.0, this one becomes 7.0):
        # the new digest keys both blocks somewhere else on disk
        a.set_element(7.0, 0, 1)
        a.wait(WaitMode.MATERIALIZE)
        STATS.reset()
        pagerank(a)
        snap = STATS.snapshot()
        assert snap["store_hits"] == 0
        assert snap["store_misses"] >= 1

    def test_identical_content_rewrite_still_hits(self, store_on):
        """The flip side of content addressing: a version bump that
        leaves the bytes identical (rewriting an existing 1.0 edge)
        re-derives the *same* digest and keeps serving from disk."""
        ctx = _fresh_ctx()
        a = _graph(ctx)
        pagerank(a)
        r, c = int(a.extract_tuples()[0][0]), int(a.extract_tuples()[1][0])
        a.set_element(1.0, r, c)
        a.wait(WaitMode.MATERIALIZE)
        STATS.reset()
        pagerank(a)
        assert STATS.snapshot()["store_hits"] == 2


# ---------------------------------------------------------------------------
# The real acceptance gate: a second *process*
# ---------------------------------------------------------------------------


_CHILD = """\
import json
import numpy as np
from repro.internals import config
for k, v in {pins}:
    config.set_option(k, v)
config.set_option("STORE_ENABLE", True)
config.set_option("STORE_DIR", {root!r})
from repro.algorithms import pagerank
from repro.core import types as T
from repro.core.context import Context, Mode, WaitMode, init
from repro.core.matrix import Matrix
from repro.engine.stats import STATS
from repro.generators import erdos_renyi

init(Mode.NONBLOCKING)
n, rows, cols, _ = erdos_renyi(40, 0.08, seed=3)
keep = rows != cols
ctx = Context.new(Mode.NONBLOCKING, None, None)
a = Matrix.new(T.FP64, n, n, ctx)
a.build(rows[keep], cols[keep], np.ones(int(keep.sum())))
a.wait(WaitMode.MATERIALIZE)
STATS.reset()
ranks, iters = pagerank(a)
snap = STATS.snapshot()
print(json.dumps({{
    "algo_memo_misses": snap["algo_memo_misses"],
    "store_hits": snap["store_hits"],
    "iters": iters,
    "ranks": sorted((int(i), float(v)) for i, v in ranks.to_dict().items()),
}}))
"""


class TestSecondProcess:
    def test_child_process_starts_warm(self, store_on):
        """The pinned cross-process guarantee: a subprocess sharing only
        the store directory answers pagerank with **zero** algo-memo
        misses — every setup block comes off disk."""
        r1, it1 = pagerank(_graph(_fresh_ctx()))
        import pathlib

        import repro

        script = _CHILD.format(pins=list(_PINNED_FORMAT),
                               root=str(store_on))
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        # hermetic against the ablation matrix: the child pins via
        # set_option above, but stale env flags must not re-disable
        for stale in ("REPRO_STORE_ENABLE", "REPRO_STORE_DIR",
                      "REPRO_ENGINE_ALGO_MEMO", "REPRO_ENGINE_MEMO",
                      "REPRO_FORMAT_AUTO"):
            env.pop(stale, None)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout.strip().splitlines()[-1])
        assert got["algo_memo_misses"] == 0
        assert got["store_hits"] == 2
        assert got["iters"] == it1
        want = sorted([int(i), float(v)] for i, v in r1.to_dict().items())
        assert got["ranks"] == want      # bit-exact, JSON lists both sides


# ---------------------------------------------------------------------------
# Key soundness
# ---------------------------------------------------------------------------


class TestKeys:
    def test_format_policy_flip_changes_key(self, store_on):
        ctx = _fresh_ctx()
        a = _graph(ctx)
        pagerank(a)
        from repro.algorithms._blocks import _key

        k_auto = tier.store_key(_key(a, "pattern", ("FP64",)))
        assert k_auto is not None
        with config.option("FORMAT_AUTO", False):
            k_flipped = tier.store_key(_key(a, "pattern", ("FP64",)))
        assert k_flipped is not None and k_flipped != k_auto

    def test_policy_flip_misses_on_disk(self, store_on):
        pagerank(_graph(_fresh_ctx()))
        STATS.reset()
        with config.option("FORMAT_DCSR_FACTOR", 17):
            pagerank(_graph(_fresh_ctx()))
        snap = STATS.snapshot()
        assert snap["store_hits"] == 0
        assert snap["store_misses"] >= 2   # probed, keyed differently

    def test_warm_fixpoints_never_persist(self, store_on):
        ctx = _fresh_ctx()
        a = _graph(ctx)
        tier.ensure_digest(a)
        from repro.algorithms._blocks import _key

        assert tier.store_key(_key(a, "warm:pagerank", ())) is None

    def test_unregistered_and_malformed_keys(self, store_on):
        assert tier.store_key(("algo", "pattern", (10**9, 0), (), ())) is None
        assert tier.store_key(("op", "mxm", 1, 2, 3)) is None
        assert tier.store_key("not-a-tuple") is None
        ctx = _fresh_ctx()
        a = _graph(ctx)
        tier.ensure_digest(a)
        with a._lock:
            vkey = (a._uid, a._version)
        # non-JSON params are unkeyable, not misfiled
        assert tier.store_key(("algo", "x", vkey, (object(),), ())) is None

    def test_digest_tracks_version(self, store_on):
        ctx = _fresh_ctx()
        a = _graph(ctx)
        tier.ensure_digest(a)
        with a._lock:
            uid, v0 = a._uid, a._version
        d0 = tier.digest_for(uid, v0)
        assert d0 is not None
        a.set_element(2.0, 1, 0)
        a.wait(WaitMode.MATERIALIZE)
        with a._lock:
            v1 = a._version
        assert v1 != v0
        assert tier.digest_for(uid, v1) is None     # not yet re-registered
        tier.ensure_digest(a)
        d1 = tier.digest_for(uid, v1)
        assert d1 is not None and d1 != d0


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


class TestEviction:
    def _fill(self, store, n=8, size=2048):
        from repro.formats.serialize import carrier_serialize

        from .helpers import vec_from_dict

        for i in range(n):
            carrier = vec_from_dict(
                {j: float(i + j) for j in range(size // 16)}, size
            )._capture()
            assert store.put(f"{i:032x}", carrier_serialize(carrier),
                             cost_ms=5.0)
        return store

    def test_budget_enforced_lru(self, store_on):
        import time

        store = WarmStore(str(store_on))
        with config.option("STORE_MAX_BYTES", 1 << 30):
            self._fill(store)
        # age every entry into the past (filesystem timestamp ticks can
        # be coarser than this test's write loop) ...
        base = time.time() - 1000.0
        for i in range(8):
            p = store._entry_path(f"{i:032x}")
            os.utime(p, (base + i, base + i))
        per_entry = store.total_bytes() // store.entry_count()
        budget = per_entry * 3 + per_entry // 2
        with config.option("STORE_MAX_BYTES", budget):
            # ... then *read* the two oldest: a hit refreshes atime, so
            # LRU must now keep exactly them
            for i in range(2):
                assert store.get(f"{i:032x}") is not None
            evicted = store.evict()
        assert evicted > 0
        assert store.total_bytes() <= budget
        assert STATS.snapshot()["store_evictions"] == evicted
        # the freshly-touched entries survived
        assert store.contains(f"{0:032x}")
        assert store.contains(f"{1:032x}")

    def test_zero_budget_disables_eviction(self, store_on):
        store = WarmStore(str(store_on))
        with config.option("STORE_MAX_BYTES", 0):
            self._fill(store, n=4)
            assert store.evict() == 0
        assert store.entry_count() == 4

    def test_put_evicts_behind_itself(self, store_on):
        from repro.formats.serialize import carrier_serialize

        from .helpers import vec_from_dict

        store = WarmStore(str(store_on))
        with config.option("STORE_MAX_BYTES", 1 << 30):
            self._fill(store, n=2)
        budget = store.total_bytes()   # exactly two entries' worth
        big = vec_from_dict({j: float(j) for j in range(256)},
                            4096)._capture()
        with config.option("STORE_MAX_BYTES", budget):
            # a third entry pushes past the budget: put evicts behind
            # itself without being asked
            assert store.put("ff" * 16, carrier_serialize(big), cost_ms=9.0)
        assert store.total_bytes() <= budget


# ---------------------------------------------------------------------------
# Fault injection on the store sites
# ---------------------------------------------------------------------------


class TestFaults:
    def test_read_faults_degrade_to_cold_rebuild(self, store_on):
        r1, it1 = pagerank(_graph(_fresh_ctx()))
        PLANE.configure(7, [FaultSpec(site="store.read", rate=1.0)])
        try:
            STATS.reset()
            r2, it2 = pagerank(_graph(_fresh_ctx()))
        finally:
            PLANE.disable()
            configure_from_env()
        snap = STATS.snapshot()
        assert snap["store_hits"] == 0
        assert snap["store_misses"] >= 2
        assert snap["store_corrupt"] == 0      # a fault is not corruption
        assert snap["algo_memo_misses"] == 2   # rebuilt cold, correctly
        assert it2 == it1 and r1.to_dict() == r2.to_dict()

    def test_write_faults_skip_persist(self, store_on):
        PLANE.configure(7, [FaultSpec(site="store.write", rate=1.0)])
        try:
            STATS.reset()
            r1, _ = pagerank(_graph(_fresh_ctx()))
        finally:
            PLANE.disable()
            configure_from_env()
        snap = STATS.snapshot()
        assert snap["store_stores"] == 0
        assert WarmStore(str(store_on)).entry_count() == 0
        # and the algorithm itself was untouched
        assert snap["algo_memo_stores"] == 2
        r2, _ = pagerank(_graph(_fresh_ctx()))
        assert r1.to_dict() == r2.to_dict()


# ---------------------------------------------------------------------------
# Corruption fuzz over the entry envelope
# ---------------------------------------------------------------------------


def _seeded_entry(root):
    """One real entry on disk; returns (store, path, framed bytes)."""
    from repro.formats.serialize import carrier_serialize

    from .helpers import mat_from_dict

    store = WarmStore(str(root))
    carrier = mat_from_dict(
        {(0, 0): 1.5, (1, 2): -2.25, (3, 1): 4.0}, 4, 4)._capture()
    key = "ab" * 16
    path = store._entry_path(key)
    # Hypothesis reuses the fixture dir across examples: start clean so
    # every example mutates a freshly-framed entry.
    path.unlink(missing_ok=True)
    assert store.put(key, carrier_serialize(carrier), cost_ms=3.25)
    return store, key, path, path.read_bytes()


class TestCorruptionFuzz:
    @SETTINGS
    @given(data=st.data())
    def test_single_byte_flip_is_a_counted_miss(self, data, store_on):
        store, key, path, blob = _seeded_entry(store_on)
        mutated = bytearray(blob)
        pos = data.draw(st.integers(0, len(blob) - 1))
        mutated[pos] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(mutated))
        before = STATS.snapshot()
        out = store.get(key)
        after = STATS.snapshot()
        if out is None:
            # corrupt: counted, quarantined — the next probe is clean
            assert after["store_corrupt"] == before["store_corrupt"] + 1
            assert after["store_misses"] == before["store_misses"] + 1
            assert not path.exists()
        else:
            # astronomically unlikely double-checksum collision: the
            # accepted carrier must still be internally valid
            carrier, cost_ms = out
            carrier.check()
            assert cost_ms >= 0.0

    @SETTINGS
    @given(cut=st.integers(0, 400))
    def test_truncation_is_a_counted_miss(self, cut, store_on):
        store, key, path, blob = _seeded_entry(store_on)
        path.write_bytes(blob[: min(cut, len(blob) - 1)])
        before = STATS.snapshot()["store_corrupt"]
        assert store.get(key) is None
        assert STATS.snapshot()["store_corrupt"] == before + 1
        assert not path.exists()

    def test_intact_entry_round_trips(self, store_on):
        store, key, path, _ = _seeded_entry(store_on)
        out = store.get(key)
        assert out is not None
        carrier, cost_ms = out
        assert carrier.nvals == 3
        assert cost_ms == pytest.approx(3.25)
        assert STATS.snapshot()["store_corrupt"] == 0


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_readers_writers_evictors_never_error(self, store_on):
        """Hammer one store from reader, writer, and evictor threads:
        every outcome is a hit, a miss, or a skipped persist — never an
        exception, never an invalid carrier."""
        from repro.formats.serialize import carrier_serialize

        from .helpers import vec_from_dict

        store = WarmStore(str(store_on))
        blobs = {
            f"{i:032x}": carrier_serialize(
                vec_from_dict({j: float(j) for j in range(32)},
                              64)._capture())
            for i in range(6)
        }
        errors = []
        stop = threading.Event()

        def writer():
            try:
                while not stop.is_set():
                    for k, b in blobs.items():
                        store.put(k, b, cost_ms=1.0)
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    for k in blobs:
                        out = store.get(k)
                        if out is not None:
                            out[0].check()
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        def evictor():
            try:
                while not stop.is_set():
                    store.evict(max_bytes=sum(
                        len(b) for b in blobs.values()) // 2)
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=f)
                   for f in (writer, writer, reader, reader, evictor)]
        for t in threads:
            t.start()
        import time
        time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        # the store is still coherent: everything on disk decodes
        for k in blobs:
            out = store.get(k)
            if out is not None:
                out[0].check()
