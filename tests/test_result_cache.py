"""The cross-forcing result cache and its soundness boundaries (PR-4).

The memo's contract (:mod:`repro.engine.memo`): a re-submitted pure
built-in computation over *unchanged committed inputs* republishes the
cached carrier through the transactional commit gate instead of
re-running its kernel — and it must be impossible to observe the
difference except in the counters.  This battery checks:

* hit / miss / store counters and the single-kernel guarantee;
* eager invalidation on input writes and entry drop on ``GrB_free``;
* the no-serve boundaries: different descriptor, different context
  (hence different mode), masked (impure) consumers, ablated knob;
* the LRU capacity bound with eviction;
* freed objects' carriers (and mask-key caches) stay gc-collectable —
  the memo holds strong references only while the owner is alive;
* §V under chaos: with the memo on and transient faults injected, a
  program still produces exactly the fault-free blocking result;
* Hypothesis mode parity for masked eWiseMult-over-mxm chains.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import binaryop as B
from repro.core import types as T
from repro.core.context import Context, Mode, WaitMode
from repro.core.descriptor import DESC_R, DESC_RSC, DESC_T0
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.engine.stats import STATS
from repro.faults import PLANE, configure_from_env, enable_chaos
from repro.internals import config
from repro.ops.ewise import ewise_mult
from repro.ops.mxm import mxm

from .helpers import mat_to_dict

N = 16


@pytest.fixture(autouse=True)
def clean_stats():
    # These tests exercise the memo itself, so they must run with it on
    # even under the CI ablation matrix (REPRO_ENGINE_MEMO=0); the
    # ablation-behavior test flips the knob off explicitly.
    with config.option("ENGINE_MEMO", True):
        STATS.reset()
        yield
    PLANE.disable()
    configure_from_env()


def _nb():
    return Context.new(Mode.NONBLOCKING, None, None)


def _bl():
    return Context.new(Mode.BLOCKING, None, None)


def _graph(ctx, seed=0, n=N, density=0.25):
    rng = np.random.default_rng(seed)
    d = rng.random((n, n)) * (rng.random((n, n)) < density)
    r, c = np.nonzero(d)
    m = Matrix.new(T.FP64, n, n, ctx)
    m.build(r, c, d[r, c])
    m.wait(WaitMode.MATERIALIZE)
    return m


def _sr():
    return PLUS_TIMES_SEMIRING[T.FP64]


def _product(ctx, a, b=None, desc=None):
    c = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
    mxm(c, None, None, _sr(), a, b if b is not None else a, desc)
    c.wait(WaitMode.MATERIALIZE)
    return c


# ---------------------------------------------------------------------------
# Hit / miss / store / single kernel
# ---------------------------------------------------------------------------


class TestHitMiss:
    def test_resubmitted_product_runs_one_kernel(self):
        ctx = _nb()
        a = _graph(ctx)
        c1 = _product(ctx, a)
        c2 = _product(ctx, a)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 1
        assert snap["memo_stores"] == 1
        assert snap["memo_hits"] == 1
        assert snap["memo_reused"] == 1
        assert mat_to_dict(c1) == mat_to_dict(c2)
        # and the shared value is the real product
        bl = _bl()
        oracle = _product(bl, _graph(bl))
        assert mat_to_dict(c2) == mat_to_dict(oracle)

    def test_first_forcing_is_a_miss_and_a_store(self):
        ctx = _nb()
        a = _graph(ctx, seed=1)
        _product(ctx, a)
        snap = ctx.engine_stats()
        assert snap["memo_misses"] >= 1
        assert snap["memo_stores"] == 1
        assert snap["memo_hits"] == 0
        assert snap["memo_entries"] == 1

    def test_hit_survives_writes_to_the_output(self):
        # Re-submitting C = A ⊕.⊗ A overwrites C; that write must not
        # invalidate the entry keyed on A (the output is not a value
        # dependency), or the second submission could never hit.
        ctx = _nb()
        a = _graph(ctx, seed=2)
        c = Matrix.new(T.FP64, N, N, ctx)
        for _ in range(3):
            mxm(c, None, None, _sr(), a, a)
            c.wait(WaitMode.MATERIALIZE)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 1
        assert snap["memo_reused"] == 2


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_input_write_invalidates(self):
        ctx = _nb()
        a = _graph(ctx, seed=3)
        _product(ctx, a)
        a.set_element(7.5, 0, 0)
        a.wait(WaitMode.MATERIALIZE)
        c2 = _product(ctx, a)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 2
        assert snap["memo_invalidations"] >= 1
        assert snap["memo_reused"] == 0
        # value reflects the new A, not the stale product
        bl = _bl()
        a_bl = _graph(bl, seed=3)
        a_bl.set_element(7.5, 0, 0)
        a_bl.wait(WaitMode.MATERIALIZE)
        assert mat_to_dict(c2) == mat_to_dict(_product(bl, a_bl))

    def test_free_of_cached_output_drops_entry(self):
        ctx = _nb()
        a = _graph(ctx, seed=4)
        c1 = _product(ctx, a)
        c1.free()
        _product(ctx, a)
        snap = ctx.engine_stats()
        # no republish of a freed object's carrier
        assert snap["kernel_count"].get("mxm", 0) == 2
        assert snap["memo_reused"] == 0

    def test_free_of_input_drops_entry(self):
        ctx = _nb()
        a = _graph(ctx, seed=5)
        _product(ctx, a)
        assert ctx.engine_stats()["memo_entries"] == 1
        a.free()
        assert ctx.engine_stats()["memo_entries"] == 0


# ---------------------------------------------------------------------------
# No-serve boundaries
# ---------------------------------------------------------------------------


class TestNoServe:
    def test_descriptor_difference_misses(self):
        ctx = _nb()
        a = _graph(ctx, seed=6)
        _product(ctx, a)
        c2 = _product(ctx, a, desc=DESC_T0)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 2
        assert snap["memo_reused"] == 0
        bl = _bl()
        assert mat_to_dict(c2) == mat_to_dict(
            _product(bl, _graph(bl, seed=6), desc=DESC_T0))

    def test_cross_context_no_serve(self):
        ctx1, ctx2 = _nb(), _nb()
        _product(ctx1, _graph(ctx1, seed=7))
        _product(ctx2, _graph(ctx2, seed=7))
        snap = ctx1.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 2
        assert snap["memo_reused"] == 0

    def test_masked_product_never_eligible(self):
        ctx = _nb()
        a = _graph(ctx, seed=8)
        m = _graph(ctx, seed=9)
        for _ in range(2):
            c = Matrix.new(T.FP64, N, N, ctx)
            mxm(c, m, None, _sr(), a, a)
            c.wait(WaitMode.MATERIALIZE)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 2
        assert snap["memo_stores"] == 0

    def test_consumer_of_a_settled_producer_is_not_keyed(self):
        """A product forced on its own settles and drops its inputs; a
        consumer that captured it while pending must not be keyed by
        the bare operation, or two such consumers over different graphs
        would share one entry."""
        from repro.core import unaryop as U
        from repro.ops.apply import apply

        ctx = _nb()
        outs = []
        for seed in (20, 21):
            a = _graph(ctx, seed=seed)
            x = Matrix.new(T.FP64, N, N, ctx)
            mxm(x, None, None, _sr(), a, a)
            y = Matrix.new(T.FP64, N, N, ctx)
            apply(y, None, None, U.AINV[T.FP64], x)   # captures x's node
            x.nvals()                                 # settles it alone
            outs.append(mat_to_dict(y))
        bl = _bl()
        for seed, got in zip((20, 21), outs):
            want = _product(bl, _graph(bl, seed=seed))
            assert got == {k: -v for k, v in mat_to_dict(want).items()}
        assert ctx.engine_stats()["memo_reused"] == 0

    def test_ablation_knob_disables(self):
        ctx = _nb()
        a = _graph(ctx, seed=10)
        with config.option("ENGINE_MEMO", False):
            _product(ctx, a)
            _product(ctx, a)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 2
        assert snap["memo_stores"] == 0
        assert snap["memo_hits"] == 0


# ---------------------------------------------------------------------------
# LRU bound
# ---------------------------------------------------------------------------


class TestLRUBound:
    def test_capacity_bound_evicts_lru(self):
        # b is a's content under a second handle: the three products
        # have equal rebuild estimates, so eviction falls back to the
        # exact recency order (as ``ResultMemo._score`` documents).
        ctx = _nb()
        a = _graph(ctx, seed=11)
        b = _graph(ctx, seed=11)
        with config.option("MEMO_CAPACITY", 2):
            _product(ctx, a, a)
            _product(ctx, a, b)
            _product(ctx, b, b)   # evicts the (a, a) entry
            snap = ctx.engine_stats()
            assert snap["memo_entries"] <= 2
            assert snap["memo_evictions"] >= 1
            _product(ctx, a, a)   # evicted: must re-run
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 4
        assert snap["memo_reused"] == 0


# ---------------------------------------------------------------------------
# Eviction order: recency-aged rebuild cost
# ---------------------------------------------------------------------------


class TestEvictionPolicy:
    """Direct :class:`ResultMemo` battery — controlled ``cost_ms`` values
    make the eviction choices deterministic.  Uids are far above any the
    handle counter will mint, so the tracked-uid fast path stays clean."""

    U = 10 ** 9

    @staticmethod
    def _memo(capacity):
        from repro.engine.memo import ResultMemo
        return ResultMemo(capacity=capacity)

    def test_cost_policy_keeps_expensive_entry_under_pressure(self):
        memo = self._memo(2)
        memo.store(("t", 1), "expensive", (self.U + 1,), cost_ms=100.0)
        memo.store(("t", 2), "cheap", (self.U + 2,), cost_ms=0.001)
        memo.store(("t", 3), "cheap", (self.U + 3,), cost_ms=0.001)
        # The SpGEMM-sized entry survives even though it is oldest;
        # the newer-but-trivial entry was the victim.
        assert memo.lookup(("t", 1)) == "expensive"
        assert memo.lookup(("t", 3)) == "cheap"
        assert memo.lookup(("t", 2)) is None

    def test_fresh_store_never_evicts_itself(self):
        memo = self._memo(1)
        memo.store(("t", 1), "expensive", (self.U + 1,), cost_ms=1000.0)
        memo.store(("t", 2), "cheap", (self.U + 2,), cost_ms=0.0)
        # The just-stored entry is exempt from victim selection, or
        # a cold cheap store could bounce straight off the cache.
        assert memo.lookup(("t", 2)) == "cheap"
        assert memo.lookup(("t", 1)) is None

    def test_recency_decay_retires_stale_expensive_entry(self):
        memo = self._memo(2)
        memo.store(("t", "stale"), "old", (self.U + 1,), cost_ms=1.0)
        memo.store(("t", "hot"), "hot", (self.U + 2,), cost_ms=0.5)
        # Age the stale entry far past the half-life (= capacity
        # touches) by hammering the hot one.
        for _ in range(64):
            assert memo.lookup(("t", "hot")) == "hot"
        memo.store(("t", "new"), "new", (self.U + 3,), cost_ms=0.4)
        assert memo.lookup(("t", "stale")) is None, \
            "an untouched entry must eventually yield, however costly"
        assert memo.lookup(("t", "hot")) == "hot"

    def test_eviction_counter_and_entry_bookkeeping(self):
        STATS.reset()
        memo = self._memo(2)
        for i in range(5):
            memo.store(("t", i), f"c{i}", (self.U + i,), cost_ms=float(i))
        assert len(memo) == 2
        snap = STATS.snapshot()
        assert snap["memo_evictions"] == 3
        assert snap["memo_stores"] == 5
        # invalidation indexes shrank with the evictions: no leak of
        # by-dep buckets for evicted keys
        assert memo.lookup(("t", 4)) == "c4"   # highest cost survives
        assert memo.lookup(("t", 3)) == "c3"


# ---------------------------------------------------------------------------
# Collectability after GrB_free
# ---------------------------------------------------------------------------


class TestCollectability:
    def test_freed_output_carrier_is_collectable(self):
        ctx = _nb()
        a = _graph(ctx, seed=13)
        c = _product(ctx, a)
        wr = weakref.ref(c._data)
        assert ctx.engine_stats()["memo_entries"] == 1
        c.free()
        del c
        gc.collect()
        assert wr() is None, "memo retained a freed object's carrier"

    def test_freed_mask_keys_cache_is_collectable(self):
        # maskaccum caches a mask's key set *on* the carrier, so the
        # cache can only die with the carrier — make sure nothing else
        # (memo included) pins a freed mask.
        ctx = _nb()
        a = _graph(ctx, seed=14)
        m = _graph(ctx, seed=15)
        c = Matrix.new(T.FP64, N, N, ctx)
        mxm(c, m, None, _sr(), a, a)
        c.wait(WaitMode.MATERIALIZE)
        wr = weakref.ref(m._data)
        m.free()
        del m
        gc.collect()
        assert wr() is None, "a freed mask's carrier is still referenced"

    def test_context_free_clears_memo(self):
        ctx = _nb()
        a = _graph(ctx, seed=16)
        c = _product(ctx, a)
        wr = weakref.ref(c._data)
        assert len(ctx.result_memo(create=False)) == 1
        c.free()
        a.free()
        ctx.free()
        del c, a
        gc.collect()
        assert wr() is None


# ---------------------------------------------------------------------------
# Chaos: memo + transient faults still match the blocking oracle
# ---------------------------------------------------------------------------


class TestChaosProperty:
    def _program(self, ctx):
        a = _graph(ctx, seed=17)
        out = []
        c1 = _product(ctx, a)
        out.append(mat_to_dict(c1))
        c2 = _product(ctx, a)          # memo-eligible re-submission
        out.append(mat_to_dict(c2))
        a.set_element(3.25, 1, 1)      # invalidate, then recompute
        a.wait(WaitMode.MATERIALIZE)
        c3 = _product(ctx, a)
        out.append(mat_to_dict(c3))
        return out

    def test_chaos_run_matches_fault_free_blocking(self):
        oracle = self._program(_bl())
        enable_chaos(1234, rate=0.25)
        try:
            got = self._program(_nb())
        finally:
            PLANE.disable()
        assert got == oracle


# ---------------------------------------------------------------------------
# Hypothesis: mode parity for masked eWiseMult-over-mxm chains
# ---------------------------------------------------------------------------

_COORD = st.tuples(st.integers(0, 5), st.integers(0, 5))
_VALS = st.floats(min_value=-4, max_value=4,
                  allow_nan=False, allow_subnormal=False)
_SPARSE = st.dictionaries(_COORD, _VALS, max_size=12)


def _from_dict(ctx, d, n=6):
    m = Matrix.new(T.FP64, n, n, ctx)
    if d:
        rows, cols = zip(*d.keys())
        m.build(list(rows), list(cols), list(d.values()))
    m.wait(WaitMode.MATERIALIZE)
    return m


class TestModeParityHypothesis:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(a=_SPARSE, b=_SPARSE, mask=_SPARSE, complement=st.booleans())
    def test_masked_ewise_mult_over_mxm_parity(self, a, b, mask, complement):
        desc = DESC_RSC if complement else DESC_R

        def run(ctx):
            am = _from_dict(ctx, a)
            bm = _from_dict(ctx, b)
            mm = _from_dict(ctx, mask)
            c = Matrix.new(T.FP64, 6, 6, ctx)
            mxm(c, None, None, _sr(), am, am)
            ewise_mult(c, mm, None, B.TIMES[T.FP64], c, bm, desc)
            c.wait(WaitMode.MATERIALIZE)
            return mat_to_dict(c)

        assert run(_nb()) == run(_bl())
