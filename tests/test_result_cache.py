"""The per-Context result memo of algorithm blocks and its soundness.

The memo's contract (:mod:`repro.engine.memo`): a building block of an
*unchanged committed graph* (``algorithms/_blocks.py``) republishes the
cached carrier through the transactional commit gate instead of
re-running its kernels — and it must be impossible to observe the
difference except in the counters.  This battery checks, over blocks
keyed ``("algo", kind, (uid, version), params, fingerprint)``:

* hit / miss / store counters and the single-kernel guarantee;
* eager invalidation on graph writes and entry drop on ``GrB_free``;
* the no-serve boundaries: different block params, different context
  (hence different mode), ablated knob — and no expression result is
  ever stored;
* the capacity bound with recency-aged cost eviction;
* freed objects' carriers (and mask-key caches) stay gc-collectable;
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

from repro.algorithms._blocks import memoized_matrix, pattern_matrix
from repro.core import binaryop as B
from repro.core import types as T
from repro.core.context import Context, Mode, WaitMode
from repro.core.descriptor import DESC_R, DESC_RSC
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
    # even under the CI ablation matrix (REPRO_ENGINE_ALGO_MEMO=0); the
    # ablation-behavior test flips the knob off explicitly.
    with config.option("ENGINE_ALGO_MEMO", True):
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


def _product(ctx, a):
    c = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
    mxm(c, None, None, _sr(), a, a)
    c.wait(WaitMode.MATERIALIZE)
    return c


def _square(a):
    """A ⊕.⊗ A as a memoized block of ``a``: one ``mxm`` per build."""
    return memoized_matrix(a, "square", lambda: _product(a.context, a))


# ---------------------------------------------------------------------------
# Hit / miss / store / single kernel
# ---------------------------------------------------------------------------


class TestHitMiss:
    def test_resubmitted_product_runs_one_kernel(self):
        ctx = _nb()
        a = _graph(ctx)
        c1 = _square(a)
        c2 = _square(a)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 1
        assert snap["memo_stores"] == 1
        assert snap["algo_memo_hits"] == 1
        assert snap["memo_reused"] == 1
        assert mat_to_dict(c1) == mat_to_dict(c2)
        # and the shared value is the real product
        bl = _bl()
        oracle = _product(bl, _graph(bl))
        assert mat_to_dict(c2) == mat_to_dict(oracle)

    def test_first_forcing_is_a_miss_and_a_store(self):
        ctx = _nb()
        a = _graph(ctx, seed=1)
        _square(a)
        snap = ctx.engine_stats()
        assert snap["memo_misses"] == 1
        assert snap["memo_stores"] == 1
        assert snap["algo_memo_hits"] == 0
        assert snap["memo_entries"] == 1

    def test_hit_survives_writes_to_the_output(self):
        # Writing the handle a block was served into must not invalidate
        # the entry keyed on A (the output is not a dependency), nor leak
        # into the cached carrier the next hit republishes.
        ctx = _nb()
        a = _graph(ctx, seed=2)
        want = mat_to_dict(_product(ctx, a))
        for _ in range(3):
            c = _square(a)
            assert mat_to_dict(c) == want
            c.set_element(99.0, 0, 0)
            c.wait(WaitMode.MATERIALIZE)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 2   # want + one build
        assert snap["memo_reused"] == 2


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_input_write_invalidates(self):
        ctx = _nb()
        a = _graph(ctx, seed=3)
        _square(a)
        a.set_element(7.5, 0, 0)
        a.wait(WaitMode.MATERIALIZE)
        c2 = _square(a)
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

    def test_free_of_input_drops_entry(self):
        ctx = _nb()
        a = _graph(ctx, seed=5)
        _square(a)
        assert ctx.engine_stats()["memo_entries"] == 1
        a.free()
        assert ctx.engine_stats()["memo_entries"] == 0


# ---------------------------------------------------------------------------
# No-serve boundaries
# ---------------------------------------------------------------------------


class TestNoServe:
    def test_params_difference_misses(self):
        ctx = _nb()
        a = _graph(ctx, seed=6)
        p1 = pattern_matrix(a, T.FP64)
        p2 = pattern_matrix(a, T.BOOL)
        snap = ctx.engine_stats()
        assert snap["algo_memo_hits"] == 0
        assert snap["memo_entries"] == 2
        assert (p1.type, p2.type) == (T.FP64, T.BOOL)
        assert set(mat_to_dict(p1)) == set(mat_to_dict(p2))

    def test_cross_context_no_serve(self):
        ctx1, ctx2 = _nb(), _nb()
        _square(_graph(ctx1, seed=7))
        _square(_graph(ctx2, seed=7))
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
        consumer that captured it while pending still reads its value,
        and nothing outside the algorithm blocks is stored, so two such
        consumers over different graphs never share a result."""
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
        snap = ctx.engine_stats()
        assert snap["memo_stores"] == 0 and snap["memo_reused"] == 0

    def test_ablation_knob_disables(self):
        ctx = _nb()
        a = _graph(ctx, seed=10)
        with config.option("ENGINE_ALGO_MEMO", False):
            _square(a)
            _square(a)
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 2
        assert snap["memo_stores"] == 0
        assert snap["algo_memo_hits"] == 0


# ---------------------------------------------------------------------------
# LRU bound
# ---------------------------------------------------------------------------


class TestLRUBound:
    def test_capacity_bound_evicts_lru(self):
        # Three blocks of like cost under capacity 2: the one untouched
        # for many lookups has aged far below the other two
        # (``ResultMemo._score`` halves a cost per capacity's worth of
        # touches), so it is the one evicted.
        ctx = _nb()
        a, b, c = (_graph(ctx, seed=s) for s in (11, 12, 13))
        with config.option("MEMO_CAPACITY", 2):
            _square(a)
            _square(b)
            for _ in range(20):
                _square(b)        # hits: b is recent, a ages
            _square(c)            # evicts the (a) entry
            snap = ctx.engine_stats()
            assert snap["memo_entries"] <= 2
            assert snap["memo_evictions"] >= 1
            _square(b)            # kept: a hit
            _square(a)            # evicted: must re-run
        snap = ctx.engine_stats()
        assert snap["kernel_count"].get("mxm", 0) == 4
        assert snap["memo_reused"] == 21


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
        # A block's carrier is held by the memo for as long as its graph
        # lives: freeing the handle it was served into and the graph
        # releases it.
        ctx = _nb()
        a = _graph(ctx, seed=13)
        c = _square(a)
        wr = weakref.ref(c._data)
        assert ctx.engine_stats()["memo_entries"] == 1
        c.free()
        a.free()
        del c
        gc.collect()
        assert wr() is None, "memo retained a freed graph's block"

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
        c = _square(a)
        wr = weakref.ref(c._data)
        assert len(ctx.result_memo(create=False)) == 1
        c.free()
        ctx.free()                 # the graph stays alive; its memo not
        assert ctx.result_memo(create=False) is None
        del c
        gc.collect()
        assert wr() is None


# ---------------------------------------------------------------------------
# Chaos: memo + transient faults still match the blocking oracle
# ---------------------------------------------------------------------------


class TestChaosProperty:
    def _program(self, ctx):
        a = _graph(ctx, seed=17)
        out = []
        c1 = _square(a)
        out.append(mat_to_dict(c1))
        c2 = _square(a)                # a block hit
        out.append(mat_to_dict(c2))
        a.set_element(3.25, 1, 1)      # invalidate, then recompute
        a.wait(WaitMode.MATERIALIZE)
        c3 = _square(a)
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
