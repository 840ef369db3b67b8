"""Unit battery for the perf gate's ratio checks and drift rule.

``tools/bench_gate.py`` is CI's arbiter of planner performance; its two
failure modes (per-run ratio regression vs the committed baseline, and
sustained monotonic drift across the persistent history) are pure
functions over dicts — tested here without running any benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "tools" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def _results(mm=0.5, cse=0.8, algo=0.1, serve=0.4, p99=0.5, recov=0.5,
             hyp=0.01, batch=0.6, warm=0.2, ingest=0.3, store=0.3, vxm=1.2):
    """A full fresh/baseline results dict with the given gated ratios
    (blocking_ms pinned to 100 so ratio == optimized ms / 100)."""
    return {
        "masked_mxm": {
            "blocking_ms": 100.0, "nb_pushed_ms": mm * 100.0,
            "masks_pushed": 5,
        },
        "dup_subexpression": {
            "blocking_ms": 100.0, "nb_cse_ms": cse * 100.0,
            "cse_reused": 5,
        },
        "repeated_algorithm": {
            "blocking_ms": 100.0, "nb_warm_ms": algo * 100.0,
            "algo_memo_hits": 10,
        },
        # Plain engine overhead: no rewrite, hence no fired-counter.
        "bfs_vxm": {
            "blocking_ms": 100.0, "nonblocking_ms": vxm * 100.0,
            "levels": 687,
        },
        "serving": {
            "blocking_ms": 100.0, "nb_batched_ms": serve * 100.0,
            "serve_batched_queries": 24,
        },
        "serving_p99": {
            "blocking_ms": 100.0, "nb_batched_ms": p99 * 100.0,
            "serve_batches": 6,
        },
        "recovery": {
            "blocking_ms": 100.0, "nb_warm_ms": recov * 100.0,
            "restored_graphs": 1,
        },
        "hypersparse_mxv": {
            "blocking_ms": 100.0, "nb_dcsr_ms": hyp * 100.0,
            "format_dcsr_commits": 3,
        },
        "op_batching": {
            "blocking_ms": 100.0, "nb_batched_ms": batch * 100.0,
            "engine_batched_ops": 48,
        },
        "streaming_pagerank": {
            "blocking_ms": 100.0, "nb_warm_ms": warm * 100.0,
            "memo_delta_patches": 3,
        },
        "streaming_ingest": {
            "blocking_ms": 100.0, "nb_batched_ms": ingest * 100.0,
            "ingest_batches": 3,
        },
        "store": {
            "blocking_ms": 100.0, "nb_warm_ms": store * 100.0,
            "store_hits": 2,
        },
    }


def _history(series, metric="repeated_algorithm.nb_warm_ms"):
    return {"runs": [{metric: r} for r in series]}


class TestRatioGate:
    def test_within_tolerance_passes(self):
        assert bench_gate.check(_results(), _results(), 0.25) == []

    def test_regressed_ratio_fails(self):
        fresh = _results(algo=0.2)       # 2x the baseline ratio
        failures = bench_gate.check(fresh, _results(), 0.25)
        assert any("repeated_algorithm" in f for f in failures)

    def test_counter_not_fired_fails(self):
        fresh = _results()
        fresh["repeated_algorithm"]["algo_memo_hits"] = 0
        failures = bench_gate.check(fresh, _results(), 0.25)
        assert any("never fired" in f for f in failures)

    def test_overhead_ratio_is_gated_without_a_counter(self):
        """``bfs_vxm`` has nothing to rewrite: its nonblocking/blocking
        ratio is gated like the others, but no counter has to fire."""
        assert bench_gate.check(_results(vxm=1.4), _results(), 0.25) == []
        failures = bench_gate.check(_results(vxm=1.6), _results(), 0.25)
        assert len(failures) == 1 and "bfs_vxm" in failures[0]
        assert "never fired" not in failures[0]

    def test_fresh_ratios_covers_every_gated_metric(self):
        ratios = bench_gate.fresh_ratios(_results())
        assert set(ratios) == {
            f"{w}.{k}" for w, k, _ in bench_gate.GATED
        }


class TestDriftRule:
    def test_short_history_never_drifts(self):
        h = _history([0.1, 0.2, 0.4, 0.8])          # 4 < window
        assert bench_gate.check_drift(h, window=5, limit=0.10) == []

    def test_monotonic_creep_beyond_limit_fails(self):
        h = _history([0.10, 0.105, 0.108, 0.11, 0.115])   # +15%, no dip
        failures = bench_gate.check_drift(h, window=5, limit=0.10)
        assert len(failures) == 1
        assert "drifted" in failures[0]

    def test_any_dip_resets_the_rule(self):
        h = _history([0.10, 0.105, 0.09, 0.11, 0.115])    # one improvement
        assert bench_gate.check_drift(h, window=5, limit=0.10) == []

    def test_monotonic_but_within_limit_passes(self):
        h = _history([0.10, 0.101, 0.102, 0.103, 0.105])  # +5% only
        assert bench_gate.check_drift(h, window=5, limit=0.10) == []

    def test_flat_history_passes(self):
        h = _history([0.1] * 8)
        assert bench_gate.check_drift(h, window=5, limit=0.10) == []

    def test_only_the_window_tail_counts(self):
        # Ancient growth followed by a stable tail must not fire.
        h = _history([0.01, 0.02, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert bench_gate.check_drift(h, window=5, limit=0.10) == []

    def test_append_history_accumulates_rounded_runs(self):
        h = {}
        bench_gate.append_history(h, {"m": 0.123456789})
        bench_gate.append_history(h, {"m": 0.2})
        assert h == {"runs": [{"m": 0.123457}, {"m": 0.2}]}


class TestCliHistory:
    def test_history_file_roundtrip_and_drift_exit(self, tmp_path):
        fresh = tmp_path / "fresh.json"
        base = tmp_path / "base.json"
        hist = tmp_path / "hist" / "ratios.json"
        base.write_text(json.dumps(_results()))
        # Hermetic serving inputs so a stray BENCH_serving.json in the
        # working directory can't leak into the subprocess runs.
        serving = tmp_path / "serving.json"
        serving.write_text(json.dumps(
            {k: _results()[k] for k in ("serving", "serving_p99")}
        ))
        hyper = tmp_path / "hypersparse.json"
        hyper.write_text(json.dumps(
            {k: _results()[k] for k in ("hypersparse_mxv", "op_batching")}
        ))
        streaming = tmp_path / "streaming.json"
        streaming.write_text(json.dumps(
            {k: _results()[k]
             for k in ("streaming_pagerank", "streaming_ingest")}
        ))
        store = tmp_path / "store.json"
        store.write_text(json.dumps({"store": _results()["store"]}))

        def run(algo):
            fresh.write_text(json.dumps(_results(algo=algo)))
            return subprocess.run(
                [sys.executable, str(ROOT / "tools" / "bench_gate.py"),
                 "--fresh", str(fresh), "--baseline", str(base),
                 "--fresh-serving", str(serving),
                 "--baseline-serving", str(serving),
                 "--fresh-hypersparse", str(hyper),
                 "--baseline-hypersparse", str(hyper),
                 "--fresh-streaming", str(streaming),
                 "--baseline-streaming", str(streaming),
                 "--fresh-store", str(store),
                 "--baseline-store", str(store),
                 "--tolerance", "10.0",          # per-run gate out of the way
                 "--append-history", str(hist)],
                capture_output=True, text=True,
            )

        # Four monotonically growing runs: not enough history to drift.
        for algo in (0.10, 0.105, 0.108, 0.11):
            assert run(algo).returncode == 0
        # The fifth completes a monotonic +15% window: drift failure.
        proc = run(0.115)
        assert proc.returncode == 1
        assert "drifted" in proc.stderr
        history = json.loads(hist.read_text())
        assert len(history["runs"]) == 5


class TestHistoryRobustness:
    """A clean first run must be a no-op, not a hard error: CI's cache
    restore can hand the gate an absent, empty, or arbitrarily mangled
    history file, and none of those should fail the gate before a
    single ratio is compared."""

    def _load(self, tmp_path, content=None):
        path = tmp_path / "ratios.json"
        if content is not None:
            path.write_text(content)
        return bench_gate._load_history(path)

    def test_absent_file_starts_fresh(self, tmp_path):
        assert self._load(tmp_path) == {}

    def test_empty_file_starts_fresh(self, tmp_path):
        assert self._load(tmp_path, "") == {}

    def test_json_null_starts_fresh(self, tmp_path):
        assert self._load(tmp_path, "null") == {}

    def test_json_array_starts_fresh(self, tmp_path):
        assert self._load(tmp_path, "[]") == {}

    def test_json_scalar_starts_fresh(self, tmp_path):
        assert self._load(tmp_path, "42") == {}

    def test_malformed_runs_starts_fresh(self, tmp_path):
        assert self._load(tmp_path, '{"runs": "nope"}') == {}
        assert self._load(tmp_path, '{"runs": [1, 2]}') == {}

    def test_well_formed_history_is_kept(self, tmp_path):
        h = {"runs": [{"m": 0.1}, {"m": 0.2}]}
        assert self._load(tmp_path, json.dumps(h)) == h

    def test_cli_survives_mangled_restored_history(self, tmp_path):
        """End to end: the gate exits 0 on a mangled history and leaves
        a well-formed single-run file behind (the CI first-run path)."""
        fresh = tmp_path / "fresh.json"
        base = tmp_path / "base.json"
        fresh.write_text(json.dumps(_results()))
        base.write_text(json.dumps(_results()))
        absent = tmp_path / "absent.json"
        for mangled in ("", "null", "[]", '{"runs": 7}'):
            hist = tmp_path / "ratios.json"
            hist.write_text(mangled)
            proc = subprocess.run(
                [sys.executable, str(ROOT / "tools" / "bench_gate.py"),
                 "--fresh", str(fresh), "--baseline", str(base),
                 "--fresh-serving", str(absent),
                 "--fresh-recovery", str(absent),
                 "--fresh-hypersparse", str(absent),
                 "--fresh-streaming", str(absent),
                 "--fresh-store", str(absent),
                 "--append-history", str(hist)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert "starting fresh" in proc.stdout
            assert len(json.loads(hist.read_text())["runs"]) == 1
