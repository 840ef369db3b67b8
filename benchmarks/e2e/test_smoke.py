"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not part of tier-1 (``testpaths`` is ``tests``): it runs every workload
twice at smoke size, which takes a couple of minutes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
#: Counts that must repeat exactly for one seed, and where.
EXACT = [("lib_algos", "engine.nodes_built"), ("lib_algos", "engine.forces"),
         ("lib_smallops", "engine.nodes_built"), ("lib_smallops", "engine.forces"),
         ("serve_stream", "serve.journal_appends")]


def _smoke_run() -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"],
                   check=True, cwd=REPO, timeout=900)
    return json.loads((HERE / "out" / "result.json").read_text())


@pytest.fixture(scope="module")
def runs():
    return _smoke_run(), _smoke_run()


def _metrics(result: dict, workload: str, kind: str) -> dict:
    return result["sets"][0][workload][kind]["final"]["metrics"]


def test_declared_names_are_well_formed_and_unique():
    names = ([m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]] + WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload):
    for kind in ("end_to_end", "per_layer"):
        got = _metrics(runs[0], workload, kind)
        assert sorted(got) == sorted(m["name"] for m in SPEC[kind])
        for m in SPEC[kind]:
            assert got[m["name"]]["unit"] == m["unit"]
            assert isinstance(got[m["name"]]["value"], (int, float))
    for m in SPEC["end_to_end"]:
        assert _metrics(runs[0], workload, "end_to_end")[m["name"]]["value"] > 0


def test_each_metric_is_printed_exactly_once():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lib_smallops",
         "--smoke", "--seed", "5", "--trace", "1"],
        check=True, cwd=REPO, capture_output=True, text=True, timeout=300)
    printed = [line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith("lib_smallops ")]
    assert sorted(printed) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_nothing_failed(runs, workload):
    for result in runs:
        for kind in ("end_to_end", "per_layer"):
            final = result["sets"][0][workload][kind]["final"]
            assert final["correct"] and final["failed"] == 0
            assert final["attempted"] >= 1
        assert _metrics(result, workload, "per_layer")["failed_share"]["value"] == 0


@pytest.mark.parametrize("workload,metric", EXACT)
def test_counts_repeat_exactly_for_one_seed(runs, workload, metric):
    first, second = (_metrics(r, workload, "per_layer")[metric]["value"]
                     for r in runs)
    assert first == second and first > 0


def test_result_carries_the_info_block(runs):
    info = runs[0]["info"]
    for key in ("nproc", "python", "numpy", "scipy", "fsync_policy",
                "tracing_overhead", "generator_lag_p95_ms", "src_lines",
                "config_knobs", "stats_counters"):
        assert key in info
    assert set(info["tracing_overhead"]) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert (HERE / "out" / f"trace_{workload}.json").is_file()
