"""Documentation stays honest: tutorial code runs, docs reference real things."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestTutorial:
    def test_all_code_blocks_execute(self):
        """Concatenate every ```python block in the tutorial and run it."""
        text = (ROOT / "docs" / "tutorial.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) >= 8
        program = "\n".join(blocks)
        proc = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestDocsReferenceRealArtifacts:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md",
                                     "EXPERIMENTS.md",
                                     "docs/architecture.md",
                                     "docs/tutorial.md",
                                     "docs/spec_mapping.md"])
    def test_doc_exists_and_nonempty(self, doc):
        path = ROOT / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 500

    def test_design_module_paths_exist(self):
        """Every src path named in DESIGN.md's inventory exists."""
        text = (ROOT / "DESIGN.md").read_text()
        paths = set(re.findall(r"`(src/repro/[\w/]+\.py)`", text))
        paths |= {p.rstrip("/") for p in
                  re.findall(r"`(src/repro/[\w/]+/)`", text)}
        assert len(paths) >= 15
        for p in paths:
            target = ROOT / p
            glob_ok = any(ROOT.glob(p.replace("*", "**")))
            assert target.exists() or glob_ok or "*" in p, p

    def test_design_bench_targets_exist(self):
        """Every bench target named in DESIGN.md's experiment index exists."""
        text = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", text))
        assert len(targets) >= 10
        for t in targets:
            assert (ROOT / "benchmarks" / t).exists(), t

    def test_experiments_covers_every_table_and_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for artifact in ("T1", "T2", "T3", "T4", "F1", "F2", "F3",
                         "M1", "M2", "A1", "AB1", "D1"):
            assert f"## {artifact}" in text or f"| {artifact} |" in text, \
                artifact

    def test_paper_artefact_benches_pin_the_result_memo_off(self):
        """A bench EXPERIMENTS cites under a T / F / M / A / AB heading
        repeats one expression over unchanged inputs: without the
        ``no_result_memo`` fixture it times memo republishes."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        cited = set()
        for section in re.split(r"^## ", text, flags=re.M)[1:]:
            if re.match(r"(T|F|M|A|AB)\d+ ", section):
                cited |= set(re.findall(r"`(bench_\w+\.py)`", section))
        assert len(cited) >= 11
        for name in sorted(cited):
            src = (ROOT / "benchmarks" / name).read_text()
            assert re.search(
                r'^pytestmark = pytest\.mark\.usefixtures\("no_result_memo"\)$',
                src, re.M), name

    def test_readme_modules_exist(self):
        text = (ROOT / "README.md").read_text()
        for mod in re.findall(r"^  (\w+)/\s", text, re.M):
            assert (ROOT / "src" / "repro" / mod).is_dir() or \
                (ROOT / mod).is_dir(), mod

    def test_spec_mapping_is_fresh(self):
        """Regenerating the symbol map produces the committed content."""
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_spec_map.py")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # the generator rewrites the file in place; if it differed the
        # repo copy was stale — git-style check via content stability
        text = (ROOT / "docs" / "spec_mapping.md").read_text()
        assert "symbols total" in text

    def test_spec_mapping_sources_resolve(self):
        """Every backticked ``*.py`` path in the symbol map names a file
        (under ``src/repro/`` or the repo root), and every ``::symbol``
        after one is defined in that file."""
        text = (ROOT / "docs" / "spec_mapping.md").read_text()
        refs = re.findall(r"`([\w/]+\.py)(?:::(\w+))?`", text)
        assert len(refs) >= 60
        for path, symbol in refs:
            target = next((base / path for base in (ROOT / "src/repro", ROOT)
                           if (base / path).is_file()), None)
            assert target is not None, path
            if symbol:
                assert re.search(
                    rf"^\s*(?:def|class)\s+{symbol}\b|^{symbol}\s*[:=]",
                    target.read_text(), re.M), f"{path}::{symbol}"


class TestFaultSiteRegistry:
    def test_registry_matches_the_injection_sites(self):
        """Every registered site is injected somewhere in ``src/`` and
        every site injected there is registered."""
        from repro.faults.sites import SITES

        text = "\n".join(p.read_text()
                         for p in sorted((ROOT / "src").rglob("*.py")))
        used = set(re.findall(
            r'(?:maybe_inject|guard|should_drop)\(\s*"([\w.]+)"', text))
        # The planner visits ``planner.<pass>`` for each pass it runs.
        fusion = (ROOT / "src/repro/engine/fusion.py").read_text()
        assert 'maybe_inject(f"planner.{name}"' in fusion
        used |= {f"planner.{name}" for name in
                 re.findall(r'\("(\w+)", \w+\.run\)', fusion)}
        assert sorted(set(SITES) - used) == [], "registered, never injected"
        assert sorted(used - set(SITES)) == [], "injected, not registered"


def _load_tool(name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestOptionAndCounterRegistries:
    """One declaration per name, and no name that nothing uses."""

    @staticmethod
    def _src_texts(skip: str) -> str:
        return "\n".join(
            p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))
            if p.name != skip)

    def test_every_counter_has_a_bump_site(self):
        from repro.engine.stats import COUNTERS

        text = self._src_texts(skip="stats.py")
        in_stats = (ROOT / "src/repro/engine/stats.py").read_text()
        dead = [
            name for name in COUNTERS
            if not re.search(r'bump\(\s*"%s"' % name, text)
            and f"self.{name} += 1" not in in_stats
        ]
        assert dead == [], f"declared but never bumped: {dead}"

    def test_every_option_has_a_reader_outside_config(self):
        from repro.internals.config import OPTIONS

        text = self._src_texts(skip="config.py")
        dead = [
            name for name in OPTIONS
            if not re.search(
                r'config\.%s\b|_option\(\s*"%s"' % (name, name), text)
        ]
        assert dead == [], f"declared but never read: {dead}"

    def test_ci_ablation_rows_name_boolean_options(self):
        """A misspelt or deleted name would make its row run plain
        tier-1 and pass."""
        from repro.internals.config import OPTIONS

        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        matrix = ci[ci.index("        ablation:\n"):]
        matrix = matrix[:matrix.index("    steps:")]
        rows = re.findall(
            r'- \{ name: ([\w-]+), env: (\w+), value: "(\w+)" \}', matrix)
        assert len(rows) == matrix.count("- {") >= 9
        for name, env, value in rows:
            assert env.startswith("REPRO_"), (name, env)
            default = OPTIONS[env[len("REPRO_"):]][0]
            assert default is True and value == "0", (name, env, value)

    def test_knob_reference_is_fresh(self):
        """docs/architecture.md's tables are the registries, rendered."""
        tool = _load_tool("gen_knob_reference")
        text = tool.DOC.read_text()
        block = text.split(tool.BEGIN)[1].split(tool.END)[0]
        assert block == tool.render(), \
            "run: python tools/gen_knob_reference.py"
