#!/usr/bin/env python3
"""Regenerate the option and counter reference in docs/architecture.md.

The two tables between the ``knob-reference`` markers are rendered from
the registries that declare each name exactly once —
:data:`repro.internals.config.OPTIONS` and
:data:`repro.engine.stats.COUNTERS`.  Run after adding, removing or
re-documenting an option or counter (``tests/test_docs.py`` fails on
drift):

    python tools/gen_knob_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DOC = ROOT / "docs" / "architecture.md"
BEGIN = "<!-- knob-reference:begin (tools/gen_knob_reference.py) -->\n"
END = "<!-- knob-reference:end -->\n"


def render() -> str:
    """The generated block, markers excluded."""
    from repro.engine.stats import COUNTERS
    from repro.internals.config import OPTIONS

    out = [
        f"### Options ({len(OPTIONS)})\n\n",
        "Declared in `internals/config.py::OPTIONS`; read as "
        "`config.<NAME>`, set with `config.set_option` / `config.option`, "
        "overridden at import by `REPRO_<NAME>` in the env and by "
        "nothing else.\n\n",
        "| option | default | meaning |\n|---|---|---|\n",
    ]
    for name, (default, doc) in OPTIONS.items():
        out.append(f"| `{name}` | `{default!r}` | {doc} |\n")
    out += [
        f"\n### Counters ({len(COUNTERS)})\n\n",
        "Declared in `engine/stats.py::COUNTERS`; every one is a key of "
        "`STATS.snapshot()` and `Context.engine_stats()`.\n\n",
        "| counter | meaning |\n|---|---|\n",
    ]
    for name, doc in COUNTERS.items():
        out.append(f"| `{name}` | {doc} |\n")
    return "".join(out)


def main() -> int:
    text = DOC.read_text()
    head, rest = text.split(BEGIN)
    _, tail = rest.split(END)
    DOC.write_text(head + BEGIN + render() + END + tail)
    print(f"wrote {DOC}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
