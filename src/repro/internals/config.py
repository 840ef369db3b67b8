"""Tuning switches: one table, one parser, plain module attributes.

:data:`OPTIONS` is the only place an option is declared — its default
(whose type is the option's type) and a one-sentence doc.  At import every
entry becomes a module attribute of the same name, so hot paths read
``config.ENGINE_CSE`` as a plain attribute load; ``REPRO_<NAME>`` in
the process env overrides the default (no other spelling is read, so
the benchmark's ``REPRO_*`` scrub covers every option), and a value
that does not parse falls back to the default.  :func:`set_option` /
:class:`option` flip a switch at run time through the same parser
(thread-safe enough for benchmarks and tests: one attribute store).

``docs/architecture.md`` carries the reference table generated from
:data:`OPTIONS` (``tools/gen_knob_reference.py``); the sections there
explain the mechanisms each switch gates.
"""

from __future__ import annotations

import os

#: name -> (default, doc).  Every boolean switch defaults on.
OPTIONS: dict[str, tuple] = {
    "MASK_PUSHDOWN": (
        True,
        "push a non-complemented mxm mask's key set into the SpGEMM "
        "kernel so off-mask products die before sort/compress",
    ),
    "ENGINE_FUSION": (
        True,
        "planner fuse pass: absorb producer chains into single-pass "
        "pipelines (off: every deferred node runs standalone, still "
        "lazy)",
    ),
    "ENGINE_CSE": (
        True,
        "planner CSE pass: hash-cons identical pending nodes so a "
        "repeated subexpression runs its kernel once",
    ),
    "ENGINE_PUSHDOWN": (
        True,
        "planner pushdown pass: absorb a masked consumer's filter into "
        "the producing mxm/mxv/vxm/eWiseMult kernel (needs "
        "`MASK_PUSHDOWN`)",
    ),
    "ENGINE_MEMO": (
        True,
        "cross-forcing result memo per Context: a re-submitted "
        "expression over unchanged inputs republishes its committed "
        "carrier",
    ),
    "MEMO_CAPACITY": (
        64,
        "entries per Context result memo; past it the lowest "
        "recency-aged rebuild-savings score is evicted",
    ),
    "SERVE_BATCH": (
        True,
        "serving batcher coalesces compatible queries (same-graph BFS "
        "into one msbfs, identical analytics into one execution)",
    ),
    "ENGINE_ALGO_MEMO": (
        True,
        "route the algorithms' pure preprocessing blocks (pattern, "
        "degrees, degree-oriented wedges, …) through the result memo",
    ),
    "FORMAT_AUTO": (
        True,
        "commit-time policy picks CSR or the doubly-compressed DCSR "
        "carrier by row count vs occupancy (off: CSR only, rows past "
        "`MAX_NROWS` raise `GrB_OUT_OF_MEMORY`)",
    ),
    "FORMAT_DCSR_MIN_ROWS": (
        1 << 20,
        "row count below which the format policy never picks DCSR",
    ),
    "FORMAT_DCSR_FACTOR": (
        16,
        "at or above the row floor a matrix goes DCSR when `nnz * "
        "FACTOR < nrows`",
    ),
    "ENGINE_OP_BATCH": (
        True,
        "scheduler coalesces pending single-vector products over one "
        "committed matrix into one multi-vector kernel",
    ),
    "ENGINE_DELTA": (
        True,
        "batched writes are deltas: memo blocks with a patch rule are "
        "updated from the write set, fixpoint algorithms restart warm, "
        "session views patch forward (off: every write invalidates)",
    ),
    "STORE_ENABLE": (
        True,
        "consult and feed the on-disk warm-start store under "
        "`STORE_DIR`",
    ),
    "STORE_DIR": (
        "",
        "root of the warm-start store; empty means none unless a "
        "directory is passed explicitly (`GraphService(store_dir=)`, "
        "`--store-dir`)",
    ),
    "STORE_MAX_BYTES": (
        1 << 28,
        "on-disk budget of the store; past it least-recently-used "
        "entries are evicted under an advisory lock",
    ),
    "INGEST_BATCH": (
        1024,
        "edges `GraphService.ingest_edges` buffers per graph before an "
        "automatic flush (one merge, one journal record, one publish)",
    ),
    "RETRY_MAX": (
        3,
        "retries granted to a transient execution failure before it "
        "surfaces",
    ),
    "RETRY_BASE_DELAY": (
        0.002,
        "base of the exponential retry backoff, seconds "
        "(`RETRY_BASE_DELAY * 2**attempt`)",
    ),
    "COMM_TIMEOUT": (
        10.0,
        "seconds a `Communicator` receive/collective waits before "
        "declaring the peer dead (`GrB_PANIC`)",
    ),
    "CHECKPOINT_DIR": (
        "",
        "root of the checkpoint + write-ahead journal every "
        "`GraphService` attaches; empty means durability is off unless "
        "a directory is passed explicitly",
    ),
    "JOURNAL_FSYNC": (
        True,
        "fsync every journal record before acknowledging the write "
        "(off: a torn tail on power loss is possible; replay truncates "
        "at the first corrupt record)",
    ),
    "QUERY_DEADLINE_MS": (
        0.0,
        "default per-query deadline the serving layer applies when a "
        "`Query` carries none; 0 is unbounded",
    ),
    "BREAKER_THRESHOLD": (
        5,
        "consecutive per-tenant failures or timeouts that trip the "
        "tenant's circuit breaker; 0 disables breakers",
    ),
    "BREAKER_COOLDOWN": (
        1.0,
        "seconds an open breaker sheds load before half-opening to "
        "admit one probe query",
    ),
}
_KNOWN = tuple(OPTIONS)

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _parse(name: str, value):
    """*value* coerced to the type of option *name*'s default.

    A string for a boolean option must be one of the spellings above; a
    string for a numeric option must parse as that number.  Anything
    else raises ``ValueError``."""
    default = OPTIONS[name][0]
    if isinstance(default, bool) and isinstance(value, str):
        word = value.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"{name}: {value!r} is not a boolean spelling")
        return _BOOL_WORDS[word]
    return type(default)(value)


def _initial(name: str):
    raw = os.environ.get("REPRO_" + name)
    if raw is not None:
        try:
            return _parse(name, raw)
        except ValueError:
            pass
    return OPTIONS[name][0]


globals().update({name: _initial(name) for name in _KNOWN})


def set_option(name: str, value):
    """Set a tuning switch; returns the previous value."""
    prev = get_option(name)
    globals()[name] = _parse(name, value)
    return prev


def get_option(name: str):
    if name not in OPTIONS:
        raise KeyError(f"unknown kernel option {name!r}; known: {_KNOWN}")
    return globals()[name]


class option:
    """Context manager: temporarily set a kernel option."""

    def __init__(self, name: str, value):
        self.name = name
        self.value = value
        self._prev = None

    def __enter__(self):
        self._prev = set_option(self.name, self.value)
        return self

    def __exit__(self, *exc):
        set_option(self.name, self._prev)
        return False
