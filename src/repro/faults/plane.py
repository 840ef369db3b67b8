"""Deterministic, seed-driven fault injection (the §V stress plane).

The paper's error model promises that a failed execution leaves every
GraphBLAS object in a well-defined, still-usable state with the error
retrievable via ``GrB_error``.  Nothing exercises that promise unless
something *provokes* execution failures at the places real systems
fail, so this module provides a process-wide :class:`FaultPlane` with
**named injection sites** threaded through the three fallible layers:

========================  ====================================================
site                      where it fires
========================  ====================================================
``kernel.mxm`` / ``mxv``  SpGEMM / SpMV kernel entry (`internals/mxm.py`)
/ ``vxm``
``kernel.build``          tuple-assembly kernels (`internals/build.py`)
``kernel.apply`` /        §VIII map / filter kernels and the fused stage
``kernel.select`` /       pipelines (`internals/applyselect.py`)
``kernel.pipeline``
``kernel.ewise``          merge/intersect kernels (`internals/ewise.py`)
``kernel.reduce``         monoid reductions (`internals/reduce.py`)
``kernel.extract`` /      §VI sub-container kernels
``kernel.assign``
``txn.commit``            the transactional commit gate (`engine/txn.py`) —
                          after compute, before the result is published
``parallel.worker``       a pool worker about to run one of ``mxm``'s row
                          blocks (`internals/mxm.py`)
========================  ====================================================

Determinism: every injection decision is a pure function of
``(plane seed, site name, per-site visit counter, spec identity)`` via a
keyed hash — re-running the same serial program under the same schedule
injects the same faults, which is what lets the chaos harness shrink
failures and the CI chaos job pin a seed matrix.

Transient vs persistent: an injected error carries ``transient=True``
when its spec says so, and the resilience machinery
(:mod:`repro.faults.retry`, the scheduler) retries transient failures
with exponential backoff while letting persistent ones surface through
the normal §V deferral machinery.  ``max_hits`` bounds how often a spec
fires, so "fails once, then recovers" schedules are expressible.

Armed-only gating: when ``armed_only`` is set (the default for the
whole-suite chaos mode), error faults fire only *inside* a resilience
envelope — a retry loop, a degradable ``mxm`` block batch — never at
bare kernel invocations that have no recovery machinery above them.
That is exactly the claim under test: every armed site is survivable.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..core.errors import (
    ExecutionError,
    InsufficientSpaceError,
    OutOfMemoryError,
    PanicError,
)
from ..engine.stats import STATS

__all__ = [
    "TRANSIENT_CLASSES",
    "FaultSpec",
    "FaultPlane",
    "PLANE",
    "SimulatedCrash",
    "is_transient",
    "maybe_inject",
    "armed",
    "suspended",
    "enable_chaos",
    "configure_from_env",
]


class SimulatedCrash(BaseException):
    """A crash-kill fault: the process "dies" at this site.

    Deliberately a :class:`BaseException` so that no resilience envelope
    — retry loops, deoptimized fallbacks, per-entry ``except Exception``
    recovery in the serving layer — can absorb it.  It propagates to the
    recovery harness the way SIGKILL propagates to an init system: the
    only valid response is to discard the in-memory state and
    ``GraphService.restore()`` from the checkpoint + journal.
    """

    def __init__(self, site: str = "", message: str = ""):
        super().__init__(message or f"simulated crash-kill at {site!r}")
        self.site = site

#: Error classes the resilience machinery treats as *transient* by
#: default — plausibly induced by resource pressure that may clear on a
#: retry.  An explicit ``exc.transient`` attribute overrides membership
#: in either direction (injected faults always set it).
TRANSIENT_CLASSES = (OutOfMemoryError, InsufficientSpaceError)

#: Errors a fault spec may raise, by name (CLI / env configuration).
ERROR_CLASSES: Mapping[str, type[ExecutionError]] = {
    "OutOfMemoryError": OutOfMemoryError,
    "InsufficientSpaceError": InsufficientSpaceError,
    "PanicError": PanicError,
}


def is_transient(exc: BaseException) -> bool:
    """May a bounded retry plausibly recover from *exc*?"""
    explicit = getattr(exc, "transient", None)
    if explicit is not None:
        return bool(explicit)
    return isinstance(exc, TRANSIENT_CLASSES)


@dataclass
class FaultSpec:
    """One fault schedule entry: *where*, *how often*, *what happens*."""

    site: str                      # fnmatch pattern over site names
    rate: float = 1.0              # injection probability per visit
    error: type[ExecutionError] = OutOfMemoryError   # for kind="error"
    kind: str = "error"            # "error" | "crash"
    transient: bool = False        # retryable (recovers on re-execution)?
    max_hits: int | None = None    # stop firing after this many injections
    where: dict = field(default_factory=dict)   # fire() kwargs that must match
    skip: int = 0                  # let this many matching visits pass first
    hits: int = 0                  # injections so far (owned by the plane)

    def __post_init__(self) -> None:
        if self.kind not in ("error", "crash"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")


# -- armed scopes --------------------------------------------------------------

_tls = threading.local()


class armed:
    """Marks the current thread as inside a resilience envelope."""

    def __enter__(self) -> "armed":
        _tls.depth = getattr(_tls, "depth", 0) + 1
        return self

    def __exit__(self, *exc: object) -> bool:
        _tls.depth -= 1
        return False


def _is_armed() -> bool:
    return getattr(_tls, "depth", 0) > 0


class FaultPlane:
    """Process-wide fault injector.  Inactive (and near-free) by default."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._specs: list[FaultSpec] = []
        self._seed = 0
        self._visits: dict[str, int] = {}
        self.injected: dict[str, int] = {}   # site -> injection count
        self.by_domain: dict[str, int] = {}  # fault domain -> injections
        self.active = False
        self.armed_only = False

    # -- configuration -------------------------------------------------------

    def configure(
        self,
        seed: int,
        specs: Iterable[FaultSpec],
        *,
        armed_only: bool = False,
    ) -> None:
        """Install a fault schedule and activate the plane."""
        with self._lock:
            self._seed = int(seed)
            self._specs = list(specs)
            for spec in self._specs:
                spec.hits = 0
            self._visits.clear()
            self.injected.clear()
            self.by_domain.clear()
            self.armed_only = armed_only
            self.active = True

    def disable(self) -> None:
        with self._lock:
            self.active = False
            self._specs = []

    def snapshot(self) -> dict:
        """Point-in-time copy of the injection counters."""
        with self._lock:
            return {
                "active": self.active,
                "seed": self._seed,
                "injected": dict(self.injected),
                "injected_total": sum(self.injected.values()),
                "by_domain": dict(self.by_domain),
            }

    def format(self) -> str:
        """Human-readable dump (used by ``repro --chaos``)."""
        snap = self.snapshot()
        lines = [f"fault plane: seed={snap['seed']} "
                 f"active={snap['active']} "
                 f"injected={snap['injected_total']}"]
        for site in sorted(snap["injected"]):
            lines.append(f"  {site:<20} {snap['injected'][site]}")
        return "\n".join(lines)

    # -- the injection decision ----------------------------------------------

    def _decide(self, spec: FaultSpec, site: str, visit: int) -> bool:
        if spec.rate >= 1.0:
            return True
        if spec.rate <= 0.0:
            return False
        # Keyed hash, not random.Random: hash randomization must not make
        # two identical runs diverge.
        key = f"{self._seed}:{site}:{visit}:{spec.site}:{spec.kind}"
        h = hashlib.blake2b(key.encode(), digest_size=8).digest()
        draw = int.from_bytes(h, "big") / 2**64
        return draw < spec.rate

    def fire(self, site: str, **ctx: Any) -> None:
        """Visit *site*; maybe inject.  An error fault raises its error,
        a crash fault :class:`SimulatedCrash`."""
        if not self.active:
            return
        todo: FaultSpec | None = None
        with self._lock:
            if not self.active:
                return
            visit = self._visits.get(site, 0)
            self._visits[site] = visit + 1
            for spec in self._specs:
                if not fnmatch.fnmatchcase(site, spec.site):
                    continue
                if spec.where and any(
                    ctx.get(k) != v for k, v in spec.where.items()
                ):
                    continue
                if spec.max_hits is not None and spec.hits >= spec.max_hits:
                    continue
                if (
                    spec.kind == "error"
                    and self.armed_only
                    and not _is_armed()
                ):
                    continue
                if not self._decide(spec, site, visit):
                    continue
                if spec.skip > 0:
                    # Kill-at-every-boundary harness: let the first
                    # ``skip`` matching visits pass, then fire.  Each
                    # harness iteration bumps ``skip`` by one to walk the
                    # crash point across every boundary of the workload.
                    spec.skip -= 1
                    continue
                spec.hits += 1
                self.injected[site] = self.injected.get(site, 0) + 1
                domain = ctx.get("domain")
                if domain is not None:
                    # Per-tenant chaos accounting: sites tagged with the
                    # owning context's fault domain roll up here, so a
                    # serving test can prove where faults landed.
                    self.by_domain[domain] = self.by_domain.get(domain, 0) + 1
                todo = spec
                break
        if todo is None:
            return
        STATS.bump("faults_injected")
        if todo.kind == "crash":
            raise SimulatedCrash(site)
        detail = "".join(f" {k}={v!r}" for k, v in sorted(ctx.items()))
        exc = todo.error(
            f"injected {'transient' if todo.transient else 'persistent'} "
            f"fault at {site}{detail}"
        )
        exc.transient = todo.transient
        exc.injected = True
        raise exc


#: The process-wide fault plane.
PLANE = FaultPlane()


def maybe_inject(site: str, **ctx: Any) -> None:
    """Visit *site* on the active plane (no-op when the plane is off).

    Raises the scheduled :class:`ExecutionError` when an error fault
    fires.
    """
    if PLANE.active:
        PLANE.fire(site, **ctx)


class suspended:
    """Context manager: temporarily deactivate the plane (harness use —
    e.g. building reference operands must not fault)."""

    def __enter__(self) -> "suspended":
        self._was = PLANE.active
        PLANE.active = False
        return self

    def __exit__(self, *exc: object) -> bool:
        PLANE.active = self._was
        return False


# -- canned configurations -----------------------------------------------------


def enable_chaos(
    seed: int,
    *,
    rate: float = 0.02,
    sites: str = "kernel.*",
    error: type[ExecutionError] = OutOfMemoryError,
) -> None:
    """Low-probability *transient* faults at armed sites — the canned
    schedule behind ``repro --chaos`` and the CI chaos job.  Every
    injected fault is retryable, so a correct resilience layer recovers
    every one of them and programs still produce exact results."""
    PLANE.configure(
        seed,
        [FaultSpec(site=sites, rate=rate, error=error, transient=True)],
        armed_only=True,
    )


def configure_from_env(environ: Mapping[str, str] | None = None) -> bool:
    """Activate chaos mode from ``REPRO_CHAOS_*`` environment variables.

    ``REPRO_CHAOS_SEED`` (required to activate), ``REPRO_CHAOS_RATE``
    (default 0.02), ``REPRO_CHAOS_SITES`` (default ``kernel.*``),
    ``REPRO_CHAOS_ERROR`` (default ``OutOfMemoryError``).  Returns True
    when the plane was activated.
    """
    env = os.environ if environ is None else environ
    seed = env.get("REPRO_CHAOS_SEED")
    if seed is None:
        return False
    enable_chaos(
        int(seed),
        rate=float(env.get("REPRO_CHAOS_RATE", "0.02")),
        sites=env.get("REPRO_CHAOS_SITES", "kernel.*"),
        error=ERROR_CLASSES[env.get("REPRO_CHAOS_ERROR", "OutOfMemoryError")],
    )
    return True
