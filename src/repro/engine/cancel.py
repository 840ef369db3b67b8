"""Cooperative query cancellation: deadlines and client abandonment.

A :class:`CancelToken` carries an absolute deadline (and/or an explicit
cancel flag set when a client abandons its query).  The serving layer
establishes a token for the duration of one query via
:class:`cancel_scope`.  Every checkpoint runs on the forcing thread, so
a thread-local token is all a forcing needs.

:func:`checkpoint` is the cooperative check, called at exactly the
boundaries ``faults/sites.py`` instruments — kernel entry
(``scheduler._run_node``) and planner pass entry
(``fusion.plan_subgraph``).  A tripped checkpoint raises
:class:`~repro.core.errors.TimeoutExpiredError` (``GrB_TIMEOUT``),
which is:

* **transient to the caller** — §V allows re-invocation with a fresh
  deadline to succeed;
* **never retried internally** — ``faults/retry.py`` special-cases it;
* **never a half-commit** — the raise happens before the transactional
  gate in ``engine/txn.py``, so every carrier keeps its last-committed
  value and un-run nodes simply stay PENDING (deferred, per §III).

When no token is active the checkpoint is a single attribute probe —
non-serving workloads pay essentially nothing.
"""

from __future__ import annotations

import threading
import time

from ..core.errors import ExecutionError, PanicError, TimeoutExpiredError

__all__ = [
    "CancelToken",
    "cancel_scope",
    "current_token",
    "checkpoint",
    "as_execution_error",
]


class CancelToken:
    """One query's cancellation state: deadline + explicit-cancel flag."""

    __slots__ = ("deadline", "label", "cancelled", "reason")

    def __init__(self, deadline: float | None = None, label: str = "query"):
        #: Absolute ``time.perf_counter()`` instant, or None (no deadline).
        self.deadline = deadline
        self.label = label
        self.cancelled = False
        self.reason = ""

    @classmethod
    def after_ms(cls, deadline_ms: float | None, label: str = "query") -> "CancelToken":
        """Token expiring *deadline_ms* from now (<= 0 or None: never)."""
        if not deadline_ms or deadline_ms <= 0:
            return cls(None, label)
        return cls(time.perf_counter() + deadline_ms / 1e3, label)

    def cancel(self, reason: str = "cancelled") -> None:
        """Flag the token (idempotent; first reason wins)."""
        if not self.cancelled:
            self.cancelled = True
            self.reason = reason

    def expired(self) -> bool:
        return self.deadline is not None \
            and time.perf_counter() >= self.deadline

    def should_stop(self) -> bool:
        return self.cancelled or self.expired()

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (None: unbounded; floored at 0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.perf_counter())

    def error(self, site: str = "") -> TimeoutExpiredError:
        why = self.reason or "deadline expired"
        at = f" at {site}" if site else ""
        return TimeoutExpiredError(f"{self.label}: {why}{at} (GrB_TIMEOUT)")


# -- token plumbing -----------------------------------------------------------

_tls = threading.local()


def current_token() -> CancelToken | None:
    """The token governing work on this thread, if any."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


class cancel_scope:
    """Bind *token* to the current thread for one query's dispatch.

    Nestable; ``cancel_scope(None)`` masks any enclosing token (used for
    shared batched work that must not die with one rider's deadline).
    """

    def __init__(self, token: CancelToken | None):
        self.token = token

    def __enter__(self) -> CancelToken | None:
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self.token)
        return self.token

    def __exit__(self, *exc: object) -> bool:
        _tls.stack.pop()
        return False


def checkpoint(site: str = "") -> None:
    """Cooperative cancellation point (kernel / pass boundaries).

    Raises ``GrB_TIMEOUT`` when the governing token is cancelled or past
    its deadline; free when no token is active.
    """
    tok = current_token()
    if tok is not None and tok.should_stop():
        from .stats import STATS

        STATS.bump("cancel_stops")
        raise tok.error(site)


def as_execution_error(exc: BaseException, label: str = "query") -> ExecutionError:
    """Map cancellation-adjacent exceptions onto consistent §V codes.

    Deadline expiry and client abandonment (``asyncio.CancelledError``,
    ``TimeoutError``) become the *transient* ``GrB_TIMEOUT``; anything
    else unrecognized is a ``GrB_PANIC`` — persistent, because blind
    re-invocation of an unknown failure has no §V grounds to succeed.
    """
    import asyncio

    if isinstance(exc, ExecutionError):
        return exc
    if isinstance(exc, (asyncio.CancelledError, asyncio.TimeoutError, TimeoutError)):
        return TimeoutExpiredError(
            f"{label}: cancelled ({type(exc).__name__}) (GrB_TIMEOUT)"
        )
    wrapped = PanicError(f"{label}: {type(exc).__name__}: {exc}")
    wrapped.__cause__ = exc
    return wrapped
