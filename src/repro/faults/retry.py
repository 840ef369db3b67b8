"""Bounded retry with exponential backoff for transient faults.

Kernels in this codebase are pure functions over immutable carriers —
they allocate fresh outputs and never mutate their inputs — so
re-running one after a transient failure (simulated resource pressure,
a flaky worker) is always safe.  :func:`with_retry` is the single
retry loop used by both execution funnels (blocking ``_run_now`` and
the nonblocking scheduler).

Policy (configurable via :mod:`repro.internals.config`):

* ``RETRY_MAX`` attempts *after* the first (default 3),
* sleep ``RETRY_BASE_DELAY * 2**attempt`` between attempts,
* only :func:`repro.faults.plane.is_transient` errors are retried —
  persistent faults propagate immediately so the §V deferral machinery
  records them.

The body runs inside an :class:`~repro.faults.plane.armed` scope, which
is what lets armed-only chaos mode target exactly the code paths this
loop protects.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

from ..core.errors import ExecutionError, TimeoutExpiredError
from ..engine.stats import STATS
from ..internals import config
from .plane import armed, is_transient

__all__ = ["with_retry"]

T = TypeVar("T")


def with_retry(fn: Callable[[], T], label: str = "") -> T:
    """Run *fn*, retrying transient :class:`ExecutionError` failures
    with exponential backoff.  Non-transient errors, and transient ones
    past the retry budget, propagate to the caller."""
    attempt = 0
    while True:
        try:
            with armed():
                result = fn()
        except TimeoutExpiredError:
            # Transient *to the caller* (a fresh deadline may succeed),
            # but never retried internally: the deadline that expired
            # stays expired, and every backoff sleep would burn wall
            # clock the cancelled query no longer has.
            raise
        except ExecutionError as exc:
            if not is_transient(exc):
                raise
            if attempt >= config.get_option("RETRY_MAX"):
                STATS.bump("retries_exhausted")
                raise
            time.sleep(config.get_option("RETRY_BASE_DELAY") * (2 ** attempt))
            attempt += 1
            STATS.bump("retries")
            continue
        if attempt:
            STATS.bump("retries_recovered")
        return result
