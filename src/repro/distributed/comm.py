"""An in-process, MPI-shaped communicator for the distributed simulation.

The paper's conclusion: "our work will shift to enhancements to the
GraphBLAS to support execution on distributed systems", with
``GrB_Context`` as the scoping mechanism (§IV explicitly lists MPI
communicators among future context resources).  We do not have a
cluster, so per the reproduction's substitution rule we simulate one:
*ranks are threads*, point-to-point channels are queues, and the
collectives (barrier, bcast, allgather, allreduce) are implemented on
top — with **byte and message counters**, because communication volume
is the metric a distributed-GraphBLAS evaluation reports and it is
hardware-independent.

The semantics preserved: SPMD execution, rank-addressed messaging, and
collective synchronization — exactly what a future MPI-backed
implementation would sit on.

Fault tolerance (the §V resilience ladder applied to the wire):

* **Timeouts everywhere** — ``recv`` and every collective wait at most
  ``COMM_TIMEOUT`` seconds (:mod:`repro.internals.config`); a dead or
  wedged peer surfaces as ``GrB_PANIC`` instead of deadlocking the
  process.  A dropped message (fault site ``comm.drop``) therefore
  also ends as a timeout on the receiving side.
* **Injection sites** — ``comm.send`` / ``comm.recv`` /
  ``comm.collective`` / ``comm.barrier`` visit the fault plane inside
  the transient-retry guard; a ``kind="slow"`` spec on
  ``comm.collective`` simulates a straggling link.
* **Cluster health** — any rank error marks the :class:`Cluster`
  unhealthy; :meth:`Cluster.run_resilient` retries transient failures
  on a revived cluster with backoff and **degrades to single-process
  execution** (the caller's ``local_fallback``) when the cluster stays
  broken, mirroring the engine's parallel→serial degradation.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.errors import ExecutionError, InvalidValueError, PanicError
from ..engine.stats import STATS
from ..faults.plane import is_transient, should_drop
from ..faults.retry import guard
from ..internals import config

__all__ = ["CommStats", "Communicator", "Cluster"]


def _payload_bytes(obj: Any) -> int:
    """Approximate wire size of a message payload."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    return 8  # scalar-ish


def _timeout_panic(what: str, timeout: float) -> PanicError:
    STATS.bump("comm_timeouts")
    exc = PanicError(
        f"{what} timed out after {timeout:g}s — peer rank presumed dead"
    )
    exc.comm_timeout = True
    return exc


@dataclass
class CommStats:
    """Aggregate communication counters for one cluster run."""

    messages: int = 0
    bytes: int = 0
    collectives: int = 0
    drops: int = 0
    timeouts: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def record(self, nbytes: int) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += nbytes

    def record_collective(self) -> None:
        with self._lock:
            self.collectives += 1

    def record_drop(self) -> None:
        with self._lock:
            self.drops += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "messages": self.messages,
                "bytes": self.bytes,
                "collectives": self.collectives,
                "drops": self.drops,
                "timeouts": self.timeouts,
            }


class Communicator:
    """One rank's endpoint: send/recv plus collectives.

    Every blocking entry point takes an optional ``timeout`` (seconds);
    ``None`` means the process-wide ``COMM_TIMEOUT`` config default.
    """

    def __init__(self, rank: int, size: int, shared: "_Shared"):
        self.rank = rank
        self.size = size
        self._shared = shared

    @staticmethod
    def _timeout(timeout: float | None) -> float:
        if timeout is None:
            return float(config.get_option("COMM_TIMEOUT"))
        return float(timeout)

    # -- point to point ------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise InvalidValueError(f"rank {dest} out of range")
        guard("comm.send", rank=self.rank, dest=dest)
        self._shared.stats.record(_payload_bytes(payload))
        if should_drop("comm.drop", rank=self.rank, dest=dest):
            # The wire ate it: bytes were spent, nothing arrives.  The
            # receiver's timeout turns this into a PanicError there.
            self._shared.stats.record_drop()
            return
        self._shared.queues[dest].put((self.rank, tag, payload))

    def recv(
        self,
        source: int | None = None,
        tag: int | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Receive the next matching message (simple ordered matching).

        Raises :class:`PanicError` when no matching message arrives
        within the timeout — the dead-rank detector.
        """
        guard("comm.recv", rank=self.rank)
        timeout = self._timeout(timeout)
        stash = self._shared.stashes[self.rank]
        for k, (src, t, payload) in enumerate(stash):
            if (source is None or src == source) and (tag is None or t == tag):
                del stash[k]
                return payload
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    raise queue.Empty
                src, t, payload = self._shared.queues[self.rank].get(
                    timeout=remaining
                )
            except queue.Empty:
                self._shared.stats.record_timeout()
                raise _timeout_panic(
                    f"rank {self.rank}: recv(source={source}, tag={tag})",
                    timeout,
                ) from None
            if (source is None or src == source) and (tag is None or t == tag):
                return payload
            stash.append((src, t, payload))

    # -- collectives ------------------------------------------------------------

    def _sync(self, what: str, timeout: float | None) -> None:
        """One barrier generation with dead-rank detection."""
        timeout = self._timeout(timeout)
        try:
            self._shared.barrier.wait(timeout)
        except threading.BrokenBarrierError:
            self._shared.stats.record_timeout()
            raise _timeout_panic(
                f"rank {self.rank}: {what}", timeout
            ) from None

    def barrier(self, timeout: float | None = None) -> None:
        guard("comm.barrier", rank=self.rank)
        self._shared.stats.record_collective()
        self._sync("barrier", timeout)

    def bcast(self, payload: Any, root: int = 0,
              timeout: float | None = None) -> Any:
        guard("comm.collective", rank=self.rank, op="bcast")
        self._shared.stats.record_collective()
        slot = self._shared.blackboard
        if self.rank == root:
            self._shared.stats.record(_payload_bytes(payload) * (self.size - 1))
            slot["bcast"] = payload
        self._sync("bcast", timeout)
        out = slot["bcast"]
        self._sync("bcast", timeout)
        return out

    def allgather(self, payload: Any, timeout: float | None = None) -> list[Any]:
        """Every rank contributes; every rank gets the full list."""
        guard("comm.collective", rank=self.rank, op="allgather")
        self._shared.stats.record_collective()
        self._shared.stats.record(_payload_bytes(payload) * (self.size - 1))
        slot = self._shared.blackboard.setdefault("allgather", {})
        with self._shared.bb_lock:
            slot[self.rank] = payload
        self._sync("allgather", timeout)
        out = [slot[r] for r in range(self.size)]
        self._sync("allgather", timeout)
        if self.rank == 0:
            slot.clear()
        self._sync("allgather", timeout)
        return out

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any],
                  timeout: float | None = None) -> Any:
        parts = self.allgather(value, timeout=timeout)
        acc = parts[0]
        for p in parts[1:]:
            acc = op(acc, p)
        return acc


class _Shared:
    def __init__(self, size: int, stats: CommStats | None = None):
        self.queues = [queue.Queue() for _ in range(size)]
        self.stashes: list[list] = [[] for _ in range(size)]
        self.barrier = threading.Barrier(size)
        self.blackboard: dict = {}
        self.bb_lock = threading.Lock()
        self.stats = stats if stats is not None else CommStats()


class Cluster:
    """An SPMD launcher: ``cluster.run(fn)`` calls ``fn(comm)`` per rank.

    The simulated analogue of ``mpiexec -n <size>``; exceptions raised
    on any rank propagate to the caller (with every rank joined first).
    A failed run marks the cluster *unhealthy*; :meth:`revive` rebuilds
    the wire state (queues, barrier, blackboard — counters survive) and
    :meth:`run_resilient` automates retry + single-process degradation.
    """

    def __init__(self, size: int):
        if size < 1:
            raise InvalidValueError("cluster size must be >= 1")
        self.size = size
        self._shared = _Shared(size)
        self._healthy = True

    @property
    def stats(self) -> CommStats:
        return self._shared.stats

    @property
    def healthy(self) -> bool:
        """False once any rank of a run raised (until :meth:`revive`)."""
        return self._healthy

    def revive(self) -> None:
        """Rebuild the wire state after a failure (fresh queues/barrier;
        communication counters carry over)."""
        self._shared = _Shared(self.size, stats=self._shared.stats)
        self._healthy = True

    def run(self, fn: Callable[[Communicator], Any]) -> list[Any]:
        """Run ``fn`` on every rank; returns per-rank results."""
        results: list[Any] = [None] * self.size
        errors: list[BaseException] = []

        def worker(rank: int) -> None:
            comm = Communicator(rank, self.size, self._shared)
            try:
                results[rank] = fn(comm)
            except BaseException as exc:  # noqa: BLE001 - rethrown below
                errors.append(exc)
                # Unblock peers stuck in a collective or a recv.
                self._shared.barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank{r}")
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self._shared.barrier.reset()
        if errors:
            self._healthy = False
            # Prefer the root cause over the timeout PanicErrors the
            # abort provoked on peer ranks.
            primary = [e for e in errors
                       if not getattr(e, "comm_timeout", False)]
            raise (primary or errors)[0]
        return results

    def run_resilient(
        self,
        fn: Callable[[Communicator], Any],
        local_fallback: Callable[[], Any] | None = None,
    ) -> Any:
        """``run(fn)`` with the full resilience ladder.

        Transient failures retry on a revived cluster with exponential
        backoff (``RETRY_MAX`` / ``RETRY_BASE_DELAY``); a persistent
        failure — or an already-unhealthy cluster — degrades to
        ``local_fallback()`` (single-process execution) when one is
        provided, else propagates.
        """
        def degrade(exc: BaseException | None) -> Any:
            if local_fallback is None:
                if exc is not None:
                    raise exc
                raise PanicError(
                    "cluster is unhealthy and no local fallback was given"
                )
            STATS.bump("degraded_local")
            return local_fallback()

        if not self._healthy:
            return degrade(None)
        attempt = 0
        while True:
            try:
                result = self.run(fn)
            except ExecutionError as exc:
                if (not is_transient(exc)
                        or attempt >= config.get_option("RETRY_MAX")):
                    if is_transient(exc):
                        STATS.bump("retries_exhausted")
                    return degrade(exc)
                time.sleep(
                    config.get_option("RETRY_BASE_DELAY") * (2 ** attempt)
                )
                attempt += 1
                STATS.bump("retries")
                self.revive()
                continue
            if attempt:
                STATS.bump("retries_recovered")
            return result
