"""Transactional kernel commits (§V "well-defined state on failure").

Kernels in this codebase assemble their outputs into *scratch* state:
fresh carriers (immutable dataclasses over fresh numpy arrays) that no
GraphBLAS object references until execution finishes.  The commit point
— where a scratch carrier becomes the output object's visible state —
is therefore a single reference store, and :func:`commit` makes that
point explicit and guarded:

* a fault injected at ``txn.commit`` (or anywhere earlier in the
  kernel) aborts the transaction *before* the store, so the output
  object keeps its last-materialized value exactly as §V requires;
* a cheap structural validation refuses to publish a corrupt carrier
  (raising :class:`InvalidObjectError` instead), turning silent
  corruption into the §V error path.

Every execution funnel routes through here: blocking mode via
``OpaqueObject._run_now``, the nonblocking scheduler via
``_checked_evaluate``, and *republished* carriers — algorithm-block
memo hits — which pass the same gate as a fresh kernel result so a
cached value can never dodge the fault plane or publish corrupt state.
"""

from __future__ import annotations

from typing import Any

from ..core.errors import InvalidObjectError
from ..faults.plane import maybe_inject
from ..internals.containers import MatData, use_row_list
from .stats import STATS

__all__ = ["commit", "commit_format", "validate_carrier"]


def validate_carrier(carrier: Any) -> None:
    """Cheap structural invariants on a scratch carrier (O(1) checks —
    full value validation is ``validate.check_object``'s job)."""
    indptr = getattr(carrier, "indptr", None)
    if indptr is not None:  # MatData-shaped
        row_ids = carrier.row_ids
        slots = carrier.nrows if row_ids is None else len(row_ids)
        if len(indptr) != slots + 1:
            raise InvalidObjectError(
                f"refusing to commit corrupt scratch state: indptr length "
                f"{len(indptr)} != row slots+1 ({slots + 1})"
            )
        if len(indptr) and (indptr[0] != 0 or indptr[-1] != len(carrier.col_indices)):
            raise InvalidObjectError(
                "refusing to commit corrupt scratch state: indptr does not "
                "span col_indices"
            )
        if len(carrier.col_indices) != len(carrier.values):
            raise InvalidObjectError(
                "refusing to commit corrupt scratch state: col/value length "
                "mismatch"
            )
        return
    indices = getattr(carrier, "indices", None)
    if indices is not None:  # VecData-shaped
        if len(indices) != len(carrier.values):
            raise InvalidObjectError(
                "refusing to commit corrupt scratch state: index/value "
                "length mismatch"
            )


def commit_format(label: str, carrier):
    """The hypersparse decision at the transaction commit gate.

    Kernels assemble scratch carriers through the policy already, but a
    committed matrix is the long-lived artifact iterated by every later
    forcing — so the *commit* is where the choice is authoritative.
    Applies :func:`~...internals.containers.use_row_list` to the
    carrier's final shape, adding or dropping the row list when the
    kernel's choice disagrees.  Deterministic in (nrows, nnz), so
    journal replay re-derives bit-identical carriers.  Every repack
    emits a ``cost:format`` instant; every commit with a row list bumps
    ``format_dcsr_commits``.
    """
    if not isinstance(carrier, MatData):
        return carrier
    current = carrier.row_ids is not None
    target = use_row_list(carrier.nrows, carrier.nvals)
    if target:
        STATS.bump("format_dcsr_commits")
    if target == current:
        return carrier
    out = carrier.to_hypersparse() if target else carrier.to_csr()
    STATS.instant(
        f"cost:format:{label}", "planner",
        {
            "label": label,
            "nrows": carrier.nrows,
            "nvals": carrier.nvals,
            "from": "dcsr" if current else "csr",
            "to": "dcsr" if target else "csr",
        },
    )
    return out


def commit(label: str, carrier: Any) -> Any:
    """The transaction's commit gate: fault point + validation, then
    hand the scratch carrier back for the (atomic) reference store.

    Matrix carriers additionally pass :func:`commit_format`: the
    committed artifact is what every later forcing iterates, so the
    row-list choice is re-derived here from the final (nrows, nnz)
    shape and the scratch carrier repacked if the kernel's assembly
    disagreed."""
    maybe_inject("txn.commit", label=label)
    carrier = commit_format(label, carrier)
    validate_carrier(carrier)
    return carrier
