#!/usr/bin/env python3
"""Figure 2, exercised: hierarchical execution contexts (§IV).

Builds the context tree the paper motivates — a top-level context with
nested per-workload contexts carrying implementation-defined execution
specs (ours: thread counts) — then shows that

* objects are created *in* a context (the new constructor argument),
* all objects in one method call must share a context (mixing is an
  API error),
* ``GrB_Context_switch`` re-homes an object so it can participate,
* a context's ``nthreads`` runs mxm's row blocks on that many threads, and
* freeing a context invalidates it (and ``GrB_finalize`` frees all).

Run:  python examples/fig2_context_hierarchy.py
"""

import time


from repro import grb
from repro.capi import (
    GrB_Context_new,
    GrB_Context_switch,
    GrB_Matrix_new,
    GrB_NONBLOCKING,
    GrB_PLUS_TIMES_SEMIRING_FP64,
    GrB_finalize,
    GrB_init,
    GrB_mxm,
    GrB_wait,
)
from repro.generators import rmat, to_matrix

SCALE, EDGE_FACTOR = 10, 8


def timed_mxm(ctx, label: str) -> float:
    n, rows, cols, vals = rmat(SCALE, EDGE_FACTOR, seed=7)
    A = to_matrix(n, rows, cols, vals, grb.FP64, ctx=ctx)
    C = GrB_Matrix_new(grb.FP64, n, n, ctx)
    start = time.perf_counter()
    GrB_mxm(C, None, None, GrB_PLUS_TIMES_SEMIRING_FP64, A, A)
    GrB_wait(C)
    elapsed = time.perf_counter() - start
    print(f"  {label:<28s} nthreads={ctx.nthreads:<2d} "
          f"mxm: {elapsed * 1e3:8.1f} ms  (nvals={C.nvals()})")
    return elapsed


def main() -> None:
    top = GrB_init(GrB_NONBLOCKING)

    # A nested context per workload, as Fig. 2's API supports.  The
    # exec argument is implementation-defined (§IV); ours documents
    # {"nthreads": int, "memo_capacity": int, "fault_domain": str}.
    serial_ctx = GrB_Context_new(GrB_NONBLOCKING, None, {"nthreads": 1})
    wide_ctx = GrB_Context_new(GrB_NONBLOCKING, None, {"nthreads": 4})
    # Hierarchy: a child inherits unset keys from its ancestors.
    child_ctx = GrB_Context_new(GrB_NONBLOCKING, wide_ctx, {})
    print("context tree: top ->",
          f"[serial(n=1), wide(n=4) -> child(inherits n={child_ctx.nthreads})]")

    print("per-context execution:")
    timed_mxm(serial_ctx, "serial context")
    timed_mxm(wide_ctx, "wide context")
    timed_mxm(child_ctx, "child (inherits threads)")

    # -- the shared-context rule -------------------------------------------
    A = GrB_Matrix_new(grb.FP64, 4, 4, serial_ctx)
    B = GrB_Matrix_new(grb.FP64, 4, 4, wide_ctx)
    C = GrB_Matrix_new(grb.FP64, 4, 4, serial_ctx)
    try:
        GrB_mxm(C, None, None, GrB_PLUS_TIMES_SEMIRING_FP64, A, B)
    except grb.InvalidValueError as exc:
        print("\nmixing contexts is rejected, as §IV requires:")
        print("  ", exc)

    # -- GrB_Context_switch fixes it ----------------------------------------
    GrB_Context_switch(B, serial_ctx)
    GrB_mxm(C, None, None, GrB_PLUS_TIMES_SEMIRING_FP64, A, B)
    GrB_wait(C)
    print("after GrB_Context_switch(B, serial_ctx): mxm succeeds")

    # -- freeing -------------------------------------------------------------
    wide_ctx.free()
    try:
        GrB_Matrix_new(grb.FP64, 2, 2, wide_ctx)
    except grb.UninitializedObjectError:
        print("freed context behaves as uninitialized (§IV)")

    GrB_finalize()
    print("GrB_finalize freed every context:",
          "top freed" if top.is_freed else "top alive?!")


if __name__ == "__main__":
    main()
