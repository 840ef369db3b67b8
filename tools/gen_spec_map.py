#!/usr/bin/env python3
"""Generate docs/spec_mapping.md: every GrB_* symbol this repo provides.

Walks :mod:`repro.capi` (the C-spelled polymorphic surface) and
:mod:`repro.capi_typed` (the nonpolymorphic variants), groups symbols by
kind, and writes a reference table so a reader of the 2.0 spec can find
each name.  Run after changing the API surface:

    python tools/gen_spec_map.py
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def classify(name: str, obj) -> str:
    from repro.core.binaryop import BinaryOp
    from repro.core.descriptor import Descriptor
    from repro.core.indexunaryop import IndexUnaryOp
    from repro.core.monoid import Monoid
    from repro.core.semiring import Semiring
    from repro.core.types import Type
    from repro.core.unaryop import UnaryOp

    if isinstance(obj, Type):
        return "types"
    if isinstance(obj, UnaryOp):
        return "unary operators"
    if isinstance(obj, BinaryOp):
        return "binary operators"
    if isinstance(obj, IndexUnaryOp):
        return "index-unary operators (Table IV)"
    if isinstance(obj, Monoid):
        return "monoids"
    if isinstance(obj, Semiring):
        return "semirings"
    if isinstance(obj, Descriptor):
        return "descriptors"
    if callable(obj):
        if "_setElement_" in name or "_extractElement_" in name or \
                name.split("_")[-1] in (
                    "BOOL", "INT8", "INT16", "INT32", "INT64", "UINT8",
                    "UINT16", "UINT32", "UINT64", "FP32", "FP64"):
            return "nonpolymorphic typed variants (§VI)"
        return "methods and operations"
    return "constants and enums"


#: Hand-written mapping of the §III/§V execution-semantics rows to the
#: modules that implement them (kept here so regeneration preserves it).
EXEC_SECTION = """
## execution semantics (§III / §V)

The spec rows that are *behaviour*, not symbols, and where each lives:

| spec row | meaning | implementation |
|---|---|---|
| §III blocking mode | every method executes before it returns | `core/sequence.py` (submit + immediate force) |
| §III nonblocking mode | methods may be delayed, reordered, optimized | `engine/dag.py` nodes + `engine/fusion.py::plan_subgraph` planner |
| §III "optimize" freedom: masked products | `C⟨M⟩ = A ⊕.⊗ B` may skip off-mask products entirely | `ops/mxm.py::mxm` hands the op's own mask to the kernel (`MASK_PUSHDOWN`) → `internals/mxm.py::_fold_slots` slot fold over `internals/mxm.py::_slot_table` (§VIII `GrB_STRUCTURE`/`GrB_COMP` honoured in-kernel) |
| §III "optimize" freedom: chain fusion | producer chains may run as one pass | `engine/passes/fuse.py` + `internals/applyselect.py` pipelines; the spliced stage list re-optimized by `engine/fusion.py::optimize_stages` |
| §III optimization arbitration | rewrites decided by a fixed pass order | `engine/fusion.py::_gate` runs `fuse → schedule` only when `engine/passes/fuse.py::can_fire` holds; decisions land on the nodes in `engine/passes/schedule.py::run`, and a faulted pass is skipped by `engine/fusion.py::plan_subgraph` |
| §III amortized algorithm setup | repeated algorithm calls on an unchanged graph reuse their pure preprocessing | `algorithms/_blocks.py::_cached` memoized building blocks (`("algo", kind, (uid, version), params, fingerprint)` keys) in the per-Context `engine/memo.py::ResultMemo` with cost-weighted eviction; dropped by `engine/memo.py::invalidate_handle` on a write or `GrB_free`, patched across a batched write by `engine/memo.py::patch_handle_blocks`; republished via `engine/txn.py::commit` |
| §VIII masked-kernel fast paths | complemented/structural mask filters at kernel entry | `internals/mxm.py` (masked `mxm`: per-call slot table or `searchsorted` slots, fold by slot; `mxv`/`vxm`: `in_sorted` membership; empty-complement keep-all) + `internals/maskaccum.py` memoized mask keys |
| §III "sequence of methods that define an object" | per-object defining sequence | sequence edges (`Node.prev`) threaded through `engine/dag.py` |
| §V forcing call | a read/`wait` completes exactly the pending subgraph it observes | `engine/scheduler.py::force` (topological; `mxm`'s row blocks are the only threaded unit) |
| §V `GrB_wait(COMPLETE)` | errors surfaced; execution may stay deferred | `engine/scheduler.py::chain_complete_safe` |
| §V `GrB_wait(MATERIALIZE)` | object fully computed | `core/sequence.py` delegating to `force` |
| §V deferred execution errors | raise at the forcing call, once; API errors never deferred | `engine/scheduler.py` failure recording + `ops/*` eager validation |
| §V error string | thread-safe `GrB_error` text survives the deferral | owner `_err` set by `engine/scheduler.py::_record_failure` |
| §V failed-op output state | output keeps its last-materialized value | transactional commit gate `engine/txn.py::commit` (validate, then one reference store) |
| §V transient execution errors | `GrB_OUT_OF_MEMORY` / `GrB_INSUFFICIENT_SPACE` may succeed on re-invocation | `faults/retry.py::with_retry` (bounded retry, exponential backoff) around every node evaluation |
| §V persistent faults | exhaust the ladder, then defer like any execution error | mxm block-ladder degradation: serial re-run of `mxm`'s blocks, `Context.record_worker_fault` → `Context.is_degraded` |
| §V fault observability | error handling must be testable deterministically | `faults/plane.py` seeded site injection (incl. `planner.*` pass-boundary sites) + `Context.engine_stats()` fault counters |
| §V optimization transparency on failure | an optimized chain that fails re-runs unoptimized with exact deferred-error state | `engine/scheduler.py::_run_deoptimized_fallback` (unfuse: the producers an `engine/fusion.py::FusionPlan` absorbed re-run standalone) |
| §IV multi-tenant serving on hierarchical contexts | N resident graphs served to sessions on child contexts, each with its own worker share, memo quota, and fault domain | `serve/` (`GraphService`/`Session` zero-copy per-tenant views, `AdmissionController` typed `GrB_INSUFFICIENT_SPACE` load shedding, `serve/batch.py` msbfs/dedup window coalescing, `serve/server.py` asyncio front door); per-tenant rollups in `engine/stats.py::ContextStats`, domain-scoped chaos in `faults/plane.py` |
| §V query deadlines | an expired query stops cooperatively, surfaces a transient `GrB_TIMEOUT`, and leaves outputs last-materialized | `engine/cancel.py` `CancelToken` checked at every kernel/pass boundary (`engine/scheduler.py`, `engine/fusion.py`); `core/errors.py::TimeoutExpiredError` (`Info.TIMEOUT`), admission slot freed in `serve/server.py` |
| §V per-tenant circuit breakers | a failure-streaking tenant is shed typed/transient, probed half-open, and auto-restored on recovery | `serve/health.py` (`CircuitBreaker`, `HealthMonitor`, `TenantBreakerOpenError`); outcome recording in `serve/service.py::_record_outcome`, `Context.restore()` on recovery |
| §II opaque objects: format freedom | the implementation may carry a matrix in any internal format; hypersparse graphs stored O(nnz) | `internals/containers.py::MatData` (one carrier with an optional `row_ids` row list; `nonempty_rows` and `internals/containers.py::row_gather` read either form), `internals/containers.py::use_row_list` policy on module constants; `engine/txn.py::commit_format` adds or drops the row list at the `engine/txn.py` commit gate; `formats/serialize.py::_mat_data_blob` v3 kind-3 row-list blobs (v2 still read) |
| §VII checkpoint/journal durability | resident graphs snapshot as opaque versioned blobs; acknowledged mutations journaled before publish; warm restart replays journal-over-snapshot | `serve/recovery.py` (`CheckpointStore`, CRC-framed WAL, digest-keyed §VII blobs via `formats/serialize.py::carrier_serialize`, atomic `MANIFEST.json`); `GraphService.checkpoint()/restore()` with warm algo-memo blocks |
| §III "optimize" freedom: incremental recomputation | a small write may update derived results from the write set instead of recomputing | `internals/stream.py` `WriteDelta` positional merge (`Matrix.update_batch`, journal-replay parity via `serve/recovery.py::apply_edges`); `engine/memo.py::patch` delta-patched blocks under `algorithms/delta.py` rules with `algorithms/delta.py::should_delta_patch` arbitration; warm-fixpoint pagerank/components/triangles (`algorithms/_blocks.py` `"warm:"` blocks); `GraphService.ingest_edges` buffered batch commit + `Session.view` in-place forward patching; `ENGINE_DELTA` ablation knob |
| §VII cross-process warm start | serialized state is process-independent: a fresh process (replica, CI run) may serve another process's committed algorithm blocks instead of recomputing them | `store/` content-addressed on-disk tier (`store/store.py` CRC-framed §VII blobs, LRU-by-atime eviction under `STORE_MAX_BYTES`, corrupt-entry quarantine-as-miss; `store/tier.py` `blake2b(graph digest, kind, params, serialization version)` keys); second-tier probe + store-behind in `engine/memo.py`; attached via `REPRO_STORE_DIR` / `GraphService(store_dir=)` / CLI `--store-dir`; `STORE_ENABLE` ablation knob, `store.read`/`store.write` fault sites |
"""


def main() -> int:
    from repro import capi, capi_typed

    groups: dict[str, list[str]] = defaultdict(list)
    for name in sorted(capi.__all__):
        groups[classify(name, getattr(capi, name))].append(name)
    typed = [n for n in sorted(capi_typed.__all__) if n.startswith("GrB_")]
    groups["nonpolymorphic typed variants (§VI)"].extend(typed)

    out = Path(__file__).resolve().parent.parent / "docs" / "spec_mapping.md"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        fh.write("# GraphBLAS 2.0 symbol map\n\n")
        fh.write("Every `GrB_*` symbol provided by this implementation, "
                 "auto-generated by `tools/gen_spec_map.py`.  The "
                 "polymorphic names live in `repro.capi`; the "
                 "nonpolymorphic typed variants in `repro.capi_typed`; "
                 "Pythonic spellings in `repro.grb`.\n")
        fh.write(EXEC_SECTION)
        total = 0
        order = [
            "constants and enums", "types", "unary operators",
            "binary operators", "index-unary operators (Table IV)",
            "monoids", "semirings", "descriptors",
            "methods and operations",
            "nonpolymorphic typed variants (§VI)",
        ]
        for group in order:
            names = groups.get(group, [])
            if not names:
                continue
            total += len(names)
            fh.write(f"\n## {group} ({len(names)})\n\n")
            for k in range(0, len(names), 4):
                row = names[k:k + 4]
                fh.write("| " + " | ".join(f"`{n}`" for n in row) + " |\n")
                if k == 0:
                    fh.write("|" + "---|" * len(row) + "\n")
        fh.write(f"\n---\n\n{total} symbols total.\n")
    print(f"wrote {out} ({total} symbols)")
    return 0


if __name__ == "__main__":
    from repro.core.context import Mode, init

    init(Mode.NONBLOCKING)
    raise SystemExit(main())
