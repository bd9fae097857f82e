"""Plan execution: turning a :class:`TransferPlan` into library calls.

This is the runtime half of the paper's Section IV-B/IV-C translation:
contiguous runs become ``shmem_putmem``/``shmem_getmem``, strided lines
become ``shmem_iput``/``shmem_iget``.  Payload marshalling keeps line
chunks aligned with plan order by moving the base dimension last (plans
enumerate lines in C order over the remaining dimensions).

Execution normally goes through the layer's **batched fast path**
(:meth:`~repro.comm.base.OneSidedLayer.execute_plan_put` /
``execute_plan_get``): one aggregate network pricing, one scatter/gather
through a precomputed index array, one tracer record.  Virtual
timestamps and all stats are bit-identical to the per-call loop, which
is kept both as the ``REPRO_NO_BATCH=1`` escape hatch (set the
environment variable before a launch to force the sequential path; the
layer samples it once, as :attr:`OneSidedLayer.batching`) and as the
oracle the invariance tests compare against.

``stats`` is a :class:`collections.Counter` the runtime passes in; it
records the number of *logical* underlying calls — the quantity the
paper's 50 x 40 x 25 example counts — and is what the strided
benchmarks and tests assert on, batched or not.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.caf.strided import DimSel, TransferPlan
from repro.comm.base import BatchSpec, OneSidedLayer
from repro.comm.heap import SymmetricArray

__all__ = [
    "BatchSpec",
    "build_spec",
    "execute_get",
    "execute_put",
]


def build_spec(plan: TransferPlan, itemsize: int) -> BatchSpec | None:
    """Compile ``plan`` into a :class:`BatchSpec` (per-element byte
    offsets relative to the array base, in plan order).

    Returns ``None`` for empty plans; every non-empty plan qualifies
    because planners emit uniform runs (one shared length) or uniform
    lines (one shared count and stride).
    """
    if plan.lines:
        count = plan.lines[0].count
        stride = plan.lines[0].stride
        offs = np.fromiter(
            (ln.offset for ln in plan.lines), dtype=np.int64, count=len(plan.lines)
        )
        elems = (
            offs[:, None] + np.arange(count, dtype=np.int64)[None, :] * stride
        ).reshape(-1)
        kind, ncalls, per_call = "lines", len(plan.lines), count
    elif plan.runs:
        length = plan.runs[0].length
        offs = np.fromiter(
            (r.offset for r in plan.runs), dtype=np.int64, count=len(plan.runs)
        )
        elems = (offs[:, None] + np.arange(length, dtype=np.int64)[None, :]).reshape(-1)
        kind, ncalls, per_call, stride = "runs", len(plan.runs), length, 1
    else:
        return None
    return BatchSpec(
        kind=kind,
        ncalls=ncalls,
        nelems_per_call=per_call,
        stride=stride,
        rel_index=elems * itemsize,
        min_elem=int(elems.min()),
        max_elem=int(elems.max()),
        rel_elem=elems,
        elem_size=itemsize,
    )


def _sel_shape(sels: list[DimSel]) -> tuple[int, ...]:
    return tuple(s.count for s in sels)


def _count_put_stats(plan: TransferPlan, nelems: int, stats: Counter) -> None:
    if plan.lines:
        stats["iput_calls"] += len(plan.lines)
    else:
        stats["putmem_calls"] += len(plan.runs)
    stats["put_elems"] += nelems


def execute_put(
    layer: OneSidedLayer,
    handle: SymmetricArray,
    pe: int,
    plan: TransferPlan,
    sels: list[DimSel],
    data: np.ndarray,
    stats: Counter,
    spec: BatchSpec | None = None,
) -> None:
    """Write ``data`` (shaped like the selection) to ``pe`` under ``plan``.

    ``spec`` is the plan's compiled :class:`BatchSpec` (pass a cached
    one to skip recompiling); built on the fly when omitted.
    """
    shape = _sel_shape(sels)
    payload = np.ascontiguousarray(np.broadcast_to(data, shape), dtype=handle.dtype)
    if plan.lines:
        moved = np.moveaxis(payload, plan.base_dim, -1)
        flat = np.ascontiguousarray(moved).reshape(-1)
    else:
        flat = payload.reshape(-1)
    if layer.batching:
        # Single-call plans skip the batch machinery entirely: one line
        # is exactly one iput (one run one put), with bit-identical
        # pricing, stats, and trace — and no index-array construction.
        # Non-native single lines only qualify when they hold a single
        # element (otherwise the batch path's aggregate put pricing is
        # the faster shape).
        if plan.lines and len(plan.lines) == 1 and (
            layer.profile.iput_native or plan.lines[0].count == 1
        ):
            line = plan.lines[0]
            layer.iput(
                handle, flat, tst=line.stride, sst=1,
                nelems=line.count, pe=pe, offset=line.offset,
            )
            _count_put_stats(plan, int(payload.size), stats)
            return
        if not plan.lines and len(plan.runs) == 1:
            layer.put(handle, flat, pe, offset=plan.runs[0].offset)
            _count_put_stats(plan, int(payload.size), stats)
            return
        if spec is None:
            spec = build_spec(plan, handle.itemsize)
        if spec is not None:
            layer.execute_plan_put(handle, flat, pe, spec)
        _count_put_stats(plan, int(payload.size), stats)
        return
    pos = 0
    if plan.lines:
        for line in plan.lines:
            layer.iput(
                handle,
                flat[pos : pos + line.count],
                tst=line.stride,
                sst=1,
                nelems=line.count,
                pe=pe,
                offset=line.offset,
            )
            pos += line.count
    else:
        for run in plan.runs:
            layer.put(handle, flat[pos : pos + run.length], pe, offset=run.offset)
            pos += run.length
    _count_put_stats(plan, int(payload.size), stats)


def execute_get(
    layer: OneSidedLayer,
    handle: SymmetricArray,
    pe: int,
    plan: TransferPlan,
    sels: list[DimSel],
    stats: Counter,
    spec: BatchSpec | None = None,
) -> np.ndarray:
    """Read the selection from ``pe`` under ``plan``; returns an array
    shaped like the (unsqueezed) selection."""
    shape = _sel_shape(sels)
    use_batch = layer.batching
    if use_batch:
        # Mirror execute_put's single-call short-circuit (same
        # bit-identity argument, no index-array construction).
        if plan.lines and len(plan.lines) == 1 and (
            layer.profile.iput_native or plan.lines[0].count == 1
        ):
            line = plan.lines[0]
            base = plan.base_dim
            moved_shape = tuple(
                c for d, c in enumerate(shape) if d != base
            ) + (shape[base],)
            gathered = layer.iget(
                handle, tst=1, sst=line.stride, nelems=line.count,
                pe=pe, offset=line.offset,
            ).reshape(moved_shape)
            stats["iget_calls"] += 1
            result = np.ascontiguousarray(np.moveaxis(gathered, -1, base))
            stats["get_elems"] += int(result.size)
            return result
        if not plan.lines and len(plan.runs) == 1:
            run = plan.runs[0]
            result = layer.get(handle, run.length, pe, offset=run.offset).reshape(shape)
            stats["getmem_calls"] += 1
            stats["get_elems"] += int(result.size)
            return result
    if use_batch and spec is None:
        spec = build_spec(plan, handle.itemsize)
    if plan.lines:
        base = plan.base_dim
        moved_shape = tuple(c for d, c in enumerate(shape) if d != base) + (shape[base],)
        if use_batch and spec is not None:
            gathered = layer.execute_plan_get(handle, pe, spec).reshape(moved_shape)
        else:
            gathered = np.empty(moved_shape, dtype=handle.dtype)
            flat = gathered.reshape(-1)
            pos = 0
            for line in plan.lines:
                flat[pos : pos + line.count] = layer.iget(
                    handle, tst=1, sst=line.stride, nelems=line.count, pe=pe, offset=line.offset
                )
                pos += line.count
        stats["iget_calls"] += len(plan.lines)
        result = np.ascontiguousarray(np.moveaxis(gathered, -1, base))
    else:
        if use_batch and spec is not None:
            result = layer.execute_plan_get(handle, pe, spec).reshape(shape)
        else:
            result = np.empty(shape, dtype=handle.dtype)
            flat = result.reshape(-1)
            pos = 0
            for run in plan.runs:
                flat[pos : pos + run.length] = layer.get(handle, run.length, pe, offset=run.offset)
                pos += run.length
        stats["getmem_calls"] += len(plan.runs)
    stats["get_elems"] += int(result.size)
    return result
