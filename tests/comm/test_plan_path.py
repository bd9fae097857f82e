"""The batched plan path: one flag sample per job, one pricer per plan
shape, and deferred trace footprints that resolve to the reference
interval lists."""

import numpy as np
import pytest

from repro import caf, shmem, trace
from repro.caf.runtime import attach as caf_attach
from repro.comm.base import VECTOR_MIN_ELEMS, BatchSpec
from repro.comm.heap import SymmetricArray
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.trace.events import offsets_footprint, strided_footprint


def _caf_job(tracer=False):
    job = Job(2, "stampede")
    rt = caf_attach(job, profile="cray-shmem", strided="naive")
    return job, rt, (trace.attach(job) if tracer else None)


def test_no_batch_set_inside_a_running_job_is_not_sampled(monkeypatch):
    """``REPRO_NO_BATCH`` is read once per launch: setting it inside the
    job body leaves a later section put on the batched path (one trace
    record covering every logical call, not one record per call)."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    job, rt, tracer = _caf_job(tracer=True)

    def kernel():
        rt.startup()
        a = caf.coarray((8, 8), np.float64)
        caf.sync_all()
        if caf.this_image() == 1:
            monkeypatch.setenv("REPRO_NO_BATCH", "1")
            a.on(2)[0:8:2, 0:8:2] = 1.0  # naive: 16 one-element puts
        caf.sync_all()

    job.run(kernel)
    puts = [e for e in tracer.events[0] if e.op == "put" and e.target == 1]
    assert len(puts) == 1
    assert puts[0].calls == 16


def test_same_shape_section_puts_share_one_plan_pricer(monkeypatch):
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    job, rt, _ = _caf_job()

    def kernel():
        rt.startup()
        a = caf.coarray((8, 8), np.float64)
        caf.sync_all()
        n = None
        if caf.this_image() == 1:
            for i in range(4):
                a.on(2)[0:8:2, 0:8:2] = float(i)
                a.on(2)[1:8:2, 1:8:2] = float(i)  # same shape, other offsets
            n = len(rt.layer._pricers)
        caf.sync_all()
        return n

    assert job.run(kernel)[0] == 1


# ---------------------------------------------------------------------------
# Deferred footprints vs the reference helpers
# ---------------------------------------------------------------------------


def _lines_spec(ncalls, per_call, stride, elem_size):
    elems = (
        (np.arange(ncalls, dtype=np.int64) * (per_call * stride + 3))[:, None]
        + np.arange(per_call, dtype=np.int64)[None, :] * stride
    ).reshape(-1)
    return BatchSpec(
        kind="lines", ncalls=ncalls, nelems_per_call=per_call, stride=stride,
        rel_index=elems * elem_size, min_elem=int(elems.min()),
        max_elem=int(elems.max()), rel_elem=elems, elem_size=elem_size,
    )


@pytest.mark.parametrize(
    "dtype,base",
    [("f8", 4096), ("f8", 4100), ("S3", 4096)],
    ids=["aligned", "unaligned", "viewless"],
)
@pytest.mark.parametrize("big", [False, True], ids=["write_at", "scatter_at"])
def test_capture_sync_footprints_match_reference(dtype, base, big):
    dt = np.dtype(dtype)
    es = dt.itemsize
    spec = _lines_spec(20, 30, 2, es) if big else _lines_spec(2, 3, 2, es)
    assert (spec.total_elems >= VECTOR_MIN_ELEMS) == big
    job = Job(2, "stampede")
    layer = shmem.attach(job, "cray-shmem")
    tracer = trace.attach(job, capture_sync=True)
    length = spec.max_elem + 64
    data = np.arange(spec.total_elems).astype(dt)
    line = np.arange(5).astype(dt)

    def kernel():
        layer.barrier_all()
        if current().pe == 0:
            arr = SymmetricArray(layer, base, (length,), dt)
            layer.iput(arr, line, tst=3, sst=1, nelems=5, pe=1, offset=7)
            layer.iget(arr, tst=1, sst=4, nelems=5, pe=1, offset=2)
            layer.execute_plan_put(arr, data, 1, spec)
            got = layer.execute_plan_get(arr, 1, spec)
            assert got.tobytes() == data.tobytes()
        layer.barrier_all()

    job.run(kernel)
    events = [e for e in tracer.events[0] if e.target == 1]
    assert [(e.op, e.calls) for e in events] == [
        ("iput", 1), ("iget", 1), ("iput", spec.ncalls), ("iget", spec.ncalls),
    ]
    plan_fp = offsets_footprint(spec.rel_index + base, es)
    assert [e.footprint for e in events] == [
        strided_footprint(base + 7 * es, 3 * es, es, 5),
        strided_footprint(base + 2 * es, 4 * es, es, 5),
        plan_fp,
        plan_fp,
    ]
