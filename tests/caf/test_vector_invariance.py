"""Bit-identity of the batched plan path against the per-call oracle.

Every workload runs two ways — the batched fast path (default) and the
per-call loop (``REPRO_NO_BATCH=1``) — and must produce identical
virtual clocks, stats counters, local buffers, and fetched sections,
bit for bit.
A hypothesis property drives random shapes, slices, dtypes, and
strided-translation policies through the comparison; the deterministic
tests pin the short-circuit paths (zero-length and single-call plans)
and the sanitizer on the fast path.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import caf
from repro.caf.runtime import current_runtime
from repro.runtime.context import current

@contextmanager
def _mode(no_batch=False):
    saved = os.environ.pop("REPRO_NO_BATCH", None)
    try:
        if no_batch:
            os.environ["REPRO_NO_BATCH"] = "1"
        yield
    finally:
        os.environ.pop("REPRO_NO_BATCH", None)
        if saved is not None:
            os.environ["REPRO_NO_BATCH"] = saved


def _run_two_ways(fn, **kw):
    with _mode():
        fast = caf.launch(fn, **kw)
    with _mode(no_batch=True):
        oracle = caf.launch(fn, **kw)
    return fast, oracle


def _section_kernel(shape, key, dtype_name):
    """Image 1 writes a deterministic pattern to the section on image 2,
    reads it back, and every image fingerprints its state."""
    dtype = np.dtype(dtype_name)
    a = caf.coarray(shape, dtype)
    a[...] = 0
    caf.sync_all()
    got = None
    if caf.this_image() == 1:
        sel_shape = tuple(len(range(*s.indices(d))) for s, d in zip(key, shape))
        n = int(np.prod(sel_shape))
        data = (np.arange(n) % 97).reshape(sel_shape).astype(dtype)
        a.on(2)[key] = data
        got = np.asarray(a.on(2)[key])
    caf.sync_all()
    stats = {
        k: v
        for k, v in current_runtime().my_stats.items()
        if not k.startswith("plan_cache")
    }
    return (
        current().clock.now,
        stats,
        a.local.copy(),
        got,
    )


def _assert_identical(results_a, results_b):
    for (ca, sa, la, ga), (cb, sb, lb, gb) in zip(results_a, results_b):
        assert ca == cb  # virtual clock, bitwise
        assert sa == sb  # stats counters
        assert la.tobytes() == lb.tobytes()  # destination bytes
        assert (ga is None) == (gb is None)
        if ga is not None:
            assert ga.tobytes() == gb.tobytes()


@st.composite
def sections(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(ndim))
    key = []
    for d in shape:
        start = draw(st.integers(0, d - 1))
        stop = draw(st.integers(start, d))  # may be empty
        step = draw(st.integers(1, 3))
        key.append(slice(start, stop, step))
    dtype_name = draw(st.sampled_from(["u1", "i2", "f4", "f8", "i8"]))
    policy = draw(st.sampled_from(["naive", "2dim", "alldim", "lastdim", "auto"]))
    return shape, tuple(key), dtype_name, policy


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sections())
def test_random_sections_bit_identical(params):
    shape, key, dtype_name, policy = params
    kw = dict(
        num_images=2,
        machine="stampede",
        profile="cray-shmem",
        strided=policy,
        args=(shape, key, dtype_name),
    )
    fast, oracle = _run_two_ways(_section_kernel, **kw)
    _assert_identical(fast, oracle)


@pytest.mark.parametrize("profile", ["cray-shmem", "mvapich2x-shmem", "gasnet"])
def test_inter_node_sections_bit_identical(profile):
    """One inter-node initiator (PEs 0 and 17 live on different nodes),
    shared-timeline pricing paths included."""

    def kernel():
        a = caf.coarray((16, 12), np.float64)
        a[...] = 0.0
        caf.sync_all()
        got = None
        if caf.this_image() == 1:
            tgt = caf.num_images()
            a.on(tgt)[1:15:2, 0:12:3] = np.arange(28.0).reshape(7, 4)
            got = np.asarray(a.on(tgt)[0:16:3, 2:11:2])
        caf.sync_all()
        stats = {
            k: v
            for k, v in current_runtime().my_stats.items()
            if not k.startswith("plan_cache")
        }
        return current().clock.now, stats, a.local.copy(), got

    kw = dict(num_images=17, machine="stampede", profile=profile, strided="2dim")
    fast, oracle = _run_two_ways(kernel, **kw)
    _assert_identical(fast, oracle)


# ---------------------------------------------------------------------------
# Short-circuit paths: zero-length and single-call plans
# ---------------------------------------------------------------------------


def test_zero_length_section_is_free_and_identical():
    def kernel():
        a = caf.coarray((10, 10), np.float64)
        a[...] = 1.0
        caf.sync_all()
        got = None
        if caf.this_image() == 1:
            before = current().clock.now
            a.on(2)[3:3, :] = np.empty((0, 10))
            got = np.asarray(a.on(2)[5:5, 0:10:2])
            assert got.shape == (0, 5)
            assert current().clock.now == before  # nothing priced
        caf.sync_all()
        stats = {
            k: v
            for k, v in current_runtime().my_stats.items()
            if not k.startswith("plan_cache")
        }
        return current().clock.now, stats, a.local.copy(), got

    kw = dict(num_images=2, machine="stampede", profile="cray-shmem", strided="2dim")
    fast, oracle = _run_two_ways(kernel, **kw)
    _assert_identical(fast, oracle)


@pytest.mark.parametrize("profile", ["cray-shmem", "mvapich2x-shmem"])
def test_single_call_plans_bit_identical(profile):
    """Single-line and single-run plans take the scalar short-circuit
    (no index arrays); timing, stats, and data must still match the
    per-call oracle exactly."""

    def kernel():
        a = caf.coarray((12, 12), np.float64)
        a[...] = 0.0
        caf.sync_all()
        got = None
        if caf.this_image() == 1:
            a.on(2)[4, 0:12:3] = np.arange(4.0)          # one strided line
            a.on(2)[7, :] = np.arange(12.0)              # one contiguous run
            a.on(2)[3, 5] = 42.0                         # single element
            got = (
                np.asarray(a.on(2)[4, 0:12:3]),
                np.asarray(a.on(2)[7, :]),
                float(a.on(2)[3, 5]),
            )
        caf.sync_all()
        stats = {
            k: v
            for k, v in current_runtime().my_stats.items()
            if not k.startswith("plan_cache")
        }
        return current().clock.now, stats, a.local.copy(), got

    kw = dict(num_images=2, machine="stampede", profile=profile, strided="2dim")
    fast, oracle = _run_two_ways(kernel, **kw)
    for (ca, sa, la, ga), (cb, sb, lb, gb) in zip(fast, oracle):
        assert ca == cb and sa == sb and la.tobytes() == lb.tobytes()
        if ga is not None:
            assert ga[0].tobytes() == gb[0].tobytes()
            assert ga[1].tobytes() == gb[1].tobytes()
            assert ga[2] == gb[2]


def test_single_call_stats_counts():
    """The short-circuits must still count one logical call apiece."""

    def kernel():
        a = caf.coarray((12, 12), np.float64)
        a[...] = 0.0
        caf.sync_all()
        stats = {}
        if caf.this_image() == 1:
            a.on(2)[4, 0:12:3] = np.arange(4.0)   # -> 1 iput
            a.on(2)[7, :] = np.arange(12.0)       # -> 1 putmem
            _ = a.on(2)[4, 0:12:3]                # -> 1 iget
            _ = a.on(2)[7, :]                     # -> 1 getmem
            stats = dict(current_runtime().my_stats)
        caf.sync_all()
        return stats

    stats = caf.launch(
        kernel, 2, "stampede", profile="cray-shmem", strided="2dim"
    )[0]
    assert stats["iput_calls"] == 1
    assert stats["putmem_calls"] == 1
    assert stats["iget_calls"] == 1
    assert stats["getmem_calls"] == 1
    assert stats["put_elems"] == 16
    assert stats["get_elems"] == 16


# ---------------------------------------------------------------------------
# Sanitizer on the fast path (deferred footprints must resolve)
# ---------------------------------------------------------------------------


def test_sanitizer_passes_on_fast_path():
    """capture_sync tracing on the batched path records deferred
    footprint descriptors; the happens-before sanitizer must see them
    fully materialized and find nothing wrong in a clean program."""

    def kernel():
        a = caf.coarray((16, 16), np.float64)
        a[...] = 0.0
        caf.sync_all()
        if caf.this_image() == 1:
            a.on(2)[0:16:2, 0:16:4] = np.arange(32.0).reshape(8, 4)
            a.on(2)[1, :] = np.arange(16.0)
        caf.sync_all()
        if caf.this_image() == 2:
            _ = a.on(1)[0:16:2, 0:16:4]
        caf.sync_all()
        return True

    with _mode():  # explicit: fast path on
        assert all(
            caf.launch(
                kernel, 2, "stampede",
                profile="cray-shmem", strided="2dim", sanitize=True,
            )
        )
