"""EventEngine behaviour: steps, waits, deadlock and failure reporting."""

import numpy as np
import pytest

from repro.engine import DelayStep, Done, WaitStep, WouldBlock, drive
from repro.engine.event import EventDeadlock
from repro.engine.steps import BarrierStep, alloc_array_step
from repro.runtime.context import current
from repro.runtime.failures import ImageFailedError
from repro.runtime.launcher import Job, JobFailure
from repro.shmem import attach as shmem_attach
from repro.sim.faults import InjectedCrash

HEAP = 1 << 15


def _job(n, engine="event", **kwargs):
    job = Job(n, heap_bytes=HEAP, engine=engine, **kwargs)
    return job, shmem_attach(job)


def _count_polls(layer) -> list:
    """Wrap ``layer._wait_probe`` so every predicate poll is counted."""
    polls = [0]
    probe = layer._wait_probe

    def counting_probe(*args, **kwargs):
        mem, predicate, offset = probe(*args, **kwargs)

        def polled():
            polls[0] += 1
            return predicate()

        return mem, polled, offset

    layer._wait_probe = counting_probe
    return polls


def test_plain_bodies_still_run():
    job, layer = _job(4)

    def body():
        return current().pe * 10

    assert job.run(body) == [0, 10, 20, 30]


def test_delay_step_advances_virtual_clock():
    job, _ = _job(3)

    def body():
        ctx = current()
        return DelayStep(5.5, lambda: Done(ctx.clock.now))

    assert job.run(body) == [5.5] * 3


def test_wait_step_wakes_on_remote_write():
    job, layer = _job(2)

    def body():
        ctx = current()

        def ready(flag):
            if ctx.pe == 0:
                layer.put(flag, np.array([7], dtype=np.int64), 1)
                return Done("writer")
            return WaitStep(layer, flag, "eq", 7, lambda: Done(int(flag.local[0])))

        return alloc_array_step(layer, (1,), np.int64, ready)

    assert job.run(body) == ["writer", 7]


# Every notifying write path of PEMemory, writing int64 7 at byte ``off``
# with virtual completion time ``t``.
_WRITES = {
    "put": lambda mem, off, t: mem.write(
        off, np.array([7], dtype=np.int64), t),
    "strided_put": lambda mem, off, t: mem.write_strided(
        off, 16, 8, np.array([7], dtype=np.int64), t),
    "batched_put": lambda mem, off, t: mem.write_at(
        np.array([off]), 8, np.array([7], dtype=np.int64), t),
    "plan_put": lambda mem, off, t: mem.scatter_at(
        np.array([off // 8]), np.array([7], dtype=np.int64), t,
        elem_size=8, lo=off, hi=off + 8),
    "atomic": lambda mem, off, t: mem.atomic_rmw_timed(
        off, np.int64, lambda old: 7, t),
    "accumulate": lambda mem, off, t: mem.accumulate(
        off, np.int64, np.array([7]), np.add, t),
}


@pytest.mark.parametrize("kind", sorted(_WRITES))
def test_waiter_wakes_on_every_notifying_write(kind):
    """The waiter wakes on the write and merges its timestamp."""
    job, layer = _job(2)
    polls = _count_polls(layer)
    order = []

    def body():
        ctx = current()

        def ready(flag):
            if ctx.pe == 0:
                def write():
                    _WRITES[kind](job.memories[1], flag.element_offset(0), 1e6)
                    return DelayStep(1e7, finish)

                def finish():
                    order.append("writer")
                    return Done("writer")

                return DelayStep(1.0, write)  # after PE 1 has parked

            def woken():
                order.append("waiter")
                return Done((int(flag.local[0]), ctx.clock.now))

            return WaitStep(layer, flag, "eq", 7, woken)

        return alloc_array_step(layer, (1,), np.int64, ready)

    assert job.run(body) == ["writer", (7, 1e6)]
    # Woken right after the write's event (virtual time 1e6), not when
    # the heap drains after the writer's last event (time > 1e7).
    assert order == ["waiter", "writer"]
    assert polls[0] == 2  # parked, then woken by the one write
    assert all(m._write_hook is None for m in job.memories)


def test_waiter_not_polled_for_writes_to_other_memories():
    job, layer = _job(3)
    polls = _count_polls(layer)
    order = []
    rounds = 6

    def body():
        pe = current().pe

        def ready(flag):
            if pe == 2:
                def woken():
                    order.append("waiter")
                    return Done("woken")

                return WaitStep(layer, flag, "eq", 7, woken)
            if pe == 1:
                return Done("bystander")

            def finish():
                order.append("writer")
                return Done("writer")

            def write_pe1(i):
                if i == rounds:
                    layer.put(flag, np.array([7], dtype=np.int64), 2)
                    return DelayStep(1e7, finish)
                layer.put(flag, np.array([i], dtype=np.int64), 1)
                return DelayStep(1.0, lambda: write_pe1(i + 1))

            return DelayStep(1.0, lambda: write_pe1(0))

        return alloc_array_step(layer, (1,), np.int64, ready)

    assert job.run(body) == ["writer", "bystander", "woken"]
    assert order == ["waiter", "writer"]
    # One poll on parking and one on PE 2's own write: the six events
    # that wrote only PE 1's memory never polled PE 2's predicate.
    assert polls[0] == 2


def test_survivable_crash_of_awaited_pe_fails_the_wait():
    job, layer = _job(2, survivable=True)

    def body():
        ctx = current()

        def ready(flag):
            if ctx.pe == 0:
                def crash():
                    raise InjectedCrash("writer dies")

                return DelayStep(1.0, crash)
            return WaitStep(layer, flag, "eq", 7, lambda: Done("woken"),
                            target=0)

        return alloc_array_step(layer, (1,), np.int64, ready)

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    (pe, exc), = exc_info.value.failures
    assert pe == 1
    assert isinstance(exc, ImageFailedError)
    assert (exc.op, exc.target) == ("wait", 0)


def test_unreleasable_wait_is_deadlock():
    job, layer = _job(3)

    def body():
        def ready(flag):
            if current().pe == 1:
                return WaitStep(layer, flag, "eq", 7, lambda: Done("woken"))
            return Done("never writes")

        return alloc_array_step(layer, (1,), np.int64, ready)

    with pytest.raises(EventDeadlock, match=r"PE\(s\) \[1\]"):
        job.run(body)
    assert all(m._write_hook is None for m in job.memories)


def test_shmem_ptr_store_wakes_waiter_on_drain():
    """A store through a shmem_ptr view notifies nobody; the drained
    heap's re-poll still finds the wait satisfied."""
    job, layer = _job(2)
    assert job.topology.same_node(0, 1)

    def body():
        ctx = current()

        def ready(flag):
            if ctx.pe == 0:
                def store():
                    layer.shmem_ptr(flag, 1)[0] = 7
                    return Done("stored")

                return DelayStep(1.0, store)
            return WaitStep(layer, flag, "eq", 7,
                            lambda: Done(int(flag.local[0])))

        return alloc_array_step(layer, (1,), np.int64, ready)

    assert job.run(body) == ["stored", 7]


def test_inline_blocking_wait_raises_wouldblock():
    job, layer = _job(2)

    def body():
        ctx = current()

        def go(flag):
            if ctx.pe == 1:
                layer.wait_until(flag, "eq", 1)  # inline: only PE 1 ever here
            return Done(None)

        return alloc_array_step(layer, (1,), np.int64, go)

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    (pe, exc), = exc_info.value.failures
    assert pe == 1
    assert isinstance(exc, WouldBlock)


def test_unreleasable_barrier_is_deadlock():
    job, layer = _job(3)

    def body():
        if current().pe == 0:
            return Done("skipped the barrier")
        return BarrierStep(layer, lambda: Done("released"))

    with pytest.raises(EventDeadlock, match=r"PE\(s\) \[1, 2\]"):
        job.run(body)


def test_failure_aborts_parked_pes():
    """A crash must not hang PEs already parked at the barrier."""
    job, layer = _job(4)

    def body():
        def after_alloc(_flag):
            if current().pe == 3:
                raise RuntimeError("boom on PE 3")
            return BarrierStep(layer, lambda: Done("released"))

        return alloc_array_step(layer, (1,), np.int64, after_alloc)

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    records = [(pe, type(e).__name__, str(e)) for pe, e in exc_info.value.failures]
    assert records == [(3, "RuntimeError", "boom on PE 3")]


def test_drive_and_event_agree_on_one_pe_program():
    def make_body(layer):
        def body():
            ctx = current()
            return DelayStep(
                2.0,
                lambda: alloc_array_step(
                    layer, (4,), np.float64,
                    lambda arr: Done((arr.local.shape, ctx.clock.now)),
                ),
            )

        return body

    outs = []
    for engine in ("threaded", "event"):
        job, layer = _job(1, engine=engine)
        outs.append(job.run(make_body(layer)))
    assert outs[0] == outs[1]


def test_drive_rejects_unknown_step():
    class Weird:
        pass

    assert drive(Weird()) is not None  # non-steps pass through untouched
    assert drive(Done(5)) == 5
