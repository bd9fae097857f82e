"""The discrete-event engine: no OS threads, a virtual-time heap.

PE bodies are step programs (:mod:`repro.engine.steps`): eager Python
between blocking points, returning a :class:`Step` wherever a thread
engine would park.  The engine trampolines all PEs on one OS thread,
dispatching the runnable PE with the smallest ``(virtual time, pe)``
key off a binary heap — O(log n) per decision, so weak-scaling sweeps
at thousands of PEs cost thousands of Python frames, not thousands of
thread stacks.

Equivalence with the threaded engine is structural, not coincidental:
every step's handler calls the *same* layer primitives the blocking
driver runs inline (``_barrier_arrive``/``_barrier_depart``,
``wait_until``'s probe + ``last_write_time`` merge, ``clock.advance``),
so the float arithmetic — and therefore virtual times and trace
digests — is bit-identical on any program both engines can run.

Blocking semantics:

* **barrier** — arrivers park in a per-(barrier, generation) list; the
  releasing arrival departs itself, then departs and reschedules every
  parked PE at the common release time (ties broken by PE rank).
* **value wait** — parked waiters are indexed by the memory they wait
  on, and a memory with waiters carries a write hook that marks it
  dirty; after each dispatched event only the waiters on dirty
  memories are re-checked, so a waiter wakes right after the event
  whose write satisfied it and merges that write's timestamp.  A
  survivable crash and a drained heap (just before
  :class:`EventDeadlock`) re-poll every waiter once, which also catches
  stores that notify nobody (``shmem_ptr`` views).
* **failure** — a raising PE is recorded and the job aborts; already
  parked PEs whose barrier never releases are dropped exactly as a
  blocked thread observing the abort flag would be, and the engine
  raises the same :class:`~repro.runtime.launcher.JobFailure`.
* **deadlock** — an empty heap with parked PEs and no abort is reported
  as :class:`EventDeadlock` naming every parked PE (the event-engine
  analogue of the wall-clock watchdog, which never needs to arm here).

Calling an inline blocking primitive (``barrier_all`` as a non-final
arriver, ``wait_until`` on an unsatisfied value, a lock spin loop)
raises :class:`~repro.engine.base.WouldBlock` — express those points as
steps instead.
"""

from __future__ import annotations

import heapq
import typing

from repro.engine.base import Engine, EngineError, WouldBlock
from repro.engine.steps import BarrierStep, DelayStep, Done, Step, WaitStep
from repro.runtime.context import PEContext, set_current
from repro.runtime.failures import raise_image_failed
from repro.sim.faults import InjectedCrash

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job


class EventDeadlock(EngineError):
    """Every runnable PE is parked and no release can ever come."""


class _Parked:
    """A PE parked at a barrier (waiting for its generation's release)."""

    __slots__ = ("pe", "ctx", "layer", "t_start", "cont", "barrier")

    def __init__(self, pe, ctx, layer, t_start, cont, barrier) -> None:
        self.pe = pe
        self.ctx = ctx
        self.layer = layer
        self.t_start = t_start
        self.cont = cont
        self.barrier = barrier


class _Waiter:
    """A PE parked on a local-value predicate (WaitStep).

    ``word_offset`` is ``None`` for memory-global time merges, or the
    element offset whose per-word atomic timestamp to merge instead
    (``WaitStep(word=True)``).  ``target`` is the remote PE whose write
    is awaited (when known; -1 otherwise) — survivable jobs fail the
    wait with ``ImageFailedError`` if that PE dies.
    """

    __slots__ = ("pe", "ctx", "mem", "predicate", "cont", "word_offset",
                 "target")

    def __init__(self, pe, ctx, mem, predicate, cont, word_offset,
                 target=-1) -> None:
        self.pe = pe
        self.ctx = ctx
        self.mem = mem
        self.predicate = predicate
        self.cont = cont
        self.word_offset = word_offset
        self.target = target


def _make_wait_failure(w: _Waiter, dead: int, job):
    """Continuation that fails a parked waiter whose partner died.

    The predicate is re-checked first: the dead PE's failure hooks (lock
    handoff, forced releases) may have satisfied the wait while the
    crash was being processed — then the waiter resumes normally.
    """

    def thunk():
        if w.predicate():
            if w.word_offset is None:
                w.ctx.clock.merge(w.mem.last_write_time)
            else:
                w.ctx.clock.merge(w.mem.word_time(w.word_offset))
            return w.cont()
        raise_image_failed(w.ctx, "wait", dead, job.failed, job.tracer)

    return thunk


class EventEngine(Engine):
    """Single-threaded discrete-event execution over a virtual-time heap."""

    name = "event"
    eager_delivery = True
    max_pes = 16384

    # -- schedule hooks -------------------------------------------------
    def decision(self, ctx, op: str, target: int) -> None:
        pass  # eager execution between steps; nothing to decide

    def spin_yield(self, ctx, op: str, target: int) -> None:
        raise WouldBlock(
            f"EventEngine cannot spin inline on {op!r}; "
            f"return a DelayStep and retry in the continuation"
        )

    # -- blocking hooks (inline forms are errors here) ------------------
    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        raise WouldBlock(
            "EventEngine cannot block inline in a barrier; return a "
            "BarrierStep (only the releasing arrival may call barrier_all "
            "directly, and which PE releases is schedule-dependent)"
        )

    def wait_value(self, ctx, mem, predicate, what: str,
                   target: int = -1) -> float:
        if predicate():
            return mem.last_write_time
        raise WouldBlock(
            f"EventEngine cannot block inline on {what}; return a WaitStep"
        )

    # ------------------------------------------------------------------
    def run(self, job: "Job", fn, args, kwargs) -> list:
        from repro.runtime.launcher import JobAborted, JobFailure

        kwargs = kwargs or {}
        n = job.num_pes
        results: list = [None] * n
        failures: list[tuple[int, BaseException]] = []
        ctxs = [PEContext(job, pe) for pe in range(n)]
        heap: list[tuple[float, int]] = [(0.0, pe) for pe in range(n)]
        pending: dict[int, object] = {
            pe: (lambda _pe=pe: fn(*args, **kwargs)) for pe in range(n)
        }
        parked: dict[tuple[int, int], list[_Parked]] = {}
        # Value waiters by awaited memory; a memory carries the write
        # hook (marking it dirty) exactly while it has waiters.
        waiting: dict[object, list[_Waiter]] = {}
        dirty: set = set()
        mark_dirty = dirty.add

        def schedule(pe: int, thunk, t: float) -> None:
            pending[pe] = thunk
            heapq.heappush(heap, (t, pe))

        def keep(mem, still: list[_Waiter]) -> None:
            if still:
                waiting[mem] = still
            else:
                del waiting[mem]
                mem._write_hook = None

        def wake(mems) -> None:
            """Re-check the waiters on ``mems``; schedule the satisfied
            ones (wake order is free: the heap pops by (time, pe))."""
            for mem in mems:
                ws = waiting.get(mem)
                if ws is None:
                    continue
                still: list[_Waiter] = []
                for w in ws:
                    if w.predicate():
                        # Same merge a woken thread performs in wait_until.
                        if w.word_offset is None:
                            w.ctx.clock.merge(mem.last_write_time)
                        else:
                            w.ctx.clock.merge(mem.word_time(w.word_offset))
                        schedule(w.pe, w.cont, w.ctx.clock.now)
                    else:
                        still.append(w)
                keep(mem, still)
            dirty.clear()

        def drained() -> bool:
            """The heap drained with waiters parked: re-poll them all
            once, catching waits satisfied by stores that notify nobody
            (``shmem_ptr`` views).  True when that woke anyone."""
            wake(list(waiting))
            return bool(heap)

        def dispatch(pe: int, ctx, step) -> None:
            """Route one step result; non-steps are final values."""
            while True:
                if not isinstance(step, Step):
                    results[pe] = step
                    return
                cls = type(step)
                if cls is Done:
                    results[pe] = step.value
                    return
                if cls is BarrierStep:
                    layer = step.layer
                    bar = step.barrier
                    if bar is None:
                        bar = layer.job.barrier
                    t_start, gen, released = layer._barrier_arrive(
                        ctx, step.barrier, step.npes
                    )
                    if not released:
                        parked.setdefault((bar.sync_id, gen), []).append(
                            _Parked(pe, ctx, layer, t_start, step.cont, bar)
                        )
                        return
                    layer._barrier_depart(ctx, t_start, gen, bar)
                    schedule(pe, step.cont, ctx.clock.now)
                    for p in parked.pop((bar.sync_id, gen), ()):
                        set_current(p.ctx)
                        p.layer._barrier_depart(p.ctx, p.t_start, gen, p.barrier)
                        schedule(p.pe, p.cont, p.ctx.clock.now)
                    set_current(ctx)
                    return
                if cls is WaitStep:
                    mem, predicate, elem_offset = step.layer._wait_probe(
                        step.ivar, step.cmp, step.value, step.offset
                    )
                    if predicate():
                        if step.word:
                            ctx.clock.merge(mem.word_time(elem_offset))
                        else:
                            ctx.clock.merge(mem.last_write_time)
                        step = step.cont()  # continue in this slice
                        continue
                    if (
                        step.target >= 0
                        and job.survivable
                        and job.failed.is_failed(step.target)
                    ):
                        raise_image_failed(
                            ctx, "wait", step.target, job.failed, job.tracer
                        )
                    w = _Waiter(
                        pe, ctx, mem, predicate, step.cont,
                        elem_offset if step.word else None,
                        step.target,
                    )
                    ws = waiting.get(mem)
                    if ws is None:
                        waiting[mem] = [w]
                        mem._write_hook = mark_dirty
                    else:
                        ws.append(w)
                    return
                if cls is DelayStep:
                    ctx.clock.advance(step.delay_us)
                    schedule(pe, step.cont, ctx.clock.now)
                    return
                raise TypeError(f"unknown step type {cls.__name__}")

        try:
            while heap or (waiting and drained()):
                _, pe = heapq.heappop(heap)
                thunk = pending.pop(pe)
                ctx = ctxs[pe]
                set_current(ctx)
                try:
                    # dispatch stays inside the guard: steps run layer
                    # code (barrier jitter, wait probes, continuations)
                    # that can fail exactly like the body itself.
                    dispatch(pe, ctx, thunk())
                except JobAborted:
                    continue  # secondary failure; root cause recorded
                except BaseException as exc:  # noqa: BLE001 - collect all
                    if job.survivable and isinstance(exc, InjectedCrash):
                        # Survivable mode: registry mark + barrier
                        # excision; an excision that released a barrier
                        # episode departs its parked survivors, and
                        # waiters on the dead PE fail with a structured
                        # ImageFailedError instead of deadlocking.
                        released = self.on_pe_failed(ctx, exc)
                        for bar, gen in released:
                            for p in parked.pop((bar.sync_id, gen), ()):
                                set_current(p.ctx)
                                p.layer._barrier_depart(
                                    p.ctx, p.t_start, gen, p.barrier
                                )
                                schedule(p.pe, p.cont, p.ctx.clock.now)
                        set_current(ctx)
                        for mem, ws in list(waiting.items()):
                            still: list[_Waiter] = []
                            for w in ws:
                                if w.target == pe:
                                    schedule(
                                        w.pe,
                                        _make_wait_failure(w, pe, job),
                                        w.ctx.clock.now,
                                    )
                                else:
                                    still.append(w)
                            keep(mem, still)
                        # Crash recovery (lock handoff, forced releases)
                        # can satisfy any wait: re-poll every waiter.
                        wake(list(waiting))
                        continue
                    failures.append((pe, exc))
                    job.abort()
                    continue
                if dirty:
                    wake(dirty)
        finally:
            set_current(None)
            for mem in waiting:
                mem._write_hook = None

        stuck = [p for plist in parked.values() for p in plist] + [
            w for ws in waiting.values() for w in ws
        ]
        if stuck and not job.aborted():
            pes = sorted(p.pe for p in stuck)
            raise EventDeadlock(
                f"event heap drained with PE(s) {pes} still parked and no "
                f"failure recorded: a barrier or wait can never be released"
            )
        if failures:
            failure = JobFailure(failures)
            raise failure from failure.failures[0][1]
        return results
