"""Layer spans for the traced run, installed from the benchmark's side.

Nothing under ``src/`` is instrumented.  :meth:`Tracer.install` replaces
the public entry points of each ``repro`` layer (see :data:`ENTRY_POINTS`)
with wrappers that record a span per call, and :meth:`Tracer.uninstall`
puts the originals back.  A span's *self time* is its duration minus the
part its child spans cover; spans nest per thread, and durations use the
calling thread's CPU clock, so a PE thread parked in a barrier or
waiting for its schedule turn accrues nothing and spans on different
threads never subtract from each other.

Step programs (the event engine's continuation-passing bodies) hand
closures back to the engine instead of calling them.  A wrapped call
that returns a step therefore wraps the step's continuation in the same
layer, so the collectives' and the workload's continuations are charged
to them and not to the engine that runs them.

Counters are recorded at the same boundaries (bytes moved, calls,
polls); :meth:`Tracer.report` folds spans and counters into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import defaultdict

import numpy as np

from repro import caf as _caf
from repro import collectives as _collectives
from repro.caf import runtime as _caf_runtime
from repro.caf.coarray import Coarray, CoindexedRef
from repro.caf.locks import CafLock
from repro.collectives import algorithms as _alg
from repro.collectives import api as _coll_api
from repro.collectives.comm import TeamComm
from repro.collectives.select import AlgorithmSelector
from repro.comm.base import OneSidedLayer
from repro.engine import steps as _steps
from repro.engine.cooperative import CooperativeEngine
from repro.engine.event import EventEngine
from repro.engine.threaded import ThreadedEngine, ThreadRunMixin
from repro.explore.scheduler import Scheduler
from repro.runtime.launcher import Job
from repro.runtime.memory import PEMemory
from repro.runtime.sync import VirtualBarrier
from repro.sim.netmodel import NetworkModel
from repro.sim.resources import Timeline

#: Span buckets are layer names (``workload``, ``caf``, ``comm``,
#: ``engine``, ``explore``, ``collectives``) or ``layer.part`` for the
#: parts the finer metrics read (``caf.lock``, ``sim.price``,
#: ``sim.timeline``, ``runtime.memory``, ``runtime.barrier``,
#: ``runtime.launch``).
#: Where the wrappers' own cost goes; excluded from every layer.
TRACER_BUCKET = "trace"
#: Python's cyclic garbage collector, which runs inside whichever span
#: allocates when a threshold trips (and trips more often under the
#: tracer's own allocations); excluded from every layer.
GC_BUCKET = "gc"


class _ThreadState:
    __slots__ = ("stack", "self_ns", "counts", "gc_ns", "gc_t0")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.gc_ns = 0
        self.gc_t0 = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Per-thread span stacks plus counters; see the module docstring.

    ``clock`` returns nanoseconds of the calling thread's CPU time; tests
    substitute a fake.
    """

    def __init__(self, clock=time.thread_time_ns) -> None:
        self.clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState()
            self._tls.state = st
            with self._lock:
                self._threads.append(st)
            return st

    def wrap(self, bucket: str, fn, count=None, steps: bool = False):
        """``fn`` recording a ``bucket`` span per call.

        ``count(counts, args, kwargs, result)`` adds counters after the
        call; ``steps=True`` charges a returned step's continuation to
        ``bucket`` as well.
        """
        clock = self.clock
        state = self._state
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = clock()
            st = state()
            stack = st.stack
            g_in = st.gc_ns
            result = None
            t0 = clock()
            g0 = st.gc_ns
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                g1 = st.gc_ns
                self_ns = st.self_ns
                self_ns[bucket] += t1 - t0 - child
                if count is not None:
                    count(st.counts, args, kwargs, result)
                if steps and isinstance(result, _steps.Step):
                    cont = getattr(result, "cont", None)
                    if cont is not None and getattr(cont, "_bucket", None) != bucket:
                        result.cont = tracer.wrap(bucket, cont, steps=True)
                t_out = clock()
                # The wrapper's own bookkeeping is the tracer's, not the
                # caller's: the parent sees the whole wrapper as a child.
                # A collection during the bookkeeping has already been
                # charged to the parent by the gc hook.
                outside = t_out - t1 + t0 - t_in
                gc_outside = st.gc_ns - g1 + g0 - g_in
                self_ns[TRACER_BUCKET] += outside - gc_outside
                if stack:
                    stack[-1] += t_out - t_in - gc_outside
            return result

        wrapper._bucket = bucket
        return wrapper

    def workload(self, fn):
        """Mark the benchmark's own code (the ``workload`` layer).

        Step programs call this once per continuation; building the
        wrapper is the tracer's cost, not the caller's.
        """
        t0 = self.clock()
        wrapped = self.wrap("workload", fn, steps=True)
        self._charge_tracer(self.clock() - t0)
        return wrapped

    def _charge_tracer(self, ns: int) -> None:
        """Move ``ns`` of the current span's time to the tracer bucket."""
        st = self._state()
        st.self_ns[TRACER_BUCKET] += ns
        if st.stack:
            st.stack[-1] += ns

    def _gc_event(self, phase: str, info: dict) -> None:
        st = self._state()
        if phase == "start":
            st.gc_t0 = self.clock()
            return
        dur = self.clock() - st.gc_t0
        st.gc_ns += dur
        st.self_ns[GC_BUCKET] += dur
        if st.stack:
            st.stack[-1] += dur

    # -- reading --------------------------------------------------------
    def totals(self) -> tuple[dict, dict]:
        """``(self_ns by bucket, counts)`` summed over every thread."""
        self_ns: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for k, v in st.self_ns.items():
                self_ns[k] += v
            for k, v in st.counts.items():
                counts[k] += v
        return self_ns, counts

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for bucket, owner, names, opts in ENTRY_POINTS:
            for name in names:
                original = owner.__dict__[name]
                self._patch(owner, name, _make(self, bucket, name, original, opts))
        gc.callbacks.append(self._gc_event)

    def uninstall(self) -> None:
        if self._gc_event in gc.callbacks:
            gc.callbacks.remove(self._gc_event)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------
    def report(self, units: int, workload_counters: dict) -> dict:
        """Per-layer metrics, each per traced unit of work."""
        self_ns, counts = self.totals()
        units = max(units, 1)

        def sec(*buckets) -> float:
            return sum(self_ns.get(b, 0) for b in buckets) / 1e9 / units

        def per(name: str) -> float:
            return counts.get(name, 0) / units

        def wl(name: str) -> float:
            return workload_counters.get(name, 0) / units

        total = (sum(self_ns.values()) - self_ns.get(TRACER_BUCKET, 0)
                 - self_ns.get(GC_BUCKET, 0))
        hits, misses = wl("plan_cache_hits"), wl("plan_cache_misses")
        polls = counts.get("wait_polls", 0)
        return {
            "caf.self_s": sec("caf", "caf.lock"),
            "caf.plan_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "caf.plan_builds": per("plan_builds"),
            "caf.rma_calls": wl("rma_calls"),
            "caf.lock_s": sec("caf.lock"),
            "caf.lock_acquires": per("lock_acquires"),
            "comm.self_s": sec("comm"),
            "comm.calls": per("comm_calls"),
            "comm.bytes": per("comm_bytes"),
            "sim.price_s": sec("sim.price"),
            "sim.price_calls": per("price_calls"),
            "sim.timeline_s": sec("sim.timeline"),
            "runtime.memory_s": sec("runtime.memory"),
            "runtime.memory_bytes": per("memory_bytes"),
            "runtime.barrier_s": sec("runtime.barrier"),
            "runtime.barriers": per("barrier_arrivals"),
            "runtime.heap_bytes": per("heap_bytes"),
            "engine.run_s": sec("engine"),
            "engine.wait_polls": polls / units,
            "engine.wake_ratio": counts.get("wait_wakes", 0) / polls if polls else 0.0,
            "explore.sched_s": sec("explore"),
            "explore.decisions": wl("decisions"),
            "collectives.self_s": sec("collectives"),
            "collectives.calls": per("collective_calls"),
            "workload.self_s": sec("workload"),
            "workload.share": self_ns.get("workload", 0) / total if total else 0.0,
        }


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _nbytes(value, itemsize: int) -> int:
    return int(np.size(value)) * itemsize


def _rma(nbytes):
    def count(c, args, kwargs, result):
        c["comm_calls"] += 1
        c["comm_bytes"] += nbytes(args, kwargs)
    return count


# ``args[0]`` is ``self`` for the method entries below.
_COMM_BYTES = {
    "put": _rma(lambda a, k: _nbytes(_arg(a, k, 2, "value"), a[1].itemsize)),
    "get": _rma(lambda a, k: int(_arg(a, k, 2, "nelems")) * a[1].itemsize),
    "iput": _rma(lambda a, k: int(_arg(a, k, 5, "nelems")) * a[1].itemsize),
    "iget": _rma(lambda a, k: int(_arg(a, k, 4, "nelems")) * a[1].itemsize),
    "execute_plan_put": _rma(
        lambda a, k: _arg(a, k, 4, "spec").total_elems * a[1].itemsize),
    "execute_plan_get": _rma(
        lambda a, k: _arg(a, k, 3, "spec").total_elems * a[1].itemsize),
    "atomic": _rma(lambda a, k: 8),
}


def _mem_written(i: int, name: str):
    def count(c, args, kwargs, result):
        data = _arg(args, kwargs, i, name)
        c["memory_bytes"] += len(data) if isinstance(data, bytes) else np.asarray(data).nbytes
    return count


def _mem_read(c, args, kwargs, result):
    c["memory_bytes"] += int(getattr(result, "nbytes", 0))


def _mem_word(c, args, kwargs, result):
    c["memory_bytes"] += np.dtype(_arg(args, kwargs, 2, "dtype")).itemsize


_MEMORY_BYTES = {
    "write": _mem_written(2, "data"),
    "write_strided": _mem_written(4, "data"),
    "write_at": _mem_written(3, "data"),
    "scatter_at": _mem_written(2, "data"),
    "read": _mem_read,
    "read_strided": _mem_read,
    "read_at": _mem_read,
    "gather_at": _mem_read,
    "read_scalar": _mem_read,
    "atomic_rmw": _mem_word,
    "atomic_rmw_timed": _mem_word,
    "accumulate": _mem_word,
}


def _counter(name: str):
    def count(c, args, kwargs, result):
        c[name] += 1
    return count


def _price_count(c, args, kwargs, result):
    c["price_calls"] += 1


def _heap_count(c, args, kwargs, result):
    c["heap_bytes"] += int(_arg(args, kwargs, 1, "nbytes"))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _make(tracer: Tracer, bucket: str, name: str, fn, opts: dict):
    """The replacement for one entry point."""
    kind = opts.get("kind")
    if kind == "pricer":
        # Memoized pricer factories: the closure they return is the
        # pricing call; wrap it so each invocation is a priced span.
        # The network memoizes its closures, so one wrapper per closure
        # (kept beside it, as ids are reused once an object dies).
        factory = tracer.wrap(bucket, fn)
        wrapped: dict[int, tuple] = {}

        def priced(price):
            t0 = tracer.clock()
            hit = wrapped.get(id(price))
            if hit is None or hit[0] is not price:
                hit = wrapped[id(price)] = (price, tracer.wrap(bucket, price, _price_count))
            tracer._charge_tracer(tracer.clock() - t0)
            return hit[1]

        def make_pricer(*args, **kwargs):
            made = factory(*args, **kwargs)
            if isinstance(made, tuple):  # amo_pricer: (price, proc, back)
                return (priced(made[0]),) + made[1:]
            return priced(made)

        return make_pricer
    if kind == "probe":
        # The wait predicate is what engines poll; count polls and the
        # polls that found the wait satisfied.
        probe = tracer.wrap(bucket, fn)

        def wait_probe(*args, **kwargs):
            mem, predicate, offset = probe(*args, **kwargs)
            state = tracer._state

            def polled() -> bool:
                ok = predicate()
                c = state().counts
                c["wait_polls"] += 1
                if ok:
                    c["wait_wakes"] += 1
                return ok

            return mem, polled, offset

        return wait_probe
    counts = opts.get("count", {})
    count = counts.get(name) if isinstance(counts, dict) else counts
    return tracer.wrap(bucket, fn, count, steps=opts.get("steps", False))


_CAF_FUNCTIONS = (
    "launch", "coarray", "sync_all", "sync_images", "lock", "unlock",
    "lock_type", "this_image", "num_images", "failed_images", "image_status",
    "atomic_define", "atomic_ref", "atomic_cas", "atomic_add",
    "atomic_fetch_add", "atomic_fetch_and", "atomic_fetch_or",
    "atomic_fetch_xor", "atomic_swap",
)

_COLLECTIVE_ALGORITHMS = tuple(
    name for name in vars(_alg)
    if name.endswith(("_reduce", "_bcast", "_allgather")) and not name.startswith("_")
)

#: ``(bucket, owner, attribute names, options)``.  Owners are classes
#: (methods) or modules (functions looked up at call time).
ENTRY_POINTS = (
    ("caf", _caf, _CAF_FUNCTIONS, {}),
    ("caf", Coarray, ("__getitem__", "__setitem__"), {}),
    ("caf", CoindexedRef, ("__getitem__", "__setitem__", "get", "put"), {}),
    ("caf", _caf_runtime, ("make_plan",), {"count": _counter("plan_builds")}),
    ("caf.lock", CafLock, ("acquire", "release"),
     {"count": {"acquire": _counter("lock_acquires")}}),
    ("comm", OneSidedLayer, ("__init__",), {}),
    ("comm", OneSidedLayer,
     ("put", "get", "iput", "iget", "execute_plan_put", "execute_plan_get",
      "atomic", "quiet", "fence", "barrier_all", "team_barrier",
      "_barrier_arrive", "_barrier_depart", "local_read_scalar",
      "wait_until", "alloc_array", "_alloc_prepare", "free_array"),
     {"count": _COMM_BYTES}),
    ("comm", OneSidedLayer, ("_wait_probe",), {"kind": "probe"}),
    ("comm", _steps, ("alloc_array_step",), {"steps": True}),
    ("sim.price", NetworkModel,
     ("put", "get", "iput", "iget", "put_batch", "get_batch", "iput_batch",
      "iget_batch", "amo", "put_uncontended", "get_uncontended",
      "amo_uncontended", "am_request", "am_roundtrip", "barrier_cost",
      "reduction_cost", "collective_cost"),
     {"count": _price_count}),
    ("sim.price", NetworkModel,
     ("put_pricer", "get_pricer", "iput_pricer", "iget_pricer", "amo_pricer",
      "batch_pricer"),
     {"kind": "pricer"}),
    ("sim.timeline", Timeline, ("reserve", "reserve_batch", "push_batch"), {}),
    ("runtime.memory", PEMemory, tuple(_MEMORY_BYTES), {"count": _MEMORY_BYTES}),
    ("runtime.barrier", VirtualBarrier, ("arrive", "depart", "wait", "wait_gen"),
     {"count": {"arrive": _counter("barrier_arrivals")}}),
    ("runtime.launch", Job, ("__init__", "run"), {}),
    ("runtime.launch", PEMemory, ("__init__",), {"count": _heap_count}),
    ("engine", EventEngine, ("run",), {}),
    ("engine", ThreadRunMixin, ("run",), {}),
    ("engine", ThreadedEngine, ("spin_yield", "barrier_wait", "wait_value"), {}),
    ("engine", CooperativeEngine,
     ("decision", "spin_yield", "barrier_wait", "wait_value", "deposit",
      "drain"), {}),
    ("explore", Scheduler,
     ("start_task", "task_exit", "yield_point", "block_until", "post_put",
      "flush"), {}),
    ("collectives", _collectives,
     ("team_reduce_step", "team_broadcast_step", "team_allgather_step",
      "team_reduce", "team_broadcast", "team_allgather"),
     {"steps": True, "count": _counter("collective_calls")}),
    ("collectives", _coll_api, ("team_comm_step",),
     {"steps": True, "count": _counter("collective_calls")}),
    ("collectives", _alg, _COLLECTIVE_ALGORITHMS,
     {"steps": True, "count": _counter("collective_calls")}),
    ("collectives", TeamComm,
     ("scratch_view", "barrier_step", "join_step", "post", "wait_step",
      "put_local", "put_acc", "get_acc", "combine_from"),
     {"steps": True, "count": _counter("collective_calls")}),
    ("collectives", AlgorithmSelector, ("choose",), {}),
)
