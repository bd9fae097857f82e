"""The four benchmark workloads, each a fixed, seeded unit of work.

A workload object is built once per run from ``--seed``.  Its
``unit(hooks)`` call launches one fresh job over the public API of
``repro.caf`` / ``repro.shmem`` / ``repro.collectives`` /
``repro.engine`` and returns a :class:`Unit`: how many operations it
completed, the host CPU each operation cost on its issuing PE, the
set-up time, and a digest of the run's *virtual* results.  Every unit of
one workload and seed is the same program, so every unit's digest must
be the same; :mod:`run` also compares it against the committed
reference.  Each workload also checks its data against an oracle
computed here, outside the simulator, so a seed without a committed
reference is still checked for correctness.

``hooks`` is :data:`NO_HOOKS` for measured runs.  The traced run passes
a :class:`tracer.Tracer`, whose ``workload`` wrapper marks the
benchmark's own code so its time is attributed to the ``workload``
layer.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import caf
from repro import collectives
from repro.bench.dht import ReplicatedHashTable
from repro.bench.kvservice import (
    GRID_MIXES,
    GRID_SKEWS,
    HEAP_BYTES,
    _cached_get,
    _grid_spec,
    generate_stream,
    percentiles,
)
from repro.caf.runtime import current_runtime
from repro.engine import steps
from repro.explore import Scheduler, VirtualTimeOrder
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach

MACHINE = "stampede"
_thread_ns = time.thread_time_ns
_wall = time.perf_counter


def digest_of(obj) -> str:
    """sha256 of a canonical JSON rendering (floats render exactly)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _bytes_sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _rma_stats(rt) -> dict:
    """The runtime's merged call counters, JSON-ready."""
    return {k: int(v) for k, v in sorted(rt.stats.items())}


@dataclass
class Unit:
    """What one unit of a workload did."""

    ops: int
    #: Host CPU ns per operation, measured on the issuing PE's thread.
    op_cpu_ns: list
    #: Launch call until every PE passed its first symmetric allocation.
    setup_s: float
    #: Host seconds after set-up until the job returned.
    run_s: float
    #: Digest over the unit's virtual results (clocks, stats, data).
    digest: str
    #: The oracle's verdict on the data (independent of any reference).
    data_ok: bool
    #: Workload-side counters for the per-layer report.
    counters: dict = field(default_factory=dict)


class _NoHooks:
    """Identity hooks for measured runs."""

    @staticmethod
    def workload(fn):
        return fn


NO_HOOKS = _NoHooks()


# ---------------------------------------------------------------------------
# sections: naive 3-D sections and 2dim 2-D strided puts/gets (paper IV-C,
# Figs 6/7), one inter-node initiator, hot and cold plan-cache sets
# ---------------------------------------------------------------------------

#: Image 1 and image 17 sit on different 16-core stampede nodes, so the
#: one initiator drives the inter-node data plane; images 2..16 idle in
#: the closing barrier.
SECTIONS_IMAGES = 17
SECTIONS_TARGET = 17


def _section_keys(rng, shape, n, max_elems, strides, dim_count_range):
    """``n`` distinct in-bounds slice tuples with at most ``max_elems``
    elements each."""
    keys, seen = [], set()
    while len(keys) < n:
        key = []
        for extent, stride in zip(shape, (rng.choice(s) for s in strides)):
            stride = int(stride)
            lo, hi = dim_count_range
            count = int(rng.integers(lo, min(hi, extent // stride) + 1))
            start = int(rng.integers(0, extent - stride * (count - 1)))
            key.append((start, start + stride * (count - 1) + 1, stride))
        size = int(np.prod([len(range(*k)) for k in key]))
        if size > max_elems or tuple(key) in seen:
            continue
        seen.add(tuple(key))
        keys.append(tuple(key))
    return keys


@dataclass(frozen=True)
class SectionsConfig:
    """One launch of the sections workload (one strided policy)."""

    policy: str
    shape: tuple
    dtype: str
    hot: int
    cold: int
    hot_repeats: int
    max_elems: int
    strides: tuple
    dim_counts: tuple


#: The hot set fits the runtime's 128-entry plan cache (hits after the
#: first touch); the cold set is larger than the cache and each of its
#: shapes is used once per launch, so every cold access misses.
SECTIONS_LAUNCHES = (
    SectionsConfig("naive", (24, 20, 32), "float64", hot=32, cold=160,
                   hot_repeats=16, max_elems=480,
                   strides=((1, 2, 3), (1, 2, 4), (2, 3, 4)),
                   dim_counts=(2, 10)),
    SectionsConfig("2dim", (64, 256), "int32", hot=32, cold=160,
                   hot_repeats=16, max_elems=1024,
                   strides=((2,), (1, 2, 4, 8, 16, 32)),
                   dim_counts=(4, 32)),
)


class Sections:
    """Strided section puts and gets from one inter-node initiator."""

    name = "sections"
    engine = "threaded"

    def __init__(self, seed: int, launches=SECTIONS_LAUNCHES) -> None:
        self.seed = seed
        self.plans = []
        for i, cfg in enumerate(launches):
            # The shape sets are fixed (seeded by the launch index only),
            # so the amount of planning and data movement per unit is the
            # same for every seed; the seed picks the order, the
            # put/get mix and the data.
            keys = _section_keys(np.random.default_rng([7, i]), cfg.shape,
                                 cfg.hot + cfg.cold, cfg.max_elems,
                                 cfg.strides, cfg.dim_counts)
            hot, cold = keys[:cfg.hot], keys[cfg.hot:]
            rng = np.random.default_rng([seed, i])
            picks = [k for k in hot for _ in range(cfg.hot_repeats)] + cold
            picks = [picks[j] for j in rng.permutation(len(picks))]
            dtype = np.dtype(cfg.dtype)
            init = rng.integers(0, 1 << 20, size=cfg.shape).astype(dtype)
            ops = []
            for key in picks:
                sl = tuple(slice(*k) for k in key)
                if rng.random() < 0.5:
                    n = tuple(len(range(*k)) for k in key)
                    ops.append((sl, rng.integers(0, 1 << 20, size=n).astype(dtype)))
                else:
                    ops.append((sl, None))
            self.plans.append((cfg, init, ops, self._oracle(init, ops)))
        self.ops_per_unit = sum(len(p[2]) for p in self.plans)

    @staticmethod
    def _oracle(init, ops):
        """Replay the ops on a local copy: expected get bytes and final
        target array."""
        ref = init.copy()
        gets = []
        for sl, val in ops:
            if val is None:
                gets.append(ref[sl].copy())
            else:
                ref[sl] = val
        return _bytes_sha(gets), _bytes_sha([ref])

    def unit(self, hooks=NO_HOOKS) -> Unit:
        ops = 0
        samples: list = []
        setups, runs, parts, ok = [], [], [], True
        counters = {"plan_cache_hits": 0, "plan_cache_misses": 0, "rma_calls": 0}
        for cfg, init, oplist, (gets_sha, final_sha) in self.plans:
            res = self._launch(cfg, init, oplist, hooks)
            samples.extend(res["cpu"])
            setups.append(res["setup_s"])
            runs.append(res["run_s"])
            ok &= res["gets_sha"] == gets_sha and res["final_sha"] == final_sha
            parts.append({k: res[k] for k in ("policy", "clocks", "stats",
                                              "gets_sha", "final_sha")})
            for k in ("plan_cache_hits", "plan_cache_misses"):
                counters[k] += res["stats"].get(k, 0)
            counters["rma_calls"] += sum(
                v for k, v in res["stats"].items() if k.endswith("_calls")
            )
            ops += len(oplist)
        return Unit(ops, samples, sum(setups), sum(runs), digest_of(parts),
                    ok, counters)

    @staticmethod
    def _start(kernel, cfg, hooks):
        return caf.launch(
            hooks.workload(kernel), SECTIONS_IMAGES, MACHINE, backend="shmem",
            profile="cray-shmem", strided=cfg.policy, heap_bytes=1 << 20,
        )

    def setup_probe(self, hooks=NO_HOOKS) -> float:
        """Set-up only, summed over the launches of one unit: launch,
        allocate the coarray, finish."""
        total = 0.0
        for cfg, *_ in self.plans:
            stamps = [0.0] * SECTIONS_IMAGES

            def kernel(cfg=cfg, stamps=stamps):
                caf.coarray(cfg.shape, np.dtype(cfg.dtype))
                stamps[caf.this_image() - 1] = _wall()

            t0 = _wall()
            self._start(kernel, cfg, hooks)
            total += max(stamps) - t0
        return total

    def _launch(self, cfg, init, oplist, hooks) -> dict:
        n = SECTIONS_IMAGES
        stamps = [0.0] * n
        box: dict = {}
        dtype = np.dtype(cfg.dtype)

        def kernel():
            me = caf.this_image()
            a = caf.coarray(cfg.shape, dtype)
            stamps[me - 1] = _wall()
            a[...] = init
            caf.sync_all()
            if me == 1:
                box["rt"] = current_runtime()
                ref = a.on(SECTIONS_TARGET)
                cpu, gets = [], []
                for sl, val in oplist:
                    t0 = _thread_ns()
                    if val is None:
                        got = ref[sl]
                    else:
                        ref[sl] = val
                    cpu.append(_thread_ns() - t0)
                    if val is None:
                        gets.append(got)
                box["cpu"] = cpu
                box["gets"] = gets
            caf.sync_all()
            if me == SECTIONS_TARGET:
                box["final"] = a.local.copy()
            return current().clock.now

        t0 = _wall()
        clocks = self._start(kernel, cfg, hooks)
        t_end = _wall()
        setup_end = max(stamps)
        return {
            "policy": cfg.policy,
            "cpu": box["cpu"],
            "setup_s": setup_end - t0,
            "run_s": t_end - setup_end,
            "clocks": clocks,
            "stats": _rma_stats(box["rt"]),
            "gets_sha": _bytes_sha(box["gets"]),
            "final_sha": _bytes_sha([box["final"]]),
        }


# ---------------------------------------------------------------------------
# kv: open-loop Zipf service on ReplicatedHashTable under VirtualTimeOrder
# ---------------------------------------------------------------------------

KV_IMAGES = 4
#: The traffic is the kvservice suite's skewed ``balanced`` grid cell:
#: Zipf 1.1 over 48 key ranks, 50/45/5 read/write/scan, 300 virtual µs
#: mean inter-arrival.  Only ``disjoint`` differs from the cell.
KV_SKEW = GRID_SKEWS[0]
KV_MIX = dict(GRID_MIXES)["balanced"]


class KV:
    """Open-loop Zipf reads (hot-key cached), writes (bucket lock plus
    2-way replication) and scans on 4 images."""

    name = "kv"
    engine = "cooperative+VirtualTimeOrder"
    #: Table geometry, cache size and heap of ``kvservice.run_cell``.
    slots = 256
    locks = 8
    cache_capacity = 16
    heap_bytes = HEAP_BYTES

    def __init__(self, seed: int, ops_per_image: int = 256) -> None:
        self.seed = seed
        read, write, scan = KV_MIX
        # Disjoint per-image key ranges: every read has one correct
        # answer (the image's own last write), and the acked-write
        # ledger can prove zero lost writes.
        self.spec = replace(
            _grid_spec(quick=False, seed=seed), ops=ops_per_image, zipf_s=KV_SKEW,
            read_frac=read, write_frac=write, scan_frac=scan, disjoint=True,
        )
        self.streams = [generate_stream(self.spec, me)
                        for me in range(1, KV_IMAGES + 1)]
        self.ops_per_unit = ops_per_image * KV_IMAGES

    def _launch(self, kernel, hooks, sched):
        return caf.launch(
            hooks.workload(kernel), KV_IMAGES, MACHINE,
            heap_bytes=self.heap_bytes, lock_algorithm="tas", scheduler=sched,
        )

    def setup_probe(self, hooks=NO_HOOKS) -> float:
        """Set-up only: launch, allocate the table, finish."""
        stamps = [0.0] * KV_IMAGES
        slots, locks = self.slots, self.locks

        def kernel():
            ReplicatedHashTable(slots, locks)
            stamps[caf.this_image() - 1] = _wall()

        t0 = _wall()
        self._launch(kernel, hooks, Scheduler(VirtualTimeOrder()))
        return max(stamps) - t0

    def unit(self, hooks=NO_HOOKS) -> Unit:
        n = KV_IMAGES
        stamps = [0.0] * n
        box: dict = {}
        spec, streams = self.spec, self.streams
        slots, locks, capacity = self.slots, self.locks, self.cache_capacity

        def kernel():
            me = caf.this_image()
            table = ReplicatedHashTable(slots, locks)
            stamps[me - 1] = _wall()
            if me == 1:
                box["rt"] = current_runtime()
            ctx = current()
            t0 = ctx.clock.now
            cache: dict = {}
            expect: dict = {}
            lat, cpu = [], []
            hits = bad = 0
            for idx, op in enumerate(streams[me - 1]):
                arrival = t0 + op.arrival
                if ctx.clock.now < arrival:
                    ctx.clock.advance(arrival - ctx.clock.now)
                c0 = _thread_ns()
                if op.kind == "write":
                    value = (me << 24) | (idx + 1)
                    table.put(op.key, value)
                    cache.pop(op.key, None)
                    expect[op.key] = value
                    got = [(op.key, value)]
                elif op.kind == "read":
                    value, hit = _cached_get(table, cache, op.key, capacity,
                                             False)
                    hits += hit
                    got = [(op.key, value)]
                else:
                    base = op.key - op.rank
                    got = []
                    for j in range(spec.scan_len):
                        k = base + (op.rank + j) % spec.keyspace
                        got.append((k, table.get(k)))
                cpu.append(_thread_ns() - c0)
                lat.append(ctx.clock.now - arrival)
                bad += sum(v != expect.get(k) for k, v in got)
            stat = [0]
            caf.sync_all(stat=stat)
            lost = table.verify_acked_puts()
            final = [(k, table.get(k)) for k in sorted(expect)]
            bad += sum(v != expect[k] for k, v in final)
            return {
                "cpu": cpu,
                "clock": ctx.clock.now,
                "pct": percentiles(lat),
                "lat_sha": _bytes_sha([np.asarray(lat)]),
                "hits": hits,
                "lost": len(lost),
                "bad": bad,
                "final": final,
            }

        sched = Scheduler(VirtualTimeOrder())
        t0 = _wall()
        res = self._launch(kernel, hooks, sched)
        t_end = _wall()
        setup_end = max(stamps)
        samples = [c for r in res for c in r["cpu"]]
        stats = _rma_stats(box["rt"])
        parts = {
            "images": [{k: r[k] for k in ("clock", "pct", "lat_sha", "hits",
                                          "lost", "final")} for r in res],
            "stats": stats,
        }
        ok = all(r["lost"] == 0 and r["bad"] == 0 for r in res)
        return Unit(len(samples), samples, setup_end - t0, t_end - setup_end,
                    digest_of(parts), ok,
                    {"decisions": sched.steps,
                     "rma_calls": sum(v for k, v in stats.items()
                                      if k.endswith("_calls"))})


# ---------------------------------------------------------------------------
# Event-engine workloads
# ---------------------------------------------------------------------------


def _mix64(x: int) -> int:
    """splitmix64 finalizer (deterministic owner hashing)."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class _EventWorkload:
    """Shared launch for the event-engine workloads: build the job, run
    the step program, and time set-up (launch call to the last PE past
    its allocation step) separately from the rest."""

    engine = "event"
    heap_bytes = 1 << 15

    def _run(self, body_factory, hooks):
        stamps = [0.0] * self.pes
        t0 = _wall()
        job = Job(self.pes, MACHINE, heap_bytes=self.heap_bytes,
                  engine="event")
        layer = shmem_attach(job)
        results = job.run(hooks.workload(body_factory(layer, stamps)))
        t_end = _wall()
        setup_end = max(stamps)
        return results, setup_end - t0, t_end - setup_end

    def setup_probe(self, hooks=NO_HOOKS) -> float:
        """Set-up only: launch, allocate, finish."""
        def factory(layer, stamps):
            def body():
                pe = current().pe

                def allocated(_arr):
                    stamps[pe] = _wall()
                    return steps.Done(None)

                return steps.alloc_array_step(layer, (self.alloc_elems,),
                                              np.int64, allocated)
            return body

        return self._run(factory, hooks)[1]


class ScaleDHT(_EventWorkload):
    """The multi-writer Fig-9 step program at 4096 PEs: each round every
    PE does a hashed remote ``fadd`` plus a ``put``, then a barrier."""

    name = "scale-dht"
    slots = 32

    def __init__(self, seed: int, pes: int = 4096, rounds: int = 4) -> None:
        self.seed = seed
        self.pes = pes
        self.rounds = rounds
        self.alloc_elems = self.slots
        self.salt = _mix64(seed) & 0xFFFFFFFF
        self.value = int(seed % 1000003) + 1
        owners = np.empty((pes, rounds), dtype=np.int64)
        for pe in range(pes):
            for rnd in range(rounds):
                owners[pe, rnd] = _mix64(pe * 1000003 + rnd + self.salt) % pes
        self.owners = owners.tolist()
        slot_of = (np.arange(pes)[:, None] + np.arange(rounds)[None, :]) % self.slots
        counts = np.zeros((pes, self.slots), dtype=np.int64)
        np.add.at(counts, (owners, slot_of), 1)
        touched = counts > 0
        # Oracle: per-PE fetch-add totals and table sums.
        self.expect_counts = counts.sum(axis=1).tolist()
        self.expect_table = (touched.sum(axis=1) * self.value).tolist()
        self.ops_per_unit = pes * rounds

    def unit(self, hooks=NO_HOOKS) -> Unit:
        rounds, nslots, owners = self.rounds, self.slots, self.owners
        val = np.array([self.value], dtype=np.int64)
        cpu: list = []
        wl = hooks.workload

        def factory(layer, stamps):
            def body():
                ctx = current()
                pe = ctx.pe
                mine = owners[pe]

                def round_(counts, table, rnd):
                    if rnd == rounds:
                        return steps.Done((
                            ctx.clock.now,
                            int(counts.local.sum()),
                            int(table.local.sum()),
                        ))
                    c0 = _thread_ns()
                    owner = mine[rnd]
                    slot = (pe + rnd) % nslots
                    layer.atomic(counts, owner, slot, "fadd", 1)
                    layer.put(table, val, owner, offset=slot)
                    cpu.append(_thread_ns() - c0)
                    return steps.BarrierStep(
                        layer, wl(lambda: round_(counts, table, rnd + 1)))

                def allocated(counts, table):
                    stamps[pe] = _wall()
                    return steps.BarrierStep(
                        layer, wl(lambda: round_(counts, table, 0)))

                return steps.alloc_array_step(
                    layer, (nslots,), np.int64, wl(
                        lambda counts: steps.alloc_array_step(
                            layer, (nslots,), np.int64,
                            wl(lambda table: allocated(counts, table)))))
            return body

        results, setup_s, run_s = self._run(factory, hooks)
        ok = ([r[1] for r in results] == self.expect_counts
              and [r[2] for r in results] == self.expect_table)
        parts = {"clocks": [r[0] for r in results],
                 "counts": [r[1] for r in results],
                 "tables": [r[2] for r in results]}
        return Unit(len(cpu), cpu, setup_s, run_s, digest_of(parts), ok)


class _MemberCpu:
    """Host CPU of one PE's own step slices, split at operation
    boundaries.

    Every continuation this PE's program hands the event engine is
    wrapped to add its thread CPU to ``acc``; :meth:`mark` closes the
    current operation mid-slice and starts the next one, so the part of
    a slice after the mark counts toward the next operation."""

    __slots__ = ("acc", "t0")

    def __init__(self) -> None:
        self.acc = 0
        self.t0 = _thread_ns()

    def chain(self, step):
        cont = getattr(step, "cont", None)
        if cont is None:
            return step
        member = self

        def timed():
            member.t0 = _thread_ns()
            nxt = cont()
            member.acc += _thread_ns() - member.t0
            return member.chain(nxt)

        step.cont = timed
        return step

    def mark(self) -> int:
        now = _thread_ns()
        used = self.acc + now - self.t0
        self.acc = self.t0 - now
        return used


class Allreduce(_EventWorkload):
    """All-PE ``team_reduce_step`` with auto-selection, 8 B then 8 KiB,
    on the event engine."""

    name = "allreduce"
    payload_elems = (1, 1024)

    def __init__(self, seed: int, pes: int = 512) -> None:
        self.seed = seed
        self.pes = pes
        self.alloc_elems = max(self.payload_elems)
        need = (1 << 15) + 2 * pes * 8 + 16 * max(self.payload_elems) * 8
        self.heap_bytes = (need + 4095) & ~4095
        rng = np.random.default_rng([seed, 5])
        self.data = [rng.integers(-1000, 1000, size=(pes, n), dtype=np.int64)
                     for n in self.payload_elems]
        self.expect = [d.sum(axis=0) for d in self.data]
        self.ops_per_unit = pes * len(self.payload_elems)

    def unit(self, hooks=NO_HOOKS) -> Unit:
        members = tuple(range(self.pes))
        data, expect = self.data, self.expect
        cpu: list = []
        wl = hooks.workload

        def factory(layer, stamps):
            def body():
                ctx = current()
                pe = ctx.pe
                member = _MemberCpu()
                out: list = []

                def reduce_(i):
                    if i == len(data):
                        return steps.Done((ctx.clock.now, out))
                    member.mark()

                    def fin(res):
                        cpu.append(member.mark())
                        out.append(bool(np.array_equal(res, expect[i])))
                        out.append(int(np.asarray(res).sum()))
                        return reduce_(i + 1)

                    return collectives.team_reduce_step(
                        layer, members, data[i][pe], np.add, wl(fin))

                def allocated(_arr):
                    stamps[pe] = _wall()
                    return steps.BarrierStep(layer, wl(lambda: reduce_(0)))

                return member.chain(steps.alloc_array_step(
                    layer, (self.alloc_elems,), np.int64, wl(allocated)))
            return body

        results, setup_s, run_s = self._run(factory, hooks)
        ok = all(all(r[1][0::2]) for r in results)
        parts = {"clocks": [r[0] for r in results],
                 "sums": [r[1][1::2] for r in results]}
        return Unit(len(cpu), cpu, setup_s, run_s, digest_of(parts), ok)


WORKLOADS = {w.name: w for w in (Sections, KV, ScaleDHT, Allreduce)}
