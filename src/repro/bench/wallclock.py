"""Wall-clock benchmarks of the batched RMA engine.

Every case runs the same workload two ways — the batched fast path (the
default) and the per-call oracle (``REPRO_NO_BATCH=1``) — and reports
host wall-clock seconds for each (best of ``--repeats`` runs, to damp
scheduler and allocator noise), the speedup, and whether both runs
produced identical virtual times and stats counters (they must: the
fast path is required to be bit-identical in simulated time).

Cases, per the paper's own motivating example (Section IV-C) and the
Figs 8/9 synchronization benchmarks:

* ``naive-50x40x25`` — the 3-D section ``A(1:100:2, 1:80:2, 1:100:4)``
  under the ``naive`` strided policy: 50 x 40 x 25 = 50,000 logical RMA
  calls for one assignment, the workload the batched path exists for.
* ``2dim-sweep`` — the Figs 6/7 2-D strided put over several strides
  with the ``2dim`` translation (few calls, each a strided line).
* ``himeno-quick`` — a small Himeno run (halo-exchange cadence).
* ``locks`` — the Fig 8 lock microbenchmark (contended acquires; the
  remote-atomic path).
* ``dht`` — the Fig 9 distributed-hash-table update loop (atomics +
  fine-grained puts/gets under bucket locks).

``python -m repro.bench.wallclock`` writes ``BENCH_wallclock.json``;
``--min-speedup X`` makes the CLI fail when any case's batched-vs-oracle
speedup lands below ``X``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import caf
from repro.bench import microbench
from repro.bench.dht import dht_benchmark
from repro.bench.harness import (
    CafConfig,
    UHCAF_CRAY_SHMEM,
    UHCAF_CRAY_SHMEM_2DIM,
    UHCAF_CRAY_SHMEM_NAIVE,
    pair_partner,
    pair_world_size,
)
from repro.bench.himeno import himeno_caf
from repro.runtime.context import current


@dataclass
class WallclockCase:
    """One workload, timed on the fast path and on the per-call oracle.

    ``speedup`` is fast path vs the per-call oracle (``REPRO_NO_BATCH``).

    The ``procs_*`` fields are filled by the ``*-procs`` cases, which
    time the threaded engine against ``engine="process"`` instead of
    the batching escape hatches: ``batched_s`` then holds the threaded
    time, ``procs_s`` the process-engine time, ``procs_speedup`` their
    ratio (> 1 means the process engine wins — expect that only on
    multi-core hosts; see ``host_cores`` in the JSON), and
    ``procs_identical`` whether both engines produced bit-identical
    virtual times and stats.  ``unbatched_s`` stays 0 for these cases,
    which exempts them from ``--min-speedup``.
    """

    name: str
    description: str
    batched_s: float
    unbatched_s: float
    speedup: float
    virtual_identical: bool
    stats_identical: bool
    procs_s: float = 0.0
    procs_speedup: float = 0.0
    procs_identical: bool = True


#: Wall-clock repeats per mode; the minimum is reported (scheduler and
#: allocator noise only ever adds time).
DEFAULT_REPEATS = 3

def _timed(fn, *, no_batch: bool, repeats: int = 1):
    """Run ``fn`` with ``REPRO_NO_BATCH`` forced on/off; returns
    ``(best seconds, result)`` over ``repeats`` runs."""
    saved = os.environ.pop("REPRO_NO_BATCH", None)
    try:
        if no_batch:
            os.environ["REPRO_NO_BATCH"] = "1"
        best = float("inf")
        result = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return best, result
    finally:
        os.environ.pop("REPRO_NO_BATCH", None)
        if saved is not None:
            os.environ["REPRO_NO_BATCH"] = saved


def _case(name, description, fn, *, virtual_eq, stats_eq,
          repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    # One untimed pass first: the batched mode is measured first, and
    # without this it alone pays import, worker-pool spawn, and numpy
    # first-touch costs — which read as a phantom fast-path slowdown.
    _timed(fn, no_batch=False, repeats=1)
    batched_s, batched = _timed(fn, no_batch=False, repeats=repeats)
    unbatched_s, oracle = _timed(fn, no_batch=True, repeats=repeats)
    return WallclockCase(
        name=name,
        description=description,
        batched_s=round(batched_s, 4),
        unbatched_s=round(unbatched_s, 4),
        speedup=round(unbatched_s / batched_s, 2) if batched_s > 0 else float("inf"),
        virtual_identical=virtual_eq(batched, oracle),
        stats_identical=stats_eq(batched, oracle),
    )


def _procs_case(name, description, fn_engine, *,
                virtual_eq, stats_eq, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """Time ``fn_engine(None)`` (threaded) against ``fn_engine("process")``.

    Both engines get one untimed warmup pass (imports, worker-pool
    spawn / fork machinery, numpy first-touch), then best-of-repeats
    timings.  The bit-identity comparison rides the existing
    ``virtual_identical``/``stats_identical`` gate, so a divergence
    fails the CLI the same way a broken batching invariant does.
    """
    def best_of(engine):
        fn_engine(engine)  # warmup
        best = float("inf")
        result = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = fn_engine(engine)
            best = min(best, time.perf_counter() - t0)
        return best, result

    threaded_s, threaded = best_of(None)
    procs_s, procs = best_of("process")
    same_virtual = virtual_eq(threaded, procs)
    same_stats = stats_eq(threaded, procs)
    return WallclockCase(
        name=name,
        description=description,
        batched_s=round(threaded_s, 4),
        unbatched_s=0.0,
        speedup=0.0,
        virtual_identical=same_virtual,
        stats_identical=same_stats,
        procs_s=round(procs_s, 4),
        procs_speedup=round(threaded_s / procs_s, 2) if procs_s > 0 else float("inf"),
        procs_identical=same_virtual and same_stats,
    )


# ---------------------------------------------------------------------------
# Case 1: the Section IV-C naive 50x40x25 section assignment
# ---------------------------------------------------------------------------


def _section_put_fingerprints(
    shape: tuple[int, ...],
    key: tuple[slice, ...],
    config: CafConfig,
    machine: str = "stampede",
    dtype=np.float32,
    iters: int = 1,
):
    """One inter-node pair; image 1 assigns ``a[key]`` on its partner
    ``iters`` times (as a figure sweep would).

    Returns per-image ``(clock_now, stats, checksum)`` fingerprints.
    """
    num_pes = pair_world_size(1)
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    heap = max(1 << 22, 2 * nbytes + (1 << 18))

    def kernel():
        ctx = current()
        a = caf.coarray(shape, dtype)
        a[...] = 0
        caf.sync_all()
        partner = pair_partner(ctx.pe, 1)
        if partner is not None:
            for _ in range(iters):
                a.on(partner + 1)[key] = 7
        caf.sync_all()
        from repro.caf.runtime import current_runtime

        stats = {
            k: v
            for k, v in current_runtime().my_stats.items()
            if not k.startswith("plan_cache")
        }
        return ctx.clock.now, stats, float(a.local.sum())

    return caf.launch(kernel, num_pes, machine, heap_bytes=heap, **config.launch_kwargs())


def naive_section_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """The paper's 50,000-call example (scaled down when ``quick``).

    Both sizes run 10 assignments so the measurement is dominated by the
    data plane, not by spawning the 17 PE threads.
    """
    if quick:
        shape, key, calls = (20, 16, 20), np.s_[0:20:2, 0:16:2, 0:20:4], 10 * 8 * 5
    else:
        shape, key, calls = (100, 80, 100), np.s_[0:100:2, 0:80:2, 0:100:4], 50 * 40 * 25
    iters = 10
    counts = "x".join(str(len(range(*s.indices(d)))) for s, d in zip(key, shape))
    fn = lambda: _section_put_fingerprints(shape, key, UHCAF_CRAY_SHMEM_NAIVE, iters=iters)
    return _case(
        f"naive-{counts}",
        f"3-D section {counts} under the naive policy: {calls} logical puts "
        f"per assignment x {iters} assignments (paper Section IV-C)",
        fn,
        virtual_eq=lambda a, b: all(x[0] == y[0] for x, y in zip(a, b)),
        stats_eq=lambda a, b: all(x[1] == y[1] and x[2] == y[2] for x, y in zip(a, b)),
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Case 2: the Figs 6/7 2-D strided sweep under the 2dim translation
# ---------------------------------------------------------------------------


def strided_2dim_sweep_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    strides = (2, 16) if quick else (2, 16, 128)
    rows, cols = (32, 128) if quick else (128, 1024)
    iters = 2 if quick else 5

    def fn():
        return [
            microbench.caf_strided_put_bandwidth(
                "stampede", UHCAF_CRAY_SHMEM_2DIM, s, iters=iters, rows=rows, cols=cols
            )
            for s in strides
        ]

    return _case(
        "2dim-sweep",
        f"2-D strided puts (rows={rows}, cols={cols}) over strides {strides} "
        "with the 2dim translation (Figs 6/7)",
        fn,
        virtual_eq=lambda a, b: a == b,  # bandwidths derive from virtual time
        stats_eq=lambda a, b: True,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Case 3: a quick Himeno run
# ---------------------------------------------------------------------------


def himeno_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    grid = (17, 17, 17) if quick else (33, 33, 65)
    iters = 2 if quick else 4

    def fn():
        return himeno_caf(
            machine="stampede",
            config=UHCAF_CRAY_SHMEM_2DIM,
            num_images=4,
            grid=grid,
            iterations=iters,
        )

    return _case(
        "himeno-quick",
        f"Himeno {grid[0]}x{grid[1]}x{grid[2]}, 4 images, {iters} iterations "
        "(halo-exchange cadence)",
        fn,
        virtual_eq=lambda a, b: a.elapsed_us == b.elapsed_us and a.gosa == b.gosa,
        stats_eq=lambda a, b: a.mflops == b.mflops,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Case 4: the Fig 8 lock microbenchmark (remote-atomic path)
# ---------------------------------------------------------------------------


def locks_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """Contended-lock wall-clock cost (Fig 8 shape).

    Every image does identical work on the one shared lock, so the max
    elapsed virtual time is invariant under the (scheduler-dependent)
    MCS queue order — safe to compare bitwise across engines.
    """
    images = 4 if quick else 8
    acquires = 64 if quick else 128

    def fn():
        return microbench.lock_contention_time(
            "stampede", UHCAF_CRAY_SHMEM, images, acquires=acquires
        )

    return _case(
        "locks",
        f"MCS lock contention, {images} images x {acquires} acquires "
        "(Fig 8 shape); scalar atomics only, no batchable transfers",
        fn,
        virtual_eq=lambda a, b: a == b,  # elapsed virtual microseconds
        stats_eq=lambda a, b: True,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Case 5: the Fig 9 DHT insert/update loop
# ---------------------------------------------------------------------------


def dht_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """DHT update-loop wall-clock cost (Fig 9 shape).

    Runs in ``single_writer`` mode — same lock/atomic/probe code path
    against a table spread over all images, but one image issues every
    timed operation in program order, so elapsed virtual time is
    independent of thread scheduling and can be compared bitwise
    across engines (concurrent random updates resolve contention in
    wall-clock arrival order, which differs run to run).
    """
    images = 4 if quick else 8
    updates = 192 if quick else 512
    # Size the table for a <=0.5 load factor: with the default 64
    # slots/image, the full case's 512 updates equal the table's total
    # capacity and some image's bucket must overflow (DhtFullError).
    slots = 128

    def fn():
        return dht_benchmark(
            "stampede", UHCAF_CRAY_SHMEM, images,
            updates_per_image=updates, slots_per_image=slots,
            single_writer=True,
        )

    return _case(
        "dht",
        f"DHT, {images} images, {updates} single-writer random "
        "inserts/updates (Fig 9 shape); scalar puts/atomics only, no "
        "batchable transfers",
        fn,
        virtual_eq=lambda a, b: a == b,  # elapsed virtual microseconds
        stats_eq=lambda a, b: True,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Cases 6/7: threaded vs engine="process" (the ``procs`` column)
# ---------------------------------------------------------------------------


def _ring_section_fingerprints(
    shape: tuple[int, ...],
    key: tuple[slice, ...],
    config: CafConfig,
    engine=None,
    num_images: int = 8,
    machine: str = "stampede",
    dtype=np.float32,
    iters: int = 1,
):
    """Every image assigns ``a[key]`` on its ring neighbour ``iters``
    times — all PEs drive the data plane simultaneously, the shape
    where the process engine's true parallelism shows.  ``num_images``
    stays within one node (intra-node transfers don't queue on the
    NIC timelines), so virtual times are schedule-independent and safe
    to compare bitwise across engines.
    """
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    heap = max(1 << 22, 2 * nbytes + (1 << 18))

    def kernel():
        ctx = current()
        a = caf.coarray(shape, dtype)
        a[...] = 0
        caf.sync_all()
        partner = caf.this_image() % caf.num_images() + 1
        for _ in range(iters):
            a.on(partner)[key] = 7
        caf.sync_all()
        from repro.caf.runtime import current_runtime

        stats = {
            k: v
            for k, v in current_runtime().my_stats.items()
            if not k.startswith("plan_cache")
        }
        return ctx.clock.now, stats, float(a.local.sum())

    return caf.launch(
        kernel, num_images, machine, heap_bytes=heap, engine=engine,
        **config.launch_kwargs(),
    )


def naive_procs_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """Ring section puts at 8 PEs, threaded vs ``engine="process"``."""
    if quick:
        shape, key = (20, 16, 20), np.s_[0:20:2, 0:16:2, 0:20:4]
        iters = 4
    else:
        shape, key = (100, 80, 100), np.s_[0:100:2, 0:80:2, 0:100:4]
        iters = 10
    counts = "x".join(str(len(range(*s.indices(d)))) for s, d in zip(key, shape))
    fn = lambda engine: _ring_section_fingerprints(
        shape, key, UHCAF_CRAY_SHMEM_NAIVE, engine=engine, iters=iters
    )
    return _procs_case(
        "naive-procs",
        f"3-D section {counts} ring puts under the naive policy, 8 images "
        f"x {iters} assignments each: threaded vs engine='process'",
        fn,
        virtual_eq=lambda a, b: all(x[0] == y[0] for x, y in zip(a, b)),
        stats_eq=lambda a, b: all(x[1] == y[1] and x[2] == y[2] for x, y in zip(a, b)),
        repeats=repeats,
    )


def himeno_procs_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """Himeno at 8 images, threaded vs ``engine="process"``."""
    grid = (17, 17, 17) if quick else (33, 33, 65)
    iters = 2 if quick else 4

    def fn(engine):
        return himeno_caf(
            machine="stampede",
            config=UHCAF_CRAY_SHMEM_2DIM,
            num_images=8,
            grid=grid,
            iterations=iters,
            engine=engine,
        )

    return _procs_case(
        "himeno-procs",
        f"Himeno {grid[0]}x{grid[1]}x{grid[2]}, 8 images, {iters} iterations: "
        "threaded vs engine='process'",
        fn,
        virtual_eq=lambda a, b: a.elapsed_us == b.elapsed_us and a.gosa == b.gosa,
        stats_eq=lambda a, b: a.mflops == b.mflops,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

CASES = {
    "naive": naive_section_case,
    "2dim": strided_2dim_sweep_case,
    "himeno": himeno_case,
    "locks": locks_case,
    "dht": dht_case,
    "naive-procs": naive_procs_case,
    "himeno-procs": himeno_procs_case,
}


def run_suite(quick: bool = False, cases=None,
              repeats: int = DEFAULT_REPEATS) -> list[WallclockCase]:
    names = list(CASES) if cases is None else list(cases)
    return [CASES[n](quick=quick, repeats=repeats) for n in names]


def write_json(results: list[WallclockCase], path: str | Path) -> Path:
    path = Path(path)
    doc: dict = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
    # Replace our section, preserve others (repro.bench.scale merges a
    # "scale" section into the same file).
    doc.update(
        benchmark="wallclock",
        generated_by="python -m repro.bench.wallclock",
        # Wall-clock context for the procs column: the process engine
        # cannot beat threaded on a single-core host, and the CI gate
        # only makes sense where cores exist.
        host_cores=os.cpu_count(),
        cases=[asdict(c) for c in results],
    )
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def render(results: list[WallclockCase]) -> str:
    lines = [
        f"{'case':<18} {'fast (s)':>10} {'unbatched (s)':>14} "
        f"{'speedup':>8} {'procs (s)':>10} {'procs':>7}  invariant"
    ]
    for c in results:
        ok = "yes" if (c.virtual_identical and c.stats_identical) else "NO"
        procs_s = f"{c.procs_s:>10.4f}" if c.procs_s else f"{'-':>10}"
        procs_x = f"{c.procs_speedup:>6.2f}x" if c.procs_s else f"{'-':>7}"
        lines.append(
            f"{c.name:<18} {c.batched_s:>10.4f} "
            f"{c.unbatched_s:>14.4f} {c.speedup:>7.2f}x "
            f"{procs_s} {procs_x}  {ok}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.wallclock",
        description=(
            "Wall-clock timings of the batched RMA engine vs the "
            "REPRO_NO_BATCH=1 per-call oracle."
        ),
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument(
        "--out", default="BENCH_wallclock.json", help="output JSON path"
    )
    parser.add_argument(
        "--cases", nargs="*", choices=sorted(CASES), help="subset of cases to run"
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="wall-clock repeats per mode (minimum is reported)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail (exit 1) if any batching case's speedup is below X",
    )
    parser.add_argument(
        "--min-procs-speedup", type=float, default=None, metavar="X",
        help=(
            "fail (exit 1) if any *-procs case's threaded-vs-process "
            "speedup is below X (only meaningful on multi-core hosts)"
        ),
    )
    args = parser.parse_args(argv)
    results = run_suite(quick=args.quick, cases=args.cases, repeats=args.repeats)
    print(render(results))
    out = write_json(results, args.out)
    print(f"\nwrote {out}")
    bad = [c.name for c in results if not (c.virtual_identical and c.stats_identical)]
    if bad:
        print(f"ERROR: virtual-time invariance broken in: {bad}", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        # The *-procs cases don't run the per-call oracle (unbatched_s
        # stays 0); they are gated by --min-procs-speedup instead.
        slow = [
            c.name for c in results
            if c.unbatched_s > 0 and c.speedup < args.min_speedup
        ]
        if slow:
            print(
                f"ERROR: speedup below {args.min_speedup} in: {slow}",
                file=sys.stderr,
            )
            return 1
    if args.min_procs_speedup is not None:
        slow = [
            c.name for c in results
            if c.procs_s > 0 and c.procs_speedup < args.min_procs_speedup
        ]
        if slow:
            print(
                f"ERROR: procs speedup below {args.min_procs_speedup} in: "
                f"{slow} (host_cores={os.cpu_count()})",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
