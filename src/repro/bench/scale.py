"""Weak-scaling benchmark: the event engine at thousands of PEs.

The thread-per-PE engine tops out around a few hundred PEs (OS thread
stacks, context-switch storms); the discrete-event engine runs the same
virtual-time model with one Python frame per runnable PE.  This module
measures that: two communication workloads expressed as step programs
(:mod:`repro.engine.steps`), swept over 64/256/1024/4096 PEs on the
event engine, with host wall-clock *per PE step* as the figure of merit.

Workloads
---------

* ``himeno`` — the Himeno halo-exchange cadence: a ring exchange of
  face buffers in two half-duplex phases (all PEs put right, barrier;
  all put left, barrier) followed by a ``gosa`` allreduce priced with
  :meth:`~repro.sim.netmodel.NetworkModel.reduction_cost`.  The
  half-duplex split keeps every ``tx``/``rx`` timeline single-writer
  per phase, so threaded execution is schedule-independent and the
  64-PE equivalence gate can demand *bit-identical* virtual times.
* ``dht`` — the Fig 9 distributed-hash-table update loop: a remote
  fetch-add reserving a slot plus a put of the value.  The gate variant
  rotates writers (one active PE per node per sub-phase) so the per-node
  atomic-unit timelines stay single-writer; the scale variant lets every
  PE update a hashed owner each round (multi-writer — event-engine only,
  where heap order makes it deterministic anyway).

Equivalence gate
----------------

``--gate`` (default on) runs both workloads at 64 PEs on the threaded
and event engines and requires identical per-PE results (including each
PE's final virtual clock) and identical trace digests — the engines
must agree bit-for-bit wherever both can run.

Output
------

Results land in the ``scale`` section of ``BENCH_wallclock.json`` (or
``--out``); ``--baseline FILE --max-regression 0.25`` compares the
measured ``wall_us_per_pe_step`` against a committed envelope and fails
the run on regression (the CI ``scale-smoke`` job).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.engine.steps import BarrierStep, Done, alloc_array_step
from repro.explore.harness import trace_digest
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach
from repro.trace.events import attach as trace_attach

#: Symmetric heap per PE for scale runs — the workloads are tiny on
#: purpose (a 4096-PE job allocates one of these per PE).
SCALE_HEAP_BYTES = 1 << 15

DEFAULT_PES = (64, 256, 1024, 4096)
GATE_PES = 64

_DHT_SLOTS = 32


def _mix64(x: int) -> int:
    """splitmix64 finalizer (deterministic owner hashing)."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# Workload step programs
# ---------------------------------------------------------------------------


def make_himeno_body(layer, iters: int, face_elems: int, slots: list) -> Callable:
    """Ring halo exchange + gosa reduction as a step program.

    ``slots`` is a job-shared list (one cell per PE) carrying the local
    gosa contributions between the deposit barrier and the index-order
    sum — the Python stand-in for the reduction's data plane, whose
    virtual cost is charged via ``reduction_cost``.
    """
    job = layer.job
    n = job.num_pes
    red_cost = job.network.reduction_cost(n, 8, layer.profile)

    def body():
        ctx = current()
        pe = ctx.pe
        right = (pe + 1) % n
        left = (pe - 1) % n
        face_r = np.full(face_elems, pe + 0.25, dtype=np.float64)
        face_l = np.full(face_elems, pe + 0.75, dtype=np.float64)

        def iterate(ghosts, it: int, gosa: float):
            if it == iters:
                return Done((round(gosa, 9), ctx.clock.now))
            # Phase 1 (half-duplex): everyone sends its right face into
            # the right neighbour's low ghost region.  Only the last PE
            # of each node crosses nodes — one writer per tx/rx timeline.
            layer.put(ghosts, face_r, right, offset=0)
            return BarrierStep(layer, lambda: phase2(ghosts, it, gosa))

        def phase2(ghosts, it: int, gosa: float):
            # Phase 2: everyone sends its left face the other way.
            layer.put(ghosts, face_l, left, offset=face_elems)
            return BarrierStep(layer, lambda: local_residual(ghosts, it))

        def local_residual(ghosts, it: int):
            # Jacobi-ish residual over the received ghosts.
            g = ghosts.local
            slots[pe] = float(g.sum()) / face_elems
            return BarrierStep(layer, lambda: combine(ghosts, it))

        def combine(ghosts, it: int):
            gosa = 0.0
            for v in slots:  # index order: float sum is reproducible
                gosa += v
            ctx.clock.advance(red_cost)
            return BarrierStep(layer, lambda: iterate(ghosts, it + 1, gosa))

        return alloc_array_step(
            layer, (2 * face_elems,), np.float64, lambda g: iterate(g, 0, 0.0)
        )

    return body


def himeno_steps_per_pe(iters: int) -> int:
    """Engine slices per PE: the allocation barrier plus four barriers
    per iteration (two halo phases, deposit, combine)."""
    return 1 + 4 * iters


def make_dht_body(layer, rounds: int, single_writer: bool) -> Callable:
    """Fig-9 DHT update loop (fetch-add + put) as a step program.

    ``single_writer=True`` is the equivalence-gate variant: sub-phases
    rotate through ``cores_per_node`` residues so at most one PE per
    node issues an atomic per sub-phase (per-node ``amo`` timelines stay
    single-writer ⇒ threaded runs are schedule-independent).
    ``single_writer=False`` is the weak-scaling variant: every PE
    updates a hashed owner every round.
    """
    job = layer.job
    n = job.num_pes
    width = job.machine.cores_per_node if single_writer else 1
    val = np.array([1], dtype=np.int64)

    def body():
        ctx = current()
        pe = ctx.pe

        def update(counts, table, rnd: int) -> None:
            if single_writer:
                owner = (pe + 1 + rnd) % n
            else:
                owner = _mix64(pe * 1000003 + rnd) % n
            slot = (pe + rnd) % _DHT_SLOTS
            layer.atomic(counts, owner, slot, "fadd", 1)
            layer.put(table, val, owner, offset=slot)

        def run_phase(counts, table, rnd: int, sub: int):
            if rnd == rounds:
                total = int(counts.local.sum())
                return Done((total, ctx.clock.now))
            if pe % width == sub:
                update(counts, table, rnd)
            nxt_sub = sub + 1
            if nxt_sub == width:
                return BarrierStep(
                    layer, lambda: run_phase(counts, table, rnd + 1, 0)
                )
            return BarrierStep(
                layer, lambda: run_phase(counts, table, rnd, nxt_sub)
            )

        return alloc_array_step(
            layer, (_DHT_SLOTS,), np.int64,
            lambda counts: alloc_array_step(
                layer, (_DHT_SLOTS,), np.int64,
                lambda table: run_phase(counts, table, 0, 0),
            ),
        )

    return body


def dht_steps_per_pe(rounds: int, single_writer: bool, cores_per_node: int) -> int:
    width = cores_per_node if single_writer else 1
    return 2 + rounds * width


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_workload(
    workload: str,
    num_pes: int,
    *,
    engine: Any = "event",
    iters: int = 2,
    machine: str = "stampede",
    with_trace: bool = False,
    single_writer: bool = False,
) -> dict:
    """Build a job, run one workload, and return results + timings."""
    job = Job(num_pes, machine, heap_bytes=SCALE_HEAP_BYTES, engine=engine)
    layer = shmem_attach(job)
    tracer = trace_attach(job) if with_trace else None
    if workload == "himeno":
        slots = [0.0] * num_pes
        body = make_himeno_body(layer, iters, 64, slots)
        steps_per_pe = himeno_steps_per_pe(iters)
    elif workload == "dht":
        body = make_dht_body(layer, iters, single_writer)
        steps_per_pe = dht_steps_per_pe(
            iters, single_writer, job.machine.cores_per_node
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected himeno/dht")
    t0 = time.perf_counter()
    results = job.run(body)
    wall_s = time.perf_counter() - t0
    total_steps = num_pes * steps_per_pe
    return {
        "workload": workload,
        "pes": num_pes,
        "engine": job.engine.name,
        "results": results,
        "wall_s": round(wall_s, 4),
        "steps_per_pe": steps_per_pe,
        "wall_us_per_pe_step": round(wall_s * 1e6 / total_steps, 3),
        "max_virtual_us": round(max(r[1] for r in results), 6),
        "digest": trace_digest(tracer) if tracer is not None else None,
    }


def equivalence_gate(num_pes: int = GATE_PES, iters: int = 2) -> dict:
    """Threaded-vs-event bitwise agreement on the shared sizes.

    Raises :class:`AssertionError` on any mismatch; returns the gate
    record for the JSON report.
    """
    gate: dict = {"pes": num_pes, "iters": iters, "workloads": {}}
    for workload, kwargs in (
        ("himeno", {}),
        ("dht", {"single_writer": True}),
    ):
        runs = {
            name: run_workload(
                workload, num_pes, engine=name, iters=iters,
                with_trace=True, **kwargs,
            )
            for name in ("threaded", "event")
        }
        t, e = runs["threaded"], runs["event"]
        if t["results"] != e["results"]:
            diverged = [
                pe for pe, (a, b) in enumerate(zip(t["results"], e["results"]))
                if a != b
            ]
            raise AssertionError(
                f"{workload}@{num_pes}: threaded/event results diverge on "
                f"PE(s) {diverged[:8]}: "
                f"{t['results'][diverged[0]]} != {e['results'][diverged[0]]}"
            )
        if t["digest"] != e["digest"]:
            raise AssertionError(
                f"{workload}@{num_pes}: trace digests diverge "
                f"({t['digest'][:16]} != {e['digest'][:16]})"
            )
        gate["workloads"][workload] = {
            "virtual_identical": True,
            "digest_identical": True,
            "digest": t["digest"],
            "max_virtual_us": t["max_virtual_us"],
        }
    return gate


def sweep(
    pes_list=DEFAULT_PES, *, iters: int = 2, quick: bool = False
) -> list[dict]:
    """Event-engine weak-scaling sweep; one record per (workload, size)."""
    if quick:
        iters = min(iters, 2)
    records: list[dict] = []
    for num_pes in pes_list:
        for workload, kwargs in (("himeno", {}), ("dht", {"single_writer": False})):
            rec = run_workload(
                workload, num_pes, engine="event", iters=iters, **kwargs
            )
            rec.pop("results")
            rec.pop("digest")
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# JSON plumbing + regression gate
# ---------------------------------------------------------------------------


def update_bench_json(path: str | Path, section: dict) -> Path:
    """Merge the ``scale`` section into the wallclock JSON in place."""
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {
        "benchmark": "wallclock", "cases": [],
    }
    doc["scale"] = section
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def check_regression(
    records: list[dict], baseline_path: str | Path, max_regression: float
) -> list[str]:
    """Compare ``wall_us_per_pe_step`` against a committed envelope.

    Returns human-readable violation strings (empty = pass).  Sweep
    points missing from the baseline pass (new sizes are not
    regressions).
    """
    baseline = json.loads(Path(baseline_path).read_text())
    envelope = {
        (b["workload"], b["pes"]): b["wall_us_per_pe_step"]
        for b in baseline.get("sweep", [])
    }
    violations = []
    for rec in records:
        limit = envelope.get((rec["workload"], rec["pes"]))
        if limit is None:
            continue
        allowed = limit * (1.0 + max_regression)
        if rec["wall_us_per_pe_step"] > allowed:
            violations.append(
                f"{rec['workload']}@{rec['pes']}: "
                f"{rec['wall_us_per_pe_step']:.3f} us/step > "
                f"{allowed:.3f} (baseline {limit:.3f} "
                f"+{max_regression:.0%})"
            )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.scale",
        description="Event-engine weak-scaling sweep + engine equivalence gate",
    )
    parser.add_argument(
        "--pes", default=None,
        help="comma-separated PE counts (default 64,256,1024,4096)",
    )
    parser.add_argument("--iters", type=int, default=2, help="iterations/rounds")
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest meaningful run (CI smoke)",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="skip the 64-PE threaded-vs-event bitwise gate",
    )
    parser.add_argument(
        "--out", default=None, metavar="JSON",
        help="write/merge the scale section into this wallclock JSON",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="JSON",
        help="committed scale baseline to compare against",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional per-PE-step slowdown vs baseline",
    )
    ns = parser.parse_args(argv)

    if ns.pes is not None:
        pes_list = tuple(int(p) for p in ns.pes.split(","))
    elif ns.quick:
        pes_list = (64, 1024)
    else:
        pes_list = DEFAULT_PES

    section: dict = {
        "generated_by": "python -m repro.bench.scale",
        "engine": "event",
        "host_cores": os.cpu_count(),
    }
    if not ns.no_gate:
        gate = equivalence_gate(min(GATE_PES, min(pes_list)), iters=ns.iters)
        section["gate"] = gate
        for workload, rec in gate["workloads"].items():
            print(
                f"gate {workload}@{gate['pes']}: virtual times and trace "
                f"digests identical (threaded == event)"
            )
    records = sweep(pes_list, iters=ns.iters, quick=ns.quick)
    section["sweep"] = records
    for rec in records:
        print(
            f"{rec['workload']:>7} pes={rec['pes']:>5} wall={rec['wall_s']:>8.3f}s "
            f"{rec['wall_us_per_pe_step']:>8.3f} us/PE-step "
            f"virtual_max={rec['max_virtual_us']:.1f}us"
        )
    if ns.out:
        path = update_bench_json(ns.out, section)
        print(f"scale section written to {path}")
    if ns.baseline:
        violations = check_regression(records, ns.baseline, ns.max_regression)
        if violations:
            for v in violations:
                print(f"REGRESSION: {v}")
            return 1
        print(f"regression gate passed (max +{ns.max_regression:.0%} vs baseline)")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
