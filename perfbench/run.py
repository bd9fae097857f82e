#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from its
``src/``.  Every run first executes one unit at the default seed and
compares its virtual digest with ``perfbench/reference.json`` (this also
warms thread pools and caches), then measures whole units of the
requested seed for ``--seconds`` host seconds, with calibration chunks
between them: times are reported at a reference host speed (see
:class:`measure.HostSpeed`).  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it measures half the
time untraced and half with the layer tracer installed, and reports the
per-layer metrics plus the tracer's overhead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--record-reference`` recomputes the committed digests instead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 2015
HELD_OUT_SEED = 7919

#: Set-up is sampled at least this many times per run (extra set-up-only
#: launches when the measured units are fewer).
MIN_SETUPS = 5
#: Keep measuring past ``--seconds`` until the per-op CPU samples leave
#: ten beyond the 99th percentile.
MIN_OP_SAMPLES = 1000
#: ``peak_rss_mb`` is read once this many measured units have run (after
#: the verifying unit): a fixed amount of work, so the figure does not
#: depend on how many units the host's speed fits into ``--seconds``.
#: Memory the program keeps from one launch to the next still shows.
RSS_UNITS = 3
#: A phase stops starting units after ``max(4 * seconds, GIVE_UP_S)``.
GIVE_UP_S = 60.0
#: A traced run flags a workload whose own code takes this share or more.
WORKLOAD_SHARE_FLAG = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_cpu_us_p50": "us",
    "op_cpu_us_p99": "us",
    "peak_rss_mb": "MB",
}


def _pin_allocator() -> None:
    """Make peak RSS follow live memory, not allocator retention.

    glibc raises its mmap threshold after large frees and keeps one
    arena per thread, so the multi-megabyte PE heaps of successive jobs
    fragment the heap and peak RSS drifts with the number of units run.
    A fixed 128 KiB threshold and one arena return freed heaps to the
    system.  Other C libraries are left alone.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_mmap_threshold, m_arena_max = -3, -8
    libc.mallopt(m_mmap_threshold, 128 * 1024)
    libc.mallopt(m_arena_max, 1)


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


class TooFewSamples(RuntimeError):
    """The run ended with too few per-op samples to report p99."""


class Run:
    """Attempted/failed bookkeeping across every unit of one run."""

    def __init__(self, workload_cls, reference: dict) -> None:
        self.reference = reference.get("digests", {}).get(workload_cls.name, {})
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Peak RSS (MB) when a phase's ``min_units``-th unit returned.
        self.rss_mb: float | None = None

    def unit(self, w, hooks, expect: str | None):
        """Run one unit; returns it, or ``None`` if it raised.

        A unit fails as a whole when it raised, when its data disagree
        with the oracle, or when its digest differs from ``expect``.
        """
        from workloads import NO_HOOKS

        self.attempted += w.ops_per_unit
        call = w.unit if hooks is None else hooks.workload(w.unit)
        # The previous unit's job graph is garbage now; collect it here,
        # untimed, instead of inside this unit (at 4096 PEs that is a
        # large, erratic pause), so units stay independent.
        gc.collect()
        try:
            u = call(hooks or NO_HOOKS)
        except Exception:  # noqa: BLE001 - a raising unit is a failed unit
            self.failed += w.ops_per_unit
            self.errors.append(traceback.format_exc(limit=4))
            return None
        problem = None
        if not u.data_ok:
            problem = "data differ from the oracle"
        elif expect is not None and u.digest != expect:
            problem = f"digest {u.digest[:16]} != expected {expect[:16]}"
        if problem:
            self.failed += w.ops_per_unit
            self.errors.append(f"{w.name} seed {w.seed}: {problem}")
        return u

    def expected(self, seed: int) -> str | None:
        return self.reference.get(str(seed))

    def phase(self, w, seconds: float, hooks=None, min_samples: int = 0,
              min_units: int = 1):
        """Whole units for ``seconds`` (and until ``min_samples`` per-op
        samples and ``min_units`` units); every unit must reproduce the
        first one's digest.  Calibration chunks run between the units.

        Gives up after ``max(4 * seconds, GIVE_UP_S)`` host seconds and returns
        the units that ran so far, possibly none (every unit raised), with
        the phase's :class:`measure.HostSpeed`."""
        import measure

        expect = self.expected(w.seed)
        units: list = []
        speed = measure.HostSpeed()
        busy = 0.0
        samples = 0
        t0 = time.perf_counter()
        give_up = t0 + max(4 * seconds, GIVE_UP_S)
        speed.keep_up(busy)
        while (len(units) < min_units or time.perf_counter() - t0 < seconds
               or samples < min_samples):
            if time.perf_counter() > give_up:
                self.errors.append(f"{w.name}: gave up after {len(units)} "
                                   f"usable units and {samples} op samples")
                break
            u0 = time.perf_counter()
            u = self.unit(w, hooks, expect)
            busy += time.perf_counter() - u0
            speed.keep_up(busy)
            if u is None:
                continue
            expect = expect or u.digest
            units.append(u)
            samples += len(u.op_cpu_ns)
            if len(units) == min_units:
                self.rss_mb = _peak_rss_mb()
        return units, speed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rate(units) -> float:
    """Operations per host second after set-up, over the whole run.

    A time-weighted mean rather than a median of unit rates: this
    host's slowdowns come in multi-second bursts, and the mean of a run
    drifts less under them than a median does.
    """
    return sum(u.ops for u in units) / sum(u.run_s for u in units)


def _calibrated(raw: dict, speed) -> dict:
    """End-to-end values at the reference host speed: host and thread
    CPU times over ``speed.slowness``, the rate times it."""
    return {
        "setup_s": raw["setup_s"] / speed.slowness,
        "ops_per_s": raw["ops_per_s"] * speed.slowness,
        "op_cpu_us_p50": raw["op_cpu_us_p50"] / speed.slowness,
        "op_cpu_us_p99": raw["op_cpu_us_p99"] / speed.slowness,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def setup_samples(w, units) -> list:
    """Each unit's set-up time, topped up to :data:`MIN_SETUPS` samples
    with set-up-only launches."""
    setups = [u.setup_s for u in units]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(w.setup_probe())
    return setups


def end_to_end(w, units, rss_mb: float | None, speed) -> tuple[dict, dict]:
    """The end-to-end metrics, calibrated by ``speed``; none when no unit
    ran to completion."""
    import measure

    if not units:
        return {}, {"units": 0}
    setups = setup_samples(w, units)
    cpu_us = [ns / 1e3 for u in units for ns in u.op_cpu_ns]
    p99 = measure.tail_percentile(cpu_us, 99.0)
    if p99 is None:
        raise TooFewSamples(f"only {len(cpu_us)} per-op samples: too few for p99")
    raw = {
        "setup_s": measure.median(setups),
        "ops_per_s": _rate(units),
        "op_cpu_us_p50": measure.nearest_rank(sorted(cpu_us), 50.0),
        "op_cpu_us_p99": p99,
        "peak_rss_mb": _peak_rss_mb() if rss_mb is None else rss_mb,
    }
    metrics = _calibrated(raw, speed)
    info = {
        "units": len(units),
        "op_samples": len(cpu_us),
        "samples_beyond_p99": measure.samples_beyond(len(cpu_us), 99.0),
        "setup_samples": len(setups),
        "host_slowness": speed.slowness,
        "calibration_chunks": speed.chunks,
        "uncalibrated": raw,
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            info)


def per_layer(run: Run, w, seconds: float) -> tuple[dict, dict]:
    from tracer import GC_BUCKET, TRACER_BUCKET, Tracer

    plain, plain_speed = run.phase(w, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_speed = run.phase(w, seconds / 2, hooks=tracer)
    finally:
        tracer.uninstall()
    if not plain or not traced:
        return {}, {"untraced_units": len(plain), "traced_units": len(traced)}
    counters: dict = {}
    for u in traced:
        for k, v in u.counters.items():
            counters[k] = counters.get(k, 0) + v
    layers = tracer.report(len(traced), counters)
    # Self times are thread CPU: bring them to the reference host speed.
    for k in layers:
        if k.endswith("_s"):
            layers[k] /= traced_speed.slowness
    layers["trace.overhead_frac"] = 1.0 - ((_rate(traced) * traced_speed.slowness)
                                           / (_rate(plain) * plain_speed.slowness))
    self_ns, _ = tracer.totals()
    traced_ns = sum(self_ns.values()) - self_ns.get(TRACER_BUCKET, 0)
    info = {"untraced_units": len(plain), "traced_units": len(traced),
            "gc_share": self_ns.get(GC_BUCKET, 0) / traced_ns}
    if layers["workload.share"] >= WORKLOAD_SHARE_FLAG:
        info["flag"] = (f"workload code takes {layers['workload.share']:.0%} "
                        f"of the traced run: it measures itself, not the runtime")
    return ({k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()},
            info)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/unit"
    if name.endswith(("_ratio", "_frac", ".share")):
        return "ratio"
    if name.endswith("bytes"):
        return "B/unit"
    return "count/unit"


def record_reference() -> int:
    """Recompute the committed digests (default and held-out seed)."""
    import measure
    from workloads import WORKLOADS

    doc = {"host": measure.host_context("-"), "seeds": [DEFAULT_SEED, HELD_OUT_SEED],
           "digests": {}}
    del doc["host"]["engine"]
    for name, cls in WORKLOADS.items():
        doc["digests"][name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            units = [cls(seed).unit() for _ in range(2)]
            if units[0].digest != units[1].digest or not all(u.data_ok for u in units):
                print(f"{name} seed {seed}: not reproducible or wrong", file=sys.stderr)
                return 1
            doc["digests"][name][str(seed)] = units[0].digest
            print(f"{name} seed {seed}: {units[0].digest}")
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    _pin_allocator()
    _import_program()
    if args.record_reference:
        return record_reference()

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    cls = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    run = Run(cls, reference)

    verify = cls(DEFAULT_SEED)
    run.unit(verify, None, run.expected(DEFAULT_SEED))
    w = verify if args.seed == DEFAULT_SEED else cls(args.seed)

    try:
        if args.trace:
            metrics, info = per_layer(run, w, args.seconds)
        else:
            units, speed = run.phase(w, args.seconds, min_samples=MIN_OP_SAMPLES,
                                     min_units=RSS_UNITS)
            metrics, info = end_to_end(w, units, run.rss_mb, speed)
    except TooFewSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    context = measure.host_context(cls.engine)
    flags = [info.pop("flag")] if "flag" in info else []
    ref_nproc = reference.get("host", {}).get("nproc")
    if ref_nproc != context["nproc"]:
        flags.append(f"reference digests were recorded on a {ref_nproc}-core host, "
                     f"this host has {context['nproc']}: compare timings across "
                     f"hosts with care")
    summary = {
        "workload": cls.name, "seed": args.seed, "trace": args.trace,
        "context": context, **info,
        "failed_frac": run.failed / run.attempted,
        "flags": flags,
    }
    for err in run.errors[:5]:
        print(err, file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
