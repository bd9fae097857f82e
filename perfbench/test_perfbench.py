"""Tests of the benchmark itself: span accounting, the tail-percentile
rule, digest sensitivity, and agreement with ``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.engine import steps  # noqa: E402
from tracer import GC_BUCKET, TRACER_BUCKET, Tracer  # noqa: E402


class FakeClock:
    """A per-thread clock that moves only when the test says so."""

    def __init__(self) -> None:
        self._tls = threading.local()

    def __call__(self) -> int:
        return getattr(self._tls, "now", 0)

    def advance(self, ns: int) -> None:
        self._tls.now = self() + ns


def _nested_program(tracer: Tracer, clock: FakeClock, scale: int):
    """outer(a) 10 -> mid(b) 5 -> inner(a) 3 ; mid 4 ; outer 2."""
    def inner():
        clock.advance(3 * scale)

    def mid():
        clock.advance(5 * scale)
        tracer.wrap("a", inner)()
        clock.advance(4 * scale)

    def outer():
        clock.advance(10 * scale)
        tracer.wrap("b", mid)()
        clock.advance(2 * scale)

    return tracer.wrap("a", outer)


def test_self_time_is_span_minus_covered_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _nested_program(tracer, clock, 1)()
    self_ns, _ = tracer.totals()
    assert self_ns["a"] == 10 + 2 + 3
    assert self_ns["b"] == 5 + 4
    assert self_ns[TRACER_BUCKET] == 0


def test_spans_on_several_threads_do_not_subtract_from_each_other():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    threads = [
        threading.Thread(target=_nested_program(tracer, clock, scale))
        for scale in (1, 100)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    self_ns, _ = tracer.totals()
    assert self_ns["a"] == 15 * 101
    assert self_ns["b"] == 9 * 101


def test_garbage_collection_inside_a_span_is_not_charged_to_it():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def body():
        clock.advance(4)
        tracer._gc_event("start", {})
        clock.advance(50)
        tracer._gc_event("stop", {})
        clock.advance(6)

    tracer.wrap("comm", body)()
    self_ns, _ = tracer.totals()
    assert self_ns["comm"] == 10
    assert self_ns[GC_BUCKET] == 50


def test_step_continuations_are_charged_to_the_layer_that_returned_them():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def cont():
        clock.advance(7)
        return steps.Done(None)

    def make_step():
        clock.advance(1)
        return steps.DelayStep(0.0, cont)

    step = tracer.wrap("collectives", make_step, steps=True)()
    # The engine, not the wrapped call, runs the continuation later.
    step.cont()
    self_ns, _ = tracer.totals()
    assert self_ns["collectives"] == 8


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(1000, 99.0) == 10
    assert measure.tail_percentile(list(range(1000))) == 989
    assert measure.samples_beyond(999, 99.0) == 9
    assert measure.tail_percentile(list(range(999))) is None
    assert measure.nearest_rank([1, 2, 3, 4], 50.0) == 2


def test_calibration_keeps_to_its_share_of_the_units():
    speed = measure.HostSpeed()
    speed.keep_up(0.0)
    assert speed.chunks == 1
    speed.keep_up(0.3)
    assert speed.chunk_s >= measure.CALIBRATION_SHARE * 0.3


def test_calibration_reads_times_at_the_reference_speed():
    speed = measure.HostSpeed()
    speed.chunks, speed.chunk_s = 3, 6 * measure.REFERENCE_CHUNK_S  # 2x slow
    raw = {"setup_s": 1.0, "ops_per_s": 100.0, "op_cpu_us_p50": 10.0,
           "op_cpu_us_p99": 40.0, "peak_rss_mb": 5.0}
    assert run._calibrated(raw, speed) == pytest.approx(
        {"setup_s": 0.5, "ops_per_s": 200.0, "op_cpu_us_p50": 5.0,
         "op_cpu_us_p99": 20.0, "peak_rss_mb": 5.0})


_TINY_SECTIONS = (
    workloads.SectionsConfig("naive", (8, 6, 8), "float64", hot=2, cold=3,
                             hot_repeats=2, max_elems=48,
                             strides=((1, 2), (1, 2), (2,)), dim_counts=(2, 3)),
)

_SMALL = {
    "sections": (lambda seed: workloads.Sections(seed, _TINY_SECTIONS),
                 lambda seed: workloads.Sections(seed, (
                     workloads.SectionsConfig("naive", (8, 6, 8), "float64", hot=2,
                                              cold=4, hot_repeats=2, max_elems=48,
                                              strides=((1, 2), (1, 2), (2,)),
                                              dim_counts=(2, 3)),))),
    "kv": (lambda seed: workloads.KV(seed, ops_per_image=12),
           lambda seed: workloads.KV(seed, ops_per_image=16)),
    "scale-dht": (lambda seed: workloads.ScaleDHT(seed, pes=64, rounds=2),
                  lambda seed: workloads.ScaleDHT(seed, pes=48, rounds=2)),
    "allreduce": (lambda seed: workloads.Allreduce(seed, pes=16),
                  lambda seed: workloads.Allreduce(seed, pes=12)),
}


@pytest.mark.parametrize("name", sorted(_SMALL))
def test_perturbed_runs_change_the_digest(name):
    small, resized = _SMALL[name]
    base = small(1).unit()
    again = small(1).unit()
    assert base.data_ok and again.data_ok
    assert base.digest == again.digest
    assert base.ops == small(1).ops_per_unit
    other_seed = small(2).unit()
    other_size = resized(1).unit()
    assert other_seed.data_ok and other_size.data_ok
    assert len({base.digest, other_seed.digest, other_size.digest}) == 3


@pytest.mark.parametrize("name", sorted(_SMALL))
def test_set_up_is_topped_up_when_a_run_has_few_units(name):
    w = _SMALL[name][0](1)
    setups = run.setup_samples(w, [w.unit()])
    assert len(setups) == run.MIN_SETUPS
    assert all(s > 0 for s in setups)


class _Raises:
    """A workload whose every unit raises."""

    name = "raises"
    engine = "none"
    ops_per_unit = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def unit(self, hooks=workloads.NO_HOOKS):
        raise RuntimeError("every operation fails")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_whose_units_all_raise_reports_them_failed(monkeypatch, capsys,
                                                          trace):
    monkeypatch.setitem(workloads.WORKLOADS, _Raises.name, _Raises)
    monkeypatch.setattr(run, "GIVE_UP_S", 0.2)
    code = run.main(["--workload", _Raises.name, "--seconds", "0.05",
                     "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 2 * _Raises.ops_per_unit
    assert result["failed"] == result["attempted"]
    assert result["metrics"] == {}


def test_traced_unit_reproduces_the_untraced_digest():
    w = workloads.ScaleDHT(3, pes=32, rounds=2)
    plain = w.unit()
    tracer = Tracer()
    tracer.install()
    try:
        traced = tracer.workload(w.unit)(tracer)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    layers = tracer.report(1, traced.counters)
    assert layers["comm.calls"] == 2 * 32 * 2
    assert layers["engine.run_s"] > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    names = set(Tracer().report(1, {})) | {"trace.overhead_frac"}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layer) == names
    assert all(run._layer_unit(n) == u for n, u in layer.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    ref = json.loads(run.REFERENCE.read_text())
    assert set(ref["digests"]) == set(workloads.WORKLOADS)
    for digests in ref["digests"].values():
        assert set(digests) == {str(run.DEFAULT_SEED), str(run.HELD_OUT_SEED)}
