"""The collective algorithm library: every algorithm, every kind.

Correctness on single-node and multi-node team shapes, forced-algorithm
overrides (parameter and ``REPRO_COLLECTIVE``), selector fallbacks,
zero-size short-circuits, and sanitizer cleanliness per algorithm.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro.collectives import (
    ALGORITHMS,
    FORCE_ENV,
    AlgorithmSelector,
    candidates_for,
    team_allgather_step,
    team_broadcast_step,
    team_reduce_step,
)
from repro.collectives.comm import get_team_comm
from repro.engine.steps import Done, drive
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach
from repro.trace.events import attach as trace_attach
from repro.trace.sanitizer import check_tracer

REDUCE_ALGOS = ("linear", "binomial", "recdbl", "ring", "hier")
BCAST_ALGOS = ("linear", "binomial", "hier")
ALLGATHER_ALGOS = ("linear", "ring")


def _run_collective(kind, algo, *, num_pes=13, members=None, dtype=np.float64,
                    nelems=4, root_rank=2, with_sanitizer=False, **kwargs):
    """Run one collective on the threaded engine; returns (per-rank
    results, sanitizer report or None)."""
    members = tuple(members) if members is not None else tuple(range(num_pes))
    job = Job(num_pes, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)
    tracer = trace_attach(job, capture_sync=True) if with_sanitizer else None

    def body():
        if current().pe not in members:
            return None
        data = (np.arange(nelems) + current().pe * 3 + 1).astype(dtype)
        if kind == "reduce":
            step = team_reduce_step(layer, members, data, np.add, Done,
                                    root_rank=root_rank, algorithm=algo, **kwargs)
        elif kind == "bcast":
            step = team_broadcast_step(layer, members, data, Done,
                                       root_rank=root_rank, algorithm=algo)
        else:
            step = team_allgather_step(layer, members, data, Done, algorithm=algo)
        return drive(step)

    results = job.run(body)
    report = check_tracer(tracer) if with_sanitizer else None
    return [results[p] for p in members], report


def _contributions(members, dtype, nelems=4):
    return [(np.arange(nelems) + pe * 3 + 1).astype(dtype) for pe in members]


SHAPES = {
    # 13 PEs on one stampede node (16 cores/node).
    "single-node": (13, tuple(range(13))),
    # 13-member strided subset of 40 PEs spanning three nodes.
    "multi-node": (40, tuple(range(1, 40, 3))),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("algo", REDUCE_ALGOS)
def test_reduce_algorithms(algo, shape):
    num_pes, members = SHAPES[shape]
    vals, _ = _run_collective("reduce", algo, num_pes=num_pes, members=members,
                              dtype=np.int64)
    expect = np.sum(_contributions(members, np.int64), axis=0)
    for r, v in enumerate(vals):
        assert np.array_equal(v, expect), (algo, shape, r, v, expect)


@pytest.mark.parametrize("algo", REDUCE_ALGOS)
def test_reduce_float_bitwise_stable(algo):
    """Each algorithm has ONE combine order — float results are exact
    replicas across runs (and engines; see test_engine_identity)."""
    a, _ = _run_collective("reduce", algo, dtype=np.float64)
    b, _ = _run_collective("reduce", algo, dtype=np.float64)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("algo", BCAST_ALGOS)
def test_broadcast_algorithms(algo, shape):
    num_pes, members = SHAPES[shape]
    vals, _ = _run_collective("bcast", algo, num_pes=num_pes, members=members,
                              dtype=np.int64)
    expect = _contributions(members, np.int64)[2]  # root_rank=2
    for v in vals:
        assert np.array_equal(v, expect)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("algo", ALLGATHER_ALGOS)
def test_allgather_algorithms(algo, shape):
    num_pes, members = SHAPES[shape]
    vals, _ = _run_collective("allgather", algo, num_pes=num_pes, members=members,
                              dtype=np.int64)
    expect = np.concatenate(_contributions(members, np.int64))
    for v in vals:
        assert np.array_equal(v, expect)


@pytest.mark.parametrize("algo", REDUCE_ALGOS)
def test_reduce_sanitizer_clean(algo):
    _, report = _run_collective("reduce", algo, with_sanitizer=True)
    assert report.ok, report.render()


@pytest.mark.parametrize("kind,algo", [("bcast", a) for a in BCAST_ALGOS]
                         + [("allgather", a) for a in ALLGATHER_ALGOS])
def test_other_kinds_sanitizer_clean(kind, algo):
    _, report = _run_collective(kind, algo, with_sanitizer=True)
    assert report.ok, report.render()


def test_noncommutative_reduce_keeps_rank_order():
    """commutative=False restricts to rank-ordered algorithms (linear,
    binomial) and preserves operand order.  Right-projection is
    associative but not commutative: a rank-ordered reduction returns
    the LAST rank's contribution, any swapped ordering something else."""
    def right(a, b):
        return b

    assert candidates_for("reduce", commutative=False) == ("linear", "binomial")
    members = tuple(range(6))
    job = Job(6, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        data = np.array([float(current().pe) + 10.0])
        return drive(team_reduce_step(layer, members, data, right, Done,
                                      commutative=False, broadcast=True))

    results = job.run(body)
    expect = np.array([15.0])  # rank 5's contribution
    for v in results:
        assert np.array_equal(v, expect)


# ----------------------------------------------------------------------
# Forcing and selection
# ----------------------------------------------------------------------
def test_env_forces_algorithm(monkeypatch):
    monkeypatch.setenv(FORCE_ENV, "ring")
    job = Job(4, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        comm = get_team_comm(layer, (0, 1, 2, 3))
        from repro.collectives.select import selector_for
        return selector_for(layer).choose("reduce", comm, 64)

    assert job.run(body) == ["ring"] * 4


def test_env_unknown_algorithm_rejected(monkeypatch):
    monkeypatch.setenv(FORCE_ENV, "quantum")
    job = Job(2, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        data = np.ones(2)
        return drive(team_reduce_step(layer, (0, 1), data, np.add, Done))

    with pytest.raises(Exception, match="unknown collective algorithm"):
        job.run(body)


def test_forced_inapplicable_falls_back(monkeypatch):
    """A forced algorithm that does not apply to the call falls back to
    a generally-applicable candidate instead of erroring."""
    monkeypatch.setenv(FORCE_ENV, "recdbl")
    job = Job(4, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        comm = get_team_comm(layer, (0, 1, 2, 3))
        from repro.collectives.select import selector_for
        sel = selector_for(layer)
        return (sel.choose("bcast", comm, 64),
                sel.choose("reduce", comm, 64, commutative=False))

    for bcast_pick, noncomm_pick in job.run(body):
        assert bcast_pick == "binomial"
        assert noncomm_pick == "binomial"


def test_selector_picks_cheapest_candidate():
    job = Job(8, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        comm = get_team_comm(layer, tuple(range(8)))
        sel = AlgorithmSelector(job.network, layer.profile)
        for kind in ("reduce", "bcast", "allgather"):
            pick = sel.choose(kind, comm, 64)
            costs = {a: sel.cost(a, kind, comm, 64) for a in candidates_for(kind)}
            assert costs[pick] == min(costs.values()), (kind, pick, costs)
        return True

    assert all(job.run(body))


def test_all_algorithms_have_prices():
    job = Job(8, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        comm = get_team_comm(layer, tuple(range(8)))
        sel = AlgorithmSelector(job.network, layer.profile)
        for algo in ALGORITHMS:
            c = sel.cost(algo, "reduce", comm, 4096)
            assert c > 0 and np.isfinite(c)
        return True

    assert all(job.run(body))


# ----------------------------------------------------------------------
# Degenerate cases (zero-size short-circuit satellite)
# ----------------------------------------------------------------------
def test_zero_size_and_singleton_short_circuit():
    """m == 1 and n == 0 return immediately: no scratch join, no flag
    traffic, no virtual time."""
    job = Job(3, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        t0 = current().clock.now
        empty = np.empty(0, dtype=np.float64)
        r1 = drive(team_reduce_step(layer, (0, 1, 2), empty, np.add, Done))
        r2 = drive(team_reduce_step(layer, (current().pe,),
                                    np.array([7.0]), np.add, Done))
        r3 = drive(team_broadcast_step(layer, (0, 1, 2), empty, Done))
        r4 = drive(team_allgather_step(layer, (0, 1, 2), empty, Done))
        assert r1.size == 0 and r3.size == 0 and r4.size == 0
        assert r2[0] == 7.0
        # No communication happened: the clock never moved.
        return current().clock.now == t0

    assert all(job.run(body))


# ----------------------------------------------------------------------
# Comm registry: lookup keys and lifetime
# ----------------------------------------------------------------------
def test_comm_lookup_normalises_member_keys():
    job = Job(4, "stampede", heap_bytes=1 << 15, engine="threaded")
    layer = shmem_attach(job)

    def body():
        comm = get_team_comm(layer, (0, 1, 2, 3))
        return (
            get_team_comm(layer, tuple(np.arange(4))) is comm,
            get_team_comm(layer, [0, 1, 2, 3]) is comm,
            comm.members == (0, 1, 2, 3),
            all(type(p) is int for p in comm.members),
        )

    assert job.run(body) == [(True, True, True, True)] * 4


def _reduce_once_on_event_engine() -> weakref.ref:
    job = Job(4, "stampede", heap_bytes=1 << 15, engine="event")
    layer = shmem_attach(job)

    def body():
        return team_reduce_step(layer, (0, 1, 2, 3), np.ones(2), np.add, Done)

    for res in job.run(body):
        assert np.array_equal(res, [4.0, 4.0])
    return weakref.ref(job)


def test_job_freed_after_collective():
    """The team comms live on the layer, so a finished job that ran a
    collective is garbage once its last outside reference goes."""
    ref = _reduce_once_on_event_engine()
    gc.collect()
    assert ref() is None
