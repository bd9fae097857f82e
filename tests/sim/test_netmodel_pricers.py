"""Bit-identity of pricing closures vs the direct methods.

The batched plan path prices through ``batch_pricer`` closures (the
scalar ``put/get/iput/iget/amo_pricer`` factories are its
``count == 1`` forms).  A pricer must return exactly what the direct
methods return — same floats to the last ULP — and must leave every
resource timeline in exactly the same state, because the virtual
timestamps downstream are compared bitwise against the
``REPRO_NO_BATCH=1`` per-call oracle.
"""

import pytest

from repro.sim.machines import MACHINES
from repro.sim.netmodel import NetworkModel, get_conduit
from repro.sim.topology import Topology

NOW = 7.91287310001  # deliberately un-round starting clock


def fresh_model(num_pes=48):
    return NetworkModel(Topology(MACHINES["stampede"], num_pes))


def timeline_state(model):
    return {
        name: [(t.next_free, t.busy_time, t.reservations) for t in tls]
        for name, tls in model.timelines().items()
    }


def preload(model):
    """Backlog pressure so reservations queue rather than start free."""
    tls = model.timelines()
    for node in (0, 1, 2):
        tls["tx"][node].reserve(0.0, 13.37)
        tls["rx"][node].reserve(0.0, 29.1)
        tls["amo"][node].reserve(0.0, 3.21)
        tls["cpu"][node].reserve(0.0, 5.5)


PAIRS = [(0, 1), (0, 17), (20, 40)]  # same-node and two inter-node pairs
CONDUITS = ["cray-shmem", "gasnet", "mpi3"]


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("conduit_name", CONDUITS)
@pytest.mark.parametrize("nbytes", [1, 8, 4096, 100_000])
def test_put_get_pricers_bitwise(src, dst, conduit_name, nbytes):
    conduit = get_conduit(conduit_name)
    direct, priced = fresh_model(), fresh_model()
    preload(direct), preload(priced)
    now = NOW
    for _ in range(3):  # repeat: queueing state must track exactly
        t_direct = direct.put(src, dst, nbytes, conduit, now)
        t_priced = priced.put_pricer(src, dst, nbytes, conduit)(now)
        assert t_direct == t_priced
        g_direct = direct.get(src, dst, nbytes, conduit, now)
        g_priced = priced.get_pricer(src, dst, nbytes, conduit)(now)
        assert g_direct == g_priced
        now = max(now, t_direct.local_complete, g_direct)
    assert timeline_state(direct) == timeline_state(priced)


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("stride_bytes", [8, 256, None])
def test_strided_pricers_bitwise(src, dst, stride_bytes):
    conduit = get_conduit("cray-shmem")  # iput-native
    direct, priced = fresh_model(), fresh_model()
    preload(direct), preload(priced)
    now = NOW
    for nelems in (1, 7, 400):
        t_direct = direct.iput(src, dst, nelems, 8, conduit, now, stride_bytes=stride_bytes)
        t_priced = priced.iput_pricer(src, dst, nelems, 8, conduit, stride_bytes)(now)
        assert t_direct == t_priced
        g_direct = direct.iget(src, dst, nelems, 8, conduit, now, stride_bytes=stride_bytes)
        g_priced = priced.iget_pricer(src, dst, nelems, 8, conduit, stride_bytes)(now)
        assert g_direct == g_priced
        now = max(now, t_direct.local_complete, g_direct)
    assert timeline_state(direct) == timeline_state(priced)


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("conduit_name", CONDUITS)
def test_amo_pricer_bitwise(src, dst, conduit_name):
    conduit = get_conduit(conduit_name)
    direct, priced = fresh_model(), fresh_model()
    preload(direct), preload(priced)
    price, proc, back = priced.amo_pricer(src, dst, conduit)
    now = NOW
    for _ in range(4):
        d = direct.amo(src, dst, conduit, now)
        p = price(now)
        assert d == p
        now = max(now, d) + 0.503
    assert timeline_state(direct) == timeline_state(priced)
    # proc/back must equal the constants the causality branch re-derives
    m = direct._machine
    if direct.topology.same_node(src, dst):
        assert (proc, back) == (m.amo_process_us, m.intra_latency_us)
    elif conduit.amo_offload:
        assert (proc, back) == (m.amo_process_us, m.link_latency_us)
    else:
        assert (proc, back) == (
            m.am_attentiveness_us + m.cpu_am_process_us,
            m.link_latency_us,
        )


def per_call_loop(model, op, src, dst, count, conduit, now, **kw):
    """``count`` direct calls under the layer's clock-merge recurrence
    (``now_{k+1} = max(now_k, local_k)``); the final call's result."""
    result = None
    for _ in range(count):
        if op == "put":
            result = model.put(src, dst, kw["nbytes"], conduit, now)
        elif op == "get":
            result = model.get(src, dst, kw["nbytes"], conduit, now)
        elif op == "iput":
            result = model.iput(
                src, dst, kw["nelems"], kw["elem_size"], conduit, now,
                stride_bytes=kw.get("stride_bytes"),
            )
        else:
            result = model.iget(
                src, dst, kw["nelems"], kw["elem_size"], conduit, now,
                stride_bytes=kw.get("stride_bytes"),
            )
        local = result.local_complete if op in ("put", "iput") else result
        now = max(now, local)
    return result


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("count", [1, 2, 50])
@pytest.mark.parametrize(
    "op,kw",
    [
        ("put", {"nbytes": 8}),
        ("put", {"nbytes": 100_000}),  # rendezvous branch
        ("get", {"nbytes": 64}),
        ("iput", {"nelems": 25, "elem_size": 8, "stride_bytes": 160}),
        ("iget", {"nelems": 25, "elem_size": 8, "stride_bytes": 160}),
    ],
)
def test_batch_pricer_bitwise(src, dst, count, op, kw):
    conduit = get_conduit("cray-shmem")
    direct, priced = fresh_model(), fresh_model()
    preload(direct), preload(priced)
    d = per_call_loop(direct, op, src, dst, count, conduit, NOW, **kw)
    p = priced.batch_pricer(op, src, dst, count=count, conduit=conduit, **kw)(NOW)
    assert d == p
    assert timeline_state(direct) == timeline_state(priced)
