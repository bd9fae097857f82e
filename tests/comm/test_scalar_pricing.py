"""Scalar RMA and atomics price through the direct NetworkModel methods.

A 256-PE event-engine step program has every PE issue a remote
``fadd``, ``put``, ``get``, ``iput`` and ``iget`` to hashed owners for a
few rounds, so many initiators contend on the same tx/rx/amo (or AM CPU)
timelines.  Two things are checked:

* no scalar operation leaves an entry in the layer's pricer memo (it
  holds whole-plan batch pricers only, and this program runs no plans);
* per-PE virtual clocks after each round and final table sums equal
  values recorded when scalar operations still went through memoized
  pricer closures — the direct path must stay bit-identical under
  multi-writer contention.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import gasnet, shmem
from repro.engine import steps
from repro.runtime.context import current
from repro.runtime.launcher import Job

PES = 256
ROUNDS = 3
SLOTS = 32
#: Atomics go to this many owners, one word per round: about eight
#: initiators per word, so the handoff-causality lift is exercised.
AMO_OWNERS = 32


def _owner(pe: int, rnd: int, salt: int) -> int:
    return ((pe * 2654435761 + rnd * 40503 + salt) >> 7) % PES


def _run(machine: str, attach):
    job = Job(PES, machine, heap_bytes=1 << 15, engine="event")
    layer = attach(job)

    def body():
        ctx = current()
        pe = ctx.pe
        val = np.array([pe + 1], dtype=np.int64)
        line = np.arange(3, dtype=np.int64) + pe
        # The clock after each round's operations, before the barrier
        # (which levels every PE to the slowest).
        marks = []

        def round_(counts, table, rnd):
            if rnd == ROUNDS:
                return steps.Done((
                    marks,
                    int(counts.local.sum()),
                    int(table.local.sum()),
                ))
            slot = (pe + rnd) % SLOTS
            amo_owner = _owner(pe, rnd, 11) % AMO_OWNERS
            layer.atomic(counts, amo_owner, rnd, "fadd", 1)
            layer.put(table, val, _owner(pe, rnd, 23), offset=slot)
            layer.get(table, 2, _owner(pe, rnd, 37), offset=slot % 8)
            # Strides past 64 B pay the gather engine's locality penalty.
            layer.iput(table, line, 9, 1, 3, _owner(pe, rnd, 41), offset=rnd)
            layer.iget(table, 1, 10, 3, _owner(pe, rnd, 53), offset=rnd)
            marks.append(ctx.clock.now)
            return steps.BarrierStep(layer, lambda: round_(counts, table, rnd + 1))

        return steps.alloc_array_step(
            layer, (SLOTS,), np.int64,
            lambda counts: steps.alloc_array_step(
                layer, (SLOTS,), np.int64,
                lambda table: steps.BarrierStep(
                    layer, lambda: round_(counts, table, 0))))

    results = job.run(body)
    return job, layer, results


def _sha(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


# Recorded with scalar pricing through the memoized pricer closures.
# Cray XC30 / Cray SHMEM: native iput/iget, NIC-offloaded atomics.
# Stampede / GASNet: iput/iget loop over put/get, atomics are active
# messages through the target CPU.
CASES = {
    "cray-shmem": ("cray-xc30", shmem.attach, {
        "clocks_sha": "1d4b356d95bc8d3c",
        "clock_max": 1301.8863249323642,
        "clock_sum": 506966.91987187794,
        "tables_sha": "a02d2875fa55786f",
        "table_total": 336127,
    }),
    "gasnet": ("stampede", gasnet.attach, {
        "clocks_sha": "5689643ac36d3dbd",
        "clock_max": 4809.38515151543,
        "clock_sum": 1843173.6148485285,
        "tables_sha": "a02d2875fa55786f",
        "table_total": 336127,
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_ops_add_no_memo_entries_and_keep_virtual_results(case, monkeypatch):
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    machine, attach, pinned = CASES[case]
    job, layer, results = _run(machine, attach)

    assert layer._pricers == {}

    clocks = [t for r in results for t in r[0]]
    tables = [r[2] for r in results]
    assert sum(r[1] for r in results) == PES * ROUNDS  # every fadd landed
    got = {
        "clocks_sha": _sha(clocks),
        "clock_max": max(clocks),
        "clock_sum": sum(clocks),
        "tables_sha": _sha(tables),
        "table_total": sum(tables),
    }
    assert got == pinned
