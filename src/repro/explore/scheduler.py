"""The deterministic cooperative scheduler (shuttle/Coyote style).

Threaded jobs interleave PEs wherever the OS preempts them; a
:class:`Scheduler`-mode job serializes them instead.  Every PE thread
still exists, but exactly one runs at a time: at each *decision point*
(the same sync/communication points the tracer and the fault injector
hook) the running task re-enters the scheduler, which consults a
:class:`Strategy` to pick who runs next.  One strategy seed therefore
names one exact interleaving, replayable bit-for-bit from a recorded
choice list.

Scheduler mode also models OpenSHMEM's weak completion order
*explicitly*: a ``put``'s bytes do not land at the target during the
call.  They are enqueued on the initiator's delivery queue, and the
queue's head becomes an extra schedulable choice (``n<pe>`` tokens) —
the "network" delivering one message.  ``quiet`` force-flushes the
caller's queue (that is exactly what ``shmem_quiet`` promises), atomics
bypass the queue (the NIC atomic unit is not write-buffered), and
same-initiator delivery is FIFO, which subsumes ``shmem_fence``.  A
missing-quiet bug thus produces genuinely divergent schedules instead
of relying on wall-clock luck.

Choice tokens
-------------
``p<i>``  — run PE *i* until its next decision point.
``n<i>``  — deliver the oldest pending put of initiator PE *i*.

Blocking primitives (barrier waits, ``wait_until``) call
:meth:`Scheduler.block_until`; a blocked task is simply not offered as
a choice until its predicate holds.  If no task is runnable and no
delivery is pending, the run has genuinely deadlocked and the scheduler
raises :class:`DeadlockError` with a report naming every blocked task —
instantly, where the threaded engine would idle until the watchdog.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable

from repro.runtime.launcher import JobAborted

#: Step ceiling per schedule: far above any explore program, low enough
#: that a livelocked schedule fails fast instead of spinning forever.
DEFAULT_MAX_STEPS = 100_000


class DeadlockError(RuntimeError):
    """No runnable task and no pending delivery: the schedule deadlocked."""


class ScheduleLimitError(RuntimeError):
    """The schedule exceeded ``max_steps`` decision points (livelock guard)."""


def pe_token(pe: int) -> str:
    return f"p{pe}"


def net_token(pe: int) -> str:
    return f"n{pe}"


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class Strategy:
    """Picks the next choice token at every decision point.

    ``choose`` receives the step index and the deterministic, sorted
    choice list; it must return one of its elements.  ``note_yield`` is
    a hint: the named task just yielded from a spin loop (a failed lock
    attempt), so priority-based strategies should demote it — the
    Coyote treatment of ``Task.Yield`` — or the spinner livelocks the
    schedule.
    """

    name = "strategy"

    def choose(self, step: int, choices: list[str]) -> str:  # pragma: no cover
        raise NotImplementedError

    def note_yield(self, token: str, spin: bool) -> None:
        pass

    def describe(self) -> dict:
        return {"strategy": self.name}


class RandomWalk(Strategy):
    """Uniform seeded random walk over the choice list."""

    name = "random"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def choose(self, step: int, choices: list[str]) -> str:
        return choices[self._rng.randrange(len(choices))]

    def describe(self) -> dict:
        return {"strategy": self.name, "seed": self.seed}


class VirtualTimeOrder(Strategy):
    """Run the runnable PE whose virtual clock is smallest.

    This is discrete-event execution order for code the event engine
    cannot run (blocking CAF locks): every schedule decision picks the
    PE furthest *behind* in virtual time, so shared-resource timestamps
    are visited in (approximately) virtual-time order and the causality
    lift never drags a PE's clock far ahead of its peers.  Open-loop
    latency measurements need this — under an arbitrary interleaving, a
    PE whose arrival process has run ahead leaves future timestamps on
    shared buckets and other PEs' response times inherit them as
    phantom queueing delay.

    Pending network deliveries drain first (lowest PE), ties break by
    PE index, and no randomness is involved: the strategy is
    deterministic by construction, without a seed.  Livelock-free
    because every scheduled quantum prices at least one operation on
    the chosen PE, advancing its clock.
    """

    name = "vt"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)  # accepted for make_strategy symmetry
        self._contexts: dict[int, Any] = {}
        # token -> PE index, filled on first sight of each token.
        self._pe_of: dict[str, int] = {}

    def bind_job(self, job: Any) -> None:
        self._contexts = job.pe_contexts

    def choose(self, step: int, choices: list[str]) -> str:
        # One pass, no per-token parsing or key tuples: the lowest
        # pending delivery wins outright; otherwise the smallest
        # (clock, PE index).  An unstarted PE's clock reads 0.0.
        pe_of = self._pe_of
        contexts = self._contexts
        best = net = None
        best_now = best_pe = net_pe = 0
        for t in choices:
            i = pe_of.get(t)
            if i is None:
                i = pe_of[t] = int(t[1:])
            if t[0] == "n":
                if net is None or i < net_pe:
                    net, net_pe = t, i
            elif net is None:
                ctx = contexts.get(i)
                now = ctx.clock.now if ctx is not None else 0.0
                if (best is None or now < best_now
                        or (now == best_now and i < best_pe)):
                    best, best_now, best_pe = t, now, i
        return best if net is None else net

    def describe(self) -> dict:
        return {"strategy": self.name}


class PCTStrategy(Strategy):
    """PCT-style priority scheduling [Burckhardt et al., ASPLOS'10].

    Every task (and every delivery queue) draws a random priority; the
    highest-priority enabled choice runs.  ``depth - 1`` change points
    are drawn over ``expected_steps``; reaching one demotes the current
    leader below everything, forcing a context switch there.  Spin
    yields demote the spinner the same way, so lock loops cannot starve
    the holder.
    """

    name = "pct"

    def __init__(self, seed: int, depth: int = 3, expected_steps: int = 4096) -> None:
        self.seed = int(seed)
        self.depth = max(int(depth), 1)
        self.expected_steps = max(int(expected_steps), 1)
        self._rng = random.Random(self.seed)
        k = min(self.depth - 1, self.expected_steps)
        self._change_points = set(self._rng.sample(range(self.expected_steps), k))
        self._prio: dict[str, float] = {}
        self._demotions = 0

    def _priority(self, token: str) -> float:
        p = self._prio.get(token)
        if p is None:
            p = 1.0 + self._rng.random()
            self._prio[token] = p
        return p

    def _demote(self, token: str) -> None:
        self._demotions += 1
        self._prio[token] = -float(self._demotions)

    def note_yield(self, token: str, spin: bool) -> None:
        if spin:
            self._demote(token)

    def choose(self, step: int, choices: list[str]) -> str:
        token = max(choices, key=lambda t: (self._priority(t), t))
        if step in self._change_points:
            self._demote(token)
            token = max(choices, key=lambda t: (self._priority(t), t))
        return token

    def describe(self) -> dict:
        return {"strategy": self.name, "seed": self.seed, "depth": self.depth}


class ReplaySchedule(Strategy):
    """Replay a recorded choice list token-for-token.

    Past the end of the recording (or if a recorded token is not
    currently enabled — possible only when replaying against a modified
    program) it falls back to the first enabled choice, which keeps the
    replay deterministic.
    """

    name = "replay"

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = list(tokens)
        self.mismatches = 0

    def choose(self, step: int, choices: list[str]) -> str:
        if step < len(self.tokens):
            token = self.tokens[step]
            if token in choices:
                return token
            self.mismatches += 1
        return choices[0]

    def describe(self) -> dict:
        return {"strategy": self.name, "length": len(self.tokens)}


class GuidedPrefix(Strategy):
    """Follow a recorded prefix, then run non-preemptively.

    After the prefix the current task keeps running while it is
    enabled; on a block the lowest-numbered enabled choice takes over.
    The minimizer shrinks divergence witnesses by binary-searching the
    shortest prefix that still reproduces the divergent digest.
    """

    name = "guided-prefix"

    def __init__(self, prefix: list[str]) -> None:
        self.prefix = list(prefix)
        self._last: str | None = None

    def choose(self, step: int, choices: list[str]) -> str:
        if step < len(self.prefix) and self.prefix[step] in choices:
            token = self.prefix[step]
        elif self._last is not None and self._last in choices:
            token = self._last
        else:
            token = choices[0]
        self._last = token
        return token


class _DFSStrategy(Strategy):
    """One run of the exhaustive enumerator: forced prefix, then always
    the first choice, logging every (choices, picked) pair."""

    name = "exhaustive"

    def __init__(self, prefix: list[str]) -> None:
        self.prefix = list(prefix)
        self.log: list[tuple[tuple[str, ...], int]] = []

    def choose(self, step: int, choices: list[str]) -> str:
        if step < len(self.prefix) and self.prefix[step] in choices:
            idx = choices.index(self.prefix[step])
        else:
            idx = 0
        self.log.append((tuple(choices), idx))
        return choices[idx]


class ExhaustiveEnumerator:
    """Depth-first enumeration of *every* schedule of a tiny program.

    Drives repeated runs: each run follows the current forced prefix and
    then takes first choices; afterwards :meth:`advance` backtracks to
    the deepest decision with an untried alternative.  Practical only
    for programs with a handful of decision points — the tree is
    exponential — so pair it with a schedule budget.
    """

    def __init__(self) -> None:
        self._prefix: list[str] = []
        self.exhausted = False
        self.runs = 0

    def next_strategy(self) -> _DFSStrategy | None:
        if self.exhausted:
            return None
        self.runs += 1
        return _DFSStrategy(self._prefix)

    def advance(self, strategy: _DFSStrategy) -> None:
        """Consume a finished run's log and compute the next prefix."""
        log = strategy.log
        for depth in range(len(log) - 1, -1, -1):
            choices, idx = log[depth]
            if idx + 1 < len(choices):
                self._prefix = [c[i] for c, i in log[:depth]] + [choices[idx + 1]]
                return
        self.exhausted = True


def make_strategy(name: str, seed: int, **opts: Any) -> Strategy:
    """Build a fresh strategy instance by CLI name."""
    if name == "random":
        return RandomWalk(seed)
    if name == "pct":
        return PCTStrategy(seed, **opts)
    if name == "vt":
        return VirtualTimeOrder(seed)
    raise ValueError(f"unknown strategy {name!r} (exhaustive runs via the explorer)")


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class Scheduler:
    """Serializes a job's PE threads under a :class:`Strategy`.

    One-shot: bind it to exactly one :class:`~repro.runtime.launcher.Job`
    (``Job(..., scheduler=...)`` does this) and run that job once.  The
    executed choice sequence is left in :attr:`trace` for replay.
    """

    def __init__(
        self, strategy: Strategy, *, max_steps: int = DEFAULT_MAX_STEPS
    ) -> None:
        self.strategy = strategy
        self.max_steps = int(max_steps)
        self.trace: list[str] = []
        self.steps = 0
        self.done = False
        #: Set when the scheduler itself killed the run from a task-exit
        #: path (deadlock among the survivors): ``(pe, exception)``.
        self.failure: tuple[int, BaseException] | None = None
        self._job: Any = None
        self._lock = None  # created at bind; threading import kept local
        self._events: list[Any] = []
        self._queues: list[deque] = []
        self._registered: set[int] = set()
        self._finished: set[int] = set()
        self._blocked: dict[int, tuple[Callable[[], bool], str]] = {}

    # -- lifecycle ------------------------------------------------------
    def bind(self, job: Any) -> None:
        import threading

        if self._job is not None:
            raise RuntimeError("a Scheduler is one-shot; build a fresh one per Job")
        self._job = job
        bind_job = getattr(self.strategy, "bind_job", None)
        if bind_job is not None:
            bind_job(job)  # clock-aware strategies read PE clocks from it
        self.num_pes = job.num_pes
        # Choice tokens are formatted once here, not per decision.
        self._pe_tokens = [pe_token(t) for t in range(job.num_pes)]
        self._net_tokens = [net_token(t) for t in range(job.num_pes)]
        self._lock = threading.Lock()
        self._events = [threading.Event() for _ in range(job.num_pes)]
        self._queues = [deque() for _ in range(job.num_pes)]

    def start_task(self, pe: int) -> None:
        """First call from each PE thread; returns when the PE is picked."""
        if self.done:
            raise RuntimeError("this Scheduler's job already ran; it is one-shot")
        park = False
        with self._lock:
            self._registered.add(pe)
            if len(self._registered) == self.num_pes:
                nxt = self._pick()
                if nxt == pe:
                    return
                self._events[nxt].set()
                park = True
            else:
                park = True
        if park:
            self._await_turn(pe)

    def task_exit(self, pe: int) -> None:
        """Final call from each PE thread (normal return or unwind).

        Never raises: a deadlock among the survivors is recorded in
        :attr:`failure` and the job aborted, so the launcher can report
        it as a :class:`JobFailure` after joining.
        """
        with self._lock:
            if pe in self._finished:
                return
            self._finished.add(pe)
            self._blocked.pop(pe, None)
            if len(self._finished) == self.num_pes:
                # End of job completes all outstanding puts (finalize
                # semantics), deterministically in PE order.
                for q in self._queues:
                    while q:
                        q.popleft()()
                self.done = True
                return
            if self._job.aborted():
                self._wake_all()
                return
            try:
                nxt = self._pick()
            except (DeadlockError, ScheduleLimitError) as exc:
                self.failure = (pe, exc)
                self._job.abort()
                self._wake_all()
                return
            if nxt is not None:
                self._events[nxt].set()

    # -- decision points ------------------------------------------------
    def yield_point(
        self, pe: int, op: str = "", target: int = -1, *, spin: bool = False
    ) -> None:
        """The running PE is about to issue ``op``; let the strategy
        decide who proceeds."""
        if self._job.aborted():
            raise JobAborted(f"job aborted at {op} decision point")
        with self._lock:
            self.strategy.note_yield(self._pe_tokens[pe], spin)
            nxt = self._pick()
            if nxt == pe:
                return
            if nxt is not None:
                self._events[nxt].set()
        self._await_turn(pe)

    def block_until(self, pe: int, predicate: Callable[[], bool], reason: str = "") -> None:
        """Park the running PE until ``predicate()`` holds.

        The predicate is re-evaluated by the scheduler after every step
        (other tasks' progress or message deliveries may satisfy it);
        the PE is only offered as a choice again once it does.
        """
        if self._job.aborted():
            raise JobAborted(f"job aborted entering {reason or 'block'}")
        with self._lock:
            self.strategy.note_yield(self._pe_tokens[pe], False)
            if not predicate():
                self._blocked[pe] = (predicate, reason)
            nxt = self._pick()
            if nxt == pe:
                return
            if nxt is not None:
                self._events[nxt].set()
        self._await_turn(pe)

    def post_put(self, pe: int, deliver: Callable[[], None]) -> None:
        """Enqueue a put's target-side deposit for later delivery."""
        self._queues[pe].append(deliver)

    def flush(self, pe: int) -> None:
        """``quiet``: deliver every pending put of ``pe``, in order."""
        with self._lock:
            q = self._queues[pe]
            while q:
                q.popleft()()

    def pending(self, pe: int) -> int:
        return len(self._queues[pe])

    # -- internals ------------------------------------------------------
    def _pick(self) -> int | None:
        """Pick the next PE to run (lock held).  Deliveries chosen by
        the strategy are executed inline; returns None when every task
        has finished."""
        blocked, finished, queues = self._blocked, self._finished, self._queues
        pe_tokens, net_tokens = self._pe_tokens, self._net_tokens
        while True:
            if blocked:
                for t in sorted(blocked):
                    if blocked[t][0]():
                        del blocked[t]
            choices = [
                tok for t, tok in enumerate(pe_tokens)
                if t not in finished and t not in blocked
            ]
            choices += [net_tokens[t] for t, q in enumerate(queues) if q]
            if not choices:
                if len(self._finished) == self.num_pes:
                    return None
                raise DeadlockError(self._deadlock_report())
            if self.steps >= self.max_steps:
                raise ScheduleLimitError(
                    f"schedule exceeded {self.max_steps} steps "
                    f"(livelocked spin loop?); last choices: {choices}"
                )
            token = self.strategy.choose(self.steps, choices)
            if token not in choices:
                raise RuntimeError(
                    f"strategy returned {token!r}, not one of {choices}"
                )
            self.steps += 1
            self.trace.append(token)
            if token[0] == "n":
                queues[int(token[1:])].popleft()()
                continue
            return int(token[1:])

    def _deadlock_report(self) -> str:
        lines = [
            f"deadlock after {self.steps} steps: no runnable task, "
            f"no pending delivery ({len(self._finished)}/{self.num_pes} "
            f"PEs finished)"
        ]
        for t in sorted(self._blocked):
            lines.append(f"  PE {t} blocked in {self._blocked[t][1] or '<unnamed wait>'}")
        return "\n".join(lines)

    def _wake_all(self) -> None:
        for ev in self._events:
            ev.set()

    def _await_turn(self, pe: int) -> None:
        ev = self._events[pe]
        wd = getattr(self._job, "watchdog", None)
        guard_cm = wd.watch(pe, "scheduler wait") if wd is not None else None
        try:
            if guard_cm is not None:
                guard = guard_cm.__enter__()
            while not ev.wait(timeout=0.1):
                if self._job.aborted():
                    raise JobAborted("job aborted while awaiting schedule turn")
                if guard_cm is not None:
                    guard.poll()
        finally:
            if guard_cm is not None:
                guard_cm.__exit__(None, None, None)
        ev.clear()
        if self._job.aborted():
            raise JobAborted("job aborted while awaiting schedule turn")


def spin_hint() -> None:
    """A schedule point for user-level spin loops.

    Busy-wait loops that poll remote state through atomics (rather than
    through ``wait_until``) must give the scheduler a chance to run
    somebody else, or the poll spins forever under cooperative
    scheduling.  Under a scheduler-mode job this yields (flagged as a
    spin, so PCT demotes the spinner); under the default threaded
    engine it sleeps briefly, exactly like the hand-written polling
    loops it replaces.
    """
    from repro.runtime.context import current

    ctx = current()
    ctx.job.engine.spin_yield(ctx, "spin", -1)
