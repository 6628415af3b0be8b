"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based discrete-event engine in the
style of SimPy, purpose-built for the VIBe hardware/protocol models.

Time is a ``float`` number of *microseconds* (the natural unit of the
paper's measurements).  Determinism is guaranteed by ordering the event
heap on ``(time, priority, sequence)`` — two events scheduled for the
same instant fire in schedule order unless an explicit priority says
otherwise.

Processes are plain Python generators that ``yield`` :class:`Event`
objects; the value the event was triggered with becomes the value of the
``yield`` expression.  A process is itself an :class:`Event` that
triggers when the generator returns, so processes can wait on each
other.

Fast-path invariants
--------------------

The kernel avoids allocations and heap traffic on its hot paths, but
every shortcut preserves the ``(time, priority, seq)`` total order
exactly, so simulated results are bit-identical to the naive
implementation:

- **Kick records instead of events.**  Booting a process, resuming one
  that yielded an already-processed event, and interrupts used to burn a
  throwaway :class:`Event` (allocation + callback list + heap
  round-trip).  They now use pooled :class:`_Kick` records.  Each kick
  still consumes a sequence number from the same counter, so its
  ordering key is identical to the event it replaces.
- **Immediate queue.**  Priority-0 kicks are appended to a FIFO deque
  instead of the heap.  Because their keys ``(now, 0, seq)`` are
  strictly increasing in append order, the deque is always sorted; the
  event loop pops whichever of ``deque[0]`` / ``heap[0]`` has the
  smaller key, which is exactly what one big heap would do.  Kicks with
  non-zero priority (interrupts, priority −1) would violate the
  monotonicity argument, so they go on the heap as lightweight records.
- **Same-timestamp buckets.**  Priority-0 schedules for the same
  absolute time are appended to one FIFO bucket list that occupies a
  single heap slot, keyed by its *first* entry's sequence number.
  Entries are appended in increasing-seq order, so the bucket is
  internally sorted and its heap key is its minimum; the drain loop
  walks the current bucket directly and only falls back to the heap
  when an immediate kick or a negative-priority entry at the same
  timestamp outranks the bucket's front (compared by the same packed
  key).  This turns the common O(log n) heap push/pop per event into an
  O(1) list append/index.
- **Direct generator dispatch.**  Resuming a process calls
  ``generator.send``/``generator.throw`` directly instead of through a
  per-resume lambda closure.
- **Object pools.**  Callback lists are recycled after
  ``_run_callbacks`` (they are dropped at that point by construction).
  :class:`Timeout` objects are recycled only when a CPython refcount
  check proves the event loop holds the sole remaining reference, so
  user code that keeps a timeout around never sees it reused.

None of these change what user code observes: event ordering, sequence
numbering, failure/defuse semantics, and ``active_process`` bookkeeping
match the pre-fast-path kernel exactly (golden-value tests in
``tests/test_determinism.py`` pin this down).
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "PENDING",
]

#: Timeout recycling relies on CPython reference-count semantics.
_CPYTHON = sys.implementation.name == "cpython"
_getrefcount = sys.getrefcount

_LIST_POOL_MAX = 1024
_KICK_POOL_MAX = 256
_TIMEOUT_POOL_MAX = 1024

#: Heap entries are ``(time, priority * _PRIO_SHIFT + seq, obj)``: packing
#: priority and sequence into one int keeps tuples short and comparisons
#: single-step.  Because ``0 <= seq < _PRIO_SHIFT``, the packed key orders
#: exactly like the ``(priority, seq)`` pair it replaces.
_PRIO_SHIFT = 1 << 48

#: Same-timestamp buckets only pay off once heap push/pop costs O(log n);
#: below this heap size a plain single-event push is cheaper than the
#: bucket-dict bookkeeping.  Ordering is identical either way (singles and
#: buckets merge by the same packed key), so the threshold is purely a
#: performance knob.
_BUCKET_MIN_HEAP = 16


class SimulationError(RuntimeError):
    """Raised for structural misuse of the simulation kernel."""


class _PendingType:
    """Sentinel for 'event has no value yet'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` schedules it to fire; callbacks run when the simulator
    pops it off the heap.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        pool = sim._list_pool
        self.callbacks: list[Callable[[Event], None]] | None = (
            pool.pop() if pool else []
        )
        self._value: Any = PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully done)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = 0) -> "Event":
        """Trigger the event successfully after ``delay`` sim-time."""
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        self._scheduled = True
        self._ok = True
        self._value = value
        sim = self.sim
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sim._seq = seq = sim._seq + 1
        if priority == 0:
            when = sim._now + delay
            heap = sim._heap
            if len(heap) < _BUCKET_MIN_HEAP:
                heappush(heap, (when, seq, self))
            else:
                buckets = sim._buckets
                bucket = buckets.get(when)
                if bucket is None:
                    buckets[when] = bucket = []
                    heappush(heap, (when, seq, bucket))
                bucket.append((seq, self))
        else:
            heappush(sim._heap,
                     (sim._now + delay, priority * _PRIO_SHIFT + seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0, priority: int = 0) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event has the exception raised at its
        ``yield``.  If nothing is waiting by the time it fires, the
        exception propagates out of :meth:`Simulator.run` (unless
        :meth:`defuse` was called).
        """
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._scheduled = True
        self._ok = False
        self._value = exception
        sim = self.sim
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sim._seq = seq = sim._seq + 1
        if priority == 0:
            when = sim._now + delay
            heap = sim._heap
            if len(heap) < _BUCKET_MIN_HEAP:
                heappush(heap, (when, seq, self))
            else:
                buckets = sim._buckets
                bucket = buckets.get(when)
                if bucket is None:
                    buckets[when] = bucket = []
                    heappush(heap, (when, seq, bucket))
                bucket.append((seq, self))
        else:
            heappush(sim._heap,
                     (sim._now + delay, priority * _PRIO_SHIFT + seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if nobody waits on it."""
        self._defused = True

    # -- internal ------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)
        callbacks.clear()
        pool = self.sim._list_pool
        if len(pool) < _LIST_POOL_MAX:
            pool.append(callbacks)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self._scheduled else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + scheduling: a Timeout is born
        # triggered, so the generic succeed() machinery is dead weight.
        self.sim = sim
        pool = sim._list_pool
        self.callbacks = pool.pop() if pool else []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        when = sim._now + delay
        heap = sim._heap
        if len(heap) < _BUCKET_MIN_HEAP:
            heappush(heap, (when, seq, self))
        else:
            buckets = sim._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = bucket = []
                heappush(heap, (when, seq, bucket))
            bucket.append((seq, self))


_TIMEOUT_NEW = Timeout.__new__


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


# _Kick.mode values
_KICK_SEND = 0        # generator.send(value)
_KICK_THROW = 1       # generator.throw(value)  (value is an exception)
_KICK_INTERRUPT = 2   # generator.throw(Interrupt(value))


class _Kick:
    """A pooled resume record: boots or resumes a :class:`Process`.

    Replaces the throwaway bootstrap/kick :class:`Event` of the slow
    path.  Carries the full ``(time, priority, seq)`` ordering key so
    the event loop can interleave it with heap events deterministically.
    """

    __slots__ = ("time", "seq", "process", "value", "mode")

    def _fire(self) -> None:
        mode = self.mode
        process = self.process
        if mode == _KICK_SEND:
            process._step_send(self.value)
        elif mode == _KICK_INTERRUPT:
            process._step_throw(Interrupt(self.value))
        else:
            process._step_throw(self.value)


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("_generator", "_target", "_resume_cb", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str | None = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._target: Event | None = None
        # Cache the bound method: appending it to a callbacks list on
        # every yield would otherwise allocate a fresh bound-method
        # object each time.
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at time now.
        sim._kick(self, None, _KICK_SEND, 0)

    @property
    def is_alive(self) -> bool:
        return not self._scheduled

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._scheduled:
            raise SimulationError(f"{self.name} has already finished")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        self.sim._kick(self, cause, _KICK_INTERRUPT, -1)

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Callback for a pending target.  The bodies of _step_send /
        # _step_throw / _wait_on are inlined here: callback -> resume ->
        # generator -> wait is the hottest call chain of process-heavy
        # workloads, and two method-call frames per context switch are
        # measurable (see benchmarks/bench_simulator_perf.py).
        self._target = None
        sim = self.sim
        sim.ctx_switches += 1
        sim.active_process = self
        if event._ok:
            value = event._value
            try:
                target = self._generator.send(None if value is PENDING else value)
            except StopIteration as stop:
                sim.active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                sim.active_process = None
                self.fail(exc)
                return
        else:
            event._defused = True
            try:
                target = self._generator.throw(event._value)
            except StopIteration as stop:
                sim.active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                sim.active_process = None
                self.fail(exc)
                return
        sim.active_process = None
        # inlined _wait_on(target)
        try:
            callbacks = target.callbacks
            tsim = target.sim
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            ) from None
        if tsim is not sim:
            raise SimulationError("cannot wait on an event from a different Simulator")
        if callbacks is None:
            if target._ok:
                value = target._value
                sim._kick(self, None if value is PENDING else value,
                          _KICK_SEND, 0)
            else:
                target._defused = True
                sim._kick(self, target._value, _KICK_THROW, 0)
        else:
            self._target = target
            callbacks.append(self._resume_cb)

    def _step_send(self, value: Any) -> None:
        sim = self.sim
        sim.ctx_switches += 1
        sim.active_process = self
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            sim.active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim.active_process = None
            self.fail(exc)
            return
        sim.active_process = None
        self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        sim = self.sim
        sim.ctx_switches += 1
        sim.active_process = self
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            sim.active_process = None
            self.succeed(stop.value)
            return
        except BaseException as err:
            sim.active_process = None
            self.fail(err)
            return
        sim.active_process = None
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        try:
            callbacks = target.callbacks
            tsim = target.sim
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            ) from None
        if tsim is not self.sim:
            raise SimulationError("cannot wait on an event from a different Simulator")
        if callbacks is None:
            # Already processed: resume at the same timestamp via a kick
            # (no Event allocation, no heap round-trip).
            if target._ok:
                value = target._value
                self.sim._kick(self, None if value is PENDING else value,
                               _KICK_SEND, 0)
            else:
                target._defused = True
                self.sim._kick(self, target._value, _KICK_THROW, 0)
        else:
            self._target = target
            callbacks.append(self._resume_cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self._scheduled else 'alive'}>"

    # -- pickling (snapshot support) ------------------------------------
    def __getstate__(self):
        """A *finished* process pickles as its result event.

        A live process cannot: its generator frame is not serializable.
        The snapshot layer (:mod:`repro.snap`) turns this TypeError into
        a :class:`~repro.snap.format.SnapshotStateError` naming the
        process, and offers the replay tier for mid-run points.
        """
        if not self._scheduled:
            raise TypeError(
                f"cannot pickle live process {self.name!r}: generator "
                "frames are not serializable (snapshot at a quiescent "
                "point, or use a replay-tier checkpoint)"
            )
        return (self.sim, self._value, self._ok, self._defused, self.name)

    def __setstate__(self, state):
        self.sim, self._value, self._ok, self._defused, self.name = state
        self.callbacks = None        # finished => already processed
        self._scheduled = True
        self._generator = None
        self._target = None
        self._resume_cb = None


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("all events in a condition must share a Simulator")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict[Event, Any]:
        # only events whose callbacks have run count as "fired" — a
        # Timeout is born triggered (value preset) but has not occurred
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}


class AnyOf(_Condition):
    """Triggers when the first of its events triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._results())


class AllOf(_Condition):
    """Triggers when all of its events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._results())


class Simulator:
    """The event loop: a heap of ``(time, priority·2⁴⁸ + seq, event)``.

    The packed int key orders exactly like the ``(priority, seq)`` pair
    it replaces.  Priority-0 kick records additionally flow through
    ``_immediate``, a FIFO deque whose keys are monotonic (see the
    module docstring); the loop always processes whichever of the two
    structures holds the smaller key next.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._immediate: deque[_Kick] = deque()
        #: open same-timestamp buckets: absolute time -> [(seq, event), ...]
        self._buckets: dict[float, list[tuple[int, Event]]] = {}
        self._seq = 0
        self._list_pool: list[list] = []
        self._kick_pool: list[_Kick] = []
        self._timeout_pool: list[Timeout] = []
        self.active_process: Process | None = None
        #: optional structured event log (see repro.sim.trace.Tracer)
        self.tracer = None
        #: optional live metrics registry (see repro.obs.metrics); like
        #: the tracer, instrumentation sites check for None and do
        #: nothing else when disabled
        self.metrics = None
        #: optional conformance checker (see repro.check.invariants);
        #: same None-when-disabled discipline as tracer/metrics
        self.checker = None
        #: optional fault injector (see repro.faults.injector); same
        #: None-when-disabled discipline — hook sites in the hardware
        #: and engine models read this once and skip on None
        self.faults = None
        #: kernel-level totals (always on: two plain int increments)
        self.events_run = 0
        self.ctx_switches = 0
        #: simulation fidelity: "packet" runs every wire packet as its
        #: own event chain (the bit-exact default); "auto" lets model
        #: layers collapse provably-uncontended steady-state stretches
        #: into arithmetic fast-forwards; "flow" additionally bursts
        #: single-fragment messages.  The kernel itself only carries the
        #: mode and the accounting — eligibility lives with the models.
        self.fidelity = "packet"
        #: simulated time covered by fast-forwarded (flow-level) stretches,
        #: as a union of spans — never exceeds ``now``
        self.ff_time = 0.0
        #: events the packet-level path would have run but the flow path
        #: synthesized arithmetically
        self.ff_events_skipped = 0
        self.ff_bursts = 0
        self._ff_watermark = 0.0
        #: active run() deadline: the next *boundary* a fast-forward may
        #: not cross (a truncated run must truncate identically in every
        #: fidelity mode)
        self._run_until = float("inf")

    def trace(self, category: str, label: str, node: str = "", **info) -> None:
        """Emit a trace event if a tracer is attached (cheap when not)."""
        if self.tracer is not None:
            self.tracer.emit(self._now, category, label, node, **info)

    # -- flow-level fast-forward accounting -------------------------------
    def ff_horizon(self) -> float:
        """Earliest boundary an analytic fast-forward may not cross.

        Today that is the active ``run(until=...)`` deadline: a stretch
        fast-forwarded past the deadline would synthesize completions a
        packet-level run truncates, so planners must fall back when
        their burst would end beyond it.  Fault windows never appear
        here because an armed injector disqualifies bursting outright
        (see the eligibility rules in ``providers.engine``).
        """
        return self._run_until

    def note_fast_forward(self, t_start: float, t_end: float,
                          events_skipped: int) -> None:
        """Record one analytically-advanced stretch ``[t_start, t_end]``.

        ``ff_time`` accumulates the *union* of fast-forwarded spans (a
        watermark dedupes the overlap of pipelined bursts), so
        ``ff_time / now`` reads as the fraction of simulated time the
        kernel never had to step through.
        """
        start = t_start if t_start > self._ff_watermark else self._ff_watermark
        if t_end > start:
            self.ff_time += t_end - start
            self._ff_watermark = t_end
        self.ff_events_skipped += events_skipped
        self.ff_bursts += 1

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    # -- factory helpers -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Fully inlined Timeout construction: recycles pooled instances
        # and skips the type-call/__init__ machinery on the fresh path.
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
        else:
            t = _TIMEOUT_NEW(Timeout)
            t.sim = self
        lpool = self._list_pool
        t.callbacks = lpool.pop() if lpool else []
        t._value = value
        t._ok = True
        t._scheduled = True
        t._defused = False
        t.delay = delay
        self._seq = seq = self._seq + 1
        when = self._now + delay
        heap = self._heap
        if len(heap) < _BUCKET_MIN_HEAP:
            heappush(heap, (when, seq, t))
        else:
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = bucket = []
                heappush(heap, (when, seq, bucket))
            bucket.append((seq, t))
        return t

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        if priority == 0:
            when = self._now + delay
            heap = self._heap
            if len(heap) < _BUCKET_MIN_HEAP:
                heappush(heap, (when, seq, event))
            else:
                buckets = self._buckets
                bucket = buckets.get(when)
                if bucket is None:
                    buckets[when] = bucket = []
                    heappush(heap, (when, seq, bucket))
                bucket.append((seq, event))
        else:
            heappush(self._heap,
                     (self._now + delay, priority * _PRIO_SHIFT + seq, event))

    def _kick(self, process: Process, value: Any, mode: int, priority: int) -> None:
        """Schedule a process resume with the key ``(now, priority, seq)``."""
        self._seq = seq = self._seq + 1
        pool = self._kick_pool
        kick = pool.pop() if pool else _Kick()
        kick.time = self._now
        kick.seq = seq
        kick.process = process
        kick.value = value
        kick.mode = mode
        if priority == 0:
            self._immediate.append(kick)
        else:
            heappush(self._heap,
                     (self._now, priority * _PRIO_SHIFT + seq, kick))

    def _recycle_kick(self, kick: _Kick) -> None:
        if len(self._kick_pool) < _KICK_POOL_MAX:
            kick.process = None
            kick.value = None
            self._kick_pool.append(kick)

    def step(self) -> None:
        """Process the single next event."""
        if not self._immediate and not self._heap:
            raise SimulationError(
                "step() on an empty event queue: nothing left to simulate"
            )
        # A non-empty sentinel makes _drain stop after exactly one event;
        # its finally-block repacks any partially drained bucket, so the
        # queue stays consistent between step() calls.
        self._drain(float("inf"), [True])

    def run_events(self, n: int) -> int:
        """Run at most ``n`` further events/kicks; return how many ran.

        ``events_run`` counts exactly one per processed event or kick,
        and :meth:`step` preserves the global ``(time, priority, seq)``
        order, so an event count is a precise, deterministic cursor into
        a run: replaying ``run_events(t)`` on an identically-built
        simulation reproduces the state at ``t`` bit-for-bit.  The
        replay tier of :mod:`repro.snap` is built on this.

        Stops early (without raising) when the queue drains.  Like
        ``run(until=event)``, no time boundary is imposed, so flow-level
        fast-forward eligibility (:meth:`ff_horizon`) is identical to an
        event-driven run.
        """
        if n < 0:
            raise ValueError(f"cannot run a negative event count: {n}")
        ran = 0
        sentinel = [True]
        while ran < n:
            if not self._immediate and not self._heap:
                break
            self._drain(float("inf"), sentinel)
            ran += 1
        return ran

    def _drain(self, deadline: float, sentinel: list | None) -> None:
        """Inlined event loop: run until empty, past ``deadline``, or —
        when ``sentinel`` is a non-empty list — after a single event.

        When ``sentinel`` is an *empty* list, run until a callback fills
        it (``run(until=event)`` appends the stop event's value).  All
        per-event work is inlined here on purpose: method-call and
        attribute traffic dominate kernel throughput (see
        ``benchmarks/bench_simulator_perf.py``).
        """
        heap = self._heap
        imm = self._immediate
        buckets = self._buckets
        lpool = self._list_pool
        tpool = self._timeout_pool
        pop = heappop
        check_refs = _CPYTHON
        cur: list | None = None   # bucket currently being drained
        cur_t = 0.0
        cur_i = 0
        runs = 0                  # folded into self.events_run on exit
        try:
            while True:
                if cur is not None:
                    if cur_i < len(cur):
                        entry = cur[cur_i]
                        eseq = entry[0]
                        if (imm and imm[0].seq < eseq) or (
                            heap and heap[0][0] == cur_t and heap[0][1] < eseq
                        ):
                            # Rare: an immediate kick or a negative-priority
                            # heap entry outranks the rest of this bucket.
                            # Push the remainder back and let the generic
                            # path below re-merge everything by key.
                            del cur[:cur_i]
                            heappush(heap, (cur_t, eseq, cur))
                            cur = None
                            continue
                        event = entry[1]
                        # Null the slot and drop the tuple so the
                        # refcount-based Timeout recycling check holds.
                        cur[cur_i] = None
                        entry = None
                        cur_i += 1
                        runs += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        if callbacks:
                            for cb in callbacks:
                                cb(event)
                            callbacks.clear()
                        if len(lpool) < _LIST_POOL_MAX:
                            lpool.append(callbacks)
                        if not event._ok and not event._defused:
                            raise event._value
                        # Recycle a drained Timeout only when the loop
                        # holds the sole reference.
                        if (
                            check_refs
                            and event.__class__ is Timeout
                            and _getrefcount(event) == 2
                            and len(tpool) < _TIMEOUT_POOL_MAX
                        ):
                            tpool.append(event)
                        if sentinel:
                            return
                        continue
                    # Bucket exhausted: close it so a later schedule at
                    # the same timestamp starts a fresh one.
                    if buckets.get(cur_t) is cur:
                        del buckets[cur_t]
                    cur = None
                    continue
                if imm:
                    kick = imm[0]
                    if heap:
                        entry = heap[0]
                        when = entry[0]
                        kt = kick.time
                        use_imm = kt < when or (kt == when and kick.seq < entry[1])
                    else:
                        use_imm = True
                    if use_imm:
                        # an immediate kick's time is always <= now <= deadline
                        imm.popleft()
                        self._now = kick.time
                        runs += 1
                        kick._fire()
                        self._recycle_kick(kick)
                        if sentinel:
                            return
                        continue
                elif not heap:
                    return
                when, key, event = pop(heap)
                if when > deadline:
                    # over the deadline: restore and stop (at most once per
                    # drain, which beats peeking the heap every iteration)
                    heappush(heap, (when, key, event))
                    return
                if event.__class__ is list:
                    # A same-timestamp bucket: drain it entry by entry at
                    # the top of the loop (appends during the drain land
                    # in `cur` and are picked up in seq order).  All its
                    # entries share `when`, so _now is set once here.
                    cur = event
                    cur_t = when
                    cur_i = 0
                    self._now = when
                    continue
                self._now = when
                runs += 1
                try:
                    callbacks = event.callbacks
                except AttributeError:      # a _Kick record (interrupt path)
                    event._fire()
                    self._recycle_kick(event)
                    if sentinel:
                        return
                    continue
                event.callbacks = None
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                    callbacks.clear()
                if len(lpool) < _LIST_POOL_MAX:
                    lpool.append(callbacks)
                if not event._ok and not event._defused:
                    raise event._value
                if (
                    check_refs
                    and event.__class__ is Timeout
                    and _getrefcount(event) == 2
                    and len(tpool) < _TIMEOUT_POOL_MAX
                ):
                    tpool.append(event)
                if sentinel:
                    return
        finally:
            self.events_run += runs
            # On any early exit (single-step, run-until sentinel, deadline,
            # or a propagating exception) a partially drained bucket goes
            # back on the heap keyed by its new front entry.
            if cur is not None:
                if cur_i < len(cur):
                    del cur[:cur_i]
                    heappush(heap, (cur_t, cur[0][0], cur))
                elif buckets.get(cur_t) is cur:
                    del buckets[cur_t]

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        ``until`` may be a simulated-time deadline, an :class:`Event`
        (commonly a :class:`Process`), or ``None`` to exhaust all events.
        When ``until`` is an event its value is returned.
        """
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                if not stop._ok and not stop._defused:
                    raise stop._value
                return stop._value
            sentinel: list = []
            stop.callbacks.append(sentinel.append)
            self._run_until = float("inf")
            self._drain(float("inf"), sentinel)
            if not sentinel:
                raise SimulationError(
                    f"event queue drained before {stop!r} triggered (deadlock?)"
                )
            if not stop._ok and not stop._defused:
                stop._defused = True
                raise stop._value
            return stop._value
        deadline = float("inf") if until is None else float(until)
        if deadline != float("inf") and deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        self._run_until = deadline
        try:
            self._drain(deadline, None)
        finally:
            self._run_until = float("inf")
        if deadline != float("inf"):
            self._now = deadline
        return None

    def peek(self) -> float:
        """Time of the next event, or +inf if the queue is empty."""
        imm = self._immediate
        heap = self._heap
        if imm:
            if heap and heap[0][0] < imm[0].time:
                return heap[0][0]
            return imm[0].time
        return heap[0][0] if heap else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = len(self._immediate)
        for entry in self._heap:
            obj = entry[2]
            queued += len(obj) if obj.__class__ is list else 1
        return f"<Simulator t={self._now:.3f}us queued={queued}>"
