"""Deterministic discrete-event simulation engine.

The engine keeps a priority queue of timestamped events and executes them
in ``(time, sequence)`` order, so two events scheduled for the same
virtual instant fire in scheduling order. Virtual time is a float in
seconds and only advances when the queue is drained up to an event.

The engine is intentionally callback-based (no coroutines): callbacks
keep execution order explicit and make attack races reproducible. It
never reads the wall clock; per-layer wall time is measured from
outside by ``benchmarks/perf``, which wraps the callbacks handed to
:meth:`Simulator.schedule_at` and :class:`Timer`.

Hot-path layout: the heap holds plain ``(time, sequence, event)``
tuples, so ordering is decided by C-level tuple comparison instead of a
generated dataclass ``__lt__``; :class:`Event` itself is a slotted
handle whose only job is carrying the callback and the cancel flag. The
pending-event count is maintained live on schedule/cancel/pop, keeping
:attr:`Simulator.pending_events` O(1) instead of a full heap scan.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.telemetry.trace import current_tracer

Callback = Callable[[], None]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback, ordered in the queue by ``(time, sequence)``.

    Instances are returned from :meth:`Simulator.schedule_at` as handles;
    call :meth:`cancel` to prevent a pending event from firing.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_simulator")

    def __init__(self, time: float, sequence: int, callback: Callback,
                 simulator: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Prevent this event from firing; safe to call repeatedly —
        including on handles that already fired or were dropped by
        :meth:`Simulator.clear`, which no longer count as pending.

        The callback is dropped at once: a cancelled event may wait in
        the heap until its virtual deadline, and must not keep whatever
        the callback closes over alive until then.
        """
        if not self.cancelled:
            self.cancelled = True
            self.callback = None
            simulator = self._simulator
            if simulator is not None:
                self._simulator = None
                simulator._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, #{self.sequence}, {state})"


#: What the heap actually stores.
_QueueEntry = Tuple[float, int, Event]


class Simulator:
    """A single-threaded discrete-event scheduler with virtual time.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule_at(2.0, lambda: order.append("b"))
    >>> _ = sim.schedule_at(1.0, lambda: order.append("a"))
    >>> sim.run()
    >>> order
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[_QueueEntry] = []
        self._sequence = itertools.count()
        self._executed = 0
        self._pending = 0
        self._running = False
        # Tracing rides the virtual clock: when a tracer is in scope at
        # construction (the same capture-once contract the metrics
        # registry uses), bind it to this simulator's now so spans
        # begun anywhere in the world carry virtual timestamps.
        tracer = current_tracer()
        if tracer is not None:
            tracer.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Count of callbacks executed so far (cancelled ones excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue.

        O(1): the count is maintained on schedule/cancel/pop rather than
        recomputed by scanning the heap.
        """
        return self._pending

    def schedule_at(self, when: float, callback: Callback) -> Event:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        when = float(when)
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before now={self._now}"
            )
        sequence = next(self._sequence)
        event = Event(when, sequence, callback, self)
        heapq.heappush(self._queue, (when, sequence, event))
        self._pending += 1
        return event

    def schedule_after(self, delay: float, callback: Callback) -> Event:
        """Schedule ``callback`` after a relative ``delay`` in seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def call_soon(self, callback: Callback) -> Event:
        """Schedule ``callback`` at the current instant (after current event)."""
        return self.schedule_after(0.0, callback)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        :param until: stop once virtual time would exceed this bound;
            time is left at ``until`` if the queue outlives it.
        :param max_events: safety valve — stop after this many callbacks.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            queue = self._queue
            pop = heapq.heappop
            executed_this_run = 0
            while queue:
                if max_events is not None and executed_this_run >= max_events:
                    break
                head = queue[0]
                event = head[2]
                if event.cancelled:
                    pop(queue)
                    continue
                when = head[0]
                if until is not None and when > until:
                    # Leave it queued; the caller may resume later.
                    if until > self._now:
                        self._now = until
                    return
                pop(queue)
                # Detach before firing: a late cancel() on a fired
                # handle must not touch the live pending counter.
                event._simulator = None
                self._pending -= 1
                self._now = when
                event.callback()
                self._executed += 1
                executed_this_run += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Run until no events remain (bounded by ``max_events``)."""
        self.run(max_events=max_events)

    def step(self) -> bool:
        """Execute exactly one pending event. Returns False when idle."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            event._simulator = None
            self._pending -= 1
            self._now = event.time
            event.callback()
            self._executed += 1
            return True
        return False

    def clear(self) -> None:
        """Drop all pending events without running them."""
        for _, _, event in self._queue:
            event._simulator = None
            event.callback = None
        self._queue.clear()
        self._pending = 0


class Timer:
    """A restartable one-shot timer bound to a :class:`Simulator`.

    Commonly used for retransmission/timeout logic in protocol code.
    """

    __slots__ = ("_simulator", "_callback", "_event", "__weakref__")

    def __init__(self, simulator: Simulator, callback: Callback) -> None:
        self._simulator = simulator
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """Whether the timer currently has a pending expiry."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire after ``delay`` seconds."""
        self.cancel()
        self._event = self._simulator.schedule_after(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
