"""Bounded-queue capacity model for the DNS/DoH/NTP serve engines.

In steady state every serve engine answers inline (infinite capacity —
the pre-chaos behaviour, byte-identical when no capacity is attached).
During an :class:`~repro.chaos.spec.Overload` window the controller
attaches a :class:`ServerCapacity` to the engine: requests are admitted
into a virtual queue drained at ``max(service_time, 1/qps)`` seconds
per request, at most ``queue_depth`` requests may wait, and overflow is
either silently dropped or bounced with SERVFAIL/503.

The model is *deterministic*: queue state is a single ``next_free``
timestamp, so it consumes no randomness and sharded/parallel executions
replay it bit-identically.
"""

from __future__ import annotations

from typing import Callable, Optional

#: Bin width (virtual seconds) of the ``srv.queue_depth`` series.
QUEUE_DEPTH_BIN = 1.0


class ServerCapacity:
    """One serve engine's bounded queue during an overload window.

    :param simulator: the virtual-time engine completions schedule on.
    :param qps: maximum sustained service rate (requests/second).
    :param queue_depth: how many requests may wait for service; a
        request arriving to a full queue overflows.
    :param service_time: seconds of service per request (the drain
        interval is ``max(service_time, 1/qps)``).
    :param overflow: ``"drop"`` (overflow vanishes) or ``"servfail"``
        (the engine's reject callback answers it).
    :param label: server name for the ``srv.*`` telemetry labels.
    :param registry: metrics registry, or ``None`` for no telemetry.
    """

    __slots__ = ("_simulator", "_interval", "_queue_depth", "_overflow",
                 "_next_free", "_m_admitted", "_m_rejected", "_ts_depth")

    def __init__(self, simulator, *, qps: float, queue_depth: int,
                 service_time: float, overflow: str, label: str,
                 registry=None) -> None:
        self._simulator = simulator
        self._interval = max(service_time, 1.0 / qps)
        self._queue_depth = queue_depth
        self._overflow = overflow
        self._next_free = 0.0
        if registry is not None:
            self._m_admitted = registry.counter("srv.admitted", server=label)
            self._m_rejected = registry.counter("srv.rejected", server=label)
            self._ts_depth = registry.timeseries(
                "srv.queue_depth", QUEUE_DEPTH_BIN, server=label)
        else:
            self._m_admitted = None
            self._m_rejected = None
            self._ts_depth = None

    @property
    def interval(self) -> float:
        """Seconds between successive service completions at capacity."""
        return self._interval

    def depth(self, now: float) -> float:
        """Requests currently waiting (fractional: backlog/interval)."""
        return max(0.0, self._next_free - now) / self._interval

    def admit(self, serve: Callable[[], None],
              reject: Optional[Callable[[], None]] = None) -> bool:
        """Queue one request.

        Admitted requests run ``serve`` when they reach the head of the
        queue (after queueing delay plus service time). Overflow bumps
        ``srv.rejected`` and, under the ``"servfail"`` policy, runs
        ``reject`` immediately so the engine can bounce the query.
        Returns whether the request was admitted.
        """
        now = self._simulator.now
        depth = self.depth(now)
        if self._ts_depth is not None:
            self._ts_depth.record(now, depth)
        if depth >= self._queue_depth:
            if self._m_rejected is not None:
                self._m_rejected.inc()
            if self._overflow == "servfail" and reject is not None:
                reject()
            return False
        start = now if self._next_free < now else self._next_free
        self._next_free = start + self._interval
        if self._m_admitted is not None:
            self._m_admitted.inc()
        self._simulator.schedule_at(self._next_free, serve)
        return True


__all__ = ["QUEUE_DEPTH_BIN", "ServerCapacity"]
