"""Periodic pool refresh — the deployment glue the paper implies.

pool.ntp.org rotates its answers and servers churn, so a long-running
consumer (a Chronos daemon, a cryptocurrency node) must regenerate its
pool periodically. :class:`PoolRefresher` runs Algorithm 1 on a timer,
hands every fresh pool to a consumer callback, and — because §II fn. 2's
strict semantics can fail closed under an empty-answer DoS — keeps
serving the *last good pool* during outages, tracking its staleness so
the consumer can decide when stale is too stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.pool import GeneratedPool, SecurePoolGenerator
from repro.netsim.simulator import Simulator, Timer
from repro.util.validation import check_positive

# Consumer receives (pool, is_fresh): is_fresh=False means the refresher
# is re-serving the last good pool after a failed generation.
PoolConsumer = Callable[[GeneratedPool, bool], None]


@dataclass
class RefresherStats:
    refreshes_attempted: int = 0
    refreshes_succeeded: int = 0
    refreshes_failed: int = 0
    served_stale: int = 0


class PoolRefresher:
    """Regenerates the pool every ``interval`` virtual seconds.

    :param generator: the Algorithm 1 engine.
    :param simulator: virtual-time engine driving the schedule.
    :param domain: pool domain to refresh.
    :param interval: seconds between refresh attempts.
    :param consumer: callback invoked after every attempt.
    :param max_staleness: if the last good pool is older than this when a
        refresh fails, the refresher stops serving it (consumer gets the
        failed pool so it can fail closed).
    """

    def __init__(self, generator: SecurePoolGenerator, simulator: Simulator,
                 domain: str, interval: float, consumer: PoolConsumer,
                 max_staleness: Optional[float] = None) -> None:
        check_positive(interval, "interval")
        if max_staleness is not None:
            check_positive(max_staleness, "max_staleness")
        self._generator = generator
        self._simulator = simulator
        self._domain = domain
        self._interval = interval
        self._consumer = consumer
        self._max_staleness = max_staleness
        self._stats = RefresherStats()
        self._last_good: Optional[GeneratedPool] = None
        self._last_good_at: Optional[float] = None
        self._timer = Timer(simulator, self._refresh)
        self._running = False

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def stats(self) -> RefresherStats:
        return self._stats

    @property
    def running(self) -> bool:
        return self._running

    @property
    def last_good_pool(self) -> Optional[GeneratedPool]:
        return self._last_good

    def staleness(self) -> Optional[float]:
        """Age of the last good pool, or None if there is none yet."""
        if self._last_good_at is None:
            return None
        return self._simulator.now - self._last_good_at

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self, immediate: bool = True) -> None:
        """Begin the refresh schedule."""
        if self._running:
            raise RuntimeError("refresher already running")
        self._running = True
        if immediate:
            self._refresh()
        else:
            self._timer.start(self._interval)

    def stop(self) -> None:
        """Halt the schedule (the in-flight refresh, if any, completes)."""
        self._running = False
        self._timer.cancel()

    # ------------------------------------------------------------------
    # Refresh cycle.
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        if not self._running:
            return
        self._stats.refreshes_attempted += 1
        self._generator.generate(self._domain, self._on_pool)

    def _on_pool(self, pool: GeneratedPool) -> None:
        if pool.ok:
            self._stats.refreshes_succeeded += 1
            self._last_good = pool
            self._last_good_at = self._simulator.now
            self._consumer(pool, True)
        else:
            self._stats.refreshes_failed += 1
            stale_ok = (self._last_good is not None
                        and (self._max_staleness is None
                             or self.staleness() <= self._max_staleness))
            if stale_ok:
                self._stats.served_stale += 1
                self._consumer(self._last_good, False)
            else:
                self._consumer(pool, False)
        if self._running:
            self._timer.start(self._interval)
