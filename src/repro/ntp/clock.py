"""Simulated clocks.

A :class:`SimClock` reads the simulator's virtual time ("true time") and
reports it with a configurable offset and frequency error (drift). NTP
clients *steer* their clock by applying measured offsets; NTP servers
just read theirs; malicious servers use a clock constructed with a large
deliberate offset.
"""

from __future__ import annotations

from typing import Callable

TrueTime = Callable[[], float]


class SimClock:
    """A drifting, steerable clock over virtual true time.

    :param true_time: callable returning the simulator's current time.
    :param offset: initial clock error in seconds (reported - true).
    :param drift_ppm: frequency error in parts per million; a clock with
        drift 100 ppm gains 100 µs of error per simulated second.
    """

    def __init__(self, true_time: TrueTime, offset: float = 0.0,
                 drift_ppm: float = 0.0) -> None:
        self._true_time = true_time
        self._offset = offset
        self._drift = drift_ppm * 1e-6
        self._drift_reference = true_time()
        self._steps_applied = 0

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def now(self) -> float:
        """The time this clock *believes* it is."""
        true = self._true_time()
        drift_error = (true - self._drift_reference) * self._drift
        return true + self._offset + drift_error

    def error(self) -> float:
        """Current deviation from true time (positive = fast)."""
        return self.now() - self._true_time()

    @property
    def offset(self) -> float:
        """The offset as last set or stepped, without the drift error
        accumulated since: ``SimClock(true_time, clock.offset)`` reads
        the same as a drift-free ``clock``."""
        return self._offset

    @property
    def drift_ppm(self) -> float:
        return self._drift / 1e-6

    @property
    def steps_applied(self) -> int:
        """How many times the clock has been stepped/slewed."""
        return self._steps_applied

    # ------------------------------------------------------------------
    # Steering.
    # ------------------------------------------------------------------

    def step(self, adjustment: float) -> None:
        """Apply an immediate correction (NTP 'step').

        ``adjustment`` is added to the reported time; an NTP client that
        measured its clock to be 50 ms slow calls ``step(+0.050)``.
        """
        # Fold accumulated drift error into the offset so the correction
        # is exact at this instant.
        true = self._true_time()
        drift_error = (true - self._drift_reference) * self._drift
        self._offset += drift_error + adjustment
        self._drift_reference = true
        self._steps_applied += 1

    def set_drift_ppm(self, drift_ppm: float) -> None:
        """Change the frequency error (e.g. after NTP disciplining)."""
        true = self._true_time()
        drift_error = (true - self._drift_reference) * self._drift
        self._offset += drift_error
        self._drift_reference = true
        self._drift = drift_ppm * 1e-6

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SimClock(error={self.error() * 1000:.3f}ms, "
                f"drift={self.drift_ppm:.1f}ppm)")
