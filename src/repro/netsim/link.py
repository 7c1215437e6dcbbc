"""Network links with latency, jitter, loss and injectable faults.

A :class:`Link` joins two topology nodes. Its :class:`LinkProfile`
captures the *intrinsic* performance characteristics; an optional
:class:`FaultModel` layers *imposed* degradation (extra loss, bounded
jitter, reordering displacement, duplication) on top — the knobs the
paper's availability experiments sweep. Per-packet decisions are drawn
from named random streams so runs are reproducible: the profile draws
from the link's own stream and the fault model from a separate
``("fault", a, b)`` stream, which keeps a fault-free run bit-identical
to one built before fault models existed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.util.validation import check_non_negative, check_probability


@dataclass(frozen=True)
class LinkProfile:
    """Performance characteristics of a link.

    :param latency: one-way propagation delay in seconds.
    :param jitter: maximum uniform jitter added per packet, in seconds.
    :param loss: independent per-packet drop probability.
    """

    latency: float = 0.010
    jitter: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.latency, "latency")
        check_non_negative(self.jitter, "jitter")
        check_probability(self.loss, "loss")

    @classmethod
    def lan(cls) -> "LinkProfile":
        """A sub-millisecond local link."""
        return cls(latency=0.0005, jitter=0.0001, loss=0.0)

    @classmethod
    def metro(cls) -> "LinkProfile":
        """A same-metro link (a few milliseconds)."""
        return cls(latency=0.003, jitter=0.001, loss=0.0)

    @classmethod
    def continental(cls) -> "LinkProfile":
        """A same-continent backbone hop."""
        return cls(latency=0.020, jitter=0.004, loss=0.0)

    @classmethod
    def transoceanic(cls) -> "LinkProfile":
        """A trans-oceanic backbone hop."""
        return cls(latency=0.070, jitter=0.010, loss=0.0)

    @classmethod
    def lossy(cls, loss: float, latency: float = 0.030) -> "LinkProfile":
        """A degraded link with the given drop probability."""
        return cls(latency=latency, jitter=latency / 4.0, loss=loss)


@dataclass(frozen=True)
class FaultModel:
    """Composable fault injection for one link.

    All effects are applied *independently per packet*, after the
    link's intrinsic profile, drawing from the link's dedicated fault
    stream in a fixed order (loss → duplication → jitter → reorder) so
    traces are reproducible from the seed alone.

    :param loss_rate: extra per-packet drop probability.
    :param jitter_s: extra uniform jitter in ``[0, jitter_s]`` seconds
        added to every surviving packet.
    :param reorder_window: displacement bound — with probability
        ``reorder_rate`` a packet is held back an extra uniform
        ``[0, reorder_window]`` seconds, letting later packets overtake
        it (how real queues reorder).
    :param reorder_rate: fraction of packets subject to the hold-back
        (only consulted when ``reorder_window`` is positive).
    :param duplicate_rate: per-packet probability that the link also
        delivers a second copy.
    :param duplicate_gap_s: how far behind the original the copy runs.
    """

    loss_rate: float = 0.0
    jitter_s: float = 0.0
    reorder_window: float = 0.0
    reorder_rate: float = 0.25
    duplicate_rate: float = 0.0
    duplicate_gap_s: float = 0.002

    def __post_init__(self) -> None:
        check_probability(self.loss_rate, "loss_rate")
        check_non_negative(self.jitter_s, "jitter_s")
        check_non_negative(self.reorder_window, "reorder_window")
        check_probability(self.reorder_rate, "reorder_rate")
        check_probability(self.duplicate_rate, "duplicate_rate")
        check_non_negative(self.duplicate_gap_s, "duplicate_gap_s")

    @property
    def active(self) -> bool:
        """Whether this model perturbs anything at all."""
        return (self.loss_rate > 0.0 or self.jitter_s > 0.0
                or self.reorder_window > 0.0 or self.duplicate_rate > 0.0)

    def compose(self, other: "FaultModel") -> "FaultModel":
        """Stack two fault models as if applied by independent stages:
        losses and duplications combine as independent events, jitter
        adds, and the wider reordering stage dominates.

        A model whose reordering (or duplication) is inactive
        contributes nothing to the combined rate/gap — its defaults for
        the dependent knobs are placeholders, not effects — so an
        all-defaults ``FaultModel()`` is a compose identity.
        """
        self_reorder = self.reorder_rate if self.reorder_window > 0.0 else 0.0
        other_reorder = (other.reorder_rate
                         if other.reorder_window > 0.0 else 0.0)
        duplicating = [model for model in (self, other)
                       if model.duplicate_rate > 0.0]
        return FaultModel(
            loss_rate=1.0 - (1.0 - self.loss_rate) * (1.0 - other.loss_rate),
            jitter_s=self.jitter_s + other.jitter_s,
            reorder_window=max(self.reorder_window, other.reorder_window),
            reorder_rate=1.0 - (1.0 - self_reorder) * (1.0 - other_reorder),
            duplicate_rate=1.0 - (1.0 - self.duplicate_rate)
            * (1.0 - other.duplicate_rate),
            duplicate_gap_s=(max(m.duplicate_gap_s for m in duplicating)
                             if duplicating else self.duplicate_gap_s),
        )

    def scaled(self, factor: float) -> "FaultModel":
        """A model with the loss/duplication probabilities scaled (and
        clamped); convenient for sweeping severity as one axis."""
        check_non_negative(factor, "factor")
        return replace(
            self,
            loss_rate=min(1.0, self.loss_rate * factor),
            duplicate_rate=min(1.0, self.duplicate_rate * factor),
        )

    # ------------------------------------------------------------------
    # Per-packet sampling (called by Link.transit, which draws the loss
    # itself).
    # ------------------------------------------------------------------

    def sample_extra_delay(self, rng: random.Random) -> float:
        extra = 0.0
        if self.jitter_s > 0.0:
            extra += rng.uniform(0.0, self.jitter_s)
        if self.reorder_window > 0.0 and rng.random() < self.reorder_rate:
            extra += rng.uniform(0.0, self.reorder_window)
        return extra

    def sample_duplicate(self, rng: random.Random) -> Optional[float]:
        """Gap (seconds) behind the original for a duplicate copy, or
        ``None`` when this packet is not duplicated."""
        if self.duplicate_rate > 0.0 and rng.random() < self.duplicate_rate:
            return self.duplicate_gap_s
        return None


class Link:
    """A bidirectional link between two topology node names.

    The link itself is passive; the :class:`repro.netsim.internet.Internet`
    walks a packet along its route's links, asking each link for its
    hop decision (:meth:`transit`).
    """

    __slots__ = ("_a", "_b", "_profile", "_rng", "_fault", "_fault_rng",
                 "_packets_carried", "_packets_dropped",
                 "_packets_duplicated", "_bytes_carried", "_name",
                 "_latency", "_jitter", "_loss")

    def __init__(self, a: str, b: str, profile: LinkProfile,
                 rng: random.Random) -> None:
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a!r} twice")
        self._a = a
        self._b = b
        self._profile = profile
        self._rng = rng
        self._fault: Optional[FaultModel] = None
        self._fault_rng: Optional[random.Random] = None
        self._packets_carried = 0
        self._packets_dropped = 0
        self._packets_duplicated = 0
        self._bytes_carried = 0
        self._name = "--".join(sorted((a, b)))
        # Profile scalars, hoisted once (LinkProfile is frozen) so the
        # per-packet transit path reads plain floats.
        self._latency = profile.latency
        self._jitter = profile.jitter
        self._loss = profile.loss

    @property
    def ends(self) -> Tuple[str, str]:
        """The two node names this link joins (in construction order)."""
        return (self._a, self._b)

    @property
    def name(self) -> str:
        """Canonical (sorted) name, stable regardless of direction."""
        return self._name

    @property
    def profile(self) -> LinkProfile:
        return self._profile

    @property
    def packets_carried(self) -> int:
        return self._packets_carried

    @property
    def packets_dropped(self) -> int:
        return self._packets_dropped

    @property
    def packets_duplicated(self) -> int:
        return self._packets_duplicated

    @property
    def bytes_carried(self) -> int:
        return self._bytes_carried

    # ------------------------------------------------------------------
    # Fault injection.
    # ------------------------------------------------------------------

    @property
    def fault(self) -> Optional[FaultModel]:
        """The installed fault model, if any."""
        return self._fault

    def install_fault(self, model: Optional[FaultModel],
                      rng: Optional[random.Random] = None) -> None:
        """Install (or, with ``None``, clear) a fault model.

        The model draws from its own ``rng`` so installing or removing
        faults never perturbs the link's intrinsic latency/loss stream.
        """
        if model is not None and model.active and rng is None:
            raise ValueError("an active fault model needs its own rng")
        self._fault = model if model is not None and model.active else None
        self._fault_rng = rng if self._fault is not None else None

    def transit(self, size: int) -> "Tuple[bool, Optional[float], float]":
        """One packet's hop decision: ``(dropped, dup_gap, delay)``.

        Every packet is counted as carried (``size`` bytes). The draws
        come in a fixed order, each only when its knob is set:

        1. intrinsic loss, one ``random()`` from the link's stream;
        2. fault loss, one ``random()`` from the fault stream (skipped
           once the intrinsic draw dropped the packet).

        A dropped packet is counted, draws nothing further and returns
        a meaningless ``delay``. A surviving one goes on with:

        3. fault duplication (:meth:`FaultModel.sample_duplicate`), from
           the fault stream;
        4. intrinsic jitter, one ``uniform(0, jitter)`` from the link's
           stream, added to the latency;
        5. fault jitter, then fault reordering
           (:meth:`FaultModel.sample_extra_delay`), from the fault
           stream.
        """
        rng = self._rng
        fault = self._fault
        if self._loss and rng.random() < self._loss:
            dropped = True
        elif fault is not None and fault.loss_rate > 0.0 \
                and self._fault_rng.random() < fault.loss_rate:
            dropped = True
        else:
            dropped = False
        self._packets_carried += 1
        self._bytes_carried += size
        if dropped:
            self._packets_dropped += 1
            return True, None, 0.0
        gap = (fault.sample_duplicate(self._fault_rng)
               if fault is not None else None)
        delay = self._latency
        if self._jitter:
            delay += rng.uniform(0.0, self._jitter)
        if fault is not None:
            delay += fault.sample_extra_delay(self._fault_rng)
        return False, gap, delay

    def count_duplicate(self) -> None:
        """Charge one duplicated copy to this link (called by the
        :class:`~repro.netsim.internet.Internet` once the duplicated
        trip survives every downstream hop)."""
        self._packets_duplicated += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Link({self._a}--{self._b}, {self._profile.latency * 1000:.1f}ms"
                f", loss={self._profile.loss})")
