"""The metrics registry and its process-wide installation point.

A :class:`MetricsRegistry` names instruments by ``(name, labels)`` and
memoises them, so every publisher incrementing
``registry.counter("net.datagrams_sent")`` shares one accumulator.

Publishers do not take a registry parameter; they look up the *active*
registry (:func:`current_registry`) once, at construction time, and
publish only when one was installed. With no registry installed (the
default) instrumented components skip telemetry entirely — a single
``is None`` test at construction, zero work per event — which keeps
every pre-telemetry run bit-identical and cost-identical.

Each simulated world is single-threaded, and the installation point is
a :class:`contextvars.ContextVar` — scoping in one thread or context is
invisible to every other; :func:`use_registry` restores the previous
registry on exit so nested scopes compose.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Tuple

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LogBucketHistogram,
    TimeSeries,
)

#: Version tag stamped into every metrics snapshot. Versioned
#: independently of the trace snapshot schema
#: (:data:`repro.telemetry.trace.TRACE_SCHEMA`) so the two formats can
#: evolve separately.
METRICS_SCHEMA = "repro-metrics/1"

_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": LogBucketHistogram,
}

_LOADERS = {
    "counter": Counter.from_state,
    "gauge": Gauge.from_state,
    "histogram": LogBucketHistogram.from_state,
    "timeseries": TimeSeries.from_state,
}

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> _Key:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _render_key(key: _Key) -> str:
    name, labels = key
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


def _parse_key(rendered: str) -> _Key:
    """Invert :func:`_render_key` (label values must not contain ``,``
    or ``=`` — publishers use plain identifiers, which snapshots keep)."""
    if not rendered.endswith("}") or "{" not in rendered:
        return (rendered, ())
    name, _, body = rendered[:-1].partition("{")
    labels = tuple(tuple(pair.split("=", 1)) for pair in body.split(","))
    return (name, labels)  # type: ignore[return-value]


class MetricsRegistry:
    """A deterministic namespace of metric instruments.

    Instruments are created on first use and memoised by
    ``(name, labels)``. Snapshots render every instrument's state with
    sorted keys, so two runs that made the same observations produce
    byte-identical snapshots — the property the telemetry tests pin.
    """

    def __init__(self) -> None:
        self._instruments: Dict[_Key, object] = {}
        self._kinds: Dict[_Key, str] = {}
        # (kind, name, labels as passed) -> instrument: the accessors'
        # hot path is one dict hit, with no label-sorted key built.
        self._memo: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Instrument accessors.
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> LogBucketHistogram:
        return self._get("histogram", name, labels)

    def timeseries(self, name: str, bin_width: float = 1.0,
                   **labels) -> TimeSeries:
        """The named series; ``bin_width`` applies on first creation
        only (pre-create a series to pin its binning)."""
        key = _key(name, labels)
        existing = self._instruments.get(key)
        if existing is not None:
            if self._kinds[key] != "timeseries":
                raise TypeError(
                    f"metric {_render_key(key)} already registered as "
                    f"{self._kinds[key]}")
            return existing  # type: ignore[return-value]
        series = TimeSeries(bin_width)
        self._instruments[key] = series
        self._kinds[key] = "timeseries"
        return series

    def _get(self, kind: str, name: str, labels: Dict[str, object]):
        memo_key = (kind, name, tuple(labels.items()))
        instrument = self._memo.get(memo_key)
        if instrument is not None:
            return instrument
        key = _key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = _KINDS[kind]()
            self._instruments[key] = instrument
            self._kinds[key] = kind
        elif self._kinds[key] != kind:
            raise TypeError(
                f"metric {_render_key(key)} already registered as "
                f"{self._kinds[key]}, requested as {kind}")
        self._memo[memo_key] = instrument
        return instrument

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list:
        """Rendered instrument names, sorted."""
        return sorted(_render_key(key) for key in self._instruments)

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """A counter/gauge's current value (``default`` when absent)."""
        instrument = self._instruments.get(_key(name, labels))
        if instrument is None:
            return default
        return instrument.value  # type: ignore[attr-defined]

    def get(self, name: str, **labels):
        """The raw instrument, or ``None`` when never touched."""
        return self._instruments.get(_key(name, labels))

    def snapshot(self) -> Dict[str, object]:
        """Deterministic state of every instrument, grouped by kind,
        under a ``schema`` version tag."""
        grouped: Dict[str, object] = {"schema": METRICS_SCHEMA}
        for key in sorted(self._instruments):
            kind = self._kinds[key]
            grouped.setdefault(kind, {})[_render_key(key)] = (  # type: ignore[union-attr]
                self._instruments[key].state())  # type: ignore[attr-defined]
        return grouped

    def snapshot_json(self) -> str:
        """The snapshot as canonical JSON (byte-comparable).

        Strict JSON: any NaN/Infinity sneaking into instrument state
        raises here instead of silently producing unparseable output.
        """
        return json.dumps(self.snapshot(), sort_keys=True, allow_nan=False)

    # ------------------------------------------------------------------
    # Merging (sharded accumulation).
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one.

        Instruments that exist on both sides are merged pairwise (same
        kind required); instruments unique to ``other`` are merged into
        fresh empty instruments so the result never aliases state.
        Returns ``self`` for chaining.
        """
        for key, theirs in other._instruments.items():
            kind = other._kinds[key]
            mine = self._instruments.get(key)
            if mine is None:
                if kind == "timeseries":
                    mine = TimeSeries(theirs.bin_width)  # type: ignore[attr-defined]
                else:
                    mine = _KINDS[kind]()
                self._instruments[key] = mine
                self._kinds[key] = kind
            elif self._kinds[key] != kind:
                raise TypeError(
                    f"metric {_render_key(key)} is {self._kinds[key]} "
                    f"here but {kind} in the merged registry")
            mine.merge(theirs)  # type: ignore[attr-defined]
        return self

    # ------------------------------------------------------------------
    # Snapshot round-trip (the sharded-fold entry point).
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: "Dict[str, Dict[str, object]] | str"
                      ) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (or its
        :meth:`snapshot_json` string).

        The round trip is exact: every instrument state JSON encodes
        (ints, shortest-round-trip floats) decodes to the same value,
        so ``from_snapshot(r.snapshot_json()).snapshot_json()`` is
        byte-identical to ``r.snapshot_json()``. This is what lets a
        shard ship its registry across a process boundary as JSON and
        the parent fold it with :func:`fold_snapshots` as if the
        shard's instruments had been merged directly.
        """
        if isinstance(snapshot, str):
            snapshot = json.loads(snapshot)
        snapshot = dict(snapshot)
        if snapshot.pop("schema", None) is None:
            # Pre-versioning snapshots (recorded before the schema tag
            # landed) still load — but loudly, so stale artifacts get
            # regenerated rather than silently mixed with tagged ones.
            warnings.warn(
                "metrics snapshot carries no 'schema' field; assuming "
                f"{METRICS_SCHEMA}", stacklevel=2)
        registry = cls()
        for kind, instruments in snapshot.items():
            loader = _LOADERS.get(kind)
            if loader is None:
                raise ValueError(f"unknown instrument kind {kind!r}; "
                                 f"known: {sorted(_LOADERS)}")
            for rendered, state in instruments.items():
                key = _parse_key(rendered)
                registry._instruments[key] = loader(state)
                registry._kinds[key] = kind
        return registry


def fold_snapshots(snapshots, select=None) -> MetricsRegistry:
    """Left-fold registry snapshots, in order, into one registry.

    :param snapshots: an iterable of :meth:`MetricsRegistry.snapshot`
        dicts or :meth:`MetricsRegistry.snapshot_json` strings — e.g.
        per-shard results, folded **in shard order** (the fold order is
        part of the determinism contract: integer state merges are
        associative and order-free, but float accumulations such as a
        histogram's ``total`` reproduce byte-identically only when the
        fold order is pinned).
    :param select: optional predicate ``(kind, name, labels) -> bool``
        restricting the fold to a subset of instruments — the sharding
        layer uses it to compare the population-invariant subset across
        different shard counts.
    """
    folded = MetricsRegistry()
    for snapshot in snapshots:
        shard = MetricsRegistry.from_snapshot(snapshot)
        if select is not None:
            kept = MetricsRegistry()
            for key, instrument in shard._instruments.items():
                kind = shard._kinds[key]
                name, labels = key
                if select(kind, name, dict(labels)):
                    kept._instruments[key] = instrument
                    kept._kinds[key] = kind
            shard = kept
        folded.merge(shard)
    return folded


# ----------------------------------------------------------------------
# The active registry.
# ----------------------------------------------------------------------

# Context-local, not a module global: each trial scopes its own
# registry, and a ContextVar keeps that scoping isolated even if worlds
# ever run concurrently in one process (threads start from a copy of
# the spawning context); single-threaded behaviour is unchanged.
_active: "ContextVar[Optional[MetricsRegistry]]" = ContextVar(
    "repro_telemetry_active_registry", default=None)


def current_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` (telemetry off)."""
    return _active.get()


def install_registry(registry: Optional[MetricsRegistry]) -> None:
    """Install ``registry`` as the active one (``None`` disables)."""
    _active.set(registry)


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as active; restores the previous on exit."""
    previous = _active.get()
    install_registry(registry)
    try:
        yield registry
    finally:
        install_registry(previous)
