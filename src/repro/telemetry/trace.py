"""Deterministic causal tracing beside the metrics registry.

A :class:`Tracer` records **spans** — named intervals in *virtual*
simulation time, linked parent-to-child — so the attempt → datagram →
hop → decode → combine chain behind every aggregate counter becomes
inspectable. The tracer follows the exact zero-cost contract of
:class:`~repro.telemetry.registry.MetricsRegistry`:

* publishers look up the active tracer (:func:`current_tracer`) once,
  at construction time, and guard every span emission on it being
  non-``None`` — with no tracer installed nothing is allocated and all
  golden fixtures stay byte-identical;
* the installation point is a :class:`contextvars.ContextVar`
  (:func:`use_tracer` / :func:`install_tracer`), so each trial scopes
  its own tracer and nothing leaks from one world into the next;
* span IDs come from a plain per-tracer counter — never from
  :mod:`repro.util.rng` — and timestamps are the simulator's virtual
  clock, so traces are bit-identical serial vs parallel and a traced
  run never perturbs a single RNG draw.

Each simulated world is single-threaded, so the "current span" used to
parent children across event-driven boundaries is a plain attribute on
the tracer. Callbacks scheduled on the simulator heap do **not**
inherit it automatically — instrumentation captures the span it wants
restored (e.g. a transport attempt) and re-activates it inside the
callback via :meth:`Tracer.activate`.

Two exporters ship with the tracer: a deterministic JSONL snapshot
(:meth:`Tracer.to_jsonl`) that folds across shards like metrics
snapshots do (:func:`fold_trace_snapshots`), and a Chrome Trace Event
JSON (:meth:`Tracer.to_chrome_json`) loadable in Perfetto, with virtual
seconds mapped to microseconds.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
)

#: Version tag of the trace snapshot format. Versioned independently of
#: the metrics snapshot ``schema`` field — the two evolve separately.
TRACE_SCHEMA = "repro-trace/1"


class Span:
    """One named interval in virtual time, linked to a parent span.

    ``end`` is ``None`` while the span is open; snapshots render open
    spans as zero-length at their start so exports stay deterministic
    even when a trace is cut mid-flight.
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float, attrs: Optional[Dict[str, Any]]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = attrs

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns ``self``."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.start if self.end is None else self.end,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


#: Sentinel distinguishing "parent defaulted" from "explicitly root".
_CURRENT = object()


class Tracer:
    """A deterministic span recorder for one traced world.

    Spans are numbered by a monotonically increasing counter in emission
    order; because each world is single-threaded and event dispatch
    order is pinned by the simulator heap, the numbering — and therefore
    the whole trace — is reproducible byte-for-byte across executors.
    """

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._next_id = 0
        #: The span new children parent under by default. Managed with
        #: :meth:`activate` / :meth:`scope`; callbacks hopping through
        #: the simulator heap must restore it explicitly.
        self.current: Optional[Span] = None
        self._clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    # Virtual clock.
    # ------------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Bind the virtual clock (the simulator's ``now``). Spans begun
        or finished without explicit timestamps read it; before any
        binding the clock reads 0.0 (trial setup time)."""
        self._clock = clock

    def now(self) -> float:
        return 0.0 if self._clock is None else self._clock()

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def begin(self, name: str, *, parent: Any = _CURRENT,
              start: Optional[float] = None,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span. ``parent`` defaults to the current span; pass
        ``parent=None`` for an explicit root."""
        if parent is _CURRENT:
            parent = self.current
        span = Span(self._next_id,
                    None if parent is None else parent.span_id,
                    name,
                    self.now() if start is None else start,
                    attrs)
        self._next_id += 1
        self._spans.append(span)
        return span

    def finish(self, span: Span, end: Optional[float] = None) -> Span:
        span.end = self.now() if end is None else end
        return span

    def event(self, name: str, *, parent: Any = _CURRENT,
              at: Optional[float] = None,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """A zero-length span (instantaneous event) at ``at``."""
        span = self.begin(name, parent=parent, start=at, attrs=attrs)
        span.end = span.start
        return span

    def span_at(self, name: str, start: float, end: float, *,
                parent: Any = _CURRENT,
                attrs: Optional[Dict[str, Any]] = None) -> Span:
        """A closed span over a precomputed ``[start, end]`` interval —
        flight/hop timelines are decided at schedule time, before the
        virtual clock reaches them."""
        span = self.begin(name, parent=parent, start=start, attrs=attrs)
        span.end = end
        return span

    def absorb(self, snapshot: Dict[str, Any],
               parent: Any = _CURRENT) -> None:
        """Graft an exported snapshot's spans into this tracer.

        Span IDs are rebased past the live counter and the grafted
        roots are re-parented under ``parent`` (default: the current
        span) — the sharded fleet uses this to hang its per-shard
        traces under the trial span that spawned the shards.
        """
        if parent is _CURRENT:
            parent = self.current
        base = self._next_id
        top = base
        for payload in snapshot.get("spans", ()):
            if payload.get("parent") is not None:
                parent_id: Optional[int] = payload["parent"] + base
            else:
                parent_id = None if parent is None else parent.span_id
            span = Span(payload["id"] + base, parent_id, payload["name"],
                        payload["start"],
                        dict(payload["attrs"])
                        if payload.get("attrs") else None)
            span.end = payload.get("end", payload["start"])
            self._spans.append(span)
            top = max(top, span.span_id + 1)
        self._next_id = top

    # ------------------------------------------------------------------
    # Current-span management (context across callback hops).
    # ------------------------------------------------------------------

    def activate(self, span: Optional[Span]) -> Optional[Span]:
        """Make ``span`` the current parent; returns the previous one
        so callers can restore it."""
        previous = self.current
        self.current = span
        return previous

    @contextmanager
    def scope(self, span: Optional[Span]) -> Iterator[Optional[Span]]:
        """Scope ``span`` as current; restores the previous on exit."""
        previous = self.activate(span)
        try:
            yield span
        finally:
            self.current = previous

    # ------------------------------------------------------------------
    # Reading / export.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def spans(self) -> List[Span]:
        return self._spans

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic state of the whole trace (span-ID order)."""
        return {"schema": TRACE_SCHEMA,
                "spans": [span.to_dict() for span in self._spans]}

    def snapshot_json(self) -> str:
        """The snapshot as canonical JSON (byte-comparable; strict —
        NaN/Infinity raise instead of emitting unparseable output)."""
        return json.dumps(self.snapshot(), sort_keys=True, allow_nan=False)

    def to_jsonl(self) -> str:
        """The snapshot as JSONL: a schema header line, then one span
        per line in span-ID order — line-diffable and identical across
        serial and process executors."""
        return snapshot_to_jsonl(self.snapshot())

    def to_chrome(self) -> Dict[str, Any]:
        return snapshot_to_chrome(self.snapshot())

    def to_chrome_json(self) -> str:
        """Chrome Trace Event JSON (open in https://ui.perfetto.dev)."""
        return json.dumps(self.to_chrome(), sort_keys=True, allow_nan=False)


# ----------------------------------------------------------------------
# Snapshot-level helpers (operate on exported dicts, not live tracers).
# ----------------------------------------------------------------------


def snapshot_to_jsonl(snapshot: Dict[str, Any]) -> str:
    lines = [json.dumps({"schema": snapshot.get("schema", TRACE_SCHEMA)},
                        sort_keys=True)]
    for span in snapshot.get("spans", ()):
        lines.append(json.dumps(span, sort_keys=True, allow_nan=False))
    return "\n".join(lines) + "\n"


def load_snapshot(text: str) -> Dict[str, Any]:
    """Parse a trace back from :meth:`Tracer.snapshot_json` output or
    from the JSONL rendering (header line + one span per line)."""
    stripped = text.strip()
    if not stripped:
        return {"schema": TRACE_SCHEMA, "spans": []}
    if stripped.startswith("{") and "\n" not in stripped:
        payload = json.loads(stripped)
        if "spans" in payload:
            return payload
        return {"schema": payload.get("schema", TRACE_SCHEMA), "spans": []}
    first = json.loads(stripped.splitlines()[0])
    if "spans" in first:
        return first
    schema = first.get("schema", TRACE_SCHEMA)
    spans = [json.loads(line) for line in stripped.splitlines()[1:] if line]
    return {"schema": schema, "spans": spans}


def fold_trace_snapshots(snapshots: Iterable[Any]) -> Dict[str, Any]:
    """Left-fold per-shard trace snapshots, in shard order, into one.

    Mirrors :func:`repro.telemetry.fold_snapshots`: each shard recorded
    its spans independently with IDs starting at 0, so the fold rebases
    every shard's IDs past the previous shards' and tags spans with
    their shard index. Folding the same snapshots in the same order is
    byte-deterministic.
    """
    materialized = []
    for snapshot in snapshots:
        if isinstance(snapshot, str):
            snapshot = load_snapshot(snapshot)
        materialized.append(snapshot)
    folded: List[Dict[str, Any]] = []
    offset = 0
    tag_shards = len(materialized) > 1
    for shard_index, snapshot in enumerate(materialized):
        spans = snapshot.get("spans", [])
        for span in spans:
            rebased = dict(span)
            rebased["id"] = span["id"] + offset
            if span.get("parent") is not None:
                rebased["parent"] = span["parent"] + offset
            if tag_shards:
                attrs = dict(rebased.get("attrs") or {})
                attrs["shard"] = shard_index
                rebased["attrs"] = attrs
            folded.append(rebased)
        if spans:
            offset += max(span["id"] for span in spans) + 1
    return {"schema": TRACE_SCHEMA, "spans": folded}


def snapshot_to_chrome(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Render a trace snapshot as Chrome Trace Event JSON.

    Virtual seconds map to microseconds (``ts``/``dur``); complete
    events (``ph: "X"``) carry the span/parent IDs and attributes in
    ``args`` so Perfetto's query engine can rebuild the causal links.
    Tracks (``tid``) follow the nearest ancestor carrying a ``client``
    attribute, which puts each fleet client's rounds on its own row.
    """
    spans = snapshot.get("spans", [])
    by_id = {span["id"]: span for span in spans}

    def track(span: Dict[str, Any]) -> int:
        while span is not None:
            attrs = span.get("attrs") or {}
            if "client" in attrs:
                return int(attrs["client"]) + 1
            parent = span.get("parent")
            span = by_id.get(parent) if parent is not None else None
        return 0

    events = []
    for span in spans:
        attrs = span.get("attrs") or {}
        start = span["start"]
        end = span.get("end", start)
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ts": round(start * 1e6, 3),
            "dur": round(max(end - start, 0.0) * 1e6, 3),
            "pid": int(attrs.get("shard", 0)),
            "tid": track(span),
            "args": {"span_id": span["id"], "parent_id": span.get("parent"),
                     **attrs},
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


# ----------------------------------------------------------------------
# Head-based sampling.
# ----------------------------------------------------------------------


def sample_fraction(point_key: str, trial: int) -> float:
    """A stable pseudo-uniform draw in ``[0, 1)`` keyed on
    ``(point_key, trial)`` — the campaign's trial identity, the same
    pair that keys its seeds, caches and journals. SHA-256, not
    ``hash()``: independent of ``PYTHONHASHSEED`` and identical in
    every worker process, so a sampled sweep resumes and caches exactly
    like an unsampled one. Never touches :mod:`repro.util.rng`."""
    digest = hashlib.sha256(
        f"trace-sample|{point_key}|{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def should_sample(point_key: str, trial: int, rate: float) -> bool:
    """Head-based sampling decision for one ``(point, trial)``.
    ``rate=1.0`` (or more) traces everything, ``0.0`` nothing."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return sample_fraction(point_key, trial) < rate


# ----------------------------------------------------------------------
# The active tracer (same scoping contract as the metrics registry).
# ----------------------------------------------------------------------

_active: "ContextVar[Optional[Tracer]]" = ContextVar(
    "repro_telemetry_active_tracer", default=None)


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (tracing off)."""
    return _active.get()


def install_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` as the active one (``None`` disables)."""
    _active.set(tracer)


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as active; restores the previous on exit."""
    previous = _active.get()
    install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
