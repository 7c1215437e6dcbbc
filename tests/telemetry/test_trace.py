"""Tests for the deterministic tracing layer (repro.telemetry.trace).

Three contracts, mirrored from the metrics registry's:

* **zero cost off** — with no tracer installed, instrumented code paths
  allocate nothing and produce byte-identical metrics snapshots;
* **deterministic on** — span IDs are counter-derived and timestamps
  virtual, so the same world traces to the same bytes on every run;
* **foldable** — per-shard traces rebase and fold like metrics
  snapshots, and the fold is byte-deterministic.
"""

import gc
import json

import pytest

from repro.scenarios.spec import materialize, population_spec
from repro.telemetry.trace import (
    TRACE_SCHEMA,
    Span,
    Tracer,
    current_tracer,
    fold_trace_snapshots,
    install_tracer,
    load_snapshot,
    sample_fraction,
    should_sample,
    snapshot_to_chrome,
    snapshot_to_jsonl,
    use_tracer,
)
from tests.golden.trace_worlds import WORLDS, run_world

FORGED = ("203.0.113.1", "203.0.113.2")

POPULATION = dict(num_clients=4, rounds=2, num_providers=3, corrupted=1,
                  behavior="substitute", forged=FORGED, pool_size=8,
                  answers_per_query=4)


def _traced_population(seed=11):
    tracer = Tracer()
    with use_tracer(tracer):
        world = materialize(population_spec(**POPULATION), seed)
        world.run()
    return tracer, world


class TestSpanRecording:
    def test_ids_are_counter_derived_in_emission_order(self):
        tracer = Tracer()
        spans = [tracer.begin(f"s{i}") for i in range(5)]
        assert [s.span_id for s in spans] == [0, 1, 2, 3, 4]

    def test_parent_defaults_to_current_span(self):
        tracer = Tracer()
        root = tracer.begin("root")
        with tracer.scope(root):
            child = tracer.begin("child")
            with tracer.scope(child):
                grandchild = tracer.begin("grandchild")
        orphan = tracer.begin("orphan")
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert orphan.parent_id is None

    def test_scope_restores_previous_on_exit_and_error(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.activate(outer)
        try:
            with tracer.scope(tracer.begin("inner")):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.current is outer
        middle, inner = tracer.begin("middle"), tracer.begin("inner")
        with tracer.scope(middle) as entered:
            assert entered is middle and tracer.current is middle
            with pytest.raises(RuntimeError):
                with tracer.scope(inner):
                    assert tracer.current is inner
                    with tracer.scope(None):
                        assert tracer.current is None
                        raise RuntimeError("boom")
            assert tracer.current is middle
            with tracer.scope(inner):
                assert tracer.begin("leaf").parent_id == inner.span_id
            assert tracer.current is middle
        assert tracer.current is outer

    def test_event_is_zero_length(self):
        tracer = Tracer()
        event = tracer.event("tick", at=3.5)
        assert (event.start, event.end) == (3.5, 3.5)

    def test_span_at_records_precomputed_interval(self):
        tracer = Tracer()
        span = tracer.span_at("flight", 1.0, 2.5)
        assert (span.start, span.end) == (1.0, 2.5)

    def test_open_span_renders_zero_length_at_start(self):
        tracer = Tracer()
        span = tracer.begin("open", start=7.0)
        assert span.to_dict()["end"] == 7.0

    def test_clock_binding(self):
        tracer = Tracer()
        assert tracer.now() == 0.0
        tracer.bind_clock(lambda: 42.0)
        assert tracer.begin("timed").start == 42.0

    def test_attrs_set_merges(self):
        tracer = Tracer()
        span = tracer.begin("s").set(a=1).set(b=2, a=3)
        assert span.to_dict()["attrs"] == {"a": 3, "b": 2}


class TestColumnStore:
    """Spans live in the tracer's columns; a ``Span`` is a handle on
    its row, and every export reads the columns."""

    def test_snapshot_hands_out_copies(self):
        tracer = Tracer()
        tracer.event("evt", at=1.0, attrs={"x": 1, "answers": ["a"]})
        before = tracer.snapshot_json()
        snap = tracer.snapshot()
        snap["spans"][0]["attrs"]["x"] = 99
        snap["spans"][0]["attrs"]["answers"].append("b")
        assert tracer.snapshot_json() == before
        assert tracer.snapshot()["spans"][0]["attrs"] == {
            "x": 1, "answers": ["a"]}

    def test_set_after_finish_is_exported(self):
        tracer = Tracer()
        span = tracer.begin("flight", start=1.0, attrs={"outcome": "ok"})
        tracer.finish(span, 2.0)
        span.set(outcome="dropped", dropped_by="no-socket")
        (entry,) = json.loads(tracer.snapshot_json())["spans"]
        assert entry["attrs"] == {"outcome": "dropped",
                                  "dropped_by": "no-socket"}

    def test_end_moved_after_finish_is_exported(self):
        tracer = Tracer()
        span = tracer.begin("flight", start=1.0)
        tracer.finish(span, 2.0)
        span.end = 3.5
        (entry,) = json.loads(tracer.snapshot_json())["spans"]
        assert (entry["start"], entry["end"]) == (1.0, 3.5)

    def test_times_keep_their_type(self):
        tracer = Tracer()
        tracer.span_at("x", 20, 40)
        text = tracer.snapshot_json()
        assert '"end": 40,' in text and '"start": 20}' in text
        (entry,) = json.loads(text)["spans"]
        assert type(entry["start"]) is int and type(entry["end"]) is int

    def test_open_span_renders_zero_length(self):
        tracer = Tracer()
        tracer.begin("open", start=7.0)
        (entry,) = json.loads(tracer.snapshot_json())["spans"]
        assert entry["end"] == entry["start"] == 7.0
        assert tracer.spans[0].end is None

    def test_span_views_agree_with_snapshot(self):
        tracer, _ = _traced_population()
        entries = tracer.snapshot()["spans"]
        assert [span.to_dict() for span in tracer.spans] == entries
        for span, entry in zip(tracer.spans, entries):
            assert (span.span_id, span.parent_id, span.name, span.start) == (
                entry["id"], entry["parent"], entry["name"], entry["start"])

    def test_snapshot_is_its_json(self):
        tracer, _ = _traced_population()
        assert tracer.snapshot() == json.loads(tracer.snapshot_json())

    def test_store_holds_no_tracked_object_per_span(self):
        """A recorded span leaves nothing the collector keeps tracking:
        after a full collection no stored value is tracked, however
        many spans the run recorded."""
        def tracked_values(value):
            if isinstance(value, dict):
                return gc.is_tracked(value) + sum(
                    tracked_values(item) for item in value.values())
            if isinstance(value, (list, tuple)):
                return gc.is_tracked(value) + sum(
                    tracked_values(item) for item in value)
            return int(gc.is_tracked(value))

        for clients in (150, 300):
            tracer = Tracer()
            with use_tracer(tracer):
                world = materialize(population_spec(
                    num_clients=clients, rounds=1, corrupted=1), 7)
                world.run()
            assert len(tracer) > 40 * clients
            assert any(isinstance(value, tuple)
                       for attrs in tracer._attrs if attrs
                       for value in attrs.values())
            gc.collect()
            columns = (tracer._ids, tracer._parents, tracer._names,
                       tracer._starts, tracer._ends, tracer._attrs)
            assert sum(tracked_values(item) for column in columns
                       for item in column) == 0


class TestSnapshotRoundTrip:
    def _tiny(self):
        tracer = Tracer()
        root = tracer.begin("root", start=0.0)
        with tracer.scope(root):
            tracer.event("evt", at=1.0, attrs={"k": "v"})
        tracer.finish(root, 2.0)
        return tracer

    def test_snapshot_carries_schema(self):
        assert self._tiny().snapshot()["schema"] == TRACE_SCHEMA

    def test_snapshot_json_is_deterministic(self):
        assert self._tiny().snapshot_json() == self._tiny().snapshot_json()

    def test_jsonl_round_trips(self):
        tracer = self._tiny()
        recovered = load_snapshot(tracer.to_jsonl())
        assert recovered == tracer.snapshot()

    def test_json_document_round_trips(self):
        tracer = self._tiny()
        assert load_snapshot(tracer.snapshot_json()) == tracer.snapshot()

    def test_empty_text_loads_as_empty_trace(self):
        assert load_snapshot("") == {"schema": TRACE_SCHEMA, "spans": []}

    def test_jsonl_header_then_one_span_per_line(self):
        lines = self._tiny().to_jsonl().strip().splitlines()
        assert json.loads(lines[0]) == {"schema": TRACE_SCHEMA}
        assert [json.loads(line)["id"] for line in lines[1:]] == [0, 1]


class TestFold:
    def _shard(self, names, start=0.0):
        tracer = Tracer()
        root = tracer.begin(names[0], start=start)
        with tracer.scope(root):
            for name in names[1:]:
                tracer.event(name, at=start)
        tracer.finish(root, start + 1.0)
        return tracer.snapshot()

    def test_rebases_ids_and_parents_in_shard_order(self):
        folded = fold_trace_snapshots(
            [self._shard(["a", "a1"]), self._shard(["b", "b1", "b2"])])
        ids = [span["id"] for span in folded["spans"]]
        assert ids == [0, 1, 2, 3, 4]
        by_name = {span["name"]: span for span in folded["spans"]}
        assert by_name["b1"]["parent"] == by_name["b"]["id"] == 2

    def test_tags_shard_only_when_folding_many(self):
        one = fold_trace_snapshots([self._shard(["a"])])
        many = fold_trace_snapshots([self._shard(["a"]), self._shard(["b"])])
        assert "attrs" not in one["spans"][0]
        assert [span["attrs"]["shard"] for span in many["spans"]] == [0, 1]

    def test_accepts_json_strings(self):
        snapshot = self._shard(["a"])
        from_str = fold_trace_snapshots([json.dumps(snapshot)])
        assert from_str["spans"] == fold_trace_snapshots([snapshot])["spans"]

    def test_fold_is_deterministic(self):
        shards = [self._shard(["a", "a1"]), self._shard(["b"])]
        assert (json.dumps(fold_trace_snapshots(shards), sort_keys=True)
                == json.dumps(fold_trace_snapshots(shards), sort_keys=True))


class TestAbsorb:
    def test_reparents_roots_under_current_and_rebases(self):
        shard = Tracer()
        shard_root = shard.begin("shard.root", start=0.0)
        with shard.scope(shard_root):
            shard.event("shard.child", at=0.5)
        shard.finish(shard_root, 1.0)

        parent = Tracer()
        trial = parent.begin("trial", start=0.0)
        with parent.scope(trial):
            parent.absorb(shard.snapshot())
        parent.finish(trial, 2.0)

        by_name = {s.name: s for s in parent.spans}
        assert by_name["shard.root"].parent_id == trial.span_id
        assert by_name["shard.child"].parent_id == by_name["shard.root"].span_id
        # Fresh spans after the graft never collide with absorbed IDs.
        fresh = parent.begin("after")
        assert fresh.span_id > max(s.span_id for s in parent.spans[:-1])

    def test_explicit_none_parent_keeps_roots(self):
        shard = Tracer()
        shard.finish(shard.begin("root", start=0.0), 1.0)
        parent = Tracer()
        with parent.scope(parent.begin("trial")):
            parent.absorb(shard.snapshot(), parent=None)
        assert parent.spans[-1].parent_id is None


class TestSampling:
    def test_fraction_is_stable_and_bounded(self):
        first = sample_fraction("n=3/c=1", 7)
        assert first == sample_fraction("n=3/c=1", 7)
        assert 0.0 <= first < 1.0

    def test_identity_changes_the_draw(self):
        draws = {sample_fraction("point", trial) for trial in range(32)}
        assert len(draws) == 32

    def test_rate_extremes(self):
        assert should_sample("p", 0, 1.0)
        assert not should_sample("p", 0, 0.0)

    def test_rate_selects_the_low_fractions(self):
        rate = 0.25
        for trial in range(64):
            expected = sample_fraction("p", trial) < rate
            assert should_sample("p", trial, rate) == expected


class TestChromeExport:
    def test_events_map_virtual_seconds_to_microseconds(self):
        tracer = Tracer()
        tracer.finish(tracer.begin("root", start=0.001), 0.003)
        chrome = snapshot_to_chrome(tracer.snapshot())
        (event,) = chrome["traceEvents"]
        assert event["ph"] == "X"
        assert (event["ts"], event["dur"]) == (1000.0, 2000.0)
        assert chrome["displayTimeUnit"] == "ms"

    def test_track_follows_nearest_client_ancestor(self):
        tracer = Tracer()
        round_span = tracer.begin("client.round", start=0.0,
                                  attrs={"client": 3})
        with tracer.scope(round_span):
            tracer.event("dns.encode", at=0.0)
        tracer.finish(round_span, 1.0)
        events = {e["name"]: e for e in
                  snapshot_to_chrome(tracer.snapshot())["traceEvents"]}
        assert events["dns.encode"]["tid"] == events["client.round"]["tid"] == 4

    def test_chrome_json_serializes(self):
        tracer, _ = _traced_population()
        payload = json.loads(tracer.to_chrome_json())
        assert len(payload["traceEvents"]) == len(tracer.spans)


class TestZeroCostContract:
    def test_no_tracer_installed_by_default(self):
        assert current_tracer() is None

    def test_use_tracer_restores_previous(self):
        outer = Tracer()
        install_tracer(outer)
        try:
            with use_tracer(Tracer()) as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        finally:
            install_tracer(None)

    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_untraced_world_never_records_a_span(self, monkeypatch, name):
        """Structural zero cost: with no tracer installed, a whole UDP,
        DoH or iterative-chaos world runs without building one span or
        entering one scope."""
        def forbidden(*args, **kwargs):
            raise AssertionError("tracing work in an untraced run")

        monkeypatch.setattr(Span, "__init__", forbidden)
        monkeypatch.setattr(Tracer, "scope", forbidden)
        world = run_world(name, 5)
        assert world.telemetry.snapshot()["counter"]["pop.rounds"] > 0

    def test_tracing_never_perturbs_metrics(self):
        _, traced = _traced_population(seed=11)
        untraced = materialize(population_spec(**POPULATION), 11)
        untraced.run()
        assert (traced.telemetry.snapshot_json()
                == untraced.telemetry.snapshot_json())


class TestTraceDeterminism:
    def test_same_world_traces_to_identical_bytes(self):
        first, _ = _traced_population(seed=11)
        second, _ = _traced_population(seed=11)
        assert first.to_jsonl() == second.to_jsonl()
        assert len(first.spans) > 100

    def test_all_parents_resolve_and_all_spans_close(self):
        tracer, _ = _traced_population(seed=11)
        ids = {span.span_id for span in tracer.spans}
        for span in tracer.spans:
            assert span.parent_id is None or span.parent_id in ids
            assert span.end is not None and span.end >= span.start

    def test_sharded_trace_folds_deterministically(self):
        def run(shards):
            tracer = Tracer()
            with use_tracer(tracer):
                world = materialize(population_spec(
                    shards=shards, **POPULATION), 11)
                world.run()
            return tracer
        serial = run(2).to_jsonl()
        again = run(2).to_jsonl()
        assert serial == again
        shard_tags = {json.loads(line).get("attrs", {}).get("shard")
                      for line in serial.strip().splitlines()[1:]}
        assert {0, 1} <= shard_tags

    def test_jsonl_round_trips_through_the_exporters(self):
        tracer, _ = _traced_population(seed=11)
        assert snapshot_to_jsonl(load_snapshot(tracer.to_jsonl())) == (
            tracer.to_jsonl())
