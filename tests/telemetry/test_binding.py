"""Bound instruments: how per-event publishers reach the registry.

A publisher names its instruments once in an ``InstrumentSchema`` and
reads them through ``MetricsRegistry.bound``; the name-keyed accessors
(``counter``, ``histogram``, ``gauge``, ``timeseries``) then run only
when an instrument is first used, never per event.
"""

import pytest

from repro.chaos import CacheWipe, ChaosSpec, Overload, ServerOutage
from repro.dns.hierarchy import HierarchySpec
from repro.scenarios.spec import (
    ResolverSpec,
    materialize,
    population_spec,
    set_path,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import InstrumentSchema

SCHEMA = InstrumentSchema(hits=("counter", "t.hits"),
                          rtt=("histogram", "t.rtt"),
                          level=("gauge", "t.level"),
                          depth=("timeseries", "t.depth"))

ACCESSORS = ("counter", "histogram", "gauge", "timeseries")


class TestBinding:
    def test_instruments_appear_at_first_read(self):
        registry = MetricsRegistry()
        bound = registry.bound[SCHEMA]
        family = registry.bound[SCHEMA, "label"]
        family["a"]
        assert len(registry) == 0
        bound.hits.inc()
        family["a"].depth.record(1.0, 2.0)
        assert registry.names() == ["t.depth{label=a}", "t.hits"]

    def test_bindings_are_shared_per_registry(self):
        registry = MetricsRegistry()
        assert registry.bound[SCHEMA] is registry.bound[SCHEMA]
        family = registry.bound[SCHEMA, "label"]
        assert registry.bound[SCHEMA, "label"] is family
        assert family["a"] is family["a"]
        assert family["a"] is not family["b"]
        assert MetricsRegistry().bound[SCHEMA] is not registry.bound[SCHEMA]

    def test_bound_reads_are_the_accessors_instruments(self):
        registry = MetricsRegistry()
        family = registry.bound[SCHEMA, "label"]
        assert family["a"].hits is registry.counter("t.hits", label="a")
        assert registry.bound[SCHEMA].rtt is registry.histogram("t.rtt")
        assert registry.bound[SCHEMA].level is registry.gauge("t.level")
        pinned = registry.timeseries("t.depth", 5.0)
        assert registry.bound[SCHEMA].depth is pinned

    def test_snapshot_equals_accessor_publishing(self):
        by_name, bound = MetricsRegistry(), MetricsRegistry()
        family = bound.bound[SCHEMA, "label"]
        for label, value in (("a", 0.5), ("b", 2.0), ("a", 3.0)):
            by_name.counter("t.hits", label=label).inc()
            by_name.histogram("t.rtt", label=label).observe(value)
            family[label].hits.inc()
            family[label].rtt.observe(value)
        assert bound.snapshot_json() == by_name.snapshot_json()

    def test_kind_conflicts_surface_at_first_read(self):
        registry = MetricsRegistry()
        registry.histogram("t.hits")
        with pytest.raises(TypeError):
            registry.bound[SCHEMA].hits

    def test_unknown_attributes_raise(self):
        bound = MetricsRegistry().bound[SCHEMA]
        with pytest.raises(AttributeError):
            bound.misses
        with pytest.raises(AttributeError):
            bound._private


def _iterative_chaos(clients: int):
    """The benchmark's iterative-chaos world: root-TLD-zone referrals
    under an outage, a cache wipe and an overload."""
    spec = population_spec(num_clients=clients, rounds=6, pool_ttl=1,
                           min_answers=2)
    spec = set_path(spec, "provider.serve", "dns")
    spec = set_path(spec, "provider.resolver", ResolverSpec(
        mode="iterative",
        hierarchy=HierarchySpec(root_ttl=5, tld_ttl=5, glue=False)))
    return set_path(spec, "chaos", ChaosSpec(events=(
        ServerOutage(scope="providers", fraction=0.3, at=20, duration=20),
        CacheWipe(at=50),
        Overload(scope="providers", at=60, duration=20,
                 qps=clients / 20, queue_depth=16))))


def test_instrument_lookups_do_not_grow_with_the_fleet(monkeypatch):
    """Every accessor call during run() is the first use of a distinct
    instrument, so lookups are bounded by the instrument catalogue,
    whatever the fleet's size. Before binding, a 50-client run made
    about 13,400 lookups and a 200-client run about 48,300."""
    calls = []
    for accessor in ACCESSORS:
        original = getattr(MetricsRegistry, accessor)

        def counted(self, name, *args, _original=original,
                    _accessor=accessor, **labels):
            calls.append((_accessor, name, tuple(sorted(labels.items()))))
            return _original(self, name, *args, **labels)

        monkeypatch.setattr(MetricsRegistry, accessor, counted)
    for clients in (50, 200):
        world = materialize(_iterative_chaos(clients), 42)
        del calls[:]
        world.run()
        assert len(calls) == len(set(calls)), clients
        assert len(calls) <= len(world.telemetry), clients
