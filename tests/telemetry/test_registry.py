"""Registry scoping, snapshot determinism and sharded merging."""

import pytest

from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.netsim.address import IPAddress
from repro.telemetry import (
    MetricsRegistry,
    current_registry,
    install_registry,
    use_registry,
)

from tests.dns.conftest import build_dns_world


class TestRegistryBasics:
    def test_instruments_are_memoised(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", x=1) is registry.counter("a", x=1)
        assert registry.counter("a") is not registry.counter("a", x=1)

    def test_kind_conflicts_are_loud(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.histogram("a")
        registry.timeseries("ts")
        with pytest.raises(TypeError):
            registry.counter("ts")

    def test_value_reads_counters(self):
        registry = MetricsRegistry()
        assert registry.value("missing") == 0.0
        registry.counter("hits").inc(3)
        assert registry.value("hits") == 3

    def test_timeseries_bin_width_pins_on_first_use(self):
        registry = MetricsRegistry()
        pinned = registry.timeseries("ntp.offset", 10.0)
        assert registry.timeseries("ntp.offset", 1.0) is pinned
        assert pinned.bin_width == 10.0

    def test_names_render_labels(self):
        registry = MetricsRegistry()
        registry.counter("net.drops", reason="no-route")
        registry.counter("plain")
        assert registry.names() == ["net.drops{reason=no-route}", "plain"]


class TestScoping:
    def test_use_registry_restores_previous(self):
        assert current_registry() is None
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            assert current_registry() is outer
            with use_registry(inner):
                assert current_registry() is inner
            assert current_registry() is outer
        assert current_registry() is None

    def test_install_registry_none_disables(self):
        registry = MetricsRegistry()
        install_registry(registry)
        assert current_registry() is registry
        install_registry(None)
        assert current_registry() is None

    def test_components_skip_telemetry_without_registry(self):
        world = build_dns_world()
        stub = StubResolver(world.client, world.simulator,
                            IPAddress("10.0.1.1"))
        assert stub._transport.telemetry is None

    def test_components_publish_into_scoped_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            world = build_dns_world()
            stub = StubResolver(world.client, world.simulator,
                                IPAddress("10.0.1.1"))
        outcomes = []
        stub.query("pool.ntppool.org", RRType.A, outcomes.append)
        world.simulator.run()
        assert outcomes[0].ok
        assert registry.value("dns.stub.queries") == 1
        assert registry.value("dns.stub.responses") == 1
        assert registry.value("net.datagrams_sent") > 0
        assert registry.value("transport.exchanges", label="stub-query") == 1
        # The resolver's upstream exchanges ride the transport too.
        assert registry.value("transport.exchanges",
                              label="resolver-query") == 3


class TestSnapshots:
    @staticmethod
    def _observe(registry: MetricsRegistry, observations) -> None:
        for kind, name, args in observations:
            if kind == "counter":
                registry.counter(name).inc(args)
            elif kind == "hist":
                registry.histogram(name).observe(args)
            elif kind == "series":
                registry.timeseries(name, 5.0).record(*args)
            elif kind == "gauge":
                registry.gauge(name).set(*args)

    OBSERVATIONS = [
        ("counter", "rounds", 3),
        ("hist", "rtt", 0.5),
        ("series", "victims", (1.0, 1.0)),
        ("gauge", "active", (10.0, 2.0)),
        ("hist", "rtt", 0.25),
        ("counter", "rounds", 2),
        ("series", "victims", (7.0, 0.0)),
        ("hist", "rtt", 2.0),
        ("gauge", "active", (12.0, 5.0)),
        ("series", "victims", (12.0, 1.0)),
    ]

    def test_snapshot_is_deterministic(self):
        snapshots = []
        for _ in range(2):
            registry = MetricsRegistry()
            self._observe(registry, self.OBSERVATIONS)
            snapshots.append(registry.snapshot_json())
        assert snapshots[0] == snapshots[1]

    def test_sharded_merge_is_bit_identical_to_serial(self):
        serial = MetricsRegistry()
        self._observe(serial, self.OBSERVATIONS)

        shards = [MetricsRegistry() for _ in range(2)]
        self._observe(shards[0], self.OBSERVATIONS[:5])
        self._observe(shards[1], self.OBSERVATIONS[5:])
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge(shard)

        assert merged.snapshot_json() == serial.snapshot_json()

    def test_merge_never_aliases_shard_state(self):
        shard = MetricsRegistry()
        shard.counter("x").inc(1)
        merged = MetricsRegistry().merge(shard)
        merged.counter("x").inc(1)
        assert shard.value("x") == 1
        assert merged.value("x") == 2

    def test_merge_rejects_kind_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.histogram("x")
        with pytest.raises(TypeError):
            a.merge(b)

    def test_snapshot_is_strict_json_even_for_untouched_instruments(self):
        import json

        registry = MetricsRegistry()
        registry.gauge("never_set")
        registry.histogram("empty")
        registry.counter("zero")
        registry.timeseries("silent")
        payload = json.loads(registry.snapshot_json())
        assert payload["gauge"]["never_set"] == [None, 0.0]
        assert payload["histogram"]["empty"]["min"] is None
