"""Tests for the declarative scenario spec layer.

Round-trip exactness, dotted-path access, keyword-converter equivalence
(``pool_spec`` / ``population_spec`` == the explicit spec tree for the
same seeds), the attack registry, and the spec-only fleet extensions (per-region access edges,
DoH transport, plain-DNS provider serving).
"""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, UnknownPresetError
from repro.dns.message import MAX_TTL
from repro.doh.providers import CLOUDFLARE, DoHProviderProfile
from repro.netsim.address import IPAddress
from repro.scenarios.presets import (
    ATTACKER,
    SPEC_PRESETS,
    degraded_network_spec,
    e2_grid_base_spec,
    get_spec_preset,
    hierarchy_population_spec,
    hierarchy_spec,
)
from repro.scenarios.spec import (
    ATTACK_INSTALLERS,
    RESOLVER_MODES,
    AttackSpec,
    ClientSpec,
    HierarchySpec,
    FaultSpec,
    FleetSpec,
    LinkSpec,
    NetworkSpec,
    PoolSpec,
    ProviderSpec,
    RegionSpec,
    ResolverSpec,
    ScenarioSpec,
    TelemetrySpec,
    attacker_servers,
    get_path,
    materialize,
    pool_spec,
    population_spec,
    set_path,
)
from repro.telemetry.metrics import MIN_BIN_WIDTH


# ----------------------------------------------------------------------
# Round-trip serialization.
# ----------------------------------------------------------------------

probabilities = st.floats(0.0, 1.0, allow_nan=False)
small_floats = st.floats(0.0, 10.0, allow_nan=False)

link_specs = st.builds(LinkSpec, latency=small_floats, jitter=small_floats,
                       loss=probabilities)
fault_specs = st.builds(FaultSpec, loss_rate=probabilities,
                        jitter_s=small_floats, reorder_window=small_floats,
                        reorder_rate=probabilities,
                        duplicate_rate=probabilities,
                        duplicate_gap_s=small_floats)
region_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
region_specs = st.builds(RegionSpec, name=region_names,
                         attach=st.sampled_from(["eu-central", "us-east"]),
                         link=link_specs,
                         fault=st.none() | fault_specs)
region_tuples = st.lists(region_specs, min_size=1, max_size=3,
                         unique_by=lambda r: r.name).map(tuple)


def network_specs(fleet: bool):
    """Network specs; only a fleet reads ``regions``."""
    return st.builds(
        NetworkSpec,
        access=st.none() | link_specs,
        fault=fault_specs,
        extra_fault=st.none() | fault_specs,
        regions=st.just(()) | region_tuples if fleet else st.just(()))
provider_specs = st.builds(
    ProviderSpec,
    count=st.integers(1, 6),
    resolver=st.none() | st.builds(ResolverSpec,
                                   query_timeout=st.floats(0.1, 5.0),
                                   max_retries_per_server=st.integers(0, 4),
                                   txid_bits=st.integers(1, 16)),
    # serve="dns" is only legal alongside a udp fleet; the explicit
    # round-trip tests cover it, the random scenarios stay on "doh".
    serve=st.just("doh"),
    corrupted=st.just(0),
    behavior=st.sampled_from(["substitute", "inflate", "empty", "truthful"]),
    forged=st.lists(st.sampled_from(["203.0.113.7", "203.0.113.9"]),
                    max_size=2, unique=True).map(tuple))


def pool_specs(providers: int, fleet: bool):
    """Pool specs whose quorum fits ``providers`` answers; a fleet's
    quorum is ``fleet.min_answers``, so fleets draw none here."""
    quorums = st.none() | st.integers(1, providers)
    return st.builds(PoolSpec, size=st.integers(1, 50),
                     answers_per_query=st.integers(1, 6),
                     ttl=st.integers(1, 600),
                     dual_stack=st.booleans(),
                     truncation=st.sampled_from(["shortest", "median",
                                                 "none"]),
                     min_answers=st.none() if fleet else quorums)


def telemetry_specs(fleet: bool):
    """A fleet always has telemetry and bins its series by
    ``time_bin``; a single-client world may toggle telemetry and has
    no series to bin."""
    if fleet:
        return st.builds(TelemetrySpec, time_bin=st.floats(0.5, 60.0))
    return st.builds(TelemetrySpec, enabled=st.none() | st.booleans())


fleet_specs = st.builds(FleetSpec, size=st.integers(1, 500),
                        rounds=st.integers(1, 5),
                        arrival=st.sampled_from(["periodic", "poisson"]),
                        churn_rate=probabilities,
                        transport=st.just("udp"))
attack_specs = st.builds(
    lambda kind, forged: AttackSpec.of(kind, forged=forged),
    kind=st.sampled_from(["mitm", "timeshift"]),
    forged=st.lists(st.sampled_from(["203.0.113.31", "203.0.113.32"]),
                    min_size=1, max_size=2, unique=True).map(tuple))


def _scenarios(provider: ProviderSpec, fleet):
    kind = fleet is not None
    return st.builds(
        ScenarioSpec,
        network=network_specs(kind),
        provider=st.just(provider),
        pool=pool_specs(provider.count, kind),
        fleet=st.just(fleet),
        attacks=st.lists(attack_specs, max_size=2).map(tuple),
        telemetry=telemetry_specs(kind))


#: Legal scenario specs: the draws leave every path the spec's world
#: kind does not read at its default (see ``WORLD_READS``).
scenario_specs = st.tuples(provider_specs, st.none() | fleet_specs).flatmap(
    lambda drawn: _scenarios(*drawn))

#: Per world kind, (path, values) a spec of that kind may not set
#: (a quorum of 1 fits every provider count, so only the kind rejects
#: it).
ILLEGAL = {
    "single-client": (("network.regions", region_tuples),
                      ("telemetry.time_bin", st.floats(0.5, 9.5)),
                      ("pool.lie_offset", st.floats(-60.0, 9.0))),
    "fleet": (("pool.min_answers", st.just(1)),
              ("pool.dual_stack_policy", st.sampled_from(["union",
                                                          "per-family"])),
              ("telemetry.enabled", st.booleans()),
              ("client", st.builds(ClientSpec))),
}


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario_specs)
    def test_dict_and_json_round_trip_exactly(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # The canonical JSON itself is stable through a parse cycle.
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    @settings(max_examples=60, deadline=None)
    @given(scenario_specs, st.data())
    def test_each_unread_setting_raises(self, spec, data):
        kind = "single-client" if spec.fleet is None else "fleet"
        path, values = data.draw(st.sampled_from(ILLEGAL[kind]))
        with pytest.raises(ConfigurationError, match="do not read"):
            set_path(spec, path, data.draw(values))

    def test_every_spec_type_round_trips(self):
        for spec in (LinkSpec(latency=0.02), FaultSpec(loss_rate=0.3),
                     RegionSpec(name="eu", fault=FaultSpec(jitter_s=0.1)),
                     NetworkSpec(regions=(RegionSpec(name="x"),)),
                     DoHProviderProfile("dns.example", "us-east", "10.54.0.9"),
                     ResolverSpec(query_timeout=1.0),
                     ProviderSpec(count=4, corrupted=2,
                                  forged=("203.0.113.1",)),
                     PoolSpec(min_answers=2), FleetSpec(size=7),
                     AttackSpec.of("mitm", mode="empty"),
                     TelemetrySpec(enabled=True)):
            assert type(spec).from_dict(spec.to_dict()) == spec

    def test_to_json_is_byte_stable(self):
        spec = population_spec(num_clients=12, corrupted=1)
        assert spec.to_json() == population_spec(num_clients=12,
                                                 corrupted=1).to_json()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            FleetSpec.from_dict({"size": 3, "num_clientz": 5})

    def test_legacy_converters_round_trip(self):
        for spec in (pool_spec(num_providers=5, loss_rate=0.2,
                               dual_stack=True),
                     population_spec(num_clients=9, corrupted=2,
                                     behavior="empty", churn_rate=0.1),
                     set_path(population_spec(), "provider.serve", "dns")):
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestValidation:
    def test_corrupted_beyond_count_rejected(self):
        with pytest.raises(ValueError, match="corrupted"):
            population_spec(corrupted=4, num_providers=3)

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            population_spec(corrupted=1, behavior="explode")

    def test_min_answers_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="min_answers"):
            population_spec(min_answers=4, num_providers=3)

    def test_fleet_min_answers_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="fleet.min_answers"):
            population_spec(min_answers=4, num_providers=3)

    @pytest.mark.parametrize("quorum", [0, -1, 4])
    def test_pool_min_answers_out_of_range_rejected(self, quorum):
        # Caught when the spec is built, not by the generator after
        # the world is compiled.
        with pytest.raises(ConfigurationError, match="pool.min_answers"):
            set_path(pool_spec(num_providers=3), "pool.min_answers", quorum)

    def test_pool_min_answers_checked_against_provider_count(self):
        spec = set_path(pool_spec(num_providers=3), "pool.min_answers", 3)
        assert spec.pool.min_answers == 3
        with pytest.raises(ConfigurationError, match=r"\[1, 2\]"):
            set_path(spec, "provider.count", 2)

    def test_fleet_rejects_pool_quorum(self):
        # One quorum spelling per world kind: a fleet's is
        # fleet.min_answers.
        with pytest.raises(ConfigurationError, match="fleet.min_answers"):
            set_path(population_spec(), "pool.min_answers", 2)
        assert set_path(population_spec(), "fleet.min_answers",
                        2).fleet.min_answers == 2

    @pytest.mark.parametrize("policy", ["union", "per-family"])
    def test_fleet_rejects_dual_stack_policy(self, policy):
        with pytest.raises(ConfigurationError, match="A records only"):
            set_path(population_spec(), "pool.dual_stack_policy", policy)

    def test_doh_fleet_needs_doh_providers(self):
        spec = set_path(population_spec(), "fleet.transport", "doh")
        with pytest.raises(ConfigurationError, match="doh"):
            set_path(spec, "provider.serve", "dns")

    def test_single_client_world_needs_doh_serving(self):
        # A single-client sweep over serve="dns" must fail at spec
        # construction, not mid-campaign at the first trial.
        with pytest.raises(ConfigurationError, match="single-client"):
            set_path(pool_spec(), "provider.serve", "dns")

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attack"):
            AttackSpec.of("teleport")

    def test_duplicate_region_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            NetworkSpec(regions=(RegionSpec(name="a"), RegionSpec(name="a")))


def _tiny_fleet():
    return population_spec(num_clients=5, rounds=2)


def _iterative(spec):
    return set_path(spec, "provider.resolver", ResolverSpec(
        mode="iterative", hierarchy=HierarchySpec()))


class TestBoundsAtConstruction:
    """Finite specs that used to build and then fail inside materialize
    or run() are refused with ConfigurationError when built."""

    @pytest.mark.parametrize("time_bin", [1e-307, 5e-324,
                                          MIN_BIN_WIDTH / 2])
    def test_time_bin_too_small_to_index(self, time_bin):
        # 1e-307 used to raise OverflowError in TimeSeries.record
        # mid-run: the bin index of a virtual time of 100 s overflowed.
        with pytest.raises(ConfigurationError, match="time_bin"):
            set_path(_tiny_fleet(), "telemetry.time_bin", time_bin)

    def test_smallest_time_bin_still_runs(self):
        spec = set_path(_tiny_fleet(), "telemetry.time_bin", MIN_BIN_WIDTH)
        world = materialize(spec, 1)
        world.run()
        json.loads(world.telemetry.snapshot_json())

    @pytest.mark.parametrize("build, path", [
        # pool.ttl = 2**31 used to raise "TTL out of range" at run time
        # on every world kind.
        (_tiny_fleet, "pool.ttl"),
        (pool_spec, "pool.ttl"),
        (lambda: _iterative(_tiny_fleet()),
         "provider.resolver.hierarchy.root_ttl"),
        (lambda: _iterative(_tiny_fleet()),
         "provider.resolver.hierarchy.tld_ttl"),
        (lambda: _iterative(_tiny_fleet()),
         "provider.resolver.negative_ttl_cap"),
    ])
    def test_ttl_above_rfc2181_cap(self, build, path):
        spec = build()
        assert get_path(set_path(spec, path, MAX_TTL), path) == MAX_TTL
        with pytest.raises(ConfigurationError, match=path.split(".")[-1]):
            set_path(spec, path, MAX_TTL + 1)

    def test_largest_pool_ttl_still_runs(self):
        spec = set_path(_tiny_fleet(), "pool.ttl", MAX_TTL)
        materialize(spec, 1).run()

    @pytest.mark.parametrize("path, value", [
        ("provider.corrupted", 9),
        ("provider.behavior", "bogus"),
        ("network.fault.loss_rate", 2.0),
        ("network.fault.reorder_rate", 1.5),
        ("network.fault.duplicate_rate", 1.01),
        ("network.fault.loss_rate", -0.1),
        ("network.fault.loss_rate", math.nan),
    ])
    def test_bad_provider_and_fault_leaves(self, path, value):
        # Each raised a plain ValueError, the fault rates only inside
        # materialize. ConfigurationError subclasses ValueError, so
        # handlers of the old error still catch it.
        for spec in (_tiny_fleet(), pool_spec()):
            with pytest.raises(ConfigurationError):
                set_path(spec, path, value)

    def test_profiles_length_must_equal_count(self):
        with pytest.raises(ConfigurationError, match="profiles length"):
            ProviderSpec(count=2, profiles=(CLOUDFLARE,))

    def test_pool_spec_needs_a_provider(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            pool_spec(num_providers=0)


class TestDottedPaths:
    def test_get_and_set_scalar(self):
        spec = population_spec()
        assert get_path(spec, "fleet.size") == 50
        bigger = set_path(spec, "fleet.size", 300)
        assert get_path(bigger, "fleet.size") == 300
        assert get_path(spec, "fleet.size") == 50   # original untouched

    def test_indexed_path(self):
        spec = set_path(population_spec(), "network.regions",
                        (RegionSpec(name="a"), RegionSpec(name="b")))
        lossy = set_path(spec, "network.regions[1].link.loss", 0.25)
        assert get_path(lossy, "network.regions[1].link.loss") == 0.25
        assert get_path(lossy, "network.regions[0].link.loss") == 0.0

    def test_whole_subtree_replacement(self):
        spec = set_path(pool_spec(), "network.fault",
                        FaultSpec(loss_rate=0.5))
        assert spec.network.fault.loss_rate == 0.5

    def test_bad_paths_raise(self):
        spec = pool_spec()
        with pytest.raises(ConfigurationError, match="no"):
            get_path(spec, "fleet.size")       # fleet is None
        with pytest.raises(ConfigurationError):
            set_path(spec, "provider.quorum", 2)
        with pytest.raises(ConfigurationError, match="out of range"):
            set_path(spec, "network.regions[0].link.loss", 0.1)
        with pytest.raises(ConfigurationError, match="malformed"):
            get_path(spec, "provider..count")


class TestShimEquivalence:
    """The keyword converters compile exactly the world their explicit
    spec tree does."""

    def test_pool_builder_matches_spec_world(self):
        keyword = materialize(pool_spec(num_providers=3, loss_rate=0.1),
                              9).generate_pool_sync()
        explicit = materialize(ScenarioSpec(
            network=NetworkSpec(fault=FaultSpec(loss_rate=0.1)),
            provider=ProviderSpec(count=3)), 9).generate_pool_sync()
        assert keyword.addresses == explicit.addresses
        assert keyword.elapsed == explicit.elapsed
        assert keyword.truncate_length == explicit.truncate_length

    def test_population_builder_matches_spec_world(self):
        keyword = materialize(population_spec(num_clients=25, corrupted=1,
                                              churn_rate=0.1, rounds=2),
                              21).run()
        explicit = materialize(ScenarioSpec(
            provider=ProviderSpec(corrupted=1),
            fleet=FleetSpec(size=25, churn_rate=0.1, rounds=2),
            telemetry=TelemetrySpec(time_bin=10.0)), 21).run()
        assert keyword == explicit   # whole PopulationOutcomes dataclass

    def test_degraded_preset_matches_spec_world(self):
        a = materialize(degraded_network_spec(loss_rate=0.2),
                        5).generate_pool_sync()
        b = materialize(degraded_network_spec(loss_rate=0.2),
                        5).generate_pool_sync()
        assert (a.ok, a.addresses, a.elapsed) == (b.ok, b.addresses,
                                                  b.elapsed)


class TestMaterializeExtensions:
    def test_plain_dns_serving_mode(self):
        spec = set_path(population_spec(num_clients=8, rounds=2,
                                        corrupted=1),
                        "provider.serve", "dns")
        world = materialize(spec, 13)
        assert all(d.doh_server is None for d in world.pool.providers)
        outcomes = world.run()
        assert outcomes.rounds == 16
        assert outcomes.victim_fraction > 0.0   # corruption still bites

    def test_doh_fleet_transport(self):
        spec = set_path(population_spec(num_clients=6, rounds=2),
                        "fleet.transport", "doh")
        world = materialize(spec, 17)
        outcomes = world.run()
        assert outcomes.rounds == 12
        assert outcomes.availability == 1.0
        # Clients really rode DoH: per-query TLS exchanges in telemetry.
        assert world.telemetry.value("doh.queries") == 6 * 2 * 3

    def test_doh_fleet_sees_provider_corruption(self):
        spec = set_path(population_spec(num_clients=10, rounds=2,
                                        corrupted=3),
                        "fleet.transport", "doh")
        outcomes = materialize(spec, 19).run()
        assert outcomes.victim_fraction == 1.0

    def test_per_region_fleet_with_heterogeneous_links(self):
        regions = (RegionSpec(name="eu", attach="eu-central",
                              link=LinkSpec(latency=0.002)),
                   RegionSpec(name="asia", attach="asia-east",
                              link=LinkSpec(latency=0.040),
                              fault=FaultSpec(loss_rate=0.4)))
        spec = set_path(population_spec(num_clients=10, rounds=2),
                        "network.regions", regions)
        world = materialize(spec, 23)
        topology = world.internet.topology
        assert topology.link_between("pop-edge-eu", "eu-central") is not None
        assert topology.link_between("pop-edge-asia",
                                     "asia-east").fault is not None
        outcomes = world.run()
        # The lossy region costs some rounds; the clean one does not.
        assert outcomes.rounds == 20

    def test_onpath_attack_installer_victimises_covered_region(self):
        regions = (RegionSpec(name="eu", attach="eu-central"),
                   RegionSpec(name="us", attach="us-east"))
        spec = set_path(population_spec(num_clients=10, rounds=2),
                        "network.regions", regions)
        spec = set_path(spec, "attacks", (AttackSpec.of(
            "mitm", at="region:eu", mode="poison",
            forged=("203.0.113.77", "203.0.113.78")),))
        outcomes = materialize(spec, 29).run()
        # Half the clients sit behind the owned link.
        assert outcomes.victim_fraction == pytest.approx(0.5)

    def test_attack_on_unknown_region_rejected(self):
        spec = set_path(population_spec(num_clients=4), "attacks",
                        (AttackSpec.of("mitm", at="region:nowhere",
                                       mode="empty"),))
        with pytest.raises(ConfigurationError, match="unknown region"):
            materialize(spec, 1)

    def test_timeshift_attack_corrupts_pool_members(self):
        spec = set_path(population_spec(num_clients=10, rounds=2),
                        "attacks",
                        (AttackSpec.of("timeshift", count=5,
                                       lie_offset=30.0),))
        world = materialize(spec, 31)
        assert len(world.ntp_fleet.malicious_servers) == 5
        outcomes = world.run()
        assert outcomes.victim_fraction > 0.0

    def test_materialize_rejects_non_spec(self):
        with pytest.raises(ConfigurationError, match="ScenarioSpec"):
            materialize({"fleet": None}, 1)

    def test_one_spelling_per_attack(self):
        # Provider compromise is ProviderSpec.corrupted; "onpath" was
        # a second name for "mitm".
        assert set(ATTACK_INSTALLERS) == {"mitm", "offpath", "timeshift"}
        for kind in ("compromise", "onpath"):
            with pytest.raises(ConfigurationError, match="unknown attack"):
                AttackSpec.of(kind)

    def test_attacker_servers_lists_forged_then_attack_addresses(self):
        spec = set_path(population_spec(corrupted=1,
                                        forged=("203.0.113.9",)),
                        "attacks", (
                            AttackSpec.of("mitm", mode="poison", forged=(
                                "203.0.113.9", "203.0.113.50")),
                            AttackSpec.of("timeshift", count=2)))
        world = materialize(spec, 5)
        directory = world.pool.directory
        servers = attacker_servers(spec, directory)
        # Timeshift victims are pool members: no extra server for them.
        assert [str(a) for a in servers] == ["203.0.113.9", "203.0.113.50"]
        assert set(world.attacker_addresses) == (
            set(servers) | set(directory.benign[:2]))
        assert all(world.ntp_fleet.server_for(a).is_malicious
                   for a in servers)


class TestE7Preset:
    def test_preset_world_carries_the_attacker(self):
        spec = get_spec_preset("e7-timeshift")(lie_offset=5.0)
        assert spec.pool.lie_offset == 5.0
        assert spec.provider.corrupted == 1
        assert spec.provider.forged == ATTACKER[:4]
        world = materialize(spec, 7)
        (kind, mitm), = world.attacks
        assert kind == "mitm"
        assert mitm.links == ["client-edge--eu-central"]
        assert attacker_servers(spec, world.directory) == [
            IPAddress(a) for a in ATTACKER]

    def test_corrupted_provider_substitutes_attacker_servers(self):
        world = materialize(get_spec_preset("e7-timeshift")(), 7)
        pool = world.generate_pool_sync()
        first = pool.answers[0]
        assert set(first.addresses) <= {IPAddress(a) for a in ATTACKER[:4]}
        assert not set(pool.answers[1].addresses) & {
            IPAddress(a) for a in ATTACKER}


class TestClientSpec:
    def test_round_trips_and_sweeps_by_path(self):
        spec = set_path(replace(pool_spec(), client=ClientSpec()),
                        "client.sync", "chronos")
        assert spec.client == ClientSpec(sync="chronos")
        assert get_path(spec, "client.acquire") == "algorithm1"
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["client"] == {
            "acquire": "algorithm1", "sync": "chronos", "clock_offset": 0.0}

    def test_omitted_from_json_when_absent(self):
        assert "client" not in pool_spec().to_dict()
        assert ScenarioSpec.from_json(pool_spec().to_json()).client is None

    @pytest.mark.parametrize("fields", [{"acquire": "doh"},
                                        {"sync": "ntp"}])
    def test_unknown_modes_rejected(self, fields):
        with pytest.raises(ConfigurationError, match="client"):
            ClientSpec(**fields)

    def test_population_spec_has_no_client(self):
        with pytest.raises(ConfigurationError, match="client"):
            replace(population_spec(), client=ClientSpec())

    def test_syncing_client_gets_the_pools_ntp_servers(self):
        spec = replace(get_spec_preset("e7-timeshift")(),
                       client=ClientSpec(sync="sntp-mean"))
        world = materialize(spec, 7)
        for address in world.directory.benign:
            assert not world.ntp_fleet.server_for(address).is_malicious
        for address in attacker_servers(spec, world.directory):
            assert world.ntp_fleet.server_for(address).is_malicious

    @pytest.mark.parametrize("preset", ["figure1", "e7-timeshift"])
    def test_ntp_servers_stay_off_access_edges(self, preset):
        """A server on ``client-edge`` would answer without its traffic
        crossing the client's access link."""
        spec = replace(get_spec_preset(preset)(),
                       client=ClientSpec(sync="chronos"))
        world = materialize(spec, 1)
        nodes = {server.host.node
                 for server in world.ntp_fleet.servers.values()}
        assert nodes and not any(node.endswith("-edge") for node in nodes)

    def test_no_ntp_servers_without_sync(self):
        spec = replace(pool_spec(), client=ClientSpec(acquire="plain-dns"))
        assert materialize(spec, 7).ntp_fleet is None
        assert materialize(pool_spec(), 7).ntp_fleet is None


class TestPresetRegistry:
    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(UnknownPresetError) as excinfo:
            get_spec_preset("figure2")
        assert "figure1" in str(excinfo.value)
        assert excinfo.value.known == sorted(SPEC_PRESETS)
        # Still a ValueError, as the campaign layer expects.
        assert isinstance(excinfo.value, ValueError)


class TestResolverModes:
    def test_forwarding_to_dict_is_byte_stable(self):
        # The pre-hierarchy wire format: forwarding specs must not grow
        # new keys, or cached spec JSON and goldens would shift.
        data = ResolverSpec().to_dict()
        assert "mode" not in data
        assert "hierarchy" not in data

    def test_iterative_spec_round_trips(self):
        spec = hierarchy_spec(pool_size=10)
        assert spec.provider.resolver.mode == "iterative"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_custom_hierarchy_round_trips(self):
        resolver = ResolverSpec(
            mode="iterative",
            hierarchy=HierarchySpec(ns_count=3, glue=False))
        assert ResolverSpec.from_dict(resolver.to_dict()) == resolver

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ResolverSpec(mode="recursive-available")
        assert RESOLVER_MODES == ("forwarding", "iterative")

    def test_hierarchy_requires_iterative_mode(self):
        with pytest.raises(ConfigurationError):
            ResolverSpec(mode="forwarding", hierarchy=HierarchySpec())


class TestAttackPseudoPaths:
    def test_get_and_set_attack_params(self):
        spec = hierarchy_population_spec(spray_rate=2.0)
        assert get_path(spec, "attacks[0].rate") == 2.0
        faster = set_path(spec, "attacks[0].rate", 16.0)
        assert get_path(faster, "attacks[0].rate") == 16.0
        assert get_path(spec, "attacks[0].rate") == 2.0  # original intact

    def test_attack_kind_is_addressable(self):
        spec = hierarchy_population_spec()
        assert get_path(spec, "attacks[0].kind") == "offpath"

    def test_unknown_attack_param_raises(self):
        spec = hierarchy_population_spec()
        with pytest.raises(ConfigurationError):
            get_path(spec, "attacks[0].warp_factor")

    def test_attack_index_out_of_range(self):
        spec = hierarchy_population_spec()
        with pytest.raises(ConfigurationError):
            set_path(spec, "attacks[3].rate", 1.0)


class TestSpecPresetRegistry:
    def test_known_spec_presets(self):
        assert set(SPEC_PRESETS) == {
            "figure1", "large-scale", "lossy-network", "degraded-network",
            "e2-grid-base", "hierarchy", "hierarchy-population",
            "e7-timeshift", "custom"}

    def test_spec_presets_return_specs(self):
        for preset_name in ("e2-grid-base", "hierarchy",
                            "hierarchy-population", "e7-timeshift"):
            spec = get_spec_preset(preset_name)()
            assert isinstance(spec, ScenarioSpec)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_e2_grid_base_has_sweepable_nodes(self):
        spec = e2_grid_base_spec()
        # The grid axes bench_e2 sweeps must all have concrete nodes.
        assert get_path(spec, "network.access.latency") > 0
        assert get_path(spec, "provider.count") == 3

    def test_unknown_spec_preset_lists_names(self):
        with pytest.raises(UnknownPresetError) as excinfo:
            get_spec_preset("hierarchyy")
        assert "hierarchy" in str(excinfo.value)
