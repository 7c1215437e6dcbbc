"""Sharded megafleet determinism: windows and the fold contracts.

Deliberately hypothesis-free: the CI bench-smoke job (which has no
hypothesis installed) runs the serial==sharded byte-equality checks
from here directly.
"""

import pytest

from repro.netsim.simulator import SimulationError
from repro.population.sharding import (
    ShardedFleet,
    invariant_snapshot_json,
    plan_shards,
    population_invariant,
    shard_invariant_spec,
)
from repro.scenarios.spec import (
    FleetSpec,
    LinkSpec,
    NetworkSpec,
    ScenarioSpec,
    materialize,
    population_spec,
    set_path,
)
from repro.telemetry.trace import Tracer, use_tracer


# ----------------------------------------------------------------------
# plan_shards.
# ----------------------------------------------------------------------

class TestPlanShards:
    def test_even_split(self):
        plans = plan_shards(100, 4)
        assert [p.size for p in plans] == [25, 25, 25, 25]
        assert [p.first_index for p in plans] == [0, 25, 50, 75]

    def test_remainder_spreads_over_first_shards(self):
        plans = plan_shards(10, 3)
        assert [p.size for p in plans] == [4, 3, 3]
        assert [p.first_index for p in plans] == [0, 4, 7]

    def test_windows_are_contiguous_and_cover(self):
        for population, shards in [(1, 1), (7, 2), (97, 8), (1000, 13)]:
            plans = plan_shards(population, shards)
            covered = []
            for plan in plans:
                covered.extend(range(plan.first_index,
                                     plan.first_index + plan.size))
            assert covered == list(range(population))

    def test_shards_capped_at_population(self):
        plans = plan_shards(3, 8)
        assert len(plans) == 3
        assert all(p.size == 1 for p in plans)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(10, 0)


# ----------------------------------------------------------------------
# Spec surface.
# ----------------------------------------------------------------------

class TestSpecSurface:
    def test_fleet_spec_shards_round_trips(self):
        spec = population_spec(num_clients=10, shards=4)
        assert spec.fleet.shards == 4
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec

    def test_backbone_override_round_trips(self):
        spec = ScenarioSpec(
            network=NetworkSpec(backbone=LinkSpec(latency=0.02, jitter=0.0)),
            fleet=FleetSpec(size=4))
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.network.backbone.jitter == 0.0

    def test_shards_must_be_positive(self):
        with pytest.raises(Exception):
            FleetSpec(shards=0)

    def test_materialize_routes_shards_to_sharded_fleet(self):
        world = materialize(population_spec(num_clients=8, shards=2), 5)
        assert isinstance(world, ShardedFleet)
        assert world.shards == 2
        assert world.clients == 8

    def test_shards_one_stays_on_legacy_path(self):
        world = materialize(population_spec(num_clients=8, shards=1), 5)
        assert not isinstance(world, ShardedFleet)

    def test_shard_cut_short_by_max_events_raises(self):
        # The executor turns the shard's SimulationError into a record
        # error; the fleet must surface it, not fold the other shards.
        world = materialize(population_spec(num_clients=20, shards=2), 5)
        world.executor = "serial"
        with pytest.raises(SimulationError,
                           match=r"shard 0 failed: .*max_events=50"):
            world.run(max_events=50)


# ----------------------------------------------------------------------
# Window identity.
# ----------------------------------------------------------------------

class TestWindowValidation:
    def test_window_must_fit_population(self):
        from repro.scenarios.spec import _materialize_population
        with pytest.raises(ValueError):
            _materialize_population(
                population_spec(num_clients=4), 3, None,
                window=(8, 4, 8))   # window [8, 12) beyond population 8

    def test_shard_worlds_host_only_their_window(self):
        from repro.scenarios.spec import _materialize_population
        world = _materialize_population(
            population_spec(num_clients=4), 3, None, window=(2, 2, 6))
        fleet = world.fleet
        assert fleet.clients == 2
        assert fleet.first_index == 2
        assert fleet.population == 6
        # Hosts carry global identities.
        names = {host.name for host in world.internet.hosts
                 if host.name.startswith("pop-")}
        assert names == {"pop-2", "pop-3"}


# ----------------------------------------------------------------------
# Round replay.
# ----------------------------------------------------------------------

def _client_rounds(spec, seed):
    """Every ``client.round`` span's client, times and attributes."""
    tracer = Tracer()
    with use_tracer(tracer):
        materialize(spec, seed).run()
    return sorted((span["attrs"]["client"], span["attrs"]["round"],
                   span["start"], span["end"], sorted(span["attrs"].items()))
                  for span in tracer.snapshot()["spans"]
                  if span["name"] == "client.round")


class TestAdvanceRound:
    """The fleet advances each client's rounds from its own named
    streams: the same seed replays every round, another diverges."""

    def test_identical_streams_replay_identically(self):
        spec = population_spec(num_clients=10, rounds=4, arrival="poisson",
                               churn_rate=0.4, resolve_every=2, corrupted=1)
        runs = [_client_rounds(spec, seed) for seed in (49, 49, 50)]
        assert len(runs[0]) == 40
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]


# ----------------------------------------------------------------------
# Determinism contracts.
# ----------------------------------------------------------------------

SEEDS = (101, 202)


class TestShardDeterminism:
    def test_single_shard_fold_matches_legacy_world_byte_for_byte(self):
        # K=1 through the sharded engine is the legacy world plus one
        # snapshot round trip: the *full* snapshot must survive it.
        for seed in SEEDS:
            legacy = materialize(population_spec(num_clients=16, rounds=2,
                                                 corrupted=1), seed)
            legacy.run()
            sharded = ShardedFleet(
                population_spec(num_clients=16, rounds=2, corrupted=1),
                seed, shards=1)
            sharded.executor = "serial"
            sharded.run()
            assert (sharded.telemetry.snapshot_json()
                    == legacy.telemetry.snapshot_json())

    def test_execution_mode_cannot_change_the_fold(self):
        # Same K, different executors: full-snapshot byte equality.
        spec = population_spec(num_clients=16, rounds=2, corrupted=1)
        for seed in SEEDS:
            folds = {}
            for mode in ("serial", "processes"):
                fleet = ShardedFleet(spec, seed, shards=4, workers=4)
                fleet.executor = mode
                fleet.run()
                folds[mode] = fleet.telemetry.snapshot_json()
            assert folds["serial"] == folds["processes"]

    def test_serial_vs_sharded_invariant_subset_byte_identical(self):
        # K=1 vs K=4 on the shard-invariant spec: the population's
        # integer-exact telemetry folds to the same bytes.
        for seed in SEEDS:
            reference = materialize(shard_invariant_spec(32, shards=1), seed)
            reference.run()
            expected = invariant_snapshot_json(reference.telemetry)

            sharded = materialize(shard_invariant_spec(32, shards=4), seed)
            outcomes = sharded.run()
            assert sharded.invariant_snapshot_json() == expected
            assert outcomes.rounds == reference.outcomes().rounds

    def test_truncation_policy_reaches_every_shard(self):
        # One inflating provider, no truncation: the policy must reach
        # each shard's rounds, or the K=4 fold would read the default
        # SHORTEST population instead of the K=1 one.
        def inflated(truncation, shards):
            spec = set_path(shard_invariant_spec(32, shards=shards),
                            "provider.behavior", "inflate")
            return set_path(spec, "pool.truncation", truncation)

        for seed in SEEDS:
            reference = materialize(inflated("none", 1), seed)
            reference_outcomes = reference.run()
            expected = invariant_snapshot_json(reference.telemetry)

            sharded = materialize(inflated("none", 4), seed)
            sharded.run()
            assert sharded.invariant_snapshot_json() == expected

            shortest = materialize(inflated("shortest", 4), seed)
            assert (shortest.run().victim_fraction
                    < reference_outcomes.victim_fraction)

    def test_outcomes_agree_with_legacy_on_invariant_spec(self):
        seed = 404
        reference = materialize(shard_invariant_spec(24, shards=1), seed)
        ref_outcomes = reference.run()
        sharded = materialize(shard_invariant_spec(24, shards=3), seed)
        outcomes = sharded.run()
        assert outcomes.victim_fraction == ref_outcomes.victim_fraction
        assert outcomes.availability == ref_outcomes.availability
        assert outcomes.syncs == ref_outcomes.syncs

    def test_invariant_predicate_shape(self):
        assert population_invariant("counter", "pop.rounds", {})
        assert population_invariant("timeseries", "pop.victim_fraction", {})
        assert not population_invariant("histogram", "pop.clock_abs_error",
                                        {})
        assert not population_invariant("counter", "net.datagrams_sent", {})
        assert not population_invariant("timeseries", "ntp.offset", {})
