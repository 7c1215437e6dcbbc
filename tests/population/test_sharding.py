"""Sharded megafleet determinism: windows, the pure round loop, and
the fold contracts.

Deliberately hypothesis-free: the CI bench-smoke job (which has no
hypothesis installed) runs the serial==sharded byte-equality checks
from here directly.
"""

import random

import pytest

from repro.netsim.address import IPAddress
from repro.netsim.simulator import SimulationError
from repro.population.arrivals import make_arrivals
from repro.population.fleet import (
    ANSWERS_COMPLETE,
    ROUND_BEGIN,
    SYNC_COMPLETE,
    ClientRoundState,
    RoundRng,
    advance_round,
)
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
)


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
# The pure round loop.
# ----------------------------------------------------------------------

def _rng(seed=1):
    return RoundRng(select=random.Random(seed),
                    churn=random.Random(seed + 1),
                    arrivals=make_arrivals("periodic", 16.0, 0, 1,
                                           rng=random.Random(seed + 2)))


POOL = [IPAddress("172.16.0.1"), IPAddress("172.16.0.2")]


class TestAdvanceRound:
    def test_first_round_resolves(self):
        step = advance_round(FleetSpec(), ClientRoundState(), _rng(),
                             ROUND_BEGIN)
        assert step.action == "resolve"

    def test_cached_pool_reused_between_resolves(self):
        config = FleetSpec(rounds=4, resolve_every=2)
        state = ClientRoundState(pool=list(POOL), rounds_done=1)
        step = advance_round(config, state, _rng(), ROUND_BEGIN)
        assert step.action == "sync"
        assert step.pick in POOL

    def test_resolve_cadence_forces_requery(self):
        config = FleetSpec(rounds=4, resolve_every=2)
        state = ClientRoundState(pool=list(POOL), rounds_done=2)
        step = advance_round(config, state, _rng(), ROUND_BEGIN)
        assert step.action == "resolve"

    def test_answers_combine_to_sync(self):
        config = FleetSpec(rounds=3)
        state = ClientRoundState()
        answers = {0: list(POOL), 1: list(POOL), 2: list(POOL)}
        step = advance_round(config, state, _rng(), ANSWERS_COMPLETE,
                             answers=answers)
        assert step.action == "sync"
        assert state.pool == step.pool
        assert set(step.pool) == set(POOL)
        assert step.pick in step.pool

    def test_empty_combine_fails_round_and_reschedules(self):
        config = FleetSpec(rounds=3)
        state = ClientRoundState(pool=list(POOL))
        step = advance_round(config, state, _rng(), ANSWERS_COMPLETE,
                             answers={0: None, 1: list(POOL), 2: list(POOL)})
        assert step.action == "reschedule"
        assert step.failed
        assert state.pool is None          # strict combine drops the cache
        assert state.rounds_done == 1

    def test_sync_against_attacker_is_victim(self):
        config = FleetSpec(rounds=2)
        state = ClientRoundState(pool=list(POOL), rounds_done=0)
        step = advance_round(config, state, _rng(), SYNC_COMPLETE,
                             synced=True, attacker=True, clock_error=9.5)
        assert step.synced and step.victim and step.shifted
        assert step.clock_error == 9.5

    def test_timeout_is_not_a_victim(self):
        config = FleetSpec(rounds=2)
        state = ClientRoundState(pool=list(POOL))
        step = advance_round(config, state, _rng(), SYNC_COMPLETE,
                             synced=False, attacker=True, clock_error=9.5)
        assert step.timed_out and not step.synced and not step.victim
        assert step.clock_error == 0.0

    def test_final_round_stops(self):
        config = FleetSpec(rounds=1)
        state = ClientRoundState(pool=list(POOL))
        step = advance_round(config, state, _rng(), SYNC_COMPLETE,
                             synced=True)
        assert step.action == "stop"

    def test_churn_leaves_and_drops_pool(self):
        config = FleetSpec(rounds=5, churn_rate=1.0, rejoin_delay=30.0)
        state = ClientRoundState(pool=list(POOL))
        step = advance_round(config, state, _rng(), SYNC_COMPLETE,
                             synced=True)
        assert step.action == "leave"
        assert step.delay == 30.0
        assert state.pool is None

    def test_identical_streams_replay_identically(self):
        config = FleetSpec(rounds=6, churn_rate=0.3)
        runs = []
        for _ in range(2):
            state = ClientRoundState(pool=list(POOL))
            rng = _rng(99)
            steps = [advance_round(config, state, rng, SYNC_COMPLETE,
                                   synced=True)
                     for _ in range(4)]
            runs.append([(s.action, s.delay) for s in steps])
        assert runs[0] == runs[1]

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            advance_round(FleetSpec(), ClientRoundState(), _rng(),
                          "no-such-phase")


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
