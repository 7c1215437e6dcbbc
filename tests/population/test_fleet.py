"""The client fleet: batching, population semantics, reproducibility."""

import gc
import random

import pytest

from repro.netsim.simulator import SimulationError, Simulator
from repro.population import BatchDispatcher, FleetConfig
from repro.scenarios import materialize, population_spec
from repro.util.rng import make_rng


class TestBatchDispatcher:
    def test_coalesces_wakeups_into_bins(self):
        simulator = Simulator()
        dispatcher = BatchDispatcher(simulator, quantum=0.1)
        fired = []
        for index in range(10):
            # All fall inside the same 100 ms bin.
            dispatcher.call_after(0.01 + index * 0.005,
                                  lambda i=index: fired.append(i))
        simulator.run()
        assert fired == list(range(10))       # registration order
        assert dispatcher.batches == 1        # one simulator event
        assert dispatcher.dispatched == 10

    def test_distinct_bins_fire_in_time_order(self):
        simulator = Simulator()
        dispatcher = BatchDispatcher(simulator, quantum=0.1)
        fired = []
        dispatcher.call_after(0.35, lambda: fired.append("late"))
        dispatcher.call_after(0.05, lambda: fired.append("early"))
        simulator.run()
        assert fired == ["early", "late"]
        assert dispatcher.batches == 2

    def test_never_schedules_in_the_past(self):
        simulator = Simulator()
        simulator.schedule_at(0.15, lambda: None)
        simulator.run()
        dispatcher = BatchDispatcher(simulator, quantum=0.1)
        fired = []
        dispatcher.call_after(0.0, lambda: fired.append("now"))
        simulator.run()
        assert fired == ["now"]

    def test_validation(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            BatchDispatcher(simulator, quantum=0.0)
        with pytest.raises(ValueError):
            BatchDispatcher(simulator).call_after(-1.0, lambda: None)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(num_clients=0)
        with pytest.raises(ValueError):
            FleetConfig(rounds=0)
        with pytest.raises(ValueError):
            FleetConfig(churn_rate=1.5)
        with pytest.raises(ValueError):
            FleetConfig(resolve_every=0)


class TestPopulationSemantics:
    def test_honest_world_has_no_victims(self):
        scenario = materialize(population_spec(num_clients=20, rounds=2), 21)
        outcomes = scenario.run()
        assert outcomes.rounds == 40
        assert outcomes.availability == 1.0
        assert outcomes.victim_fraction == 0.0
        assert outcomes.syncs == outcomes.rounds_ok
        # Honest servers pull clients toward true time.
        assert outcomes.mean_abs_clock_error < 0.05

    def test_corrupted_fraction_drives_victim_fraction(self):
        fractions = []
        for corrupted in (0, 1, 2, 3):
            scenario = materialize(population_spec(num_clients=40, rounds=2,
                                                   corrupted=corrupted), 22)
            fractions.append(scenario.run().victim_fraction)
        assert fractions[0] == 0.0
        assert fractions == sorted(fractions)
        assert fractions[3] == 1.0
        # One of three corrupted providers owns ~1/3 of every pool.
        assert 0.15 < fractions[1] < 0.55

    def test_victims_are_time_shifted(self):
        scenario = materialize(population_spec(num_clients=30, rounds=2,
                                               corrupted=3, lie_offset=10.0),
                               23)
        outcomes = scenario.run()
        assert outcomes.shifted_fraction == 1.0
        assert outcomes.mean_abs_clock_error > 5.0

    def test_empty_answer_dos_collapses_strict_availability(self):
        scenario = materialize(population_spec(num_clients=20, rounds=2,
                                               corrupted=1, behavior="empty"),
                               24)
        outcomes = scenario.run()
        assert outcomes.availability == 0.0
        assert outcomes.syncs == 0

    def test_quorum_extension_restores_liveness(self):
        scenario = materialize(population_spec(num_clients=20, rounds=2,
                                               corrupted=1, behavior="empty",
                                               min_answers=2), 24)
        outcomes = scenario.run()
        assert outcomes.availability == 1.0
        assert outcomes.victim_fraction == 0.0

    def test_resolve_every_caches_pools_between_rounds(self):
        dense = materialize(population_spec(num_clients=10, rounds=4), 25)
        sparse = materialize(population_spec(num_clients=10, rounds=4,
                                             resolve_every=4), 25)
        dense_dns = dense.run().rounds  # drain both worlds first
        sparse.run()
        dense_queries = dense.telemetry.value("dns.stub.queries")
        sparse_queries = sparse.telemetry.value("dns.stub.queries")
        assert dense_dns == 40
        assert sparse_queries < dense_queries
        assert sparse_queries == 10 * 3  # one fan-out per client

    def test_ntp_servers_stay_off_population_access_edges(self):
        # A pool server co-located on a pop access edge would let its
        # clients sync without crossing the faulted access link.
        scenario = materialize(population_spec(num_clients=10, rounds=1,
                                               loss_rate=0.1), 35)
        for host in scenario.internet.hosts:
            if host.name.startswith("ntp-"):
                assert not host.node.startswith("pop-edge-")
            if host.name.startswith("pop-"):
                assert host.node.startswith("pop-edge-")

    def test_fault_axes_degrade_the_whole_population(self):
        # Every fleet client attaches behind a faulted access edge, so
        # heavy loss must starve the population broadly — not just the
        # slice that happens to share the Figure 1 client's edge.
        clean = materialize(population_spec(num_clients=20, rounds=2), 32)
        lossy = materialize(population_spec(num_clients=20, rounds=2,
                                            loss_rate=0.9), 32)
        assert clean.run().availability == 1.0
        assert lossy.run().availability < 0.5

    def test_victims_require_a_completed_sync(self):
        # Near-total loss: picks of attacker servers whose SNTP
        # exchange times out must not count as victims.
        scenario = materialize(population_spec(num_clients=20, rounds=2,
                                               corrupted=3, loss_rate=0.97),
                               33)
        outcomes = scenario.run()
        assert outcomes.victim_rounds == outcomes.syncs  # all providers lie
        assert outcomes.victim_rounds < outcomes.rounds_ok or \
            outcomes.rounds_ok == 0

    def test_population_curves_are_time_binned(self):
        scenario = materialize(population_spec(num_clients=30, rounds=3,
                                               corrupted=1, time_bin=10.0), 26)
        outcomes = scenario.run()
        assert len(outcomes.victim_curve) >= 2
        times = [when for when, _ in outcomes.victim_curve]
        assert times == sorted(times)
        for _, fraction in outcomes.victim_curve:
            assert 0.0 <= fraction <= 1.0


class TestChurnAndReproducibility:
    def test_churn_leaves_and_rejoins(self):
        scenario = materialize(population_spec(num_clients=30, rounds=4,
                                               churn_rate=0.5), 27)
        outcomes = scenario.run()
        assert outcomes.churn_leaves > 0
        assert outcomes.churn_joins == outcomes.churn_leaves
        # Every client still completes its round budget.
        assert outcomes.rounds == 30 * 4

    def test_churn_is_reproducible_under_fixed_seed(self):
        snapshots = []
        for _ in range(2):
            scenario = materialize(population_spec(num_clients=25, rounds=3,
                                                   churn_rate=0.4,
                                                   arrival="poisson",
                                                   corrupted=1), 28)
            scenario.run()
            snapshots.append(scenario.telemetry.snapshot_json())
        assert snapshots[0] == snapshots[1]

    def test_different_seeds_diverge(self):
        snapshots = []
        for seed in (29, 30):
            scenario = materialize(population_spec(num_clients=25, rounds=3,
                                                   churn_rate=0.4,
                                                   arrival="poisson"), seed)
            scenario.run()
            snapshots.append(scenario.telemetry.snapshot_json())
        assert snapshots[0] != snapshots[1]

    def test_fleet_uses_batched_dispatch(self):
        # Dense fleet: client phases 20 ms apart against a 50 ms
        # dispatch quantum, so wake-ups must share bins.
        scenario = materialize(population_spec(num_clients=100, rounds=2,
                                               mean_interval=2.0), 31)
        scenario.run()
        dispatcher = scenario.fleet.dispatcher
        assert dispatcher.dispatched >= 200
        # Strictly fewer simulator events than wake-ups proves rounds
        # actually coalesced into shared bins.
        assert dispatcher.batches < dispatcher.dispatched


def _live_randoms() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is random.Random)


class TestClientStreams:
    """A client holds generators only for the streams its run draws."""

    def test_forwarding_fleet_holds_at_most_five_generators_per_client(self):
        # Periodic arrivals, no churn: a client draws ports, three
        # txid streams and select. The clock offset's one draw leaves
        # nothing behind; arrival, churn and NTP's transport own none.
        spec = population_spec(num_clients=50, rounds=1)
        materialize(spec, 5)                      # warm import-time state
        before = _live_randoms()
        small = materialize(spec, 5)
        middle = _live_randoms()
        large = materialize(population_spec(num_clients=100, rounds=1), 5)
        after = _live_randoms()
        per_client = ((after - middle) - (middle - before)) / 50
        assert per_client <= 5
        assert small.fleet.clients == 50 and large.fleet.clients == 100

    def test_clock_offset_is_the_client_streams_first_draw(self):
        scenario = materialize(population_spec(num_clients=5, rounds=1), 11)
        for client in scenario.fleet._clients:
            expected = make_rng(11, "population", str(client.index),
                                "client").uniform(-0.050, 0.050)
            assert client.clock.error() == expected

    def test_poisson_and_churn_draw_their_named_streams(self):
        seed = 12
        scenario = materialize(population_spec(
            num_clients=6, rounds=2, arrival="poisson", churn_rate=0.3), seed)
        for client in scenario.fleet._clients:
            tag = str(client.index)
            arrival = make_rng(seed, "population", tag, "arrival")
            churn = make_rng(seed, "population", tag, "churn")
            assert [client.rng.arrivals.next_delay() for _ in range(3)] == [
                arrival.expovariate(1 / 16.0) for _ in range(3)]
            assert [client.rng.churn.random() for _ in range(3)] == [
                churn.random() for _ in range(3)]


class TestEventCap:
    def test_run_cut_short_by_max_events_raises(self):
        # A cap that stops the run with events still queued would leave
        # most rounds unplayed; the outcomes must not pass for complete.
        scenario = materialize(population_spec(num_clients=20, rounds=2), 21)
        with pytest.raises(SimulationError,
                           match=r"max_events=50 with \d+ events still pending"):
            scenario.run(max_events=50)


class TestBuilderValidation:
    def test_corrupted_bounds(self):
        with pytest.raises(ValueError):
            materialize(population_spec(corrupted=4, num_providers=3), 1)

    def test_unknown_behavior(self):
        with pytest.raises(ValueError):
            materialize(population_spec(corrupted=1, behavior="explode"), 1)

    def test_min_answers_bounds(self):
        with pytest.raises(ValueError):
            materialize(population_spec(min_answers=0), 1)
        with pytest.raises(ValueError):
            materialize(population_spec(min_answers=4, num_providers=3), 1)
        with pytest.raises(ValueError):
            FleetConfig(min_answers=0)

    def test_spec_trial_rejects_non_grid_parameters(self):
        # The seed is campaign-derived and the registry is per-trial, so
        # neither is a spec path a population grid may carry.
        from repro.campaign import spec_trial
        from repro.telemetry import MetricsRegistry

        spec = population_spec(num_clients=5)
        with pytest.raises(ValueError, match="registry"):
            spec_trial({"spec": spec, "registry": MetricsRegistry()}, seed=1)
        with pytest.raises(ValueError, match="seed"):
            spec_trial({"spec": spec, "seed": 3}, seed=1)
