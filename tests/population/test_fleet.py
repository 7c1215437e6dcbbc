"""The client fleet: batching, population semantics, reproducibility."""

import gc
import json
import os
import random
import subprocess
import sys
import weakref

import pytest

from repro.core.errors import ConfigurationError
from repro.netsim.simulator import SimulationError, Simulator
from repro.netsim.transport import retry_policy
from repro.population import BatchDispatcher
from repro.population import fleet as fleet_module
from repro.population.fleet import MAX_CLIENTS, ClientFleet
from repro.scenarios import materialize, population_spec, set_path
from repro.scenarios.spec import FleetSpec
from repro.util.rng import (
    ParkedStream,
    StreamClosedError,
    derive_seed,
    make_rng,
)


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


class TestFleetSpecValidation:
    def test_validation(self):
        for bad in ({"size": 0}, {"size": MAX_CLIENTS + 1}, {"rounds": 0},
                    {"churn_rate": 1.5}, {"resolve_every": 0}):
            with pytest.raises(ConfigurationError):
                FleetSpec(**bad)
        assert FleetSpec(size=MAX_CLIENTS).size == MAX_CLIENTS

    def test_rejects_negative_rejoin_delay(self):
        # Accepting it built a world whose first churned client made
        # run() fail at virtual t=0.71 s, in BatchDispatcher.call_after.
        with pytest.raises(ConfigurationError, match="rejoin_delay"):
            population_spec(num_clients=5, rounds=3, rejoin_delay=-10.0,
                            churn_rate=1.0)
        assert population_spec(rejoin_delay=0.0).fleet.rejoin_delay == 0.0

    @pytest.mark.parametrize("interval", [0.0, -16.0])
    def test_rejects_non_positive_mean_interval(self, interval):
        # Caught at construction, not first at materialize.
        with pytest.raises(ConfigurationError, match="mean_interval"):
            population_spec(mean_interval=interval)


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
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, random.Random))


class _RecordedStream:
    """A fleet stream that logs every draw the fleet makes from it."""

    def __init__(self, stream, log: list) -> None:
        self._stream = stream
        self._log = log

    @property
    def words(self):
        return self._stream.words

    def close(self) -> None:
        self._stream.close()

    def __getattr__(self, method):
        draw = getattr(self._stream, method)

        def recorded(*args):
            value = draw(*args)
            self._log.append((method, args, value))
            return value
        return recorded


class TestClientStreams:
    """A client holds generators only while it is in a round."""

    def test_fleet_holds_no_generators_between_rounds(self):
        # Between rounds a client's streams are seeds and word counts
        # in its row: after materialize no client holds a generator
        # (the clock offset's one draw leaves nothing behind), and
        # after a drained run each client's row marks its streams
        # closed.
        spec = population_spec(num_clients=50, rounds=2)
        materialize(spec, 5)                      # warm import-time state
        before = _live_randoms()
        small = materialize(spec, 5)
        middle = _live_randoms()
        large = materialize(population_spec(num_clients=100, rounds=2), 5)
        after = _live_randoms()
        assert (after - middle) - (middle - before) == 0
        small.run()
        large.run()
        assert _live_randoms() - after == 0
        assert small.fleet.clients == 50 and large.fleet.clients == 100
        for row in (0, 99):
            client = large.fleet._open_round(row)
            with pytest.raises(StreamClosedError):
                client.rng.select.random()
            for stream in client.streams:
                with pytest.raises(StreamClosedError):
                    stream.getrandbits(32)

    def test_churn_and_poisson_fleet_draws_the_make_rng_sequences(
            self, monkeypatch):
        # Every round rebuilds its streams from the row's seeds and word
        # counts (leave -> rejoin too), and Poisson arrivals draw the
        # first delay from a stream rebuilt the same way; each named
        # stream must still draw what one long-lived make_rng generator
        # over the same name draws.
        seed, clients = 13, 20
        names = [("ports",), ("txid", "0"), ("txid", "1"), ("txid", "2"),
                 ("arrival",), ("select",), ("churn",)]
        paths = {derive_seed(seed, "population", str(g), *name):
                 ("population", str(g), *name)
                 for g in range(clients) for name in names}
        logs = {}

        def recording(stream_seed, words=0):
            log = logs.setdefault(paths[stream_seed], [])
            if words:
                log.append(("resume", (words,), None))
            return _RecordedStream(ParkedStream(stream_seed, words), log)

        monkeypatch.setattr(fleet_module, "ParkedStream", recording)
        scenario = materialize(population_spec(
            num_clients=clients, rounds=4, arrival="poisson",
            churn_rate=0.5, resolve_every=2, corrupted=1), seed)
        outcomes = scenario.run()
        assert outcomes.churn_leaves > 0 and outcomes.churn_joins > 0
        assert {path[2:] for path in logs} == set(names)
        rebuilt = 0
        for path, log in logs.items():
            replay = make_rng(seed, *path)
            resumed_since_draw = False
            for method, args, value in log:
                if method == "resume":
                    resumed_since_draw = True
                    continue
                rebuilt += resumed_since_draw
                resumed_since_draw = False
                assert getattr(replay, method)(*args) == value, path
        # Plenty of draws came from a generator rebuilt from a row's
        # word count.
        assert rebuilt > 100

    def test_clock_offset_is_the_client_streams_first_draw(self):
        scenario = materialize(population_spec(num_clients=5, rounds=1), 11)
        fleet = scenario.fleet
        for row in range(fleet.clients):
            client = fleet._open_round(row)
            expected = make_rng(11, "population", str(client.index),
                                "client").uniform(-0.050, 0.050)
            assert client.clock.error() == expected

    def test_poisson_and_churn_draw_their_named_streams(self):
        seed = 12
        scenario = materialize(population_spec(
            num_clients=6, rounds=2, arrival="poisson", churn_rate=0.3), seed)
        fleet = scenario.fleet
        for row in range(fleet.clients):
            client = fleet._open_round(row)
            tag = str(client.index)
            arrival = make_rng(seed, "population", tag, "arrival")
            churn = make_rng(seed, "population", tag, "churn")
            assert [client.rng.arrivals.next_delay() for _ in range(3)] == [
                arrival.expovariate(1 / 16.0) for _ in range(3)]
            assert [client.rng.churn.random() for _ in range(3)] == [
                churn.random() for _ in range(3)]


class TestFleetFootprint:
    """A fleet world holds only what its traffic uses."""

    def test_udp_fleet_in_front_of_doh_providers_never_loads_cryptography(
            self):
        # provider.serve="doh" is the default: the providers run DoH
        # front ends, but a UDP fleet never opens a TLS connection, so
        # no provider mints its key pair and OpenSSL stays unloaded.
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys\n"
            "from repro.campaign import ParameterGrid, spec_trial\n"
            "from repro.scenarios.spec import materialize, population_spec\n"
            "spec = population_spec(num_clients=30, rounds=1, corrupted=1)\n"
            "assert spec.provider.serve == 'doh'\n"
            "assert spec.fleet.transport == 'udp'\n"
            "outcomes = materialize(spec, 42).run()\n"
            "assert outcomes.rounds == 30, outcomes\n"
            "grid = ParameterGrid.over_spec(\n"
            "    population_spec(num_clients=8, rounds=2),\n"
            "    {'provider.corrupted': (1,)})\n"
            "(point,) = grid.points()\n"
            "metrics, _ = spec_trial(point.params, 7)\n"
            "assert metrics['availability'] > 0, metrics\n"
            "loaded = sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'cryptography')\n"
            "assert not loaded, loaded\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_at_most_10_gc_tracked_objects_per_client(self):
        # Between rounds a client is its host (with its address list,
        # address and one transport) plus a row of the fleet's columns;
        # 20.3 objects per client when each held its clock, SNTP
        # client, round state and parked streams, and 40.3 when each
        # stub owned its own endpoints and policies.
        spec = population_spec(num_clients=300, rounds=1, corrupted=1)
        materialize(population_spec(num_clients=5, rounds=1), 1)  # warm
        gc.collect()
        before = len(gc.get_objects())
        world = materialize(spec, 42)
        gc.collect()
        per_client = (len(gc.get_objects()) - before) / world.fleet.clients
        assert per_client <= 10, per_client

    def test_clients_share_provider_endpoints_and_one_transport(self):
        world = materialize(population_spec(num_clients=4, rounds=1), 3)
        fleet = world.fleet
        addresses = [d.address for d in world.pool.providers]
        # One endpoint per provider, over the provider host's own
        # address object.
        assert [e.address for e in fleet._servers] == addresses
        assert all(e.address is a
                   for e, a in zip(fleet._servers, addresses))
        for row in range(fleet.clients):
            client = fleet._open_round(row)
            assert client.transport is client.host.transport(
                world.pool.simulator)
            assert client.ntp._transport is client.transport
            assert client.ntp._policy is retry_policy(1.0)
        assert fleet._stub_policy is retry_policy(3.0, 1)


class TestClientRows:
    """Between rounds a client is its host plus one row of columns."""

    def test_hosts_stay_registered_between_rounds(self):
        # Duplicated replies reach clients after their round concluded:
        # each must find the client's host and drop for want of a
        # socket, never for want of a host (695 such drops at seed 3).
        spec = set_path(population_spec(num_clients=200, rounds=3),
                        "network.fault.duplicate_rate", 0.3)
        world = materialize(spec, 3)
        world.run()
        counters = json.loads(world.telemetry.snapshot_json())["counter"]
        drops = {key: value for key, value in counters.items()
                 if key.startswith("net.drops")}
        assert "net.drops{reason=no-host}" not in drops
        assert drops == {"net.drops{reason=no-socket}":
                         counters["net.datagrams_dropped"]}
        assert counters["net.datagrams_dropped"] > 0

    def test_round_objects_die_when_the_round_concludes(self, monkeypatch):
        # With the collector off, a round's clock and SNTP client are
        # freed by refcount once the round folds back into its row:
        # nothing a wake-up or a finished exchange keeps pins them.
        refs = []
        open_round = ClientFleet._open_round

        def recording(fleet, row):
            client = open_round(fleet, row)
            refs.extend([weakref.ref(client.clock), weakref.ref(client.ntp)])
            return client

        monkeypatch.setattr(ClientFleet, "_open_round", recording)
        world = materialize(population_spec(
            num_clients=30, rounds=3, churn_rate=0.3, corrupted=1), 4)
        enabled = gc.isenabled()
        gc.disable()
        try:
            world.run()
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            if enabled:
                gc.enable()
        assert len(refs) == 2 * 30 * 3
        assert alive == []


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
            FleetSpec(min_answers=0)

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
