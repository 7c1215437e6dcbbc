"""FaultModel semantics and determinism."""

import pytest

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.netsim.address import Endpoint, IPAddress, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import FaultModel, LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.scenarios.spec import pool_spec
from repro.telemetry.trace import Tracer, use_tracer
from repro.util.rng import RngRegistry


class TestFaultModelBasics:
    def test_inactive_by_default(self):
        assert not FaultModel().active
        assert FaultModel(loss_rate=0.1).active
        assert FaultModel(jitter_s=0.01).active
        assert FaultModel(reorder_window=0.05).active
        assert FaultModel(duplicate_rate=0.1).active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(jitter_s=-0.1)
        with pytest.raises(ValueError):
            FaultModel(reorder_rate=-0.2)

    def test_compose_independent_probabilities(self):
        combined = FaultModel(loss_rate=0.5, jitter_s=0.01).compose(
            FaultModel(loss_rate=0.5, jitter_s=0.02, duplicate_rate=0.1))
        assert combined.loss_rate == pytest.approx(0.75)
        assert combined.jitter_s == pytest.approx(0.03)
        assert combined.duplicate_rate == pytest.approx(0.1)

    def test_compose_with_defaults_is_identity(self):
        """An all-defaults model must not distort the other side's
        dependent knobs (reorder_rate, duplicate_gap_s)."""
        model = FaultModel(loss_rate=0.1, jitter_s=0.005,
                           reorder_window=0.05, reorder_rate=0.2,
                           duplicate_rate=0.3, duplicate_gap_s=0.001)
        for composed in (FaultModel().compose(model),
                         model.compose(FaultModel())):
            assert composed.loss_rate == pytest.approx(model.loss_rate)
            assert composed.jitter_s == pytest.approx(model.jitter_s)
            assert composed.reorder_window == model.reorder_window
            assert composed.reorder_rate == pytest.approx(0.2)
            assert composed.duplicate_rate == pytest.approx(0.3)
            assert composed.duplicate_gap_s == pytest.approx(0.001)

    def test_compose_ignores_inactive_reorder_rate(self):
        both = FaultModel(reorder_window=0.05, reorder_rate=0.2).compose(
            FaultModel(reorder_window=0.01, reorder_rate=0.5))
        assert both.reorder_rate == pytest.approx(1 - 0.8 * 0.5)

    def test_scaled_clamps(self):
        model = FaultModel(loss_rate=0.4, duplicate_rate=0.4)
        assert model.scaled(2.0).loss_rate == pytest.approx(0.8)
        assert model.scaled(10.0).loss_rate == 1.0

    def test_active_model_requires_rng(self):
        registry = RngRegistry(1)
        topology = Topology(registry)
        topology.add_link("a", "b", LinkProfile.lan())
        link = topology.link_between("a", "b")
        with pytest.raises(ValueError):
            link.install_fault(FaultModel(loss_rate=0.5))


def _two_host_world(seed: int, fault: FaultModel):
    registry = RngRegistry(seed)
    simulator = Simulator()
    topology = Topology(registry)
    topology.add_link("a", "b", LinkProfile(latency=0.01))
    if fault is not None:
        topology.set_fault_model("a", "b", fault)
    internet = Internet(simulator, topology, registry)
    sender = internet.add_host(Host("sender", "a", [ip("10.0.0.1")]))
    receiver = internet.add_host(Host("receiver", "b", [ip("10.0.0.2")]))
    received = []
    receiver.bind(7, received.append)
    return simulator, internet, sender, received


def _delivery_trace(seed: int, fault: FaultModel, packets: int = 40):
    """(payload, arrival time) per delivered packet, in delivery order."""
    simulator, internet, sender, received = _two_host_world(seed, fault)
    socket = sender.ephemeral_socket()
    destination = Endpoint(IPAddress("10.0.0.2"), 7)
    for index in range(packets):
        simulator.schedule_at(
            index * 0.001,
            lambda index=index: socket.sendto(destination,
                                              f"p{index}".encode()))
    trace = []
    simulator.run()
    for datagram in received:
        trace.append(datagram.payload.decode())
    return trace, internet


class TestFaultedLinkBehaviour:
    def test_same_seed_same_trace(self):
        fault = FaultModel(loss_rate=0.2, jitter_s=0.005,
                           reorder_window=0.01, duplicate_rate=0.1)
        trace_a, _ = _delivery_trace(seed=7, fault=fault)
        trace_b, _ = _delivery_trace(seed=7, fault=fault)
        assert trace_a == trace_b

    def test_different_seed_different_trace(self):
        fault = FaultModel(loss_rate=0.2, jitter_s=0.005,
                           reorder_window=0.01, duplicate_rate=0.1)
        trace_a, _ = _delivery_trace(seed=7, fault=fault)
        trace_b, _ = _delivery_trace(seed=8, fault=fault)
        assert trace_a != trace_b

    def test_loss_drops_packets(self):
        trace, internet = _delivery_trace(
            seed=3, fault=FaultModel(loss_rate=0.5))
        assert 0 < len(trace) < 40
        link = internet.topology.link_between("a", "b")
        assert link.packets_dropped == 40 - len(trace)

    def test_reordering_inverts_delivery_order(self):
        trace, _ = _delivery_trace(
            seed=5, fault=FaultModel(reorder_window=0.05, reorder_rate=0.5))
        assert len(trace) == 40  # reordering never loses packets
        indices = [int(p[1:]) for p in trace]
        assert indices != sorted(indices)
        assert sorted(indices) == list(range(40))

    def test_duplication_delivers_extra_copies(self):
        trace, internet = _delivery_trace(
            seed=9, fault=FaultModel(duplicate_rate=1.0))
        assert len(trace) == 80
        assert internet.datagrams_duplicated == 40
        link = internet.topology.link_between("a", "b")
        assert link.packets_duplicated == 40

    def test_flight_marks_duplication(self):
        tracer = Tracer()
        with use_tracer(tracer):
            simulator, internet, sender, received = _two_host_world(
                seed=2, fault=FaultModel(duplicate_rate=1.0))
        socket = sender.ephemeral_socket()
        socket.sendto(Endpoint(IPAddress("10.0.0.2"), 7), b"x")
        simulator.run()
        assert len(received) == 2          # original + the copy
        flights = [s for s in tracer.spans if s.name == "net.flight"]
        assert len(flights) == 1           # but only one flight
        assert flights[0].attrs["duplicated"] is True
        assert flights[0].attrs["outcome"] == "delivered"
        assert internet.datagrams_delivered == 1
        assert internet.datagrams_duplicated == 1

    def test_downstream_drop_discards_the_duplicate_uncounted(self):
        """A copy sampled at hop 1 dies with the original at a lossy
        hop 2: neither the link nor the internet counts it."""
        registry = RngRegistry(4)
        simulator = Simulator()
        topology = Topology(registry)
        topology.add_link("a", "mid", LinkProfile(latency=0.01))
        topology.add_link("mid", "b", LinkProfile(latency=0.01, loss=1.0))
        topology.set_fault_model("a", "mid", FaultModel(duplicate_rate=1.0))
        internet = Internet(simulator, topology, registry)
        sender = internet.add_host(Host("sender", "a", [ip("10.0.0.1")]))
        receiver = internet.add_host(Host("receiver", "b", [ip("10.0.0.2")]))
        received = []
        receiver.bind(7, received.append)
        socket = sender.ephemeral_socket()
        for _ in range(5):
            socket.sendto(Endpoint(IPAddress("10.0.0.2"), 7), b"x")
        simulator.run()
        assert received == []
        assert topology.link_between("a", "mid").packets_duplicated == 0
        assert internet.datagrams_duplicated == 0

    def test_fault_free_link_is_bit_identical_to_baseline(self):
        """Installing no fault model must not perturb the link's
        intrinsic random stream."""
        trace_baseline, _ = _delivery_trace(seed=11, fault=None)
        trace_inactive, _ = _delivery_trace(seed=11, fault=FaultModel())
        assert trace_baseline == trace_inactive


FAULT_FORGED = ("203.0.113.1", "203.0.113.2")


class TestFaultAxesInCampaigns:
    def _grid(self):
        return ParameterGrid.over_spec(
            pool_spec(num_providers=3),
            {"network.fault.loss_rate": (0.0, 0.2)},
            fixed={"provider.corrupted": 1, "provider.forged": FAULT_FORGED,
                   "pool.min_answers": 2},
            name="fault-axis-test")

    def test_serial_equals_parallel_with_fault_axes(self):
        serial = CampaignRunner(spec_trial, trials_per_point=2,
                                base_seed=42, workers=0).run(self._grid())
        parallel = CampaignRunner(spec_trial, trials_per_point=2,
                                  base_seed=42, workers=2).run(self._grid())
        assert serial.records == parallel.records
        assert serial.summaries == parallel.summaries

    def test_loss_axis_reaches_the_scenario(self):
        result = CampaignRunner(spec_trial, trials_per_point=2,
                                base_seed=42, workers=0).run(self._grid())
        clean = result.metric("ok", **{"network.fault.loss_rate": 0.0}).mean
        assert clean == 1.0
