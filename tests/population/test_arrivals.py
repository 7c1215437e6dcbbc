"""Arrival processes: phases, distributions, determinism.

The fleet computes each client's wake-up delay inline: a periodic
client first wakes at its phase ``mean_interval * index / population``
and then every ``mean_interval`` after a round ends; a Poisson client
draws every delay from its arrival stream. Each check here runs a
world through ``materialize`` and reads the ``client.round`` spans.
"""

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.scenarios import materialize, population_spec
from repro.scenarios.spec import FleetSpec
from repro.telemetry.trace import Tracer, use_tracer

# Wake-ups run at the next 50 ms dispatch bin.
BIN = 0.05


def _round_times(spec, seed):
    """Each client's ``(start, end)`` per round, in round order."""
    tracer = Tracer()
    with use_tracer(tracer):
        materialize(spec, seed).run()
    rounds = {}
    for span in tracer.snapshot()["spans"]:
        if span["name"] == "client.round":
            rounds.setdefault(span["attrs"]["client"], []).append(
                (span["attrs"]["round"], span["start"], span["end"]))
    return {client: [(start, end) for _, start, end in sorted(spans)]
            for client, spans in rounds.items()}


class TestPeriodic:
    def test_phase_then_fixed_period(self):
        times = _round_times(
            population_spec(num_clients=4, rounds=3, mean_interval=16.0), 51)
        assert len(times) == 4
        for index, rounds in times.items():
            phase = 16.0 * index / 4
            assert phase - 1e-9 <= rounds[0][0] <= phase + BIN
            for (_, end), (start, _) in zip(rounds, rounds[1:]):
                assert 16.0 - 1e-9 <= start - end <= 16.0 + BIN + 1e-9

    def test_validation(self):
        for interval in (0.0, -16.0, math.inf):
            with pytest.raises(ConfigurationError, match="mean_interval"):
                FleetSpec(arrival="periodic", mean_interval=interval)


class TestPoisson:
    def test_deterministic_under_fixed_seed(self):
        spec = population_spec(num_clients=6, rounds=3, arrival="poisson")
        runs = [_round_times(spec, seed) for seed in (5, 5, 6)]
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]

    def test_validation(self):
        for interval in (0.0, -8.0, math.inf):
            with pytest.raises(ConfigurationError, match="mean_interval"):
                FleetSpec(arrival="poisson", mean_interval=interval)


class TestFactory:
    def test_periodic_spreads_phases_over_the_fleet(self):
        times = _round_times(
            population_spec(num_clients=5, rounds=1, mean_interval=10.0), 52)
        firsts = [times[index][0][0] for index in range(5)]
        for first, phase in zip(firsts, [0.0, 2.0, 4.0, 6.0, 8.0]):
            assert phase - 1e-9 <= first <= phase + BIN

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="arrival"):
            FleetSpec(arrival="burst")
