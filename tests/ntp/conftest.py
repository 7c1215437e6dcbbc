"""Fixtures: a pool scenario with a deployed NTP fleet."""

from dataclasses import dataclass

import pytest

from repro.ntp.client import NtpClient
from repro.ntp.clock import SimClock
from repro.ntp.pool import NtpFleet, backbone_nodes, deploy_ntp_fleet
from repro.scenarios import materialize, pool_spec
from repro.scenarios import PoolScenario


@dataclass
class NtpWorld:
    scenario: PoolScenario
    fleet: NtpFleet
    client_clock: SimClock
    ntp_client: NtpClient


def build_ntp_world(seed: int = 50, pool_size: int = 20,
                    client_offset: float = 0.0,
                    malicious_count: int = 0,
                    malicious_lie: float = 10.0,
                    **scenario_kwargs) -> NtpWorld:
    scenario = materialize(pool_spec(pool_size=pool_size, **scenario_kwargs),
                           seed)
    fleet = deploy_ntp_fleet(scenario.internet, scenario.directory,
                             scenario.rng,
                             backbone_nodes(scenario.internet.topology),
                             malicious_lie_offset=malicious_lie)
    for address in scenario.directory.benign[:malicious_count]:
        fleet.corrupt(address, malicious_lie)
    client_clock = SimClock(lambda: scenario.simulator.now,
                            offset=client_offset)
    ntp_client = NtpClient(scenario.client, scenario.simulator, client_clock,
                           timeout=1.0)
    return NtpWorld(scenario=scenario, fleet=fleet,
                    client_clock=client_clock, ntp_client=ntp_client)


@pytest.fixture
def ntp_world() -> NtpWorld:
    return build_ntp_world()
