"""The Figure 1 world objects.

:class:`PoolScenario` (one client, the DNS tree, N DoH providers, the
pool directory) and :class:`PopulationScenario` (the same world plus a
measured client fleet).  Worlds are built by the declarative spec
layer: describe one with :class:`repro.scenarios.spec.ScenarioSpec`
and compile it with :func:`repro.scenarios.spec.materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.doh.providers import ProviderDeployment
from repro.doh.tls import CertificateAuthority, TrustStore
from repro.netsim.address import IPAddress
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import FaultModel
from repro.netsim.simulator import Simulator
from repro.scenarios.workload import PoolDirectory
from repro.util.rng import RngRegistry

POOL_DOMAIN = Name("pool.ntp.org")

# Infrastructure addresses (stable across scenarios for debuggability).
ROOT_NS_ADDRESS = "10.0.0.1"
ORG_NS_ADDRESS = "10.0.0.2"
NTP_NS_ADDRESSES = {
    "c.ntpns.org": "10.0.0.11",
    "d.ntpns.org": "10.0.0.12",
    "e.ntpns.org": "10.0.0.13",
}
CLIENT_ADDRESS = "10.99.0.1"


@dataclass
class PoolScenario:
    """A fully wired Figure 1 world."""

    seed: int
    simulator: Simulator
    internet: Internet
    rng: RngRegistry
    client: Host
    providers: List[ProviderDeployment]
    authority: CertificateAuthority
    trust_store: TrustStore
    directory: PoolDirectory
    pool_domain: Name = POOL_DOMAIN
    pool_zone: Zone = None
    dns_servers: Dict[str, AuthoritativeServer] = field(default_factory=dict)
    root_hints: List = field(default_factory=list)
    access_fault: Optional[FaultModel] = None  # installed on the client edge
    telemetry: Optional["MetricsRegistry"] = None    # noqa: F821
    attacks: List[Tuple[str, Any]] = field(default_factory=list)
    #: The compiled referral chain for ``mode="iterative"`` worlds (a
    #: :class:`repro.dns.hierarchy.HierarchyDeployment`); None on the
    #: legacy flat tree.
    hierarchy: Optional[Any] = None
    #: The installed :class:`repro.chaos.ChaosController` when the
    #: scenario spec declared a failure timeline; None otherwise.
    chaos: Optional[Any] = None
    #: The pool's deployed :class:`repro.ntp.pool.NtpFleet` when the
    #: spec's client syncs its clock; None otherwise.
    ntp_fleet: Optional[Any] = None
    #: The world's Algorithm 1 policy (a
    #: :class:`repro.core.pool.PoolGeneratorConfig`), compiled from the
    #: spec's ``pool`` once; generators and fleet rounds combine by it.
    policy: Optional[Any] = None

    def run(self, until: Optional[float] = None) -> None:
        """Drain the simulation (convenience passthrough)."""
        self.simulator.run(until=until)

    # ------------------------------------------------------------------
    # Core-layer conveniences (import locally to avoid layering cycles).
    # ------------------------------------------------------------------

    def make_doh_client(self, stream: str = "doh-client",
                        timeout: float = 4.0, retries: int = 2):
        """A :class:`repro.doh.DoHClient` on this scenario's client."""
        from repro.doh.client import DoHClient
        return DoHClient(self.client, self.simulator, self.trust_store,
                         rng=self.rng.stream(stream), timeout=timeout,
                         retries=retries)

    def make_generator(self, timeout: float = 4.0, retries: int = 2):
        """A ready-to-use :class:`repro.core.SecurePoolGenerator` over
        this scenario's providers, combining by the world's
        :attr:`policy`."""
        from repro.core.pool import ResolverRef, SecurePoolGenerator
        return SecurePoolGenerator(
            self.make_doh_client(timeout=timeout, retries=retries),
            [ResolverRef(name=deployment.name, endpoint=deployment.endpoint)
             for deployment in self.providers],
            self.simulator, self.policy)

    def generate_pool_sync(self, generator=None):
        """Run one Algorithm 1 generation to completion and return it."""
        engine = generator or self.make_generator()
        results: List = []
        engine.generate(self.pool_domain.to_text(), results.append)
        self.simulator.run()
        if len(results) != 1:
            raise RuntimeError("pool generation did not complete")
        return results[0]

@dataclass
class PopulationScenario:
    """A Figure 1 world plus a measured client population.

    Wraps the :class:`PoolScenario` with the server fleet behind the
    pool name, an optional provider compromise, and a
    :class:`repro.population.ClientFleet` whose outcomes stream into
    ``telemetry``.
    """

    pool: PoolScenario
    fleet: "ClientFleet"            # noqa: F821 - forward ref (see below)
    ntp_fleet: "NtpFleet"           # noqa: F821
    telemetry: "MetricsRegistry"    # noqa: F821
    attacker_addresses: List[IPAddress] = field(default_factory=list)
    attacks: List[Tuple[str, Any]] = field(default_factory=list)
    #: The installed :class:`repro.chaos.ChaosController` when the
    #: scenario spec declared a failure timeline; None otherwise.
    chaos: Optional[Any] = None

    @property
    def simulator(self) -> Simulator:
        return self.pool.simulator

    @property
    def internet(self) -> Internet:
        return self.pool.internet

    @property
    def hierarchy(self):
        """The compiled referral chain (iterative worlds), else None."""
        return self.pool.hierarchy

    def run(self, max_events: int = 5_000_000):
        """Drive the whole population to completion; returns the
        :class:`repro.population.PopulationOutcomes`."""
        return self.fleet.run(max_events=max_events)

    def outcomes(self):
        return self.fleet.outcomes()


def _make_benign_pool(pool_size: int, dual_stack: bool) -> List[str]:
    addresses = [f"172.16.{index // 250}.{index % 250 + 1}"
                 for index in range(pool_size)]
    if dual_stack:
        addresses += [f"fd00:a17e::{index + 1:x}" for index in range(pool_size)]
    return addresses
