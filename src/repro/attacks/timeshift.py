"""End-to-end time-shift attack orchestration (experiment E7).

One attacker with the paper's "realistic" capabilities — on-path control
of the client's access link plus control of one DoH provider — attacks
a client that needs correct time, under four configurations:

========================  ==========================================
pool acquisition          NTP discipline
========================  ==========================================
plain DNS (one resolver)  naive SNTP average
plain DNS (one resolver)  Chronos
distributed DoH (Alg. 1)  naive SNTP average
distributed DoH (Alg. 1)  Chronos         ← the paper's proposal
========================  ==========================================

Expected shape (§I, §V): both plain-DNS rows are shifted by the full lie
(the attacker rewrites the one pool answer, so even Chronos is
helpless — this is [1]); DoH+naive is partially shifted (one corrupted
resolver seeds 1/N of the pool; naive averaging follows it); DoH+Chronos
holds (crop discards the minority liars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.attacks.compromise import (
    CompromiseConfig,
    CompromisedResolverBehavior,
    compromise_provider,
)
from repro.attacks.mitm import OnPathAttacker
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.netsim.address import IPAddress
from repro.ntp.chronos import ChronosClient, ChronosConfig
from repro.ntp.client import NtpClient, NtpSample
from repro.ntp.clock import SimClock
from repro.ntp.pool import deploy_ntp_fleet
from repro.scenarios.spec import materialize, pool_spec

ATTACKER_NTP_ADDRESSES = [f"203.0.113.{i + 1}" for i in range(12)]
CLIENT_ACCESS_LINK = "client-edge--eu-central"


@dataclass
class TimeShiftResult:
    """Outcome of one configuration run."""

    configuration: str
    lie_offset: float
    clock_error_after: float
    pool_size: int
    pool_malicious_fraction: float
    synced: bool
    details: str = ""

    @property
    def shifted(self) -> bool:
        """Did the attacker move the clock by a meaningful amount
        (> 10% of the lie)?"""
        return abs(self.clock_error_after) > 0.1 * abs(self.lie_offset)


class TimeShiftExperiment:
    """Builds a fresh world per configuration and runs the attack.

    :param seed: world seed (vary for confidence intervals).
    :param lie_offset: seconds the attacker's NTP servers lie by.
    :param num_providers: trusted DoH resolvers for the Algorithm 1 row.
    :param corrupted_providers: how many of them the attacker controls.
    :param pool_size: honest NTP pool population.
    """

    def __init__(self, seed: int = 1, lie_offset: float = 10.0,
                 num_providers: int = 3, corrupted_providers: int = 1,
                 pool_size: int = 20) -> None:
        self._seed = seed
        self._lie = lie_offset
        self._num_providers = num_providers
        self._corrupted = corrupted_providers
        self._pool_size = pool_size

    # ------------------------------------------------------------------
    # World assembly.
    # ------------------------------------------------------------------

    def _build_world(self):
        scenario = materialize(pool_spec(num_providers=self._num_providers,
                                         pool_size=self._pool_size,
                                         answers_per_query=4), self._seed)
        fleet = deploy_ntp_fleet(
            scenario.internet, scenario.directory, scenario.rng,
            malicious_lie_offset=self._lie,
            extra_addresses=ATTACKER_NTP_ADDRESSES)
        # The single attacker: on-path at the client edge...
        mitm = OnPathAttacker(scenario.internet, [CLIENT_ACCESS_LINK])
        mitm.poison_a_records(scenario.pool_domain,
                              ATTACKER_NTP_ADDRESSES, inflate_to=12)
        # ...and in control of `corrupted` DoH providers.
        for provider in scenario.providers[:self._corrupted]:
            compromise_provider(provider, CompromiseConfig(
                target=scenario.pool_domain,
                behavior=CompromisedResolverBehavior.SUBSTITUTE,
                forged_addresses=ATTACKER_NTP_ADDRESSES[:4]))
        clock = SimClock(lambda: scenario.simulator.now, offset=0.0)
        ntp_client = NtpClient(scenario.client, scenario.simulator, clock,
                               timeout=1.0)
        return scenario, fleet, mitm, clock, ntp_client

    # ------------------------------------------------------------------
    # Pool acquisition strategies.
    # ------------------------------------------------------------------

    def _pool_via_plain_dns(self, scenario) -> List[IPAddress]:
        """One RD query to one resolver over spoofable UDP."""
        resolver_address = scenario.providers[0].address
        stub = StubResolver(scenario.client, scenario.simulator,
                            resolver_address, timeout=5.0)
        outcomes: List = []
        stub.query(scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        if not outcomes or not outcomes[0].ok:
            return []
        return outcomes[0].addresses

    def _pool_via_distributed_doh(self, scenario) -> List[IPAddress]:
        """Algorithm 1 across the trusted resolver set."""
        pool = scenario.generate_pool_sync()
        return pool.addresses

    # ------------------------------------------------------------------
    # NTP discipline strategies.
    # ------------------------------------------------------------------

    def _discipline_naive(self, scenario, ntp_client: NtpClient,
                          pool: List[IPAddress]) -> bool:
        """Naive SNTP: average the offsets of (up to) 4 pool servers."""
        rng = scenario.rng.stream("naive-pick")
        chosen = pool if len(pool) <= 4 else rng.sample(pool, 4)
        samples: List[NtpSample] = []
        for server in chosen:
            ntp_client.sample(server, samples.append)
        scenario.simulator.run()
        good = [s.offset for s in samples if s.ok]
        if not good:
            return False
        ntp_client.clock.step(sum(good) / len(good))
        return True

    def _discipline_chronos(self, scenario, ntp_client: NtpClient,
                            pool: List[IPAddress]) -> bool:
        chronos = ChronosClient(
            ntp_client, pool,
            config=ChronosConfig(sample_size=9, agreement_window=0.060,
                                 panic_threshold=0.200, max_retries=2,
                                 min_responses=5),
            rng=scenario.rng.stream("chronos"))
        outcomes: List = []
        chronos.sync(outcomes.append)
        scenario.simulator.run()
        return bool(outcomes) and outcomes[0].ok

    # ------------------------------------------------------------------
    # The four configurations.
    # ------------------------------------------------------------------

    def run(self, use_distributed_doh: bool,
            use_chronos: bool) -> TimeShiftResult:
        """Run one configuration in a fresh world."""
        scenario, fleet, mitm, clock, ntp_client = self._build_world()
        if use_distributed_doh:
            pool = self._pool_via_distributed_doh(scenario)
            acquisition = "distributed-doh"
        else:
            pool = self._pool_via_plain_dns(scenario)
            acquisition = "plain-dns"
        discipline = "chronos" if use_chronos else "naive-sntp"
        name = f"{acquisition}+{discipline}"
        if not pool:
            return TimeShiftResult(
                configuration=name, lie_offset=self._lie,
                clock_error_after=clock.error(), pool_size=0,
                pool_malicious_fraction=0.0, synced=False,
                details="pool acquisition failed")
        malicious = set(IPAddress(a) for a in ATTACKER_NTP_ADDRESSES)
        malicious_fraction = (sum(1 for a in pool if a in malicious)
                              / len(pool))
        if use_chronos:
            synced = self._discipline_chronos(scenario, ntp_client, pool)
        else:
            synced = self._discipline_naive(scenario, ntp_client, pool)
        return TimeShiftResult(
            configuration=name, lie_offset=self._lie,
            clock_error_after=clock.error(), pool_size=len(pool),
            pool_malicious_fraction=malicious_fraction, synced=synced,
            details=f"mitm rewrote {mitm.stats.dns_responses_rewritten} "
                    f"plaintext DNS responses")

    def run_all(self) -> List[TimeShiftResult]:
        """All four rows of the E7 table."""
        return [
            self.run(use_distributed_doh=False, use_chronos=False),
            self.run(use_distributed_doh=False, use_chronos=True),
            self.run(use_distributed_doh=True, use_chronos=False),
            self.run(use_distributed_doh=True, use_chronos=True),
        ]
