#!/usr/bin/env python
"""Cryptocurrency peer bootstrapping — the paper's other motivation.

§I cites Loe & Quaglia (CCS'19): "most Cryptocurrencies just rely on the
DNS" to discover their first peers, so an eclipse attacker who poisons
the seed lookup owns the node's whole view of the network. We rebuild
the Figure 1 machinery around a ``seed.coin.example``-style domain and
show the same Algorithm 1 bound for eclipse resistance, plus the
per-address majority vote for a node that refuses *any* unvouched peer.

This example deliberately wires the world from the low-level APIs
(topology, zones, providers) instead of using the NTP scenario builder —
a template for adapting the library to a new pool-consuming application.

Run:  python examples/crypto_bootstrap.py
"""

from repro.attacks.compromise import (
    CompromiseConfig,
    CompromisedResolverBehavior,
    corrupt_first_k,
)
from repro.core.majority import majority_vote
from repro.core.pool import ResolverRef, SecurePoolGenerator
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rrtype import RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.doh.client import DoHClient
from repro.doh.providers import FIGURE1_PROVIDERS, deploy_provider
from repro.doh.tls import CertificateAuthority, TrustStore
from repro.netsim.address import IPAddress, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.scenarios.workload import PoolDirectory
from repro.util.rng import RngRegistry

SEED_DOMAIN = Name("seed.coin.example")
ATTACKER_PEERS = [f"203.0.113.{i + 1}" for i in range(6)]


def build_world(seed: int = 99):
    registry = RngRegistry(seed)
    simulator = Simulator()
    topology = Topology.global_backbone(rng_registry=registry)
    topology.add_link("node-edge", "asia-east", LinkProfile.metro())
    topology.add_link("seed-dns-edge", "eu-central", LinkProfile.metro())
    internet = Internet(simulator, topology, registry)

    # DNS: root delegating "example", which holds the seeder zone.
    root_host = internet.add_host(
        Host("root-ns", "seed-dns-edge", [ip("10.0.0.1")]))
    root_zone = Zone(".", soa_mname="root-ns.example")
    root_zone.add_delegation("example", "ns1.example",
                             glue=[ARdata("10.0.0.2")])
    example_host = internet.add_host(
        Host("ns1.example", "seed-dns-edge", [ip("10.0.0.2")]))
    example_zone = Zone("example", soa_mname="ns1.example")
    example_zone.add_record("ns1.example", ARdata("10.0.0.2"))

    # The DNS seeder: 30 full nodes, 5 returned per query (bitcoind-ish).
    peers = PoolDirectory(
        benign=[f"172.20.0.{i + 1}" for i in range(30)],
        answers_per_query=5, rng=registry.stream("seeder"))
    example_zone.add_provider(SEED_DOMAIN, RRType.A,
                              peers.record_provider(), ttl=60)
    AuthoritativeServer(root_host, [root_zone])
    AuthoritativeServer(example_host, [example_zone])
    root_hints = [(Name("root-ns.example"), IPAddress("10.0.0.1"))]

    # Five DoH providers: the three from Fig.1 plus two regional ones.
    from repro.doh.providers import DoHProviderProfile
    profiles = list(FIGURE1_PROVIDERS) + [
        DoHProviderProfile("doh.asia.example", "asia-south", "10.53.0.4"),
        DoHProviderProfile("doh.eu.example", "eu-central", "10.53.0.5"),
    ]
    ca = CertificateAuthority("Coin Root CA", registry.stream("ca"))
    providers = [deploy_provider(internet, profile, ca, root_hints, registry)
                 for profile in profiles]

    node = internet.add_host(Host("coin-node", "node-edge",
                                  [ip("10.77.0.1")]))
    return (simulator, internet, registry, node, providers,
            TrustStore([ca]), peers)


def main() -> None:
    simulator, internet, registry, node, providers, trust, peers = build_world()

    # The attacker runs 2 of the 5 trusted resolvers (x = 3/5 honest).
    corrupt_first_k(providers, 2, CompromiseConfig(
        target=SEED_DOMAIN,
        behavior=CompromisedResolverBehavior.SUBSTITUTE,
        forged_addresses=ATTACKER_PEERS[:5]))

    doh = DoHClient(node, simulator, trust,
                    rng=registry.stream("node-doh"))
    generator = SecurePoolGenerator(
        doh, [ResolverRef(p.name, p.endpoint) for p in providers], simulator)

    pools = []
    generator.generate(SEED_DOMAIN.to_text(), pools.append)
    simulator.run()
    pool = pools[0]

    eclipse = {IPAddress(a) for a in ATTACKER_PEERS}
    attacker_share = sum(1 for a in pool.addresses if a in eclipse) / len(
        pool.addresses)
    print(f"Bootstrap peer pool: {len(pool.addresses)} entries from "
          f"{len(providers)} resolvers (K={pool.truncate_length})")
    print(f"Attacker-run resolvers: 2/5 -> eclipse peers in pool: "
          f"{attacker_share:.0%} (bounded by 2/5 = 40%)")
    assert attacker_share <= 2 / 5 + 1e-9

    # A paranoid node: only connect to majority-vouched peers.
    voted = majority_vote(pool.contributions)
    voted_attacker = sum(1 for a in voted if a in eclipse)
    print(f"Majority-vouched peers: {len(voted)} "
          f"({voted_attacker} attacker-controlled)")
    print("\nAn eclipse needs 3 of 5 resolver compromises here; with one "
          "plain-DNS seed lookup it needed a single off-path poisoning.")


if __name__ == "__main__":
    main()
