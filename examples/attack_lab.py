#!/usr/bin/env python
"""Attack lab: watch each attacker class succeed or fail mechanically.

Four attackers from the paper's threat discussion, each run against the
transport that stops it (or doesn't):

1. off-path TXID/port spray vs a weak plain-DNS resolver  -> poisoned
2. the same spray vs a hardened resolver                  -> rejected
3. on-path rewriting vs plain DNS and vs DoH              -> split
4. over-population through 1 corrupted DoH resolver, with
   and without §II fn.2's truncation                      -> split

Acts 3 and 4 are spec data: an ``AttackSpec`` and ``provider.*``
paths that ``materialize`` installs, the same attacks the benches sweep.

Run:  python examples/attack_lab.py
"""

from dataclasses import replace

from repro.attacks.offpath import OffPathPoisoner
from repro.campaign import spec_trial
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.scenarios import AttackSpec, materialize, pool_spec
from repro.scenarios.spec import ResolverSpec, apply_paths

FORGED = [f"203.0.113.{i + 1}" for i in range(4)]

# E5's attack: one of three providers answers with 20 addresses drawn
# from eight attacker servers.
OVERPOPULATION = {"provider.corrupted": 1, "provider.behavior": "inflate",
                  "provider.forged": tuple(f"203.0.113.{i + 1}"
                                           for i in range(8)),
                  "provider.inflate_to": 20}


def act1_and_2_offpath() -> None:
    for hardened in (False, True):
        scenario = materialize(pool_spec(
            resolver_config=None if hardened else ResolverSpec(
                txid_bits=6, randomize_txid=False)), seed=5)
        victim = scenario.providers[0]
        if not hardened:
            victim.host.randomize_ports = False
        poisoner = OffPathPoisoner(scenario.internet,
                                   injection_node=victim.host.node)
        outcomes = []
        victim.resolver.resolve(scenario.pool_domain, RRType.A,
                                outcomes.append)
        poisoner.poison_resolver_lookup(
            victim_address=victim.address,
            qname=scenario.pool_domain, qtype=RRType.A,
            spoofed_server=Endpoint(IPAddress("10.0.0.1"), 53),
            forged_addresses=[IPAddress(a) for a in FORGED],
            port_window=4, txid_bits=6 if not hardened else 10)
        scenario.simulator.run()
        poisoned = victim.resolver.stats.poisoned_acceptances
        label = "hardened (random TXID+port)" if hardened else "weak (sequential)"
        # Forgeries to unused ports die at the host; ones reaching the
        # socket still face the TXID check.
        print(f"  off-path spray vs {label:28s}: "
              f"{poisoner.total_packets_injected} forged packets -> "
              f"{'POISONED' if poisoned else 'none accepted'}")


def act3_onpath() -> None:
    # The attacker sits on the client's access link (the default).
    scenario = materialize(replace(pool_spec(), attacks=(
        AttackSpec.of("mitm", mode="poison", forged=tuple(FORGED)),)),
        seed=6)
    (mitm,) = [attack for kind, attack in scenario.attacks if kind == "mitm"]

    stub = StubResolver(scenario.client, scenario.simulator,
                        scenario.providers[0].address, timeout=5.0)
    outcomes = []
    stub.query(scenario.pool_domain, RRType.A, outcomes.append)
    scenario.simulator.run()
    plain_poisoned = all(str(a) in FORGED for a in outcomes[0].addresses)
    print(f"  on-path rewrite vs plain DNS: "
          f"{'POISONED (full pool replaced)' if plain_poisoned else '??'}")

    pool = scenario.generate_pool_sync()
    doh_clean = all(scenario.directory.is_benign(a) for a in pool.addresses)
    print(f"  on-path rewrite vs DoH      : "
          f"{'powerless (pool clean, ' if doh_clean else '??'}"
          f"{mitm.stats.tls_records_seen} opaque TLS records observed)")


def act4_overpopulation() -> None:
    for truncation in ("none", "shortest"):
        spec = apply_paths(pool_spec(), {**OVERPOPULATION,
                                         "pool.truncation": truncation})
        share = spec_trial({"spec": spec}, seed=8)["attacker_share"]
        verdict = "ATTACKER MAJORITY" if share > 0.5 else "bounded to 1/N"
        print(f"  over-population, truncation={truncation:8s}: "
              f"attacker share {share:.0%} -> {verdict}")


def main() -> None:
    print("Act 1-2: off-path forgery (the Introduction's weak link)")
    act1_and_2_offpath()
    print("\nAct 3: on-path attacker vs both transports")
    act3_onpath()
    print("\nAct 4: over-population ([1]) vs §II fn.2 truncation")
    act4_overpopulation()


if __name__ == "__main__":
    main()
