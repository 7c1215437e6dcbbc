#!/usr/bin/env python
"""Quickstart: generate a secure NTP server pool with distributed DoH.

Builds the paper's Figure 1 world — three public DoH resolvers
(dns.google, cloudflare-dns.com, dns.quad9.net), the pool.ntp.org zone
on the c/d/e.ntpns.org nameservers — and runs Algorithm 1 once.

Run:  python examples/quickstart.py
"""

from repro.scenarios import get_spec_preset, materialize


def main() -> None:
    # One seeded, deterministic world: DNS tree + 3 DoH providers + client,
    # compiled from the "figure1" preset spec.
    scenario = materialize(get_spec_preset("figure1")(), seed=2024)

    print("Trusted DoH resolvers:")
    for deployment in scenario.providers:
        print(f"  {deployment.name:22s} at {deployment.endpoint}")
    print(f"Pool domain: {scenario.pool_domain} "
          f"({len(scenario.directory.benign)} registered servers, "
          f"{scenario.directory.answers_per_query} returned per query)\n")

    # Algorithm 1: query through every resolver, truncate to the
    # shortest list, combine. `generate_pool_sync` drives the simulator
    # until the callback fires.
    pool = scenario.generate_pool_sync()

    print(f"Generated pool ({len(pool.addresses)} addresses = "
          f"{len(pool.contributions)} resolvers x K={pool.truncate_length}):")
    for resolver_name, contribution in pool.contributions.items():
        formatted = ", ".join(str(address) for address in contribution)
        print(f"  {resolver_name:22s} -> {formatted}")

    benign = scenario.directory.benign_fraction(pool.addresses)
    print(f"\nBenign fraction: {benign:.0%}")
    print(f"Max share from any single resolver: "
          f"{pool.max_contribution_fraction():.0%} "
          f"(bounded to 1/N = {1 / len(pool.contributions):.0%})")
    print(f"Wall-clock (virtual): {pool.elapsed * 1000:.1f} ms for "
          f"{len(pool.answers)} parallel DoH lookups")


if __name__ == "__main__":
    main()
