#!/usr/bin/env python
"""Backward compatibility: an unmodified stub resolver behind the
majority front-end.

The paper promises deployment "without changing the DNS infrastructure,
offering a standard-compatible DNS-resolver interface". Here a legacy
application host points its ordinary plain-DNS stub at the front-end:
pool queries transparently get Algorithm 1's combined answer, everything
else is proxied over secure DoH.

Run:  python examples/legacy_frontend.py
"""

from repro.core.frontend import MajorityDnsFrontend
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.netsim.address import ip
from repro.netsim.host import Host
from repro.scenarios import get_spec_preset, materialize


def main() -> None:
    scenario = materialize(get_spec_preset("figure1")(), seed=11)

    # The front-end runs on the client's gateway host, port 53.
    frontend = MajorityDnsFrontend(
        scenario.client,
        scenario.make_generator(),
        scenario.make_doh_client("frontend"),
        pool_domains=[scenario.pool_domain])

    # A legacy application machine: stock stub resolver, no DoH, no
    # awareness of the scheme.
    legacy_host = scenario.internet.add_host(
        Host("legacy-app", "client-edge", [ip("10.99.0.2")]))
    stub = StubResolver(legacy_host, scenario.simulator,
                        scenario.client.primary_address, timeout=10.0)

    def lookup(qname: str, qtype=RRType.A):
        outcomes = []
        stub.query(qname, qtype, outcomes.append)
        scenario.simulator.run()
        return outcomes[0]

    print("Legacy app -> plain DNS :53 -> majority front-end\n")

    pool_answer = lookup("pool.ntp.org")
    print(f"pool.ntp.org A -> {len(pool_answer.addresses)} addresses "
          f"(Algorithm 1 combined, {frontend.pool_queries} pool query):")
    for address in pool_answer.addresses:
        print(f"  {address}")

    other_answer = lookup("c.ntpns.org")
    print(f"\nc.ntpns.org A -> {[str(a) for a in other_answer.addresses]} "
          f"(proxied over DoH, {frontend.proxied_queries} proxy query)")

    missing = lookup("does-not-exist.ntp.org")
    print(f"does-not-exist.ntp.org -> RCODE "
          f"{missing.response.rcode.name} (errors propagate faithfully)")


if __name__ == "__main__":
    main()
