"""The iterative-resolution hierarchy: a declarative root→TLD→zone tree.

The paper's off-path and cache-poisoning attacks live on the *referral
chain* of real DNS resolution: a caching resolver walks root → TLD →
authoritative servers, and every cache miss re-opens a window in which
a spoofed answer can race the genuine one.  This module makes that
chain a first-class scenario axis:

* :class:`HierarchySpec` — a frozen, serializable description of the
  tree: TLD label, pool zone, the sibling zone hosting the NS names,
  NS redundancy, per-level delegation TTLs, and whether the pool-zone
  delegation carries glue (glueless delegations force extra lookups,
  widening the attack surface exactly as §IV of the paper describes).
* :func:`compile_hierarchy` — compiles a spec into deployed
  :class:`~repro.dns.server.AuthoritativeServer`\\ s on the topology and
  returns a :class:`HierarchyDeployment` (zones, servers, root hints,
  the pool directory) the scenario compiler wires providers against.
* :func:`compile_legacy_tree` — the pre-hierarchy flat tree
  (root + org + three ntpns hosts), moved here verbatim from the
  scenario compiler so *all* ``Zone``/``AuthoritativeServer``
  construction in scenario code lives behind this module (CI greps for
  strays).  ``ResolverSpec(mode="forwarding")`` worlds still build this
  exact tree, bit-identical to pre-hierarchy builds.

Address plan: the hierarchy's own hosts live in dedicated blocks —
root ``10.60.0.1``, TLD servers ``10.61.0.x``, zone NS hosts
``10.62.0.x`` — disjoint from the legacy tree (``10.0.0.x``), provider
(``10.53/10.54``), pool (``172.16``) and client (``10.99``) ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.util.errors import ConfigurationError
from repro.util.specbase import SpecBase

#: Where the hierarchy's root server lives (kept off the legacy tree's
#: ``10.0.0.1`` so both trees could coexist in one world if ever needed).
HIERARCHY_ROOT_ADDRESS = "10.60.0.1"

_TLD_ADDRESS_PREFIX = "10.61.0."
_ZONE_NS_ADDRESS_PREFIX = "10.62.0."

#: Real-world-ish defaults: root NS sets carry ~6-day TTLs, TLD
#: delegations ~2 days.  Both are sweepable spec fields.
DEFAULT_ROOT_TTL = 518_400
DEFAULT_TLD_TTL = 172_800


def _check_label(name: str, value: str) -> None:
    if not value or value.startswith(".") or value.endswith("."):
        raise ConfigurationError(
            f"HierarchySpec.{name} must be a non-empty relative domain "
            f"name, got {value!r}")


@dataclass(frozen=True)
class HierarchySpec(SpecBase):
    """A root→TLD→authoritative referral chain, as data.

    :param tld: the top-level domain the root delegates (``"org"``).
    :param zone: the pool's zone, a proper subdomain of ``tld``; the
        pool name served to clients is ``pool.<zone>``.
    :param nsdomain: the sibling zone (also under ``tld``) whose names
        the pool zone's NS records point at — mirrors the real pool's
        ``c/d/e.ntpns.org`` layout.  Always delegated *with* glue so
        glueless pool delegations stay resolvable.
    :param ns_count: NS redundancy at the TLD and zone levels (the
        root stays a single ``a.root-servers.net``-style host, matching
        the root-hints idiom).
    :param root_ttl: TTL of the root's TLD delegation records.
    :param tld_ttl: TTL of the TLD's zone delegation records.
    :param glue: ``False`` drops the glue A records from the pool-zone
        delegation, forcing the resolver into glueless NS resolution
        (extra referral walks, a wider poisoning surface).
    """

    tld: str = "org"
    zone: str = "ntp.org"
    nsdomain: str = "ntpns.org"
    ns_count: int = 2
    root_ttl: int = DEFAULT_ROOT_TTL
    tld_ttl: int = DEFAULT_TLD_TTL
    glue: bool = True

    def __post_init__(self) -> None:
        _check_label("tld", self.tld)
        _check_label("zone", self.zone)
        _check_label("nsdomain", self.nsdomain)
        for name in ("zone", "nsdomain"):
            value = getattr(self, name)
            if not value.endswith("." + self.tld):
                raise ConfigurationError(
                    f"HierarchySpec.{name} ({value!r}) must be a proper "
                    f"subdomain of the tld ({self.tld!r})")
        if self.zone == self.nsdomain:
            raise ConfigurationError(
                "HierarchySpec.zone and .nsdomain must differ (the NS "
                "names must live outside the zone they serve)")
        if not 1 <= self.ns_count <= 200:
            raise ConfigurationError(
                f"ns_count must be in [1, 200], got {self.ns_count}")
        if self.root_ttl < 1 or self.tld_ttl < 1:
            raise ConfigurationError("delegation TTLs must be >= 1s")

    @property
    def pool_name(self) -> str:
        """The pool domain this hierarchy serves (``pool.<zone>``)."""
        return f"pool.{self.zone}"

    @property
    def levels(self) -> int:
        """Delegation levels under the root (root → TLD → zone = 2)."""
        return 2


@dataclass
class HierarchyDeployment:
    """One compiled DNS tree: everything the scenario compiler needs to
    wire caching resolvers and the pool serving path against it.

    ``spec`` is ``None`` for the legacy flat tree
    (:func:`compile_legacy_tree`), the originating
    :class:`HierarchySpec` otherwise.
    """

    spec: Optional[HierarchySpec]
    directory: Any
    pool_domain: Any
    pool_zone: Any
    servers: Dict[str, Any]
    root_hints: List[Tuple[Any, Any]]
    zones: Dict[str, Any] = field(default_factory=dict)
    hosts: Dict[str, Any] = field(default_factory=dict)


def compile_hierarchy(internet, rng_registry, pool, spec: HierarchySpec,
                      ) -> HierarchyDeployment:
    """Deploy a :class:`HierarchySpec` onto a built internet.

    The caller owns the topology; the hierarchy reuses the standard
    infrastructure edges (``dns-root-edge`` / ``dns-org-edge`` /
    ``ntpns-edge`` for root / TLD / zone NS hosts respectively).

    :param internet: the world's :class:`~repro.netsim.internet.Internet`.
    :param rng_registry: the world's named-stream RNG registry (the
        pool directory's rotation stream comes from here, same stream
        name as the flat tree so answer rotation is comparable).
    :param pool: the scenario's :class:`~repro.scenarios.spec.PoolSpec`.
    """
    from repro.dns.name import Name
    from repro.dns.rdata import ARdata, NSRdata
    from repro.dns.rrtype import RRType
    from repro.dns.server import AuthoritativeServer
    from repro.dns.zone import Zone
    from repro.netsim.address import IPAddress, ip
    from repro.netsim.host import Host
    from repro.scenarios.builders import _make_benign_pool
    from repro.scenarios.workload import PoolDirectory

    pool_domain = Name(spec.pool_name)
    root_name = "a.root-servers.net"
    tld_servers = [(f"{chr(ord('a') + i)}.{spec.tld}-servers.net",
                    f"{_TLD_ADDRESS_PREFIX}{i + 1}")
                   for i in range(spec.ns_count)]
    zone_servers = [(f"ns{i + 1}.{spec.nsdomain}",
                     f"{_ZONE_NS_ADDRESS_PREFIX}{i + 1}")
                    for i in range(spec.ns_count)]

    hosts: Dict[str, Any] = {}
    hosts[root_name] = internet.add_host(
        Host(root_name, "dns-root-edge", [ip(HIERARCHY_ROOT_ADDRESS)]))
    for name, address in tld_servers:
        hosts[name] = internet.add_host(
            Host(name, "dns-org-edge", [ip(address)]))
    for name, address in zone_servers:
        hosts[name] = internet.add_host(
            Host(name, "ntpns-edge", [ip(address)]))

    # Root zone: delegate the TLD.  Everything is in-bailiwick at the
    # root, so the (out-of-TLD) server names carry glue here.
    root_zone = Zone(".", soa_mname=root_name)
    for name, address in tld_servers:
        root_zone.add_delegation(spec.tld, name, glue=[ARdata(address)],
                                 ttl=spec.root_ttl)

    # TLD zone: delegate the pool zone (glue per spec) and the NS-name
    # zone (always glued — someone has to bootstrap the names).
    tld_zone = Zone(spec.tld, soa_mname=tld_servers[0][0])
    for name, address in zone_servers:
        tld_zone.add_delegation(
            spec.zone, name,
            glue=[ARdata(address)] if spec.glue else None,
            ttl=spec.tld_ttl)
    # When the pool delegation is glueless, bootstrap the NS-name zone
    # through *distinct* server names: Zone collects additional-section
    # glue by NS target name, so reusing ``ns{i}.<nsdomain>`` here would
    # leak those addresses back into the pool-zone referral and
    # silently re-glue it.
    for i, (name, address) in enumerate(zone_servers):
        bootstrap = name if spec.glue else f"glue{i + 1}.{spec.nsdomain}"
        tld_zone.add_delegation(spec.nsdomain, bootstrap,
                                glue=[ARdata(address)], ttl=spec.tld_ttl)

    directory = PoolDirectory(
        benign=_make_benign_pool(pool.size, dual_stack=pool.dual_stack),
        answers_per_query=pool.answers_per_query,
        rng=rng_registry.stream("pool-rotation"),
    )
    pool_zone = Zone(spec.zone, soa_mname=zone_servers[0][0],
                     default_ttl=pool.ttl)
    for name, _ in zone_servers:
        pool_zone.add_record(spec.zone, NSRdata(Name(name)))
    pool_zone.add_provider(pool_domain, RRType.A,
                           directory.record_provider(family=4), ttl=pool.ttl)
    if pool.dual_stack:
        pool_zone.add_provider(pool_domain, RRType.AAAA,
                               directory.record_provider(family=6),
                               ttl=pool.ttl)

    ns_zone = Zone(spec.nsdomain, soa_mname=zone_servers[0][0])
    for name, address in zone_servers:
        ns_zone.add_record(name, ARdata(address))

    servers: Dict[str, Any] = {
        "root": AuthoritativeServer(hosts[root_name], [root_zone]),
    }
    for name, _ in tld_servers:
        servers[name] = AuthoritativeServer(hosts[name], [tld_zone])
    for name, _ in zone_servers:
        servers[name] = AuthoritativeServer(hosts[name],
                                            [pool_zone, ns_zone])

    root_hints = [(Name(root_name), IPAddress(HIERARCHY_ROOT_ADDRESS))]
    return HierarchyDeployment(
        spec=spec, directory=directory, pool_domain=pool_domain,
        pool_zone=pool_zone, servers=servers, root_hints=root_hints,
        zones={".": root_zone, spec.tld: tld_zone, spec.zone: pool_zone,
               spec.nsdomain: ns_zone},
        hosts=hosts)


def compile_legacy_tree(internet, rng_registry, pool) -> HierarchyDeployment:
    """The pre-hierarchy flat tree, verbatim: root + org + three ntpns
    hosts at their historical ``10.0.0.x`` addresses.  This is what
    ``ResolverSpec(mode="forwarding")`` worlds deploy — byte-for-byte
    the construction the scenario compiler used before the hierarchy
    subsystem existed, so golden fixtures stay pinned.
    """
    from repro.dns.name import Name
    from repro.dns.rdata import ARdata, NSRdata
    from repro.dns.rrtype import RRType
    from repro.dns.server import AuthoritativeServer
    from repro.dns.zone import Zone
    from repro.netsim.address import IPAddress, ip
    from repro.netsim.host import Host
    from repro.scenarios.builders import (
        NTP_NS_ADDRESSES,
        ORG_NS_ADDRESS,
        POOL_DOMAIN,
        ROOT_NS_ADDRESS,
        _make_benign_pool,
    )
    from repro.scenarios.workload import PoolDirectory

    root_host = internet.add_host(
        Host("a.root-servers.net", "dns-root-edge", [ip(ROOT_NS_ADDRESS)]))
    org_host = internet.add_host(
        Host("a0.org.afilias-nst.info", "dns-org-edge", [ip(ORG_NS_ADDRESS)]))

    root_zone = Zone(".", soa_mname="a.root-servers.net")
    root_zone.add_delegation("org", "a0.org.afilias-nst.info")
    # Out-of-zone NS target needs glue at the root (it lives under
    # .info in reality; here the root carries the A record directly).
    root_zone.add_record("a0.org.afilias-nst.info", ARdata(ORG_NS_ADDRESS))

    org_zone = Zone("org", soa_mname="a0.org.afilias-nst.info")
    ntpns_hosts = {}
    for ns_name, address in NTP_NS_ADDRESSES.items():
        org_zone.add_delegation("ntp.org", ns_name, glue=[ARdata(address)])
        ntpns_hosts[ns_name] = internet.add_host(
            Host(ns_name, "ntpns-edge", [ip(address)]))
    # ntpns.org itself is a real zone too (its servers' names live there).
    org_zone.add_delegation("ntpns.org", "c.ntpns.org",
                            glue=[ARdata(NTP_NS_ADDRESSES["c.ntpns.org"])])

    directory = PoolDirectory(
        benign=_make_benign_pool(pool.size, dual_stack=pool.dual_stack),
        answers_per_query=pool.answers_per_query,
        rng=rng_registry.stream("pool-rotation"),
    )
    pool_zone = Zone("ntp.org", soa_mname="c.ntpns.org", default_ttl=pool.ttl)
    for ns_name in NTP_NS_ADDRESSES:
        pool_zone.add_record("ntp.org", NSRdata(Name(ns_name)))
    pool_zone.add_provider(POOL_DOMAIN, RRType.A,
                           directory.record_provider(family=4), ttl=pool.ttl)
    if pool.dual_stack:
        pool_zone.add_provider(POOL_DOMAIN, RRType.AAAA,
                               directory.record_provider(family=6),
                               ttl=pool.ttl)

    ntpns_zone = Zone("ntpns.org", soa_mname="c.ntpns.org")
    for ns_name, address in NTP_NS_ADDRESSES.items():
        ntpns_zone.add_record(ns_name, ARdata(address))

    dns_servers = {
        "root": AuthoritativeServer(root_host, [root_zone]),
        "org": AuthoritativeServer(org_host, [org_zone]),
    }
    for ns_name, host in ntpns_hosts.items():
        dns_servers[ns_name] = AuthoritativeServer(host, [pool_zone, ntpns_zone])

    root_hints = [(Name("a.root-servers.net"), IPAddress(ROOT_NS_ADDRESS))]

    hosts = {"a.root-servers.net": root_host,
             "a0.org.afilias-nst.info": org_host}
    hosts.update(ntpns_hosts)
    return HierarchyDeployment(
        spec=None, directory=directory, pool_domain=POOL_DOMAIN,
        pool_zone=pool_zone, servers=dns_servers, root_hints=root_hints,
        zones={".": root_zone, "org": org_zone, "ntp.org": pool_zone,
               "ntpns.org": ntpns_zone},
        hosts=hosts)


__all__ = [
    "DEFAULT_ROOT_TTL",
    "DEFAULT_TLD_TTL",
    "HIERARCHY_ROOT_ADDRESS",
    "HierarchyDeployment",
    "HierarchySpec",
    "compile_hierarchy",
    "compile_legacy_tree",
]
