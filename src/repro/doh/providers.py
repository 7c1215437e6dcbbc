"""DoH provider deployments.

A *provider* is one DoH service a client may trust: a host somewhere in
the topology running a recursive resolver plus a DoH front-end, with a
certificate issued by a CA (or, deployed without a CA, the same host
and resolver serving plain DNS only). Profiles for the three providers
named in the paper's Figure 1 (dns.google, cloudflare-dns.com,
dns.quad9.net) are predefined; :func:`synthetic_profiles` generates
arbitrarily many more for large-N experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.resolver import RecursiveResolver, ResolverConfig
from repro.doh.server import DoHServer
from repro.doh.tls import (
    Certificate,
    CertificateAuthority,
    KeyPair,
    ServerIdentity,
)
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.util.rng import RngRegistry
from repro.util.specbase import SpecBase


@dataclass(frozen=True)
class DoHProviderProfile(SpecBase):
    """Static description of a provider before deployment; also the
    spec :attr:`repro.scenarios.spec.ProviderSpec.profiles` holds."""

    name: str          # TLS server name, e.g. "dns.google"
    region: str        # topology node to attach to
    address: str       # service IP in the simulation

    def __str__(self) -> str:
        return f"{self.name}@{self.region}"


# The three providers shown in the paper's Figure 1.
GOOGLE = DoHProviderProfile("dns.google", "us-west", "10.53.0.1")
CLOUDFLARE = DoHProviderProfile("cloudflare-dns.com", "us-east", "10.53.0.2")
QUAD9 = DoHProviderProfile("dns.quad9.net", "eu-west", "10.53.0.3")
FIGURE1_PROVIDERS = [GOOGLE, CLOUDFLARE, QUAD9]


def synthetic_profiles(count: int, regions: List[str],
                       subnet_prefix: str = "10.54") -> List[DoHProviderProfile]:
    """Generate ``count`` synthetic provider profiles round-robin over
    ``regions`` (used by the large-N sweeps in E2-E4)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not regions:
        raise ValueError("need at least one region")
    profiles = []
    for index in range(count):
        region = regions[index % len(regions)]
        profiles.append(DoHProviderProfile(
            name=f"doh{index}.resolvers.example",
            region=region,
            address=f"{subnet_prefix}.{index // 250}.{index % 250 + 1}",
        ))
    return profiles


class _ProviderIdentity:
    """A provider's static key pair and certificate, made on first use.

    Deployment reserves the certificate's CA serial and remembers the
    provider's ``provider-key`` stream; the first call draws the key
    pair from that stream and issues under the reserved serial. Every
    value is therefore the one an eager deployment would have made,
    whichever provider is contacted first and whatever the CA issued
    meanwhile.
    """

    __slots__ = ("_keys", "_issue", "_made")

    def __init__(self, keys: random.Random,
                 issue: Callable[[int], Certificate]) -> None:
        self._keys: Optional[random.Random] = keys
        self._issue: Optional[Callable[[int], Certificate]] = issue
        self._made: Optional[Tuple[Certificate, KeyPair]] = None

    def __call__(self) -> Tuple[Certificate, KeyPair]:
        made = self._made
        if made is None:
            keypair = KeyPair.generate(self._keys)
            made = self._made = (self._issue(keypair.public), keypair)
            self._keys = self._issue = None
        return made


@dataclass
class ProviderDeployment:
    """A live provider: host + recursive resolver serving plain DNS on
    :53, and, when deployed with a CA, a DoH front-end on :443.

    A DoH provider's TLS identity is made the first time anything needs
    it: a ClientHello at its front end, or a read of :attr:`keypair`
    or :attr:`certificate`. Until then the world holds no key and has
    not loaded ``cryptography``. A plain-DNS provider has no front end,
    and both attributes read ``None``.
    """

    profile: DoHProviderProfile
    host: Host
    resolver: RecursiveResolver
    doh_server: Optional[DoHServer] = None
    identity: Optional[ServerIdentity] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def endpoint(self) -> Endpoint:
        if self.doh_server is None:
            raise ValueError(
                f"provider {self.name!r} serves plain DNS only "
                f"(no DoH endpoint)")
        return self.doh_server.endpoint

    @property
    def address(self) -> IPAddress:
        return self.host.primary_address

    @property
    def certificate(self) -> Optional[Certificate]:
        """The DoH front end's certificate (``None`` for plain DNS)."""
        return None if self.identity is None else self.identity()[0]

    @property
    def keypair(self) -> Optional[KeyPair]:
        """The static DH key pair the certificate binds (``None`` for
        plain DNS)."""
        return None if self.identity is None else self.identity()[1]


def deploy_provider(internet: Internet, profile: DoHProviderProfile,
                    authority: Optional[CertificateAuthority],
                    root_hints: List[Tuple[Name, IPAddress]],
                    rng_registry: RngRegistry,
                    resolver_config: Optional[ResolverConfig] = None,
                    instrument: bool = False) -> ProviderDeployment:
    """Stand up one provider in the simulated Internet.

    Creates the host and the recursive resolver, which serves plain DNS
    on :53 and is the recursion engine behind everything the provider
    answers. With an ``authority``, the provider also serves DoH: the
    CA's next serial is reserved for it now, and the DoH front-end on
    :443 mints the TLS identity (key pair from the ``provider-key``
    stream, certificate under that serial) on first use. With
    ``authority=None`` the provider serves plain DNS only (the
    ``serve="dns"`` mode of :class:`~repro.scenarios.spec.ProviderSpec`).
    ``instrument=True`` turns on the resolver's cache/referral
    telemetry (iterative-hierarchy worlds).
    """
    host = internet.add_host(Host(
        profile.name, profile.region, [IPAddress(profile.address)],
        rng=rng_registry.stream("provider-ports", profile.name)))
    resolver = RecursiveResolver(
        host, internet.simulator, root_hints,
        config=resolver_config or ResolverConfig(),
        rng=rng_registry.stream("provider-txid", profile.name),
        instrument=instrument)
    if authority is None:
        return ProviderDeployment(profile=profile, host=host,
                                  resolver=resolver)
    identity = _ProviderIdentity(
        rng_registry.stream("provider-key", profile.name),
        authority.reserve(profile.name))
    return ProviderDeployment(
        profile=profile, host=host, resolver=resolver,
        doh_server=DoHServer(host, resolver, identity), identity=identity)
