"""Compromised DoH providers.

The paper's assumption is that the attacker corrupts *up to* a fraction
``1 - x`` of the trusted resolvers. A compromised provider still speaks
perfect TLS with its genuine certificate — the corruption is behind the
API: its answers for targeted names are attacker-chosen.

``compromise_provider`` swaps the provider's recursion engine for a
:class:`_MaliciousResolver` wrapper; everything else (the DoH front-end,
the TLS identity) stays untouched, which is what makes the attack
invisible to the transport layer and why only majority logic can defeat
it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dns.message import Message, Question, ResourceRecord
from repro.dns.name import Name
from repro.dns.rdata import address_rdata
from repro.dns.resolver import RecursiveResolver, ResolveOutcome, ResolveStatus
from repro.dns.rrtype import RRType
from repro.doh.providers import ProviderDeployment
from repro.netsim.address import IPAddress


class CompromisedResolverBehavior(enum.Enum):
    """What the corrupted provider does to targeted lookups."""

    SUBSTITUTE = "substitute"     # answer with attacker addresses
    INFLATE = "inflate"           # attacker addresses, many of them ([1])
    EMPTY = "empty"               # zero-record NOERROR (fn.2 DoS)
    TRUTHFUL = "truthful"         # behave (e.g. while evading detection)


@dataclass
class CompromiseConfig:
    """Attack parameters for one compromised provider."""

    target: Name
    behavior: CompromisedResolverBehavior
    forged_addresses: List[IPAddress] = field(default_factory=list)
    inflate_to: int = 20
    ttl: int = 86_400

    def __post_init__(self) -> None:
        self.target = Name(self.target)
        self.forged_addresses = [IPAddress(a) for a in self.forged_addresses]
        needs_addresses = self.behavior in (
            CompromisedResolverBehavior.SUBSTITUTE,
            CompromisedResolverBehavior.INFLATE)
        if needs_addresses and not self.forged_addresses:
            raise ValueError(
                f"{self.behavior.value} behaviour needs forged addresses")


class _MaliciousResolver:
    """Duck-typed stand-in for :class:`RecursiveResolver`.

    Honest lookups are delegated to the provider's original engine, so
    the compromise is *selective* — exactly what a stealthy attacker
    (or a coerced operator) would deploy.
    """

    def __init__(self, genuine: RecursiveResolver,
                 config: CompromiseConfig) -> None:
        self._genuine = genuine
        self._config = config
        self.poisoned_answers = 0

    # The DoH server only uses .resolve(); keep the surface minimal.
    def resolve(self, qname, qtype, callback) -> None:
        qname = Name(qname)
        config = self._config
        is_target = (qname == config.target
                     and qtype in (RRType.A, RRType.AAAA)
                     and config.behavior
                     is not CompromisedResolverBehavior.TRUTHFUL)
        if not is_target:
            self._genuine.resolve(qname, qtype, callback)
            return
        self.poisoned_answers += 1
        if config.behavior is CompromisedResolverBehavior.EMPTY:
            callback(ResolveOutcome(status=ResolveStatus.NODATA))
            return
        addresses = list(config.forged_addresses)
        if config.behavior is CompromisedResolverBehavior.INFLATE:
            # Exactly inflate_to records: repeat the attacker's servers
            # as needed, or trim if it owns more than it wants to show.
            addresses = addresses[:config.inflate_to]
            while len(addresses) < config.inflate_to:
                addresses.append(
                    config.forged_addresses[len(addresses)
                                            % len(config.forged_addresses)])
        wanted_family = 4 if qtype is RRType.A else 6
        records = [
            ResourceRecord(qname, qtype, config.ttl, address_rdata(address))
            for address in addresses if address.family == wanted_family
        ]
        if not records:
            # The attacker holds no servers in this address family, so
            # lying here would only produce a conspicuous empty answer;
            # a stealthy compromise answers truthfully instead (this is
            # the per-family poisoning case of §II footnote 1 / E9).
            self.poisoned_answers -= 1
            self._genuine.resolve(qname, qtype, callback)
            return
        callback(ResolveOutcome(status=ResolveStatus.SUCCESS,
                                records=records))


def compromise_provider(deployment: ProviderDeployment,
                        config: CompromiseConfig) -> _MaliciousResolver:
    """Corrupt one deployed provider in place.

    Returns the malicious engine (exposes ``poisoned_answers`` for
    experiment accounting).
    """
    malicious = _MaliciousResolver(deployment.resolver, config)
    # Hook every interface the provider serves: the DoH front-end's
    # resolver reference (when one is deployed) and the recursion engine
    # behind the provider's plain-DNS port (population-scale clients
    # query the latter).
    if deployment.doh_server is not None:
        deployment.doh_server._resolver = malicious  # noqa: SLF001 - attack model
    deployment.resolver.serve_engine = malicious
    return malicious


def corrupt_first_k(providers: Sequence[ProviderDeployment], k: int,
                    config: CompromiseConfig) -> List[_MaliciousResolver]:
    """Corrupt ``k`` of the given providers (deterministically the first
    k — which ones does not matter by symmetry)."""
    if not 0 <= k <= len(providers):
        raise ValueError(f"k must be in [0, {len(providers)}], got {k}")
    return [compromise_provider(provider, config)
            for provider in providers[:k]]
