"""Authoritative zone data and lookup semantics.

A :class:`Zone` holds the records for one origin, knows its delegations,
and answers the question "what should an authoritative server say for
this (name, type)?" via :meth:`Zone.lookup`, returning a structured
:class:`LookupResult` (answer / referral / NXDOMAIN / NODATA).

Dynamic record sets — the pool.ntp.org behaviour of returning a fresh
rotation of servers on every query — are modelled by registering a
*record provider* callable for a name/type pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dns.message import ResourceRecord
from repro.dns.name import Name
from repro.dns.rdata import NSRdata, Rdata, SOARdata
from repro.dns.rrtype import RRType

# A provider returns the rdatas to serve for one query (called per query).
RecordProvider = Callable[[], List[Rdata]]


class ZoneError(ValueError):
    """Raised for inconsistent zone contents."""


class LookupStatus(enum.Enum):
    """Outcome classes of an authoritative lookup."""

    ANSWER = "answer"
    DELEGATION = "delegation"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    NOT_IN_ZONE = "not-in-zone"


@dataclass
class LookupResult:
    """Structured result of :meth:`Zone.lookup`."""

    status: LookupStatus
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)
    additional: List[ResourceRecord] = field(default_factory=list)


class Zone:
    """Records for one DNS origin, plus delegation knowledge.

    >>> zone = Zone("example.com", soa_mname="ns1.example.com")
    >>> from repro.dns.rdata import ARdata
    >>> record = zone.add_record("www.example.com", ARdata("192.0.2.1"))
    >>> record.ttl
    300
    >>> result = zone.lookup(Name("www.example.com"), RRType.A)
    >>> result.status is LookupStatus.ANSWER
    True
    """

    DEFAULT_TTL = 300

    def __init__(self, origin: "Name | str",
                 soa_mname: "Name | str | None" = None,
                 soa_rname: "Name | str | None" = None,
                 default_ttl: int = DEFAULT_TTL) -> None:
        self._origin = Name(origin)
        self._default_ttl = default_ttl
        self._records: Dict[Tuple[Name, RRType], List[ResourceRecord]] = {}
        self._providers: Dict[Tuple[Name, RRType], RecordProvider] = {}
        self._names: set[Name] = {self._origin}
        mname = Name(soa_mname) if soa_mname else self._origin.child("ns1")
        rname = Name(soa_rname) if soa_rname else self._origin.child("hostmaster")
        self._soa = ResourceRecord(
            self._origin, RRType.SOA, default_ttl,
            SOARdata(mname=mname, rname=rname),
        )

    # ------------------------------------------------------------------
    # Contents.
    # ------------------------------------------------------------------

    @property
    def origin(self) -> Name:
        return self._origin

    @property
    def soa(self) -> ResourceRecord:
        return self._soa

    @property
    def default_ttl(self) -> int:
        return self._default_ttl

    def add_record(self, name: "Name | str", rdata: Rdata,
                   ttl: Optional[int] = None) -> ResourceRecord:
        """Add one record; the name must be at or below the origin."""
        owner = Name(name)
        if not owner.is_subdomain_of(self._origin):
            raise ZoneError(f"{owner} is not within zone {self._origin}")
        record = ResourceRecord(owner, rdata.rrtype,
                                self._default_ttl if ttl is None else ttl,
                                rdata)
        self._records.setdefault((owner, rdata.rrtype), []).append(record)
        self._register_name(owner)
        return record

    def add_provider(self, name: "Name | str", rrtype: RRType,
                     provider: RecordProvider, ttl: Optional[int] = None) -> None:
        """Register a dynamic record source for (name, type).

        The provider is invoked on *every* lookup, so it can rotate its
        answers like pool.ntp.org does.
        """
        owner = Name(name)
        if not owner.is_subdomain_of(self._origin):
            raise ZoneError(f"{owner} is not within zone {self._origin}")
        self._providers[(owner, rrtype)] = provider
        self._register_name(owner)
        if ttl is not None:
            self._provider_ttl = ttl

    def add_delegation(self, child: "Name | str", ns_name: "Name | str",
                       glue: Optional[List[Rdata]] = None,
                       ttl: Optional[int] = None) -> None:
        """Delegate ``child`` to nameserver ``ns_name`` with optional glue."""
        child_name = Name(child)
        if child_name == self._origin or not child_name.is_subdomain_of(self._origin):
            raise ZoneError(f"{child_name} cannot be delegated from {self._origin}")
        server = Name(ns_name)
        self.add_record(child_name, NSRdata(server), ttl)
        for rdata in glue or []:
            if not server.is_subdomain_of(self._origin):
                raise ZoneError(
                    f"glue for {server} does not belong in {self._origin}"
                )
            self.add_record(server, rdata, ttl)

    def records(self, name: "Name | str", rrtype: RRType) -> List[ResourceRecord]:
        """Static records for (name, type); providers are not consulted."""
        return list(self._records.get((Name(name), rrtype), []))

    def _register_name(self, owner: Name) -> None:
        # Track every name (and intermediate empty non-terminals) so the
        # NXDOMAIN-vs-NODATA distinction matches real servers.
        current = owner
        while True:
            self._names.add(current)
            if current == self._origin:
                return
            current = current.parent()

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """Authoritative lookup with referral and CNAME handling."""
        qname = Name(qname)
        if not qname.is_subdomain_of(self._origin):
            return LookupResult(LookupStatus.NOT_IN_ZONE)

        # Delegation check: walk from just below the origin toward the
        # qname; the first cut with NS records wins (unless it's the
        # qname itself asked for NS at the apex, which stays an answer).
        delegation = self._find_delegation(qname)
        if delegation is not None:
            ns_records = self._records[(delegation, RRType.NS)]
            additional = self._glue_for(ns_records)
            return LookupResult(LookupStatus.DELEGATION,
                                authority=list(ns_records),
                                additional=additional)

        # CNAME at the qname (unless CNAME itself was asked).
        cname_records = self._records.get((qname, RRType.CNAME), [])
        if cname_records and qtype not in (RRType.CNAME, RRType.ANY):
            return LookupResult(LookupStatus.ANSWER,
                                answers=list(cname_records))

        answers = self._answers_for(qname, qtype)
        if answers:
            return LookupResult(LookupStatus.ANSWER, answers=answers)

        if qname in self._names:
            return LookupResult(LookupStatus.NODATA, authority=[self._soa])
        return LookupResult(LookupStatus.NXDOMAIN, authority=[self._soa])

    def _answers_for(self, qname: Name, qtype: RRType) -> List[ResourceRecord]:
        collected: List[ResourceRecord] = []
        if qtype is RRType.ANY:
            for (owner, rrtype), records in self._records.items():
                if owner == qname:
                    collected.extend(records)
            for (owner, rrtype), provider in self._providers.items():
                if owner == qname:
                    collected.extend(self._materialise(owner, rrtype, provider))
            return collected
        provider = self._providers.get((qname, qtype))
        if provider is not None:
            collected.extend(self._materialise(qname, qtype, provider))
        collected.extend(self._records.get((qname, qtype), []))
        return collected

    def _materialise(self, owner: Name, rrtype: RRType,
                     provider: RecordProvider) -> List[ResourceRecord]:
        ttl = getattr(self, "_provider_ttl", self._default_ttl)
        records = []
        for rdata in provider():
            if rdata.rrtype != rrtype:
                raise ZoneError(
                    f"provider for {owner}/{rrtype.name} returned "
                    f"{rdata.rrtype.name} rdata"
                )
            records.append(ResourceRecord(owner, rrtype, ttl, rdata))
        return records

    def _find_delegation(self, qname: Name) -> Optional[Name]:
        """The closest enclosing delegation cut strictly below the origin.

        Returns None when the qname is served authoritatively here.
        A query *for* the NS set at a cut still returns the referral,
        matching real authoritative behaviour.
        """
        # Candidate cuts: ancestors of qname strictly below the origin.
        cuts = []
        current = qname
        while current != self._origin and current.is_subdomain_of(self._origin):
            cuts.append(current)
            current = current.parent()
        # Walk top-down (closest to origin first) for the first NS cut.
        for cut in reversed(cuts):
            if (cut, RRType.NS) in self._records:
                return cut
        return None

    def _glue_for(self, ns_records: List[ResourceRecord]) -> List[ResourceRecord]:
        glue: List[ResourceRecord] = []
        for record in ns_records:
            assert isinstance(record.rdata, NSRdata)
            target = record.rdata.target
            for rrtype in (RRType.A, RRType.AAAA):
                glue.extend(self._records.get((target, rrtype), []))
        return glue
