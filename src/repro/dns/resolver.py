"""Caching recursive resolver with iterative resolution.

This is the component the paper's off-path attacker targets. The attack
surface is modelled faithfully:

* each upstream query uses a fresh ephemeral source port (random by
  default — the host option ``randomize_ports=False`` models weak
  stacks) and a TXID drawn from a configurable space;
* a response is accepted only if it arrives on the right socket, from
  the queried server's endpoint, with the matching TXID and question —
  exactly the checks a real resolver performs, no more;
* records are bailiwick-filtered: a server can only speak for names at
  or below the zone the resolver believes it is authoritative for.

Resolution is iterative (root hints → referrals → answer) with CNAME
chasing, per-server retry, negative caching, and counters for every
security-relevant event (spoofed responses rejected, etc.).

Upstream timeout/retry supervision rides on
:class:`repro.netsim.transport.Transport`: one
:meth:`~repro.netsim.transport.Transport.exchange` per queried server
covers that server's whole retry budget (fresh ephemeral socket and
TXID per attempt, exponential backoff per
:attr:`ResolverConfig.retry_backoff`); a server answering with a
SERVFAIL-class rcode advances straight to the next server.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dns.cache import DnsCache
from repro.dns.client import validate_reply
from repro.dns.message import Message, ResourceRecord, make_query, make_response
from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rdata import CNAMERdata, NSRdata
from repro.dns.rrtype import RRType
from repro.dns.wire import WireFormatError
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.transport import (
    DatagramExchange,
    PendingExchange,
    RetryPolicy,
)
from repro.util.errors import ConfigurationError
from repro.util.specbase import SpecBase

DNS_PORT = 53


@dataclass(frozen=True)
class ResolverConfig(SpecBase):
    """Tunables for the recursive resolver.

    A spec like :class:`~repro.dns.hierarchy.HierarchySpec`: scenario
    worlds carry it as :class:`~repro.scenarios.spec.ResolverSpec`, which
    adds only the world's resolution mode.

    ``txid_bits`` exists so attack experiments can shrink the TXID space
    (the real space is 16 bits; classic pre-randomisation resolvers
    effectively had far less entropy).

    ``retry_backoff`` multiplies the per-attempt timeout on every retry
    against the same server (capped by ``retry_max_timeout``), so a
    patient configuration waits longer each time instead of hammering a
    congested path at a fixed cadence.
    """

    query_timeout: float = 2.0
    max_retries_per_server: int = 1
    retry_backoff: float = 1.5
    retry_max_timeout: Optional[float] = 8.0
    max_referral_depth: int = 16
    max_cname_chain: int = 8
    max_ns_resolution_depth: int = 4
    txid_bits: int = 16
    randomize_txid: bool = True
    cache_max_entries: int = 10_000
    negative_ttl_cap: int = 900
    serve_port: int = DNS_PORT

    def __post_init__(self) -> None:
        if not 1 <= self.txid_bits <= 16:
            raise ConfigurationError("txid_bits must be in [1, 16]")
        if self.retry_backoff < 1.0:
            raise ConfigurationError("retry_backoff must be >= 1.0")

    def retry_policy(self) -> RetryPolicy:
        """The transport schedule for one server's retry budget."""
        max_timeout = self.retry_max_timeout
        if max_timeout is not None and max_timeout < self.query_timeout:
            max_timeout = self.query_timeout
        return RetryPolicy(timeout=self.query_timeout,
                           retries=self.max_retries_per_server,
                           backoff=self.retry_backoff,
                           max_timeout=max_timeout)


class ResolveStatus(enum.Enum):
    """Terminal states of one resolution."""

    SUCCESS = "success"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    SERVFAIL = "servfail"
    TIMEOUT = "timeout"


@dataclass
class ResolveOutcome:
    """What a resolution produced."""

    status: ResolveStatus
    records: List[ResourceRecord] = field(default_factory=list)
    rcode: RCode = RCode.NOERROR
    from_cache: bool = False
    upstream_queries: int = 0

    @property
    def ok(self) -> bool:
        return self.status is ResolveStatus.SUCCESS


ResolveCallback = Callable[[ResolveOutcome], None]


@dataclass
class ResolverStats:
    """Security/operations counters exposed for experiments.

    ``exposure_windows`` / ``exposure_open_s`` quantify the paper's
    poisoning surface: every resolution that misses the cache opens a
    window (cache-miss start → slot filled) during which a spoofed
    answer can race the genuine one; ``referrals_followed`` counts the
    hops those resolutions walked down the hierarchy."""

    client_queries: int = 0
    upstream_queries: int = 0
    responses_accepted: int = 0
    spoofs_rejected: int = 0
    poisoned_acceptances: int = 0
    timeouts: int = 0
    servfails: int = 0
    cache_hits: int = 0
    bailiwick_rejected_records: int = 0
    referrals_followed: int = 0
    exposure_windows: int = 0
    exposure_open_s: float = 0.0


class RecursiveResolver:
    """An iterative, caching resolver bound to a simulated host.

    :param host: machine to run on; upstream queries use its ephemeral
        ports (randomised or not, per the host's configuration).
    :param simulator: virtual-time engine for timeouts and TTLs.
    :param root_hints: (server name, address) pairs for the root zone.
    :param config: behavioural tunables.
    :param rng: randomness source for TXIDs and server selection.
    :param instrument: publish per-hop RTT series, referral-depth and
        exposure-window histograms, cache hit/miss counters, and
        ``resolver.resolve``/``resolver.step`` trace spans.  The
        ambient registry/tracer are captured *once*, here — with no
        ambient sinks (or ``instrument=False``, the default) the
        resolver publishes nothing and behaves bit-identically.
    """

    def __init__(self, host: Host, simulator: Simulator,
                 root_hints: List[Tuple[Name, IPAddress]],
                 config: Optional[ResolverConfig] = None,
                 rng: Optional[random.Random] = None,
                 instrument: bool = False) -> None:
        if not root_hints:
            raise ValueError("resolver needs at least one root hint")
        self._host = host
        self._simulator = simulator
        self._root_hints = [(Name(name), IPAddress(address))
                            for name, address in root_hints]
        self._config = config or ResolverConfig()
        self._rng = rng or random.Random(0)
        registry = tracer = None
        if instrument:
            from repro.telemetry.registry import current_registry
            from repro.telemetry.trace import current_tracer
            registry = current_registry()
            tracer = current_tracer()
        self._tracer = tracer
        self._hop_rtt = self._depth_hist = self._exposure_hist = None
        if registry is not None:
            label = host.name
            self._hop_rtt = registry.timeseries(
                "dns.resolver.hop_rtt", resolver=label)
            self._depth_hist = registry.histogram(
                "dns.resolver.referral_depth", resolver=label)
            self._exposure_hist = registry.histogram(
                "dns.resolver.exposure_window", resolver=label)
        self._cache = DnsCache(clock=lambda: simulator.now,
                               max_entries=self._config.cache_max_entries,
                               registry=registry, label=host.name)
        self._stats = ResolverStats()
        self._sequential_txid = 0
        self._transport = host.transport(simulator)
        self._retry_policy = self._config.retry_policy()
        self._serve_socket = host.bind(self._config.serve_port,
                                       self._handle_client_query)
        # The engine answering plain-DNS clients on :53; attack code
        # swaps this (like the DoH front-end's resolver reference) so a
        # compromised provider lies on every interface it serves.
        self.serve_engine: "RecursiveResolver" = self
        # Bounded-queue capacity during chaos Overload windows; None
        # (the steady state) keeps the historical inline serve path.
        self.capacity = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def host(self) -> Host:
        return self._host

    @property
    def cache(self) -> DnsCache:
        return self._cache

    @property
    def stats(self) -> ResolverStats:
        return self._stats

    @property
    def config(self) -> ResolverConfig:
        return self._config

    @property
    def address(self) -> IPAddress:
        return self._host.primary_address

    @property
    def endpoint(self) -> Endpoint:
        return self._serve_socket.endpoint

    # ------------------------------------------------------------------
    # Serving stub clients (plain DNS on :53).
    # ------------------------------------------------------------------

    def _handle_client_query(self, datagram: Datagram) -> None:
        try:
            query = Message.decode(datagram.payload)
        except WireFormatError:
            return
        if query.is_response or len(query.questions) != 1:
            return
        capacity = self.capacity
        if capacity is None:
            self._serve_client_query(datagram, query)
            return

        def reject() -> None:
            self._serve_socket.reply(datagram, make_response(
                query, rcode=RCode.SERVFAIL,
                recursion_available=True).encode())

        capacity.admit(lambda: self._serve_client_query(datagram, query),
                       reject)

    def _serve_client_query(self, datagram: Datagram,
                            query: Message) -> None:
        self._stats.client_queries += 1
        question = query.question

        def respond(outcome: ResolveOutcome) -> None:
            response = self.outcome_to_response(query, outcome)
            self._serve_socket.reply(datagram, response.encode())

        self.serve_engine.resolve(question.qname, question.qtype, respond)

    @staticmethod
    def outcome_to_response(query: Message, outcome: ResolveOutcome) -> Message:
        """Render a resolution outcome as a response to ``query``.

        Shared by the plain-DNS serving path and the DoH front-end."""
        if outcome.status is ResolveStatus.SUCCESS:
            return make_response(query, answers=outcome.records,
                                 recursion_available=True)
        if outcome.status is ResolveStatus.NXDOMAIN:
            return make_response(query, rcode=RCode.NXDOMAIN,
                                 recursion_available=True)
        if outcome.status is ResolveStatus.NODATA:
            return make_response(query, recursion_available=True)
        return make_response(query, rcode=RCode.SERVFAIL,
                             recursion_available=True)

    # ------------------------------------------------------------------
    # Public resolution API.
    # ------------------------------------------------------------------

    def resolve(self, qname: "Name | str", qtype: RRType,
                callback: ResolveCallback) -> None:
        """Resolve (qname, qtype), invoking ``callback`` exactly once."""
        _Resolution(self, Name(qname), qtype, callback).start()

    # ------------------------------------------------------------------
    # Internals shared with _Resolution.
    # ------------------------------------------------------------------

    def _next_txid(self) -> int:
        space = 1 << self._config.txid_bits
        if self._config.randomize_txid:
            return self._rng.randrange(space)
        txid = self._sequential_txid
        self._sequential_txid = (self._sequential_txid + 1) % space
        return txid


class _Resolution:
    """State machine for one (qname, qtype) resolution."""

    __slots__ = ("_resolver", "_qname", "_qtype", "_callback", "_ns_depth",
                 "_config", "_sim", "_zone", "_servers", "_server_index",
                 "_referrals", "_cname_chain", "_upstream_queries",
                 "_finished", "_exchange", "_started", "_span")

    def __init__(self, resolver: RecursiveResolver, qname: Name,
                 qtype: RRType, callback: ResolveCallback,
                 ns_depth: int = 0, cname_depth: int = 0,
                 parent_span=None) -> None:
        self._resolver = resolver
        self._qname = qname
        self._qtype = qtype
        self._callback = callback
        self._ns_depth = ns_depth
        self._config = resolver._config
        self._sim = resolver._simulator
        # Current zone of authority and its servers.
        self._zone = Name.root()
        self._servers: List[Tuple[Name, IPAddress]] = list(resolver._root_hints)
        self._server_index = 0
        self._referrals = 0
        self._cname_chain = cname_depth
        self._upstream_queries = 0
        self._finished = False
        self._exchange: Optional[DatagramExchange] = None
        self._started = self._sim.now
        tracer = resolver._tracer
        if tracer is None:
            self._span = None
        elif parent_span is not None:
            # Sub-resolutions (glueless NS, CNAME chase) hang off their
            # parent explicitly: the ambient span is unreliable across
            # simulator-callback hops.
            self._span = tracer.begin(
                "resolver.resolve", parent=parent_span,
                attrs={"qname": str(qname), "qtype": qtype.name})
        else:
            self._span = tracer.begin(
                "resolver.resolve",
                attrs={"qname": str(qname), "qtype": qtype.name,
                       "resolver": resolver._host.name})

    # ------------------------------------------------------------------
    # Driving.
    # ------------------------------------------------------------------

    def start(self) -> None:
        cached = self._resolver._cache.get(self._qname, self._qtype)
        if cached is not None:
            self._resolver._stats.cache_hits += 1
            if cached.is_negative:
                status = (ResolveStatus.NXDOMAIN
                          if cached.rcode is RCode.NXDOMAIN
                          else ResolveStatus.NODATA)
                self._finish(ResolveOutcome(status, rcode=cached.rcode,
                                            from_cache=True))
            else:
                self._finish(ResolveOutcome(ResolveStatus.SUCCESS,
                                            records=cached.records,
                                            from_cache=True))
            return
        # A cached CNAME for the qname restarts the chase without
        # touching the network.
        if self._qtype not in (RRType.CNAME, RRType.ANY):
            cached_cname = self._resolver._cache.get(self._qname, RRType.CNAME)
            if cached_cname is not None and not cached_cname.is_negative:
                self._resolver._stats.cache_hits += 1
                self._follow_cname(cached_cname.records[0], from_cache=True)
                return
        self._query_current_server()

    def _query_current_server(self) -> None:
        if self._finished:
            return
        if self._server_index >= len(self._servers):
            self._resolver._stats.servfails += 1
            self._finish(ResolveOutcome(ResolveStatus.SERVFAIL,
                                        rcode=RCode.SERVFAIL,
                                        upstream_queries=self._upstream_queries))
            return
        _, server_address = self._servers[self._server_index]
        server_endpoint = Endpoint(server_address, DNS_PORT)
        tracer = self._resolver._tracer
        step_span = None
        if tracer is not None:
            step_span = tracer.begin(
                "resolver.step", parent=self._span,
                attrs={"zone": str(self._zone),
                       "server": str(server_address),
                       "depth": self._referrals})
        # The transport owns this server's whole retry budget: fresh
        # ephemeral socket and TXID per attempt, backoff per the
        # resolver's policy. TXIDs come from the resolver's own stream
        # (sequential-TXID weak stacks included), so the exchange draws
        # them in build_request rather than asking the transport.
        expected: Dict[str, object] = {}

        def build_request(_: None) -> bytes:
            txid = self._resolver._next_txid()
            query = make_query(txid, self._qname, self._qtype,
                               recursion_desired=False)
            expected["txid"] = txid
            self._upstream_queries += 1
            self._resolver._stats.upstream_queries += 1
            return query.encode()

        def classify(datagram: Datagram, _: None) -> Optional[Message]:
            # Wrong TXID / source / question: a real resolver drops it
            # and keeps waiting — this is what the attacker races.
            response = validate_reply(datagram, expected["txid"],
                                      server_endpoint, self._qname,
                                      self._qtype)
            if response is None:
                self._resolver._stats.spoofs_rejected += 1
                return None
            self._resolver._stats.responses_accepted += 1
            if datagram.spoofed:
                # Accounting only: an off-path forgery beat the checks.
                self._resolver._stats.poisoned_acceptances += 1
                if step_span is not None:
                    step_span.set(poisoned=True)
            return response

        def on_complete(exchange: PendingExchange) -> None:
            self._exchange = None
            if step_span is not None:
                step_span.set(attempts=exchange.attempts,
                              timed_out=exchange.timed_out)
                tracer.finish(step_span)
            if self._finished:
                return
            if exchange.timed_out:
                # Every attempt in the budget timed out.
                self._resolver._stats.timeouts += exchange.attempts
                self._next_server()
                return
            if (self._resolver._hop_rtt is not None
                    and exchange.rtt is not None):
                self._resolver._hop_rtt.record(self._sim.now, exchange.rtt)
            # Attempts before the accepted one each burned a timeout.
            self._resolver._stats.timeouts += exchange.attempts - 1
            self._handle_response(exchange.value)

        self._exchange = self._resolver._transport.exchange(
            server_endpoint, build_request=build_request, classify=classify,
            on_complete=on_complete, policy=self._resolver._retry_policy,
            label="resolver-query")

    def _next_server(self) -> None:
        """Advance to the next candidate server with a fresh budget."""
        self._server_index += 1
        self._query_current_server()

    # ------------------------------------------------------------------
    # Response classification.
    # ------------------------------------------------------------------

    def _handle_response(self, response: Message) -> None:
        if response.rcode in (RCode.SERVFAIL, RCode.REFUSED, RCode.NOTIMP,
                              RCode.FORMERR):
            # A server that answers-but-fails will keep failing; spend
            # the remaining patience on the next candidate instead.
            self._next_server()
            return

        in_bailiwick = self._bailiwick_filter(response)

        if response.rcode is RCode.NXDOMAIN:
            negative_ttl = self._negative_ttl(response)
            self._resolver._cache.put_negative(self._qname, self._qtype,
                                               RCode.NXDOMAIN, negative_ttl)
            self._finish(ResolveOutcome(ResolveStatus.NXDOMAIN,
                                        rcode=RCode.NXDOMAIN,
                                        upstream_queries=self._upstream_queries))
            return

        # Only the answer section may satisfy the question — glue in the
        # additional section is never promoted to an answer.
        answers = [record for record in response.answers
                   if record in in_bailiwick and record.name == self._qname]
        direct = [record for record in answers
                  if record.rrtype == self._qtype]
        if direct:
            self._resolver._cache.put_positive(self._qname, self._qtype, direct)
            self._finish(ResolveOutcome(ResolveStatus.SUCCESS, records=direct,
                                        upstream_queries=self._upstream_queries))
            return

        cnames = [record for record in answers
                  if record.rrtype is RRType.CNAME]
        if cnames and self._qtype not in (RRType.CNAME, RRType.ANY):
            self._resolver._cache.put_positive(self._qname, RRType.CNAME,
                                               cnames[:1])
            self._follow_cname(cnames[0], from_cache=False)
            return

        referral = self._extract_referral(response, in_bailiwick)
        if referral is not None:
            zone, servers, glueless = referral
            self._referrals += 1
            self._resolver._stats.referrals_followed += 1
            if self._referrals > self._config.max_referral_depth:
                self._finish(ResolveOutcome(ResolveStatus.SERVFAIL,
                                            rcode=RCode.SERVFAIL,
                                            upstream_queries=self._upstream_queries))
                return
            if servers:
                self._zone = zone
                self._servers = servers
                self._server_index = 0
                self._query_current_server()
                return
            if glueless and self._ns_depth < self._config.max_ns_resolution_depth:
                self._resolve_glueless(zone, glueless[0])
                return
            self._finish(ResolveOutcome(ResolveStatus.SERVFAIL,
                                        rcode=RCode.SERVFAIL,
                                        upstream_queries=self._upstream_queries))
            return

        # NODATA: authoritative empty answer.
        negative_ttl = self._negative_ttl(response)
        self._resolver._cache.put_negative(self._qname, self._qtype,
                                           RCode.NOERROR, negative_ttl)
        self._finish(ResolveOutcome(ResolveStatus.NODATA,
                                    upstream_queries=self._upstream_queries))

    def _bailiwick_filter(self, response: Message) -> List[ResourceRecord]:
        """Drop records outside the zone the queried server speaks for."""
        kept = []
        for record in response.section_records():
            if record.name.is_subdomain_of(self._zone):
                kept.append(record)
            else:
                self._resolver._stats.bailiwick_rejected_records += 1
        return kept

    def _negative_ttl(self, response: Message) -> int:
        from repro.dns.rdata import SOARdata
        for record in response.authority:
            if isinstance(record.rdata, SOARdata):
                return min(record.rdata.minimum, record.ttl,
                           self._config.negative_ttl_cap)
        return min(60, self._config.negative_ttl_cap)

    def _extract_referral(
        self, response: Message, in_bailiwick: List[ResourceRecord]
    ) -> Optional[Tuple[Name, List[Tuple[Name, IPAddress]], List[Name]]]:
        """Parse a referral: NS records for a child zone plus glue."""
        ns_by_zone: Dict[Name, List[Name]] = {}
        for record in response.authority:
            if record not in in_bailiwick:
                continue
            if record.rrtype is RRType.NS and isinstance(record.rdata, NSRdata):
                # The referral must move us strictly *down* the tree.
                if (record.name.is_subdomain_of(self._zone)
                        and record.name != self._zone
                        and self._qname.is_subdomain_of(record.name)):
                    ns_by_zone.setdefault(record.name, []).append(
                        record.rdata.target)
        if not ns_by_zone:
            return None
        # Deepest referral wins (there is normally exactly one).
        zone = max(ns_by_zone, key=len)
        ns_names = ns_by_zone[zone]
        glue: Dict[Name, List[IPAddress]] = {}
        for record in response.additional:
            if record not in in_bailiwick:
                continue
            if record.rrtype in (RRType.A, RRType.AAAA):
                glue.setdefault(record.name, []).append(
                    record.rdata.address)  # type: ignore[attr-defined]
        servers: List[Tuple[Name, IPAddress]] = []
        glueless: List[Name] = []
        for ns_name in ns_names:
            if ns_name in glue:
                for address in glue[ns_name]:
                    servers.append((ns_name, address))
            else:
                glueless.append(ns_name)
        return (zone, servers, glueless)

    def _resolve_glueless(self, zone: Name, ns_name: Name) -> None:
        """Resolve a glueless NS target, then continue the referral."""

        def continue_with(outcome: ResolveOutcome) -> None:
            if self._finished:
                return
            if not outcome.ok or not outcome.records:
                self._finish(ResolveOutcome(ResolveStatus.SERVFAIL,
                                            rcode=RCode.SERVFAIL,
                                            upstream_queries=self._upstream_queries))
                return
            servers = [(ns_name, record.rdata.address)  # type: ignore[attr-defined]
                       for record in outcome.records
                       if record.rrtype is RRType.A]
            if not servers:
                self._finish(ResolveOutcome(ResolveStatus.SERVFAIL,
                                            rcode=RCode.SERVFAIL,
                                            upstream_queries=self._upstream_queries))
                return
            self._zone = zone
            self._servers = servers
            self._server_index = 0
            self._query_current_server()

        _Resolution(self._resolver, ns_name, RRType.A, continue_with,
                    ns_depth=self._ns_depth + 1,
                    parent_span=self._span).start()

    def _follow_cname(self, cname_record: ResourceRecord,
                      from_cache: bool) -> None:
        self._cname_chain += 1
        if self._cname_chain > self._config.max_cname_chain:
            self._finish(ResolveOutcome(ResolveStatus.SERVFAIL,
                                        rcode=RCode.SERVFAIL,
                                        upstream_queries=self._upstream_queries))
            return
        assert isinstance(cname_record.rdata, CNAMERdata)
        target = cname_record.rdata.target
        prefix = [cname_record]

        def merge(outcome: ResolveOutcome) -> None:
            if outcome.ok:
                merged = ResolveOutcome(
                    ResolveStatus.SUCCESS,
                    records=prefix + outcome.records,
                    from_cache=from_cache and outcome.from_cache,
                    upstream_queries=self._upstream_queries,
                )
                self._finish(merged)
            else:
                self._finish(outcome)

        # Restart resolution for the target from the root (fresh state
        # machine shares the resolver's cache so it is cheap). The CNAME
        # depth is inherited so loops terminate.
        _Resolution(self._resolver, target, self._qtype, merge,
                    ns_depth=self._ns_depth,
                    cname_depth=self._cname_chain,
                    parent_span=self._span).start()

    # ------------------------------------------------------------------
    # Termination.
    # ------------------------------------------------------------------

    def _finish(self, outcome: ResolveOutcome) -> None:
        if self._finished:
            return
        self._finished = True
        if self._exchange is not None:
            # Abandon any in-flight exchange (releases its socket).
            self._exchange.cancel()
            self._exchange = None
        if not outcome.from_cache and self._upstream_queries:
            # A cache miss that went to the network kept a cache slot
            # open from the resolution's start until now — the window
            # a spray of forged responses races.
            resolver = self._resolver
            window = self._sim.now - self._started
            resolver._stats.exposure_windows += 1
            resolver._stats.exposure_open_s += window
            if resolver._exposure_hist is not None:
                resolver._exposure_hist.observe(window)
            if resolver._depth_hist is not None:
                resolver._depth_hist.observe(float(self._referrals))
        if self._span is not None:
            self._span.set(status=outcome.status.value,
                           from_cache=outcome.from_cache,
                           upstream_queries=self._upstream_queries)
            self._resolver._tracer.finish(self._span)
        self._callback(outcome)
