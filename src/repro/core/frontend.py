"""Backward-compatible plain-DNS front-end.

The paper's deployment story (§II): "We propose to deploy our mechanism
without changing the DNS infrastructure, offering a standard-compatible
DNS-resolver interface." This module is that interface — a UDP :53
listener that unmodified stub resolvers can point at. Queries for the
configured pool domains are answered with Algorithm 1's combined pool
(optionally majority-voted); every other query is transparently proxied
to the first trusted DoH resolver so the host's ordinary name resolution
keeps working.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.core.majority import majority_vote
from repro.core.pool import GeneratedPool, SecurePoolGenerator
from repro.dns.message import Message, ResourceRecord, make_response
from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rdata import address_rdata
from repro.dns.rrtype import RRType
from repro.dns.wire import WireFormatError
from repro.doh.client import DoHClient, DoHQueryOutcome
from repro.netsim.host import Host
from repro.netsim.packet import Datagram

DNS_PORT = 53
POOL_ANSWER_TTL = 30  # combined answers are short-lived by design


class MajorityDnsFrontend:
    """Plain-DNS server backed by distributed-DoH pool generation.

    :param host: machine to bind :53 on (typically the client's own
        loopback gateway; here a simulated host).
    :param generator: the Algorithm 1 engine.
    :param doh_client: transport reused for proxying non-pool queries.
    :param pool_domains: names that get the secure-pool treatment.
    :param majority: apply the per-address strict-majority vote
        (:func:`~repro.core.majority.majority_vote`) on top of
        Algorithm 1's combination before answering.
    """

    def __init__(self, host: Host, generator: SecurePoolGenerator,
                 doh_client: DoHClient,
                 pool_domains: Iterable["Name | str"],
                 majority: bool = False,
                 port: int = DNS_PORT) -> None:
        self._host = host
        self._generator = generator
        self._doh = doh_client
        self._pool_domains: Set[Name] = {Name(d) for d in pool_domains}
        self._majority = majority
        self._socket = host.bind(port, self._handle_datagram)
        self._pool_queries = 0
        self._proxied_queries = 0
        self._failures = 0

    @property
    def pool_queries(self) -> int:
        return self._pool_queries

    @property
    def proxied_queries(self) -> int:
        return self._proxied_queries

    @property
    def failures(self) -> int:
        return self._failures

    @property
    def endpoint(self):
        return self._socket.endpoint

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def _handle_datagram(self, datagram: Datagram) -> None:
        try:
            query = Message.decode(datagram.payload)
        except WireFormatError:
            return
        if query.is_response or len(query.questions) != 1:
            return
        question = query.question
        if (question.qname in self._pool_domains
                and question.qtype in (RRType.A, RRType.AAAA)):
            self._answer_pool_query(datagram, query)
        else:
            self._proxy_query(datagram, query)

    # ------------------------------------------------------------------
    # Pool-domain path: Algorithm 1.
    # ------------------------------------------------------------------

    def _answer_pool_query(self, datagram: Datagram, query: Message) -> None:
        self._pool_queries += 1
        question = query.question

        def respond(pool: GeneratedPool) -> None:
            if not pool.ok:
                self._failures += 1
                self._socket.reply(datagram, make_response(
                    query, rcode=RCode.SERVFAIL,
                    recursion_available=True).encode())
                return
            addresses = pool.addresses
            if self._majority:
                addresses = majority_vote(pool.contributions)
                if not addresses:
                    self._failures += 1
                    self._socket.reply(datagram, make_response(
                        query, rcode=RCode.SERVFAIL,
                        recursion_available=True).encode())
                    return
            wanted_family = 4 if question.qtype is RRType.A else 6
            records = [
                ResourceRecord(question.qname, question.qtype,
                               POOL_ANSWER_TTL, address_rdata(address))
                for address in addresses
                if address.family == wanted_family
            ]
            self._socket.reply(datagram, make_response(
                query, answers=records, recursion_available=True).encode())

        self._generator.generate(question.qname.to_text(), respond)

    # ------------------------------------------------------------------
    # Everything else: proxy through one trusted DoH resolver.
    # ------------------------------------------------------------------

    def _proxy_query(self, datagram: Datagram, query: Message) -> None:
        self._proxied_queries += 1
        upstream = self._generator.resolvers[0]
        question = query.question

        def respond(outcome: DoHQueryOutcome) -> None:
            if not outcome.ok or outcome.message is None:
                self._failures += 1
                self._socket.reply(datagram, make_response(
                    query, rcode=RCode.SERVFAIL,
                    recursion_available=True).encode())
                return
            upstream_message = outcome.message
            response = make_response(
                query, rcode=upstream_message.rcode,
                answers=upstream_message.answers,
                authority=upstream_message.authority,
                recursion_available=True)
            self._socket.reply(datagram, response.encode())

        self._doh.query(upstream.endpoint, upstream.name,
                        question.qname, question.qtype, respond)
