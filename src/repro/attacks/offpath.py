"""Off-path DNS response forgery.

The attacker cannot see the resolver's query, so it must guess the
transaction ID and the ephemeral source port, and its forgeries must
arrive before the genuine answer. Everything else — the spoofed source
address, the plausible answer section — it controls freely.

The attack needs a *trigger* (the attacker makes, or predicts, a client
query so it knows roughly when the resolver's upstream query happens);
experiments model the trigger by launching the spray at resolution time.

Against a modern resolver (random 16-bit TXID × ~28k ports) a blind
burst is hopeless, which the experiments confirm; against the weakened
configurations (`ResolverConfig(txid_bits=...)`, sequential ports) that
model historical stacks, it succeeds — reproducing why [1] is a real
threat for pool generation over plain DNS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.dns.message import Flags, Message, Question, ResourceRecord
from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rdata import address_rdata
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import EPHEMERAL_RANGE
from repro.netsim.internet import Internet
from repro.netsim.packet import Datagram


@dataclass
class SprayPlan:
    """What the attacker sprays: the guess space and the lie.

    :param question: the (name, type) being poisoned.
    :param spoofed_server: the authoritative/upstream endpoint the
        forgeries claim to come from.
    :param target_ports: destination (resolver ephemeral) ports to try.
    :param txid_guesses: transaction IDs to try per port.
    :param forged_addresses: addresses the lie carries.
    :param ttl: TTL of the forged records (long = sticky poison).
    """

    question: Question
    spoofed_server: Endpoint
    target_ports: Sequence[int]
    txid_guesses: Sequence[int]
    forged_addresses: Sequence[IPAddress]
    ttl: int = 86_400

    @property
    def packet_count(self) -> int:
        return len(self.target_ports) * len(self.txid_guesses)


@dataclass
class SprayReport:
    """Accounting for one spray burst."""

    packets_injected: int = 0
    ports_covered: int = 0
    txids_covered: int = 0


class OffPathPoisoner:
    """An attacker that can inject spoofed UDP but observe nothing.

    :param internet: the network (injection entry point).
    :param injection_node: topology node the attacker sends from; it
        only affects latency, since sources are spoofed.
    """

    def __init__(self, internet: Internet, injection_node: str) -> None:
        self._internet = internet
        self._node = injection_node
        self._reports: List[SprayReport] = []

    @property
    def reports(self) -> List[SprayReport]:
        return list(self._reports)

    @property
    def total_packets_injected(self) -> int:
        return sum(report.packets_injected for report in self._reports)

    # ------------------------------------------------------------------
    # Forgery construction.
    # ------------------------------------------------------------------

    def forge_response(self, txid: int, question: Question,
                       addresses: Iterable[IPAddress],
                       ttl: int = 86_400) -> Message:
        """A NOERROR answer for the question carrying the attacker's
        addresses."""
        answers = [
            ResourceRecord(question.qname, question.qtype, ttl,
                           address_rdata(address))
            for address in addresses
        ]
        return Message(txid=txid,
                       flags=Flags(qr=True, aa=True, rcode=RCode.NOERROR),
                       questions=[question], answers=answers)

    # ------------------------------------------------------------------
    # The spray.
    # ------------------------------------------------------------------

    def spray(self, victim_address: IPAddress, plan: SprayPlan) -> SprayReport:
        """Inject the full guess burst toward ``victim_address``.

        All packets are injected at the current instant; network latency
        from the injection node determines whether they win the race
        against the genuine answer.
        """
        report = SprayReport(ports_covered=len(plan.target_ports),
                             txids_covered=len(plan.txid_guesses))
        for port in plan.target_ports:
            for txid in plan.txid_guesses:
                forged = self.forge_response(txid, plan.question,
                                             plan.forged_addresses, plan.ttl)
                datagram = Datagram(
                    src=plan.spoofed_server,
                    dst=Endpoint(victim_address, port),
                    payload=forged.encode())
                self._internet.inject(datagram, at_node=self._node)
                report.packets_injected += 1
        self._reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Guess-space helpers.
    # ------------------------------------------------------------------

    @staticmethod
    def sequential_port_guesses(window: int,
                                start: int = EPHEMERAL_RANGE[0]) -> List[int]:
        """Ports a sequential-allocation stack will use next."""
        low, high = EPHEMERAL_RANGE
        return [low + ((start - low + index) % (high - low + 1))
                for index in range(window)]

    @staticmethod
    def txid_space(bits: int) -> List[int]:
        """Every TXID of a ``bits``-wide transaction-ID space."""
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        return list(range(1 << bits))

    def poison_resolver_lookup(
        self, victim_address: IPAddress, qname: "Name | str", qtype: RRType,
        spoofed_server: Endpoint, forged_addresses: Sequence[IPAddress],
        port_window: int = 8, txid_bits: int = 16,
        port_start: Optional[int] = None,
    ) -> SprayReport:
        """Convenience wrapper: build and fire a spray for one lookup."""
        plan = SprayPlan(
            question=Question(Name(qname), qtype),
            spoofed_server=spoofed_server,
            target_ports=self.sequential_port_guesses(
                port_window,
                start=port_start if port_start is not None
                else EPHEMERAL_RANGE[0]),
            txid_guesses=self.txid_space(txid_bits),
            forged_addresses=list(forged_addresses),
        )
        return self.spray(victim_address, plan)


class PeriodicSprayer:
    """A sustained off-path campaign: forged-response bursts at a fixed
    rate against one victim resolver.

    This is the attacker the ``offpath`` :class:`AttackSpec` installs
    in rate mode: it cannot observe the victim's queries, so it simply
    keeps spraying — a burst only lands if it arrives while the victim
    has a resolution (an open cache slot) in flight, which is exactly
    the exposure window shortened TTLs multiply.  The guess-space
    knobs model the paper's entropy assumptions:

    :param port_window: ports covered per burst.  With
        ``track_ports=True`` the window is anchored at the victim's
        sequential-port oracle (:attr:`Host.next_sequential_port`) —
        the most recently allocated port plus the next allocations;
        with ``track_ports=False`` the attacker guesses blind from the
        bottom of the ephemeral range.
    :param covered_bits: the burst covers the full TXID space of a
        ``covered_bits``-wide ID field; against a victim with
        ``txid_bits > covered_bits`` each guess hits with probability
        ``2**(covered_bits - txid_bits)``.
    """

    def __init__(self, poisoner: OffPathPoisoner, simulator, victim_host,
                 *, question: Question, spoofed_server: Endpoint,
                 forged_addresses: Sequence["IPAddress | str"],
                 rate: float, duration: float, start: float = 0.0,
                 port_window: int = 2, covered_bits: int = 6,
                 track_ports: bool = True, ttl: int = 86_400) -> None:
        if rate <= 0.0:
            raise ValueError("spray rate must be > 0 bursts/s")
        if duration < 0.0 or start < 0.0:
            raise ValueError("spray start/duration must be >= 0")
        if port_window < 1:
            raise ValueError("port_window must be >= 1")
        self._poisoner = poisoner
        self._simulator = simulator
        self._victim = victim_host
        self._question = question
        self._spoofed_server = spoofed_server
        self._forged = [IPAddress(a) for a in forged_addresses]
        self._rate = float(rate)
        self._duration = float(duration)
        self._start = float(start)
        self._port_window = int(port_window)
        self._txids = OffPathPoisoner.txid_space(int(covered_bits))
        self._track_ports = bool(track_ports)
        self._ttl = int(ttl)
        self._scheduled = False
        self.bursts = 0
        self.packets_injected = 0

    @property
    def planned_bursts(self) -> int:
        return max(1, int(round(self._duration * self._rate)))

    def schedule(self) -> None:
        """Pre-schedule every burst of the campaign (idempotent)."""
        if self._scheduled:
            return
        self._scheduled = True
        interval = 1.0 / self._rate
        for index in range(self.planned_bursts):
            self._simulator.schedule_at(self._start + index * interval,
                                        self._fire)

    def _target_ports(self) -> List[int]:
        low, high = EPHEMERAL_RANGE
        if self._track_ports and not self._victim.randomize_ports:
            # The socket currently awaiting an answer (if any) holds the
            # most recently allocated port, i.e. the oracle minus one;
            # cover it plus the next window-1 allocations.
            span = high - low + 1
            anchor = low + ((self._victim.next_sequential_port - low - 1)
                            % span)
            return OffPathPoisoner.sequential_port_guesses(
                self._port_window, start=anchor)
        return OffPathPoisoner.sequential_port_guesses(self._port_window)

    def _fire(self) -> None:
        plan = SprayPlan(
            question=self._question,
            spoofed_server=self._spoofed_server,
            target_ports=self._target_ports(),
            txid_guesses=self._txids,
            forged_addresses=self._forged,
            ttl=self._ttl)
        report = self._poisoner.spray(self._victim.primary_address, plan)
        self.bursts += 1
        self.packets_injected += report.packets_injected
