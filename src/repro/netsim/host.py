"""Simulated hosts: named machines attached to a topology node.

A host owns one or more IP addresses, binds sockets, and hands outbound
datagrams to the :class:`~repro.netsim.internet.Internet` for routed
delivery. Ephemeral source ports are allocated from a per-host counter
(optionally randomised — source-port randomisation is one of the
defences the paper's off-path attacker has to beat).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.socket import DatagramHandler, UdpSocket
from repro.netsim.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.internet import Internet

EPHEMERAL_RANGE = (32768, 60999)


class PortInUseError(RuntimeError):
    """Raised when binding to an already-bound (address, port)."""


class Host:
    """A machine attached to a topology node.

    :param name: unique human-readable host name ("client", "ns1", ...).
    :param node: topology node the host attaches to.
    :param addresses: the host's IP addresses (at least one).
    :param randomize_ports: draw ephemeral ports randomly from the
        ephemeral range (RFC 6056 style) instead of sequentially. Port
        predictability is exactly what classic off-path DNS attacks
        exploit, so scenarios can turn it off to model weak stacks.
    """

    __slots__ = ("_name", "_node", "_addresses", "_randomize_ports", "_rng",
                 "_internet", "_sockets", "_next_sequential_port",
                 "_transport")

    def __init__(self, name: str, node: str, addresses: List[IPAddress],
                 randomize_ports: bool = True,
                 rng: Optional[random.Random] = None) -> None:
        if not addresses:
            raise ValueError(f"host {name!r} needs at least one address")
        self._name = name
        self._node = node
        self._addresses = [IPAddress(a) for a in addresses]
        self._randomize_ports = randomize_ports
        self._rng = rng or random.Random(0)
        self._internet: Optional["Internet"] = None
        self._sockets: Dict[Endpoint, UdpSocket] = {}
        self._next_sequential_port = EPHEMERAL_RANGE[0]
        self._transport: Optional[Transport] = None

    # ------------------------------------------------------------------
    # Identity.
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def node(self) -> str:
        """Topology node this host attaches to."""
        return self._node

    @property
    def addresses(self) -> List[IPAddress]:
        return list(self._addresses)

    @property
    def randomize_ports(self) -> bool:
        """Whether ephemeral ports are drawn randomly (RFC 6056)."""
        return self._randomize_ports

    @randomize_ports.setter
    def randomize_ports(self, value: bool) -> None:
        # Mutable so attack experiments can weaken a deployed host's
        # stack without rebuilding the scenario around it.
        self._randomize_ports = bool(value)

    @property
    def rng(self) -> random.Random:
        """The stream randomised ephemeral ports are drawn from."""
        return self._rng

    @rng.setter
    def rng(self, value: random.Random) -> None:
        # A population client hands its host the port stream of the
        # round it wakes for, and a closed one between rounds.
        self._rng = value

    @property
    def next_sequential_port(self) -> int:
        """The next ephemeral port a sequential-allocation stack will
        hand out — the off-path attacker's port oracle against hosts
        with ``randomize_ports=False`` (the paper's zero-port-entropy
        assumption).  Meaningless while ports are randomised."""
        return self._next_sequential_port

    @property
    def primary_address(self) -> IPAddress:
        return self._addresses[0]

    def address_for_family(self, family: int) -> IPAddress:
        """First address of the given family; raises if none."""
        for address in self._addresses:
            if address.family == family:
                return address
        raise LookupError(f"host {self._name} has no IPv{family} address")

    def owns_address(self, address: IPAddress) -> bool:
        return IPAddress(address) in self._addresses

    # ------------------------------------------------------------------
    # Network attachment.
    # ------------------------------------------------------------------

    def attach(self, internet: "Internet") -> None:
        """Called by :meth:`Internet.add_host`; wires up transmission."""
        self._internet = internet

    def transmit(self, datagram: Datagram) -> None:
        """Hand an outbound datagram to the network for delivery."""
        if self._internet is None:
            raise RuntimeError(f"host {self._name} is not attached to a network")
        self._internet.send(datagram, origin_host=self)

    def transport(self, simulator: Simulator) -> Transport:
        """The host's one request/response engine, which every protocol
        client on the host (stubs, NTP, DoH, a recursive resolver)
        rides. The first client to ask creates it, so it publishes to
        the registry and tracer ambient at that client's construction."""
        transport = self._transport
        if transport is None:
            transport = self._transport = Transport(self, simulator)
        return transport

    # ------------------------------------------------------------------
    # Sockets.
    # ------------------------------------------------------------------

    def bind(self, port: int, handler: Optional[DatagramHandler] = None,
             address: Optional[IPAddress] = None) -> UdpSocket:
        """Bind a socket on a well-known port."""
        bind_address = IPAddress(address) if address else self.primary_address
        if not self.owns_address(bind_address):
            raise ValueError(
                f"host {self._name} does not own address {bind_address}"
            )
        endpoint = Endpoint(bind_address, port)
        if endpoint in self._sockets:
            raise PortInUseError(f"{endpoint} already bound on {self._name}")
        sock = UdpSocket(self, endpoint, handler)
        self._sockets[endpoint] = sock
        return sock

    def ephemeral_socket(self, handler: Optional[DatagramHandler] = None,
                         address: Optional[IPAddress] = None) -> UdpSocket:
        """Bind a socket on a fresh ephemeral port."""
        bind_address = IPAddress(address) if address else self.primary_address
        for _ in range(2048):
            port = self._pick_ephemeral_port()
            endpoint = Endpoint(bind_address, port)
            if endpoint not in self._sockets:
                sock = UdpSocket(self, endpoint, handler)
                self._sockets[endpoint] = sock
                return sock
        raise PortInUseError(f"host {self._name} ran out of ephemeral ports")

    def _pick_ephemeral_port(self) -> int:
        low, high = EPHEMERAL_RANGE
        if self._randomize_ports:
            return self._rng.randint(low, high)
        port = self._next_sequential_port
        self._next_sequential_port += 1
        if self._next_sequential_port > high:
            self._next_sequential_port = low
        return port

    def release_socket(self, sock: UdpSocket) -> None:
        """Called by :meth:`UdpSocket.close`."""
        self._sockets.pop(sock.endpoint, None)

    def deliver(self, datagram: Datagram) -> bool:
        """Deliver an inbound datagram to the matching socket.

        Returns True if a socket accepted it; unmatched datagrams are
        dropped silently, as a real stack would send ICMP unreachable
        that we do not model.
        """
        sock = self._sockets.get(datagram.dst)
        if sock is None or sock.closed:
            return False
        sock.deliver(datagram)
        return True

    @property
    def open_sockets(self) -> List[UdpSocket]:
        return [s for s in self._sockets.values() if not s.closed]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        addresses = ", ".join(str(a) for a in self._addresses)
        return f"Host({self._name}@{self._node}, [{addresses}])"
