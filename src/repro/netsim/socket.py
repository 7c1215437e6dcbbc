"""UDP-style sockets for simulated hosts.

A socket is bound to one (address, port) pair on its host and delivers
incoming datagrams to a handler callback. Handlers receive the full
:class:`~repro.netsim.packet.Datagram` so that protocol code can see the
claimed source address — and be fooled by spoofed ones, like real code.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.netsim.address import Endpoint
from repro.netsim.packet import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.host import Host

DatagramHandler = Callable[[Datagram], None]


class SocketClosedError(RuntimeError):
    """Raised when sending on a closed socket."""


class UdpSocket:
    """A bound datagram socket.

    Created via :meth:`repro.netsim.host.Host.bind`; not instantiated
    directly by user code.
    """

    __slots__ = ("_host", "_endpoint", "_handler", "_closed", "_sent",
                 "_received")

    def __init__(self, host: "Host", endpoint: Endpoint,
                 handler: Optional[DatagramHandler] = None) -> None:
        self._host = host
        # The very object the host's socket table is keyed by, so a
        # reply addressed to this endpoint matches its key by identity.
        self._endpoint = endpoint
        self._handler = handler
        self._closed = False
        self._sent = 0
        self._received = 0

    @property
    def endpoint(self) -> Endpoint:
        """The local (address, port) this socket is bound to."""
        return self._endpoint

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def datagrams_sent(self) -> int:
        return self._sent

    @property
    def datagrams_received(self) -> int:
        return self._received

    def on_datagram(self, handler: DatagramHandler) -> None:
        """Install (or replace) the receive handler."""
        self._handler = handler

    def sendto(self, dst: Endpoint, payload: bytes) -> Datagram:
        """Send ``payload`` to ``dst``; returns the in-flight datagram."""
        if self._closed:
            raise SocketClosedError(f"socket {self._endpoint} is closed")
        datagram = Datagram(src=self._endpoint, dst=dst, payload=payload)
        self._sent += 1
        self._host.transmit(datagram)
        return datagram

    def reply(self, request: Datagram, payload: bytes) -> Datagram:
        """Send ``payload`` back to the source of ``request``."""
        return self.sendto(request.src, payload)

    def deliver(self, datagram: Datagram) -> None:
        """Called by the host when a datagram arrives for this socket."""
        if self._closed:
            return
        self._received += 1
        if self._handler is not None:
            self._handler(datagram)

    def close(self) -> None:
        """Release the port binding; further sends raise."""
        if not self._closed:
            self._closed = True
            self._host.release_socket(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"UdpSocket({self._endpoint}, {state})"
