"""IP addressing for the simulated Internet.

We wrap :mod:`ipaddress` rather than exposing it directly so that the
rest of the codebase deals with one hashable, comparable ``IPAddress``
type covering both families, plus an ``Endpoint`` (address, port) pair.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Union

_IpObject = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]


@total_ordering
class IPAddress:
    """An immutable IPv4 or IPv6 address.

    >>> a = IPAddress("192.0.2.1")
    >>> a.family
    4
    >>> IPAddress("2001:db8::1").family
    6
    >>> IPAddress("192.0.2.1") == IPAddress("192.0.2.1")
    True
    """

    __slots__ = ("_inner", "_hash", "_text")

    def __init__(self, text: Union[str, "IPAddress", _IpObject]) -> None:
        if isinstance(text, IPAddress):
            self._inner: _IpObject = text._inner
            self._hash: "int | None" = text._hash
            self._text: "str | None" = text._text
            return
        if isinstance(text, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            self._inner = text
        else:
            self._inner = ipaddress.ip_address(str(text))
        self._hash = None
        self._text = None

    @property
    def family(self) -> int:
        """4 for IPv4, 6 for IPv6."""
        return self._inner.version

    @property
    def is_ipv4(self) -> bool:
        return self._inner.version == 4

    @property
    def is_ipv6(self) -> bool:
        return self._inner.version == 6

    @property
    def packed(self) -> bytes:
        """Network-order binary representation (4 or 16 bytes)."""
        return self._inner.packed

    @classmethod
    def from_packed(cls, data: bytes) -> "IPAddress":
        """Build from 4-byte (IPv4) or 16-byte (IPv6) wire form."""
        if len(data) == 4:
            return cls(ipaddress.IPv4Address(data))
        if len(data) == 16:
            return cls(ipaddress.IPv6Address(data))
        raise ValueError(f"packed address must be 4 or 16 bytes, got {len(data)}")

    def __str__(self) -> str:
        # Trace spans and endpoint text render the same few addresses
        # over and over; ipaddress re-renders per call, so cache it.
        text = self._text
        if text is None:
            text = self._text = str(self._inner)
        return text

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"

    def __hash__(self) -> int:
        # Addresses key every socket/host dict on the delivery path;
        # ipaddress objects recompute their hash per call, so cache it.
        value = self._hash
        if value is None:
            value = self._hash = hash(self._inner)
        return value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPAddress):
            return self._inner == other._inner
        if isinstance(other, str):
            try:
                return self._inner == ipaddress.ip_address(other)
            except ValueError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IPAddress") -> bool:
        if not isinstance(other, IPAddress):
            return NotImplemented
        # Order first by family then by numeric value, like most tooling.
        if self._inner.version != other._inner.version:
            return self._inner.version < other._inner.version
        return int(self._inner) < int(other._inner)


def ip(text: Union[str, IPAddress]) -> IPAddress:
    """Shorthand constructor: ``ip("192.0.2.1")``."""
    return IPAddress(text)


@dataclass(frozen=True, slots=True)
class Endpoint:
    """A transport endpoint: (IP address, UDP/TCP port).

    >>> Endpoint(ip("192.0.2.1"), 53)
    Endpoint(192.0.2.1:53)
    """

    address: IPAddress
    port: int

    def __post_init__(self) -> None:
        if not isinstance(self.address, IPAddress):
            object.__setattr__(self, "address", IPAddress(self.address))
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")

    def __repr__(self) -> str:
        return f"Endpoint({self.address}:{self.port})"

    def __str__(self) -> str:
        if self.address.is_ipv6:
            return f"[{self.address}]:{self.port}"
        return f"{self.address}:{self.port}"


class AddressAllocator:
    """Hands out unique addresses from documentation/test prefixes.

    Keeps scenario-building code free of hard-coded address strings.

    >>> alloc = AddressAllocator()
    >>> first = alloc.next_ipv4()
    >>> second = alloc.next_ipv4()
    >>> first != second
    True
    """

    def __init__(
        self,
        ipv4_network: str = "10.0.0.0/8",
        ipv6_network: str = "fd00::/32",
    ) -> None:
        self._ipv4_hosts: Iterator[_IpObject] = ipaddress.ip_network(
            ipv4_network
        ).hosts()
        self._ipv6_hosts: Iterator[_IpObject] = ipaddress.ip_network(
            ipv6_network
        ).hosts()

    def next_ipv4(self) -> IPAddress:
        """Allocate the next unused IPv4 address."""
        return IPAddress(next(self._ipv4_hosts))

    def next_ipv6(self) -> IPAddress:
        """Allocate the next unused IPv6 address."""
        return IPAddress(next(self._ipv6_hosts))

    def next_for_family(self, family: int) -> IPAddress:
        """Allocate from the requested family (4 or 6)."""
        if family == 4:
            return self.next_ipv4()
        if family == 6:
            return self.next_ipv6()
        raise ValueError(f"family must be 4 or 6, got {family}")
