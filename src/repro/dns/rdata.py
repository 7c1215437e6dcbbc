"""RDATA types (RFC 1035 §3.3, RFC 3596).

Each concrete class knows how to encode itself into a
:class:`~repro.dns.wire.WireWriter` and decode itself from a
:class:`~repro.dns.wire.WireReader`, and has a canonical text form used
in tests and zone literals.

Names inside RDATA (NS, CNAME, SOA, MX, PTR) are always emitted
*without* compression, as RFC 3597 advises for unknown-type safety:
:meth:`Rdata.wire` renders a value once through an uncompressed writer
and keeps the bytes, and a record copies them after its RDLENGTH. So
RDATA bytes never depend on the message that carries them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict

from repro.dns.name import Name
from repro.dns.rrtype import RRType
from repro.dns.wire import WireFormatError, WireReader, WireWriter
from repro.netsim.address import IPAddress


class Rdata:
    """Base class for typed RDATA."""

    rrtype: ClassVar[RRType]
    _wire: "bytes | None" = None  # set by wire()

    def to_wire(self, writer: WireWriter) -> None:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def wire(self) -> bytes:
        """The uncompressed RDATA bytes, rendered once per value.

        RDATA is immutable, so the bytes are kept on the instance, the
        way :class:`~repro.dns.name.Name` keeps its hash and text.
        """
        data = self._wire
        if data is None:
            writer = WireWriter(compress=False)
            self.to_wire(writer)
            data = writer.getvalue()
            object.__setattr__(self, "_wire", data)
        return data

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"


@dataclass(frozen=True, repr=False)
class ARdata(Rdata):
    """IPv4 address record."""

    address: IPAddress
    rrtype: ClassVar[RRType] = RRType.A

    def __post_init__(self) -> None:
        resolved = IPAddress(self.address)
        if not resolved.is_ipv4:
            raise ValueError(f"A record needs an IPv4 address, got {resolved}")
        object.__setattr__(self, "address", resolved)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(self.address.packed)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "ARdata":
        if rdlength != 4:
            raise WireFormatError(f"A RDATA must be 4 bytes, got {rdlength}")
        return cls(IPAddress.from_packed(reader.read_bytes(4)))

    def to_text(self) -> str:
        return str(self.address)


@dataclass(frozen=True, repr=False)
class AAAARdata(Rdata):
    """IPv6 address record."""

    address: IPAddress
    rrtype: ClassVar[RRType] = RRType.AAAA

    def __post_init__(self) -> None:
        resolved = IPAddress(self.address)
        if not resolved.is_ipv6:
            raise ValueError(f"AAAA record needs an IPv6 address, got {resolved}")
        object.__setattr__(self, "address", resolved)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(self.address.packed)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "AAAARdata":
        if rdlength != 16:
            raise WireFormatError(f"AAAA RDATA must be 16 bytes, got {rdlength}")
        return cls(IPAddress.from_packed(reader.read_bytes(16)))

    def to_text(self) -> str:
        return str(self.address)


@dataclass(frozen=True, repr=False)
class NSRdata(Rdata):
    """Delegation nameserver record."""

    target: Name
    rrtype: ClassVar[RRType] = RRType.NS

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", Name(self.target))

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "NSRdata":
        return cls(reader.read_name())

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True, repr=False)
class CNAMERdata(Rdata):
    """Canonical-name alias record."""

    target: Name
    rrtype: ClassVar[RRType] = RRType.CNAME

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", Name(self.target))

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "CNAMERdata":
        return cls(reader.read_name())

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True, repr=False)
class PTRRdata(Rdata):
    """Pointer record (reverse mapping)."""

    target: Name
    rrtype: ClassVar[RRType] = RRType.PTR

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", Name(self.target))

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "PTRRdata":
        return cls(reader.read_name())

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True, repr=False)
class SOARdata(Rdata):
    """Start-of-authority record."""

    mname: Name
    rname: Name
    serial: int = 1
    refresh: int = 7200
    retry: int = 900
    expire: int = 1209600
    minimum: int = 300
    rrtype: ClassVar[RRType] = RRType.SOA

    def __post_init__(self) -> None:
        object.__setattr__(self, "mname", Name(self.mname))
        object.__setattr__(self, "rname", Name(self.rname))

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.mname)
        writer.write_name(self.rname)
        writer.write_u32(self.serial)
        writer.write_u32(self.refresh)
        writer.write_u32(self.retry)
        writer.write_u32(self.expire)
        writer.write_u32(self.minimum)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "SOARdata":
        mname = reader.read_name()
        rname = reader.read_name()
        serial = reader.read_u32()
        refresh = reader.read_u32()
        retry = reader.read_u32()
        expire = reader.read_u32()
        minimum = reader.read_u32()
        return cls(mname, rname, serial, refresh, retry, expire, minimum)

    def to_text(self) -> str:
        return (f"{self.mname} {self.rname} {self.serial} {self.refresh} "
                f"{self.retry} {self.expire} {self.minimum}")


@dataclass(frozen=True, repr=False)
class MXRdata(Rdata):
    """Mail-exchanger record."""

    preference: int
    exchange: Name
    rrtype: ClassVar[RRType] = RRType.MX

    def __post_init__(self) -> None:
        object.__setattr__(self, "exchange", Name(self.exchange))
        if not 0 <= self.preference <= 0xFFFF:
            raise ValueError(f"MX preference out of range: {self.preference}")

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write_name(self.exchange)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "MXRdata":
        preference = reader.read_u16()
        return cls(preference, reader.read_name())

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange}"


@dataclass(frozen=True, repr=False)
class TXTRdata(Rdata):
    """Text record: one or more character-strings."""

    strings: tuple
    rrtype: ClassVar[RRType] = RRType.TXT

    def __post_init__(self) -> None:
        if isinstance(self.strings, (str, bytes)):
            raw = (self.strings,)
        else:
            raw = tuple(self.strings)
        normalised = tuple(
            s.encode("utf-8") if isinstance(s, str) else bytes(s) for s in raw
        )
        if not normalised:
            raise ValueError("TXT record needs at least one string")
        for chunk in normalised:
            if len(chunk) > 255:
                raise ValueError("TXT character-string exceeds 255 bytes")
        object.__setattr__(self, "strings", normalised)

    def to_wire(self, writer: WireWriter) -> None:
        for chunk in self.strings:
            writer.write_character_string(chunk)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "TXTRdata":
        end = reader.offset + rdlength
        strings = []
        while reader.offset < end:
            strings.append(reader.read_character_string())
        if reader.offset != end:
            raise WireFormatError("TXT RDATA length mismatch")
        if not strings:
            raise WireFormatError("empty TXT RDATA")
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join(f'"{chunk.decode("utf-8", "replace")}"'
                        for chunk in self.strings)


@dataclass(frozen=True, repr=False)
class OpaqueRdata(Rdata):
    """Uninterpreted RDATA for types we do not model (RFC 3597 style)."""

    type_code: int
    data: bytes
    rrtype: ClassVar[RRType] = RRType.OPT  # placeholder; see type_code

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "OpaqueRdata":
        raise NotImplementedError("use decode_rdata() with a type code")

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"


_DECODERS: Dict[int, Callable[[WireReader, int], Rdata]] = {
    RRType.A: ARdata.from_wire,
    RRType.AAAA: AAAARdata.from_wire,
    RRType.NS: NSRdata.from_wire,
    RRType.CNAME: CNAMERdata.from_wire,
    RRType.PTR: PTRRdata.from_wire,
    RRType.SOA: SOARdata.from_wire,
    RRType.MX: MXRdata.from_wire,
    RRType.TXT: TXTRdata.from_wire,
}


def decode_rdata(type_code: int, reader: WireReader, rdlength: int) -> Rdata:
    """Decode RDATA of the given type; unknown types become opaque blobs."""
    decoder = _DECODERS.get(type_code)
    if decoder is None:
        return OpaqueRdata(type_code=type_code, data=reader.read_bytes(rdlength))
    start = reader.offset
    rdata = decoder(reader, rdlength)
    consumed = reader.offset - start
    if consumed != rdlength:
        raise WireFormatError(
            f"RDATA length mismatch for type {type_code}: "
            f"declared {rdlength}, consumed {consumed}"
        )
    return rdata


def address_rdata(address: "IPAddress | str") -> Rdata:
    """Build an A or AAAA rdata from an address, choosing by family."""
    resolved = IPAddress(address)
    if resolved.is_ipv4:
        return ARdata(resolved)
    return AAAARdata(resolved)
