"""DNS messages (RFC 1035 §4).

The :class:`Message` codec is wire-accurate for the feature subset the
simulation uses: 12-byte header with flags, question section, and three
record sections with name compression on encode and full pointer
chasing on decode.

Encoding has one path. The header, each question's QTYPE/QCLASS and
each record's TYPE/CLASS/TTL/RDLENGTH are one ``struct`` pack apiece,
and a record's RDATA bytes are rendered once per value
(:meth:`~repro.dns.rdata.Rdata.wire`).

Decoding is memoized on the *transaction-ID independent* content: the
first two wire bytes are the only place the TXID lives, and compression
pointers are absolute offsets past the fixed-size header, so a message
differing only in TXID decodes from a byte-identical tail. The
population workload leans on this heavily — a thousand clients receive
the same answer bytes under fresh random TXIDs, and a steady-state
decode becomes one dict hit instead of a full parse. The memo is
value-keyed and bounded, and a parse whose compression pointer reads
the ID bytes is never memoized, so memoized results equal cold ones.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rdata import OpaqueRdata, Rdata, decode_rdata
from repro.dns.rrtype import RRClass, RRType
from repro.dns.wire import WireFormatError, WireReader, WireWriter

MAX_TXID = 0xFFFF

# TXID-independent decode memo (see module docstring). Bounded by
# wholesale clearing: the working set of distinct messages in any run
# is tiny, and clearing never changes results — only re-parses once.
_DECODE_MEMO: "Dict[bytes, Message]" = {}
_DECODE_MEMO_MAX = 1024

# Fixed-size wire layouts: the header (ID, flags, four counts), a
# question's QTYPE/QCLASS, and a record's TYPE/CLASS/TTL/RDLENGTH.
_HEADER = struct.Struct("!HHHHHH")
_QUESTION_TAIL = struct.Struct("!HH")
_RR_FIXED = struct.Struct("!HHIH")


@dataclass(frozen=True)
class Flags:
    """Header flag bits (QR, OPCODE, AA, TC, RD, RA, and RCODE)."""

    qr: bool = False       # response?
    opcode: int = 0        # QUERY
    aa: bool = False       # authoritative answer
    tc: bool = False       # truncated
    rd: bool = True        # recursion desired
    ra: bool = False       # recursion available
    rcode: RCode = RCode.NOERROR

    def to_wire(self) -> int:
        value = 0
        if self.qr:
            value |= 0x8000
        value |= (self.opcode & 0xF) << 11
        if self.aa:
            value |= 0x0400
        if self.tc:
            value |= 0x0200
        if self.rd:
            value |= 0x0100
        if self.ra:
            value |= 0x0080
        value |= int(self.rcode) & 0xF
        return value

    @classmethod
    def from_wire(cls, value: int) -> "Flags":
        rcode_value = value & 0xF
        try:
            rcode = RCode(rcode_value)
        except ValueError:
            # Unknown RCODEs are treated as SERVFAIL-equivalent failures.
            rcode = RCode.SERVFAIL
        return cls(
            qr=bool(value & 0x8000),
            opcode=(value >> 11) & 0xF,
            aa=bool(value & 0x0400),
            tc=bool(value & 0x0200),
            rd=bool(value & 0x0100),
            ra=bool(value & 0x0080),
            rcode=rcode,
        )


@dataclass(frozen=True)
class Question:
    """A question-section entry."""

    qname: Name
    qtype: RRType
    qclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        # Coerce only when needed: the hot paths construct questions
        # from already-typed values.
        if type(self.qname) is not Name:
            object.__setattr__(self, "qname", Name(self.qname))
        if type(self.qtype) is not RRType:
            object.__setattr__(self, "qtype", RRType(self.qtype))
        if type(self.qclass) is not RRClass:
            object.__setattr__(self, "qclass", RRClass(self.qclass))

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.qname)
        writer.write_bytes(_QUESTION_TAIL.pack(self.qtype, self.qclass))

    @classmethod
    def from_wire(cls, reader: WireReader) -> "Question":
        qname = reader.read_name()
        qtype_value, qclass_value = reader.unpack(_QUESTION_TAIL)
        try:
            qtype = RRType(qtype_value)
        except ValueError:
            raise WireFormatError(f"unsupported QTYPE {qtype_value}") from None
        try:
            qclass = RRClass(qclass_value)
        except ValueError:
            raise WireFormatError(f"unsupported QCLASS {qclass_value}") from None
        return cls(qname, qtype, qclass)

    def __str__(self) -> str:
        return f"{self.qname} {self.qclass.name} {self.qtype.name}"


@dataclass(frozen=True)
class ResourceRecord:
    """A resource record in the answer/authority/additional sections."""

    name: Name
    rrtype: RRType
    ttl: int
    rdata: Rdata
    rrclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        if type(self.name) is not Name:
            object.__setattr__(self, "name", Name(self.name))
        if type(self.rrtype) is not RRType:
            object.__setattr__(self, "rrtype", RRType(self.rrtype))
        if type(self.rrclass) is not RRClass:
            object.__setattr__(self, "rrclass", RRClass(self.rrclass))
        if not 0 <= self.ttl <= 0x7FFFFFFF:
            raise ValueError(f"TTL out of range: {self.ttl}")

    def to_wire(self, writer: WireWriter) -> None:
        rdata = self.rdata
        rendered = rdata.wire()
        # An opaque carrier's rrtype is a placeholder; its RDATA keeps
        # the TYPE it was read with.
        type_code = (rdata.type_code if type(rdata) is OpaqueRdata
                     else self.rrtype)
        writer.write_name(self.name)
        writer.write_bytes(_RR_FIXED.pack(type_code, self.rrclass, self.ttl,
                                          len(rendered)))
        writer.write_bytes(rendered)

    @classmethod
    def from_wire(cls, reader: WireReader) -> "ResourceRecord":
        name = reader.read_name()
        type_code, class_code, ttl, rdlength = reader.unpack(_RR_FIXED)
        if ttl > 0x7FFFFFFF:
            # RFC 2181 section 8: a TTL with the top bit set is read as
            # zero.
            ttl = 0
        rdata = decode_rdata(type_code, reader, rdlength)
        try:
            rrtype = RRType(type_code)
        except ValueError:
            rrtype = RRType.OPT  # opaque carrier; rdata keeps the real code
        try:
            rrclass = RRClass(class_code)
        except ValueError:
            raise WireFormatError(f"unsupported CLASS {class_code}") from None
        return cls(name, rrtype, ttl, rdata, rrclass)

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy with the TTL replaced.

        Hand-rolled clone instead of :func:`dataclasses.replace`: the
        cache decays every answered record's TTL on every hit, and the
        generic replace would re-run the whole coercing ``__post_init__``
        per record per query.
        """
        if ttl == self.ttl:
            return self
        if not 0 <= ttl <= 0x7FFFFFFF:
            raise ValueError(f"TTL out of range: {ttl}")
        clone = object.__new__(ResourceRecord)
        object.__setattr__(clone, "name", self.name)
        object.__setattr__(clone, "rrtype", self.rrtype)
        object.__setattr__(clone, "ttl", ttl)
        object.__setattr__(clone, "rdata", self.rdata)
        object.__setattr__(clone, "rrclass", self.rrclass)
        return clone

    def __str__(self) -> str:
        return (f"{self.name} {self.ttl} {self.rrclass.name} "
                f"{self.rrtype.name} {self.rdata.to_text()}")


@dataclass
class Message:
    """A full DNS message."""

    txid: int
    flags: Flags = field(default_factory=Flags)
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)
    additional: List[ResourceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.txid <= MAX_TXID:
            raise ValueError(f"TXID out of range: {self.txid}")

    # ------------------------------------------------------------------
    # Convenience accessors.
    # ------------------------------------------------------------------

    @property
    def question(self) -> Question:
        """The single question (raises if the count differs from one)."""
        if len(self.questions) != 1:
            raise ValueError(
                f"expected exactly one question, found {len(self.questions)}"
            )
        return self.questions[0]

    @property
    def is_response(self) -> bool:
        return self.flags.qr

    @property
    def rcode(self) -> RCode:
        return self.flags.rcode

    def answers_for(self, name: Name, rrtype: RRType) -> List[ResourceRecord]:
        """Answer-section records matching a (name, type) pair."""
        return [record for record in self.answers
                if record.name == name and record.rrtype == rrtype]

    def section_records(self) -> Sequence[ResourceRecord]:
        """All records across the three record sections."""
        return [*self.answers, *self.authority, *self.additional]

    # ------------------------------------------------------------------
    # Wire codec.
    # ------------------------------------------------------------------

    def encode(self, compress: bool = True) -> bytes:
        writer = WireWriter(compress=compress)
        writer.write_bytes(_HEADER.pack(
            self.txid, self.flags.to_wire(), len(self.questions),
            len(self.answers), len(self.authority), len(self.additional)))
        for question in self.questions:
            question.to_wire(writer)
        for section in (self.answers, self.authority, self.additional):
            for record in section:
                record.to_wire(writer)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        template = _DECODE_MEMO.get(data[2:])
        if template is not None:
            return cls(txid=(data[0] << 8) | data[1], flags=template.flags,
                       questions=list(template.questions),
                       answers=list(template.answers),
                       authority=list(template.authority),
                       additional=list(template.additional))
        reader = WireReader(data)
        txid, flag_bits, qdcount, ancount, nscount, arcount = \
            reader.unpack(_HEADER)
        flags = Flags.from_wire(flag_bits)
        questions = [Question.from_wire(reader) for _ in range(qdcount)]
        answers = [ResourceRecord.from_wire(reader) for _ in range(ancount)]
        authority = [ResourceRecord.from_wire(reader) for _ in range(nscount)]
        additional = [ResourceRecord.from_wire(reader) for _ in range(arcount)]
        if not reader.pointer_into_id:
            # Safe to memoize: nothing in the parse read the ID bytes,
            # so any wire sharing this tail decodes identically (bar
            # the TXID, patched from the header on each hit). The
            # template is private to the memo; hits get fresh section
            # lists so callers may mutate their message freely.
            if len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
                _DECODE_MEMO.clear()
            _DECODE_MEMO[bytes(data[2:])] = cls(
                txid=txid, flags=flags, questions=list(questions),
                answers=list(answers), authority=list(authority),
                additional=list(additional))
        return cls(txid=txid, flags=flags, questions=questions,
                   answers=answers, authority=authority,
                   additional=additional)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"txid={self.txid:#06x} rcode={self.rcode.name}"
                 f" {'response' if self.is_response else 'query'}"]
        for question in self.questions:
            parts.append(f"  ? {question}")
        for record in self.answers:
            parts.append(f"  = {record}")
        for record in self.authority:
            parts.append(f"  @ {record}")
        for record in self.additional:
            parts.append(f"  + {record}")
        return "\n".join(parts)


def make_query(txid: int, qname: "Name | str", qtype: RRType,
               recursion_desired: bool = True) -> Message:
    """Build a standard query message."""
    return Message(
        txid=txid,
        flags=Flags(qr=False, rd=recursion_desired),
        questions=[Question(Name(qname), qtype)],
    )


def make_response(query: Message, rcode: RCode = RCode.NOERROR,
                  answers: Optional[List[ResourceRecord]] = None,
                  authority: Optional[List[ResourceRecord]] = None,
                  additional: Optional[List[ResourceRecord]] = None,
                  authoritative: bool = False,
                  recursion_available: bool = False) -> Message:
    """Build a response echoing the query's TXID and question."""
    return Message(
        txid=query.txid,
        flags=Flags(qr=True, aa=authoritative, rd=query.flags.rd,
                    ra=recursion_available, rcode=rcode),
        questions=list(query.questions),
        answers=list(answers or []),
        authority=list(authority or []),
        additional=list(additional or []),
    )
