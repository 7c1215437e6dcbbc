"""Record the DNS encoder's bytes for a seeded message corpus.

Run from the repository root::

    PYTHONPATH=src python -m tests.dns.record_wire_corpus

:func:`corpus` builds :data:`COUNT` messages from one seeded
``random.Random``: every RDATA type (A, AAAA, NS, CNAME, PTR, SOA, MX,
TXT, and opaque RDATA carried under its own type code), mixed-case
names sharing suffixes, labels holding dots, backslashes and non-ASCII
bytes, all three record sections, and a few messages long enough that
later names fall past the 0x4000 compression-pointer limit.

``fixtures/wire_corpus.json`` keeps the sha256 of ``encode(True)`` and
``encode(False)`` for every message, and the full hex of the first
:data:`FULL_HEX` so that a mismatch can be diffed. Record it only from
an encoder already trusted: the fixture pins the bytes, so a change to
the encoder must leave it as it is.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import List

from repro.dns.message import Flags, Message, Question, ResourceRecord
from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rdata import (
    AAAARdata,
    ARdata,
    CNAMERdata,
    MXRdata,
    NSRdata,
    OpaqueRdata,
    PTRRdata,
    Rdata,
    SOARdata,
    TXTRdata,
)
from repro.dns.rrtype import RRClass, RRType
from repro.netsim.address import IPAddress

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "wire_corpus.json"
SEED = 1035
COUNT = 2000
FULL_HEX = 200
#: Indices of the messages long enough to cross the pointer limit.
LONG = frozenset(range(FULL_HEX + 50, COUNT, 400))

_SUFFIXES = (
    (), (b"org",), (b"ntp", b"org"), (b"pool", b"ntp", b"org"),
    (b"example", b"com"), (b"com",), (b"ntppool", b"org"),
    (b"in-addr", b"arpa"), (b"2", b"0", b"192", b"in-addr", b"arpa"),
)
_PREFIXES = (
    b"www", b"ns1", b"ns2", b"mail", b"eu", b"a", b"time", b"Pool",
    b"a.b", b"back\\slash", b"\xff", b"\x00nul", b"sp ace", b"x" * 63,
)
_OPAQUE_TYPES = (RRType.OPT, RRType.ANY)


def _recase(rng: random.Random, label: bytes) -> bytes:
    return bytes(b ^ 0x20 if 0x61 <= (b | 0x20) <= 0x7A and rng.random() < 0.3
                 else b for b in label)


def _name(rng: random.Random) -> Name:
    labels = list(rng.choice(_SUFFIXES))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        labels.insert(0, rng.choice(_PREFIXES))
    return Name.from_labels(_recase(rng, label) for label in labels)


def _rdata(rng: random.Random, rrtype: RRType) -> Rdata:
    if rrtype is RRType.A:
        return ARdata(IPAddress.from_packed(rng.randbytes(4)))
    if rrtype is RRType.AAAA:
        return AAAARdata(IPAddress.from_packed(rng.randbytes(16)))
    if rrtype is RRType.NS:
        return NSRdata(_name(rng))
    if rrtype is RRType.CNAME:
        return CNAMERdata(_name(rng))
    if rrtype is RRType.PTR:
        return PTRRdata(_name(rng))
    if rrtype is RRType.SOA:
        return SOARdata(_name(rng), _name(rng),
                        *(rng.randrange(1 << 32) for _ in range(5)))
    if rrtype is RRType.MX:
        return MXRdata(rng.randrange(1 << 16), _name(rng))
    if rrtype is RRType.TXT:
        return TXTRdata(tuple(rng.randbytes(rng.choice((0, 5, 40, 255)))
                              for _ in range(rng.randint(1, 3))))
    return OpaqueRdata(type_code=int(rrtype),
                       data=rng.randbytes(rng.randrange(24)))


def _record(rng: random.Random, rrtype: RRType) -> ResourceRecord:
    return ResourceRecord(_name(rng), rrtype, rng.randrange(1 << 31),
                          _rdata(rng, rrtype),
                          rng.choice((RRClass.IN, RRClass.IN, RRClass.CH,
                                      RRClass.ANY)))


def _section(rng: random.Random, size: int) -> List[ResourceRecord]:
    types = [t for t in RRType if t not in _OPAQUE_TYPES]
    return [_record(rng, rng.choice(types) if rng.random() < 0.9
                    else rng.choice(_OPAQUE_TYPES))
            for _ in range(size)]


def _message(rng: random.Random, long: bool) -> Message:
    flags = Flags(qr=rng.random() < 0.7, opcode=rng.choice((0, 0, 0, 2, 4)),
                  aa=rng.random() < 0.5, tc=rng.random() < 0.1,
                  rd=rng.random() < 0.8, ra=rng.random() < 0.5,
                  rcode=rng.choice(list(RCode)))
    questions = [Question(_name(rng), rng.choice(list(RRType)),
                          rng.choice(list(RRClass)))
                 for _ in range(rng.choice((0, 1, 1, 1, 2)))]
    sizes = [rng.choice((0, 0, 1, 2, 4)) for _ in range(3)]
    if long:
        # ~100 records of ~250 bytes: the wire passes 0x4000 halfway.
        sizes = [rng.randint(60, 80), rng.randint(10, 20), rng.randint(20, 30)]
    sections = [_section(rng, size) for size in sizes]
    if long:
        for section in sections:
            for index, record in enumerate(section):
                if index % 2:
                    section[index] = ResourceRecord(
                        record.name, RRType.TXT, record.ttl,
                        TXTRdata((rng.randbytes(250),)), record.rrclass)
    return Message(txid=rng.randrange(1 << 16), flags=flags,
                   questions=questions, answers=sections[0],
                   authority=sections[1], additional=sections[2])


def corpus() -> List[Message]:
    """The :data:`COUNT` corpus messages, in fixture order."""
    rng = random.Random(SEED)
    return [_message(rng, index in LONG) for index in range(COUNT)]


def _sha256(wire: bytes) -> str:
    return hashlib.sha256(wire).hexdigest()


def record() -> dict:
    """The fixture payload for the current encoder."""
    wires = [(message.encode(True), message.encode(False))
             for message in corpus()]
    return {
        "seed": SEED,
        "count": COUNT,
        "sha256": [[_sha256(compressed), _sha256(plain)]
                   for compressed, plain in wires],
        "hex": [[compressed.hex(), plain.hex()]
                for compressed, plain in wires[:FULL_HEX]],
    }


def main() -> None:
    payload = record()
    lines = [f'{{"seed": {payload["seed"]}, "count": {payload["count"]},',
             ' "sha256": [',
             ",\n".join(f"  {json.dumps(entry)}" for entry in payload["sha256"]),
             ' ],',
             ' "hex": [',
             ",\n".join(f"  {json.dumps(entry)}" for entry in payload["hex"]),
             ' ]}']
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE_PATH} ({COUNT} messages)")


if __name__ == "__main__":
    main()
