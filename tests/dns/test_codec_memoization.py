"""The TXID-independent codec memos must be invisible semantically.

The fast path memoizes `Message.encode`/`Message.decode` on everything
but the transaction ID. These tests pin the edges where a sloppy memo
would change behaviour: TXID patching, case-exact keys, mutation
isolation between hits, and adversarial compression pointers aimed at
the ID bytes.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dns.message import (
    _DECODE_MEMO,
    Flags,
    Message,
    Question,
    ResourceRecord,
    make_query,
)
from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rdata import ARdata, CNAMERdata, NSRdata
from repro.dns.rrtype import RRType
from repro.netsim.address import IPAddress


def _reply(txid: int, name: str = "pool.ntp.org") -> Message:
    return Message(
        txid=txid,
        flags=Flags(qr=True, ra=True, rcode=RCode.NOERROR),
        questions=[Question(Name(name), RRType.A)],
        answers=[ResourceRecord(Name(name), RRType.A, 60,
                                ARdata(IPAddress("192.0.2.1")))],
    )


class TestEncodeMemo:
    def test_txid_varies_tail_identical(self):
        wires = [_reply(txid).encode() for txid in (0x0000, 0x1234, 0xFFFF)]
        assert wires[0][2:] == wires[1][2:] == wires[2][2:]
        assert wires[1][:2] == b"\x12\x34"

    def test_case_differences_never_share_bytes(self):
        lower = _reply(7, "pool.ntp.org").encode()
        upper = _reply(7, "POOL.ntp.org").encode()
        # Case-insensitively equal names (same DNS identity) must still
        # encode with their own octets — a folded memo key would leak
        # the first-seen spelling into the second message's wire.
        assert Name("pool.ntp.org") == Name("POOL.ntp.org")
        assert lower != upper
        assert b"POOL" in upper and b"pool" in lower

    def test_memoized_encode_matches_cold_encode(self):
        first = _reply(1).encode()
        again = _reply(2).encode()
        cold = Message.decode(again).encode()
        assert again == cold
        assert first[2:] == again[2:]


class TestDecodeMemo:
    def test_txid_patched_on_hit(self):
        wire = _reply(0x0101).encode()
        one = Message.decode(wire)
        two = Message.decode(b"\xbe\xef" + wire[2:])
        assert one.txid == 0x0101
        assert two.txid == 0xBEEF
        assert two.questions == one.questions
        assert two.answers == one.answers

    def test_hits_get_independent_section_lists(self):
        wire = _reply(0x2222).encode()
        first = Message.decode(wire)
        first.answers.append(first.answers[0])
        second = Message.decode(wire)
        assert len(second.answers) == 1

    def test_pointer_into_id_bytes_is_never_memoized(self):
        # Craft a reply whose qname is a compression pointer to offset
        # 0 — the TXID bytes themselves. Its parse depends on the ID,
        # so two wires sharing a tail must be parsed independently.
        def crafted(txid: bytes) -> bytes:
            # Query flags 0x0000: the byte after the TXID label bytes
            # is 0x00, terminating the pointed-to name.
            header = txid + b"\x00\x00" + b"\x00\x01\x00\x00\x00\x00\x00\x00"
            # QNAME = pointer to offset 0; QTYPE=A; QCLASS=IN.
            question = b"\xc0\x00" + b"\x00\x01" + b"\x00\x01"
            return header + question

        # txid bytes that read as a 1-label name: length 1, byte "a".
        first = Message.decode(crafted(b"\x01a"))
        second = Message.decode(crafted(b"\x01b"))
        assert first.questions[0].qname == Name("a")
        assert second.questions[0].qname == Name("b")


def _pointer_into_id(txid: bytes) -> bytes:
    """A query whose QNAME is a compression pointer to offset 0."""
    header = txid + b"\x00\x00" + b"\x00\x01\x00\x00\x00\x00\x00\x00"
    return header + b"\xc0\x00" + b"\x00\x01" + b"\x00\x01"


def _referral() -> bytes:
    zone = Name("ntp.org")
    return Message(
        txid=0x4242,
        flags=Flags(qr=True, rcode=RCode.NOERROR),
        questions=[Question(Name("pool.ntp.org"), RRType.A)],
        answers=[ResourceRecord(Name("pool.ntp.org"), RRType.CNAME, 60,
                                CNAMERdata(Name("eu.pool.ntp.org")))],
        authority=[ResourceRecord(zone, RRType.NS, 300,
                                  NSRdata(Name("ns1.ntp.org")))],
        additional=[ResourceRecord(Name("ns1.ntp.org"), RRType.A, 300,
                                   ARdata(IPAddress("192.0.2.53")))],
    ).encode()


_BASE_WIRES = (_reply(0x0101).encode(), _referral(),
               _pointer_into_id(b"\x01a"))


@st.composite
def _mutated_wires(draw) -> bytes:
    """A valid wire with some bytes overwritten, some compression
    pointers aimed at the ID bytes (offsets 0-1), and maybe a cut."""
    wire = bytearray(draw(st.sampled_from(_BASE_WIRES)))
    for position, value in draw(st.lists(
            st.tuples(st.integers(0, len(wire) - 1), st.integers(0, 255)),
            max_size=4)):
        wire[position] = value
    for position, target in draw(st.lists(
            st.tuples(st.integers(12, len(wire) - 2), st.integers(0, 1)),
            max_size=2)):
        wire[position:position + 2] = bytes((0xC0, target))
    if draw(st.booleans()):
        del wire[draw(st.integers(0, len(wire))):]
    return bytes(wire)


def _decode(wire: bytes):
    """The decoded message, or the type of the error it raised."""
    try:
        return Message.decode(wire)
    except ValueError as exc:
        return type(exc)


class TestDecodeMemoProperty:
    @settings(max_examples=300, deadline=None)
    @example(wire=_pointer_into_id(b"\x01a"), other_txid=b"\x01b")
    @given(wire=_mutated_wires(),
           other_txid=st.binary(min_size=2, max_size=2))
    def test_memoised_decode_equals_cold_decode(self, wire, other_txid):
        _DECODE_MEMO.clear()
        cold = _decode(wire)
        # Prime the memo with the same tail under another TXID, then
        # decode again: a hit must agree with the cold parse.
        _DECODE_MEMO.clear()
        _decode(other_txid + wire[2:])
        assert _decode(wire) == cold
