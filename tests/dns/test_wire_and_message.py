"""Tests for the wire codec and full messages, including round-trips."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.message import (
    Flags,
    Message,
    Question,
    ResourceRecord,
    make_query,
    make_response,
)
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
    SOARdata,
    TXTRdata,
)
from repro.dns.client import StubResolver, validate_reply
from repro.dns.rrtype import RRClass, RRType
from repro.dns.wire import WireFormatError, WireReader, WireWriter
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import LinkProfile
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.util.rng import RngRegistry
from tests.dns.record_wire_corpus import LONG, corpus


class TestWirePrimitives:
    def test_u16_roundtrip(self):
        writer = WireWriter()
        writer.write_u16(0xBEEF)
        assert WireReader(writer.getvalue()).read_u16() == 0xBEEF

    def test_u32_roundtrip(self):
        writer = WireWriter()
        writer.write_u32(0xDEADBEEF)
        assert WireReader(writer.getvalue()).read_u32() == 0xDEADBEEF

    def test_truncated_read_raises(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x01").read_u16()

    def test_character_string_roundtrip(self):
        writer = WireWriter()
        writer.write_character_string(b"hello")
        assert WireReader(writer.getvalue()).read_character_string() == b"hello"

    def test_character_string_too_long(self):
        with pytest.raises(WireFormatError):
            WireWriter().write_character_string(b"x" * 256)


class TestNameWire:
    def test_simple_roundtrip(self):
        writer = WireWriter()
        writer.write_name(Name("www.example.com"))
        assert WireReader(writer.getvalue()).read_name() == Name("www.example.com")

    def test_root_roundtrip(self):
        writer = WireWriter()
        writer.write_name(Name.root())
        data = writer.getvalue()
        assert data == b"\x00"
        assert WireReader(data).read_name().is_root

    def test_compression_shrinks_output(self):
        compressed = WireWriter(compress=True)
        compressed.write_name(Name("www.example.com"))
        compressed.write_name(Name("mail.example.com"))
        plain = WireWriter(compress=False)
        plain.write_name(Name("www.example.com"))
        plain.write_name(Name("mail.example.com"))
        assert len(compressed.getvalue()) < len(plain.getvalue())

    def test_compressed_names_decode(self):
        writer = WireWriter(compress=True)
        names = [Name("www.example.com"), Name("mail.example.com"),
                 Name("example.com"), Name("www.example.com")]
        for name in names:
            writer.write_name(name)
        reader = WireReader(writer.getvalue())
        decoded = [reader.read_name() for _ in range(len(names))]
        assert decoded == names

    def test_identical_name_becomes_pointer(self):
        writer = WireWriter(compress=True)
        writer.write_name(Name("a.example.com"))
        before = writer.offset
        writer.write_name(Name("a.example.com"))
        assert writer.offset - before == 2  # a single pointer

    def test_pointer_loop_rejected(self):
        # A pointer at offset 0 pointing to itself.
        with pytest.raises(WireFormatError):
            WireReader(b"\xc0\x00").read_name()

    def test_forward_pointer_rejected(self):
        # Pointer to offset 4 from offset 0 (forward).
        with pytest.raises(WireFormatError):
            WireReader(b"\xc0\x04\x00\x00\x01a\x00").read_name()

    def test_label_runs_past_end(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x05ab").read_name()

    @given(st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=15),
        min_size=0, max_size=6))
    def test_roundtrip_property(self, labels):
        try:
            name = Name(".".join(labels) if labels else ".")
        except ValueError:
            return
        writer = WireWriter()
        writer.write_name(name)
        assert WireReader(writer.getvalue()).read_name() == name


class TestCompressionPointers:
    def test_pointer_targets_earlier_suffix(self):
        """A hand-crafted message: 'mail.example.com' written as one
        label plus a pointer into 'www.example.com'."""
        writer = WireWriter(compress=True)
        writer.write_name(Name("www.example.com"))
        # 'example.com' starts after the 'www' label: offset 4.
        data = writer.getvalue() + b"\x04mail" + b"\xc0\x04"
        reader = WireReader(data)
        assert reader.read_name() == Name("www.example.com")
        assert reader.read_name() == Name("mail.example.com")

    def test_reader_offset_lands_after_pointer(self):
        writer = WireWriter(compress=True)
        writer.write_name(Name("a.example.com"))
        writer.write_name(Name("a.example.com"))
        writer.write_u16(0xBEEF)
        reader = WireReader(writer.getvalue())
        reader.read_name()
        reader.read_name()
        # The cursor must resume *after* the 2-byte pointer, not at the
        # pointer's target.
        assert reader.read_u16() == 0xBEEF

    def test_chained_pointers_resolve(self):
        # offset 0: 'example' 'com' 0 ; then 'www' -> 0 ; then ptr -> ptr.
        base = b"\x07example\x03com\x00"
        www = b"\x03www\xc0\x00"          # at offset 13
        chain = b"\xc0\x0d"               # pointer to the www name
        reader = WireReader(base + www + chain, offset=len(base) + len(www))
        assert reader.read_name() == Name("www.example.com")

    def test_case_insensitive_compression_reuses_offset(self):
        writer = WireWriter(compress=True)
        writer.write_name(Name("WWW.Example.COM"))
        before = writer.offset
        writer.write_name(Name("www.example.com"))
        assert writer.offset - before == 2

    def test_no_compression_beyond_pointer_range(self):
        """Offsets ≥ 0x4000 cannot be pointer targets; the writer must
        fall back to emitting the full name."""
        writer = WireWriter(compress=True)
        writer.write_bytes(b"\x00" * 0x4000)
        writer.write_name(Name("far.example.com"))
        before = writer.offset
        writer.write_name(Name("far.example.com"))
        # Still uncompressed: both copies sit past the addressable range.
        assert writer.offset - before == Name("far.example.com").wire_length

    def test_pointer_into_pointer_range_still_compresses(self):
        writer = WireWriter(compress=True)
        writer.write_name(Name("early.example.com"))
        writer.write_bytes(b"\x00" * 0x4000)
        before = writer.offset
        writer.write_name(Name("early.example.com"))
        # The *target* is early enough even though the reference is far.
        assert writer.offset - before == 2


class TestWireLimits:
    def test_max_length_label_roundtrips(self):
        label = "x" * 63
        name = Name(f"{label}.example")
        writer = WireWriter()
        writer.write_name(name)
        assert WireReader(writer.getvalue()).read_name() == name

    def test_max_length_name_roundtrips(self):
        # Four 61-byte labels: 4 * 62 + 1 = 249 ≤ 255 wire bytes.
        name = Name(".".join(["y" * 61] * 4))
        assert name.wire_length <= 255
        writer = WireWriter()
        writer.write_name(name)
        assert WireReader(writer.getvalue()).read_name() == name

    def test_reserved_label_type_rejected(self):
        # Length byte 0x40 is the reserved 01 label type (> 63).
        with pytest.raises(WireFormatError):
            WireReader(b"\x40" + b"a" * 0x40 + b"\x00").read_name()

    def test_wire_name_exceeding_255_rejected(self):
        # Five 62-byte labels decode to a 316-byte name: Name refuses.
        data = b"".join(b"\x3e" + b"z" * 62 for _ in range(5)) + b"\x00"
        with pytest.raises(ValueError):
            WireReader(data).read_name()


class TestTruncatedBuffers:
    def test_empty_buffer_name(self):
        with pytest.raises(WireFormatError):
            WireReader(b"").read_name()

    def test_name_without_terminator(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x03www").read_name()

    def test_truncated_pointer_second_byte(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x00\xc0", offset=1).read_name()

    def test_truncated_u32(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x01\x02\x03").read_u32()

    def test_truncated_character_string(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x05ab").read_character_string()

    def test_seek_out_of_range(self):
        with pytest.raises(WireFormatError):
            WireReader(b"abc").seek(4)

    def test_negative_read_rejected(self):
        with pytest.raises(WireFormatError):
            WireReader(b"abc").read_bytes(-1)

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_never_crash_reader(self, data):
        """Malformed input must fail with WireFormatError (or Name's
        ValueError), never an unhandled exception."""
        try:
            WireReader(data).read_name()
        except ValueError:
            pass

    def test_message_truncated_mid_record(self):
        message = make_response(
            make_query(1, "pool.ntp.org", RRType.A),
            answers=[ResourceRecord(Name("pool.ntp.org"), RRType.A, 60,
                                    ARdata("192.0.2.1"))])
        wire = message.encode()
        for cut in (3, len(wire) // 2, len(wire) - 1):
            with pytest.raises(WireFormatError):
                Message.decode(wire[:cut])


RDATAS = [
    ARdata("192.0.2.33"),
    AAAARdata("2001:db8::33"),
    NSRdata(Name("ns1.example.com")),
    CNAMERdata(Name("real.example.com")),
    PTRRdata(Name("host.example.com")),
    SOARdata(Name("ns1.example.com"), Name("admin.example.com"),
             serial=2024, refresh=1, retry=2, expire=3, minimum=4),
    MXRdata(10, Name("mx.example.com")),
    TXTRdata(("hello", "world")),
]


class TestRdata:
    @pytest.mark.parametrize("rdata", RDATAS, ids=lambda r: type(r).__name__)
    def test_roundtrip_via_record(self, rdata):
        record = ResourceRecord(Name("x.example.com"), rdata.rrtype, 300, rdata)
        writer = WireWriter()
        record.to_wire(writer)
        decoded = ResourceRecord.from_wire(WireReader(writer.getvalue()))
        assert decoded.rdata == rdata
        assert decoded.name == record.name
        assert decoded.ttl == 300

    def test_a_rejects_ipv6(self):
        with pytest.raises(ValueError):
            ARdata("2001:db8::1")

    def test_aaaa_rejects_ipv4(self):
        with pytest.raises(ValueError):
            AAAARdata("192.0.2.1")

    def test_txt_accepts_single_string(self):
        assert TXTRdata("solo").strings == (b"solo",)

    def test_txt_rejects_empty(self):
        with pytest.raises(ValueError):
            TXTRdata(())

    def test_txt_rejects_oversized_chunk(self):
        with pytest.raises(ValueError):
            TXTRdata(("x" * 256,))

    def test_mx_preference_range(self):
        with pytest.raises(ValueError):
            MXRdata(70000, Name("mx.example.com"))

    def test_text_forms(self):
        assert ARdata("192.0.2.1").to_text() == "192.0.2.1"
        assert NSRdata(Name("ns.x.com")).to_text() == "ns.x.com"
        assert "2024" in SOARdata(Name("a.com"), Name("b.com"),
                                  serial=2024).to_text()


class TestFlags:
    def test_roundtrip_default(self):
        flags = Flags()
        assert Flags.from_wire(flags.to_wire()) == flags

    def test_roundtrip_all_set(self):
        flags = Flags(qr=True, opcode=2, aa=True, tc=True, rd=True,
                      ra=True, rcode=RCode.NXDOMAIN)
        assert Flags.from_wire(flags.to_wire()) == flags

    def test_unknown_rcode_becomes_servfail(self):
        decoded = Flags.from_wire(0x000F)
        assert decoded.rcode is RCode.SERVFAIL

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_decode_never_crashes(self, raw):
        Flags.from_wire(raw)


class TestMessage:
    def make_message(self) -> Message:
        query = make_query(0x1234, "pool.ntp.org", RRType.A)
        return make_response(
            query,
            answers=[
                ResourceRecord(Name("pool.ntp.org"), RRType.A, 60,
                               ARdata("192.0.2.1")),
                ResourceRecord(Name("pool.ntp.org"), RRType.A, 60,
                               ARdata("192.0.2.2")),
            ],
            authority=[
                ResourceRecord(Name("ntp.org"), RRType.NS, 3600,
                               NSRdata(Name("ns1.ntp.org"))),
            ],
            additional=[
                ResourceRecord(Name("ns1.ntp.org"), RRType.A, 3600,
                               ARdata("192.0.2.53")),
            ],
            authoritative=True,
        )

    def test_full_roundtrip(self):
        message = self.make_message()
        decoded = Message.decode(message.encode())
        assert decoded.txid == message.txid
        assert decoded.flags == message.flags
        assert decoded.questions == message.questions
        assert decoded.answers == message.answers
        assert decoded.authority == message.authority
        assert decoded.additional == message.additional

    def test_roundtrip_without_compression(self):
        message = self.make_message()
        decoded = Message.decode(message.encode(compress=False))
        assert decoded.answers == message.answers

    def test_compression_reduces_size(self):
        message = self.make_message()
        assert len(message.encode(compress=True)) < len(
            message.encode(compress=False))

    def test_query_construction(self):
        query = make_query(7, "example.com", RRType.AAAA)
        assert not query.is_response
        assert query.flags.rd
        assert query.question.qtype is RRType.AAAA

    def test_response_echoes_txid_and_question(self):
        query = make_query(99, "example.com", RRType.A)
        response = make_response(query, rcode=RCode.NXDOMAIN)
        assert response.txid == 99
        assert response.is_response
        assert response.rcode is RCode.NXDOMAIN
        assert response.question == query.question

    def test_question_property_requires_exactly_one(self):
        message = Message(txid=1)
        with pytest.raises(ValueError):
            _ = message.question

    def test_txid_range_validated(self):
        with pytest.raises(ValueError):
            Message(txid=0x10000)

    def test_answers_for(self):
        message = self.make_message()
        matches = message.answers_for(Name("pool.ntp.org"), RRType.A)
        assert len(matches) == 2

    def test_decode_garbage_raises(self):
        with pytest.raises(WireFormatError):
            Message.decode(b"\x00\x01")

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            ResourceRecord(Name("a.com"), RRType.A, -1, ARdata("192.0.2.1"))

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.lists(st.integers(min_value=0, max_value=255), max_size=8))
    def test_address_lists_roundtrip(self, txid, octets):
        answers = [
            ResourceRecord(Name("pool.example.org"), RRType.A, 60,
                           ARdata(IPAddress(f"10.1.2.{value}")))
            for value in octets
        ]
        message = Message(txid=txid, flags=Flags(qr=True),
                          questions=[Question(Name("pool.example.org"),
                                              RRType.A)],
                          answers=answers)
        decoded = Message.decode(message.encode())
        assert decoded.answers == answers


def _one_record_reply(type_code: int, class_code: int,
                      rdata: bytes = b"\xbe\xef") -> bytes:
    """A reply carrying one ``a.`` record with the given TYPE and CLASS."""
    header = struct.pack("!HHHHHH", 0x1234, 0x8180, 0, 1, 0, 0)
    return (header + b"\x01a\x00"
            + struct.pack("!HHIH", type_code, class_code, 60, len(rdata))
            + rdata)


class TestUnknownTypeAndClass:
    def test_unknown_type_reencodes_with_the_type_it_was_read_with(self):
        wire = _one_record_reply(99, 1)
        message = Message.decode(wire)
        assert message.answers[0].rdata == OpaqueRdata(99, b"\xbe\xef")
        # A resolver relaying the record must not rewrite TYPE 99 as
        # the placeholder rrtype (OPT, 41).
        assert message.encode() == wire
        assert message.encode(compress=False) == wire

    @pytest.mark.parametrize("type_code, rdata",
                             [(99, b"\xbe\xef"), (1, bytes(4))],
                             ids=["opaque", "A"])
    def test_unknown_class_is_rejected(self, type_code, rdata):
        # Re-encoding would otherwise rewrite CLASS 7 as IN.
        with pytest.raises(WireFormatError, match="CLASS 7"):
            Message.decode(_one_record_reply(type_code, 7, rdata))


def _a_reply_with_ttl(query: Message, ttl: int) -> bytes:
    """The encoded reply to ``query`` with one A record (192.0.2.1)
    whose wire TTL is ``ttl``, written past the record's range check."""
    wire = make_response(query, answers=[
        ResourceRecord(query.question.qname, RRType.A, 60,
                       ARdata("192.0.2.1"))]).encode()
    # The A record ends the message: TTL, RDLENGTH, then 4 RDATA bytes.
    return wire[:-10] + struct.pack("!I", ttl) + wire[-6:]


@pytest.mark.parametrize("ttl", [0x80000000, 0xFFFFFFFF])
class TestTopBitTtl:
    """RFC 2181 section 8: a TTL with the top bit set reads as zero, so
    such an answer is an answer, not a crash in the decoder's
    callers."""

    QUERY = make_query(7, "pool.ntp.org", RRType.A)

    def test_decodes_as_zero(self, ttl):
        message = Message.decode(_a_reply_with_ttl(self.QUERY, ttl))
        assert [(r.ttl, r.rdata) for r in message.answers] == [
            (0, ARdata("192.0.2.1"))]

    def test_validate_reply_accepts_it(self, ttl):
        server = Endpoint(IPAddress("10.0.0.2"), 53)
        datagram = Datagram(src=server,
                            dst=Endpoint(IPAddress("10.0.0.1"), 40000),
                            payload=_a_reply_with_ttl(self.QUERY, ttl))
        reply = validate_reply(datagram, 7, server, Name("pool.ntp.org"),
                               RRType.A)
        assert reply is not None
        assert [r.ttl for r in reply.answers] == [0]

    def test_a_stub_world_answered_with_it_runs_to_completion(self, ttl):
        registry = RngRegistry(5)
        simulator = Simulator()
        topology = Topology(registry)
        topology.add_link("a", "b", LinkProfile(latency=0.01))
        internet = Internet(simulator, topology, registry)
        client = internet.add_host(Host("client", "a", [IPAddress("10.0.0.1")],
                                        rng=registry.stream("ports")))
        server = internet.add_host(Host("server", "b",
                                        [IPAddress("10.0.0.2")]))
        socket = server.bind(53)
        socket.on_datagram(lambda datagram: socket.reply(
            datagram, _a_reply_with_ttl(Message.decode(datagram.payload),
                                        ttl)))
        stub = StubResolver(client, simulator, IPAddress("10.0.0.2"),
                            timeout=1.0, retries=1,
                            rng=registry.stream("txid"))
        outcomes = []
        stub.query("pool.ntp.org", RRType.A, outcomes.append)
        simulator.run()
        assert simulator.pending_events == 0
        (outcome,) = outcomes
        assert outcome.ok
        assert outcome.addresses == [IPAddress("192.0.2.1")]
        assert [r.ttl for r in outcome.response.answers] == [0]


#: Encoded corpus messages (compressed and not, the long ones left
#: out) the mutation property starts from; built on first use.
_CORPUS_WIRES: list = []


def _corpus_wires() -> list:
    if not _CORPUS_WIRES:
        _CORPUS_WIRES.extend(
            message.encode(compress)
            for index, message in enumerate(corpus()[:200])
            if index not in LONG for compress in (True, False))
    return _CORPUS_WIRES


class TestDecoderErrorsAreTyped:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mutated_messages_raise_only_wire_format_errors(self, seed):
        # Every caller of Message.decode catches WireFormatError alone,
        # so any other exception out of a malformed message would end
        # the simulation. Each example flips (xor with a nonzero byte)
        # or deletes 1-3 bytes of 20 corpus messages; a top-bit TTL
        # turns up in about 1 of 200 mutated messages.
        rng = random.Random(seed)
        wires = _corpus_wires()
        for _ in range(20):
            wire = bytearray(rng.choice(wires))
            for _ in range(rng.randint(1, 3)):
                position = rng.randrange(len(wire))
                if rng.random() < 0.75:
                    wire[position] ^= rng.randint(1, 255)
                else:
                    del wire[position]
            try:
                Message.decode(bytes(wire))
            except WireFormatError:
                pass
