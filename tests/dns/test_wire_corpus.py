"""The DNS encoder's bytes are pinned across commits.

``fixtures/wire_corpus.json`` was recorded by
:mod:`tests.dns.record_wire_corpus` from an encoder that memoized
whole messages and rendered RDATA through a sub-writer. Every message
of the seeded corpus must still encode to those bytes, compressed and
uncompressed, and decode back to itself.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.dns.message import (
    _DECODE_MEMO,
    Flags,
    Message,
    Question,
    ResourceRecord,
)
from repro.dns.name import Name
from repro.dns.rdata import AAAARdata, ARdata, OpaqueRdata
from repro.dns.rrtype import RRClass, RRType

from tests.dns.record_wire_corpus import (
    COUNT,
    FIXTURE_PATH,
    FULL_HEX,
    LONG,
    SEED,
    corpus,
)

FIXTURE = json.loads(FIXTURE_PATH.read_text())
MESSAGES = corpus()
COLUMNS = {True: 0, False: 1}


def test_fixture_matches_the_generator():
    assert (FIXTURE["seed"], FIXTURE["count"]) == (SEED, COUNT)
    assert len(FIXTURE["sha256"]) == len(MESSAGES) == COUNT
    assert len(FIXTURE["hex"]) == FULL_HEX


def test_corpus_covers_every_rdata_type_and_the_pointer_limit():
    records = [record for message in MESSAGES
               for record in message.section_records()]
    kinds = {type(record.rdata).__name__ for record in records}
    assert len(kinds) == 9
    opaque = [record for record in records
              if type(record.rdata) is OpaqueRdata]
    assert {record.rrtype for record in opaque} == {RRType.OPT, RRType.ANY}
    assert all(record.rdata.type_code == record.rrtype for record in opaque)
    labels = {label for record in records for label in record.name.labels}
    assert {b"a.b", b"back\\slash", b"\xff"} <= labels
    assert any(label != label.lower() for label in labels)
    assert all(len(MESSAGES[index].encode()) > 0x4000 for index in LONG)


@pytest.mark.parametrize("compress", [True, False])
def test_first_messages_encode_to_recorded_hex(compress):
    column = COLUMNS[compress]
    for index, message in enumerate(MESSAGES[:FULL_HEX]):
        assert (index, message.encode(compress).hex()) == \
            (index, FIXTURE["hex"][index][column])


@pytest.mark.parametrize("compress", [True, False])
def test_every_message_encodes_to_recorded_digest(compress):
    column = COLUMNS[compress]
    mismatches = [
        index for index, message in enumerate(MESSAGES)
        if hashlib.sha256(message.encode(compress)).hexdigest()
        != FIXTURE["sha256"][index][column]]
    assert mismatches == []


@pytest.mark.parametrize("compress", [True, False])
def test_decode_inverts_encode(compress):
    mismatches = [index for index, message in enumerate(MESSAGES)
                  if Message.decode(message.encode(compress)) != message]
    assert mismatches == []


def _validated(record: ResourceRecord) -> ResourceRecord:
    """``record`` rebuilt from plain values through the coercing
    constructors: labels, int codes and text addresses."""
    rdata = record.rdata
    if type(rdata) in (ARdata, AAAARdata):
        rdata = type(rdata)(str(rdata.address))
    else:
        rdata = type(rdata)(**{field.name: getattr(rdata, field.name)
                               for field in dataclasses.fields(rdata)})
    return ResourceRecord(Name(record.name.labels), int(record.rrtype),
                          record.ttl, rdata, int(record.rrclass))


@pytest.mark.parametrize("compress", [True, False])
def test_decode_builds_what_the_validating_constructors_build(compress):
    """Decoding skips the coercing __post_init__ of records, questions
    and rdata; what it builds must equal what they build, field types
    included."""
    mismatches = []
    for index, message in enumerate(MESSAGES):
        _DECODE_MEMO.clear()
        decoded = Message.decode(message.encode(compress))
        flags = decoded.flags
        if flags != Flags(**dataclasses.asdict(flags)):
            mismatches.append((index, "flags"))
        for question in decoded.questions:
            rebuilt = Question(Name(question.qname.labels),
                               int(question.qtype), int(question.qclass))
            if (question != rebuilt or type(question.qtype) is not RRType
                    or type(question.qclass) is not RRClass):
                mismatches.append((index, str(question)))
        for record in decoded.section_records():
            if (record != _validated(record)
                    or type(record.name) is not Name
                    or type(record.rrtype) is not RRType
                    or type(record.rrclass) is not RRClass):
                mismatches.append((index, str(record)))
    assert mismatches == []
