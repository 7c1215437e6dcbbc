"""The DNS encoder's bytes are pinned across commits.

``fixtures/wire_corpus.json`` was recorded by
:mod:`tests.dns.record_wire_corpus` from an encoder that memoized
whole messages and rendered RDATA through a sub-writer. Every message
of the seeded corpus must still encode to those bytes, compressed and
uncompressed, and decode back to itself.
"""

import hashlib
import json

import pytest

from repro.dns.message import Message
from repro.dns.rdata import OpaqueRdata
from repro.dns.rrtype import RRType

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
