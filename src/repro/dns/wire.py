"""Low-level DNS wire-format reader/writer with name compression.

``WireWriter`` tracks the offset of every name it emits and replaces
later occurrences with compression pointers (RFC 1035 §4.1.4).
``WireReader`` follows pointers with loop protection.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.dns.name import Name

_POINTER_FLAG = 0xC0
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_MAX_POINTER_HOPS = 128

# Decoded-name intern pool: the simulation parses the same handful of
# names millions of times, so identical label tuples share one immutable
# Name. Bounded (cleared wholesale when full) and keyed on the exact,
# case-preserved labels.
_NAME_POOL: Dict[Tuple[bytes, ...], Name] = {}
_NAME_POOL_MAX = 4096


class WireFormatError(ValueError):
    """Raised when decoding malformed wire data."""


class WireWriter:
    """Accumulates a DNS message's wire bytes.

    >>> writer = WireWriter()
    >>> writer.write_u16(0x1234)
    >>> writer.getvalue().hex()
    '1234'
    """

    def __init__(self, compress: bool = True) -> None:
        self._buffer = bytearray()
        self._compress = compress
        # Maps folded label suffix tuples to their first wire offset.
        self._name_offsets: Dict[Tuple[bytes, ...], int] = {}

    @property
    def offset(self) -> int:
        """Current length of the accumulated output."""
        return len(self._buffer)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def write_bytes(self, data: bytes) -> None:
        self._buffer += data

    def write_u8(self, value: int) -> None:
        self._buffer.append(value)

    def write_u16(self, value: int) -> None:
        self._buffer += _U16.pack(value)

    def write_u32(self, value: int) -> None:
        self._buffer += _U32.pack(value)

    def write_name(self, name: Name) -> None:
        """Emit a (possibly compressed) domain name."""
        buffer = self._buffer
        labels = name.labels
        for index in range(len(labels)):
            if self._compress:
                suffix = name._folded[index:]
                known_offset = self._name_offsets.get(suffix)
                if known_offset is not None:
                    buffer += _U16.pack(_POINTER_FLAG << 8 | known_offset)
                    return
                if len(buffer) < 0x4000:
                    self._name_offsets[suffix] = len(buffer)
            buffer.append(len(labels[index]))
            buffer += labels[index]
        buffer.append(0)

    def write_character_string(self, data: bytes) -> None:
        """Emit a <character-string> (length-prefixed, max 255)."""
        if len(data) > 255:
            raise WireFormatError("character-string exceeds 255 bytes")
        self.write_u8(len(data))
        self.write_bytes(data)


class WireReader:
    """Cursor over a DNS message's wire bytes."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._offset = offset
        # Set when a compression pointer targets the message ID bytes
        # (offsets 0-1); such a parse depends on the transaction ID and
        # is ineligible for ID-independent decode memoization.
        self.pointer_into_id = False

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def seek(self, offset: int) -> None:
        if not 0 <= offset <= len(self._data):
            raise WireFormatError(f"seek out of range: {offset}")
        self._offset = offset

    def read_bytes(self, count: int) -> bytes:
        if count < 0 or self._offset + count > len(self._data):
            raise WireFormatError(
                f"truncated message: wanted {count} bytes at {self._offset}"
            )
        chunk = self._data[self._offset:self._offset + count]
        self._offset += count
        return chunk

    def read_u8(self) -> int:
        return self.read_bytes(1)[0]

    def read_u16(self) -> int:
        return self.unpack(_U16)[0]

    def read_u32(self) -> int:
        return self.unpack(_U32)[0]

    def unpack(self, layout: struct.Struct) -> tuple:
        """Read one fixed-size ``struct`` layout."""
        return layout.unpack(self.read_bytes(layout.size))

    def read_name(self) -> Name:
        """Decode a domain name, following compression pointers."""
        labels: list[bytes] = []
        hops = 0
        cursor = self._offset
        jumped = False
        while True:
            if cursor >= len(self._data):
                raise WireFormatError("name runs past end of message")
            length = self._data[cursor]
            if length & _POINTER_FLAG == _POINTER_FLAG:
                if cursor + 1 >= len(self._data):
                    raise WireFormatError("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | self._data[cursor + 1]
                if not jumped:
                    self._offset = cursor + 2
                    jumped = True
                if pointer >= cursor:
                    raise WireFormatError("forward compression pointer")
                if pointer < 2:
                    self.pointer_into_id = True
                cursor = pointer
                hops += 1
                if hops > _MAX_POINTER_HOPS:
                    raise WireFormatError("compression pointer loop")
                continue
            if length & _POINTER_FLAG:
                raise WireFormatError(f"reserved label type 0x{length:02x}")
            cursor += 1
            if length == 0:
                if not jumped:
                    self._offset = cursor
                key = tuple(labels)
                name = _NAME_POOL.get(key)
                if name is None:
                    if len(_NAME_POOL) >= _NAME_POOL_MAX:
                        _NAME_POOL.clear()
                    name = Name.from_labels(key)
                    _NAME_POOL[key] = name
                return name
            if cursor + length > len(self._data):
                raise WireFormatError("label runs past end of message")
            labels.append(self._data[cursor:cursor + length])
            cursor += length

    def read_character_string(self) -> bytes:
        length = self.read_u8()
        return self.read_bytes(length)
