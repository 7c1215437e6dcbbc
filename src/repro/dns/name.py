"""Domain names (RFC 1035 §2.3.1, §3.1).

``Name`` is an immutable sequence of labels stored in their original
case but compared and hashed case-insensitively, as the DNS requires.
The wire codec lives in :mod:`repro.dns.wire`; this module only deals in
text and label tuples.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Tuple, Union

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


class NameError_(ValueError):
    """Raised for malformed domain names (avoids shadowing builtins)."""


@total_ordering
class Name:
    """An absolute domain name.

    All names in this codebase are absolute (the trailing dot is
    implied); relative-name semantics caused enough real-world DNS bugs
    that we refuse to model them.

    >>> Name("Example.COM") == Name("example.com")
    True
    >>> Name("www.example.com").parent()
    Name('example.com')
    >>> Name("www.example.com").is_subdomain_of(Name("example.com"))
    True
    """

    __slots__ = ("_labels", "_folded", "_hash", "_text")

    def __init__(self, text: Union[str, "Name", Iterable[bytes]]) -> None:
        if isinstance(text, Name):
            # Copy all derived state: names are immutable, so the
            # folded form, cached hash and cached text transfer verbatim.
            self._labels: Tuple[bytes, ...] = text._labels
            self._folded = text._folded
            self._hash = text._hash
            self._text = text._text
            return
        if isinstance(text, str):
            self._labels = _labels_from_text(text)
        else:
            self._labels = _validate_labels(tuple(bytes(l) for l in text))
        self._folded = tuple(label.lower() for label in self._labels)
        self._hash: "int | None" = None
        self._text: "str | None" = None

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------

    @classmethod
    def root(cls) -> "Name":
        """The DNS root name ``.``."""
        return cls(())

    @classmethod
    def from_labels(cls, labels: Iterable[bytes]) -> "Name":
        return cls(tuple(labels))

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        """The labels, most-specific first, without the root label."""
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    def __len__(self) -> int:
        """Number of labels (the root name has zero)."""
        return len(self._labels)

    @property
    def wire_length(self) -> int:
        """Length of the uncompressed wire encoding in bytes."""
        return sum(len(label) + 1 for label in self._labels) + 1

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        >>> Name("a.b.c").parent()
        Name('b.c')
        """
        if self.is_root:
            raise NameError_("the root name has no parent")
        return Name(self._labels[1:])

    def child(self, label: Union[str, bytes]) -> "Name":
        """Prepend a label: ``Name("b.c").child("a") == Name("a.b.c")``."""
        raw = label.encode("ascii") if isinstance(label, str) else bytes(label)
        return Name((raw,) + self._labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True when ``self`` equals or is below ``other``.

        Every name is a subdomain of the root. This is the test behind
        bailiwick filtering in the recursive resolver.
        """
        if len(other._folded) > len(self._folded):
            return False
        if not other._folded:
            return True
        return self._folded[-len(other._folded):] == other._folded

    def relativize(self, origin: "Name") -> Tuple[bytes, ...]:
        """Labels of ``self`` below ``origin``; raises if not below it."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        remaining = len(self._labels) - len(origin._labels)
        return self._labels[:remaining]

    def ancestors(self) -> Iterable["Name"]:
        """Yield self, parent, grandparent, ..., root."""
        current = self
        while True:
            yield current
            if current.is_root:
                return
            current = current.parent()

    # ------------------------------------------------------------------
    # Text form.
    # ------------------------------------------------------------------

    def to_text(self) -> str:
        r"""Dotted text form, ``.`` for the root.

        Bytes outside printable ASCII render as RFC 1035 §5.1 ``\DDD``
        escapes and a ``.`` or ``\`` inside a label is backslash-quoted,
        so any wire-decoded name has a text form that parses back to
        the same labels.

        >>> Name.from_labels((b"a.b", b"\xff", b"org")).to_text()
        'a\\.b.\\255.org'
        """
        text = self._text
        if text is None:
            text = self._text = (
                ".".join(_label_to_text(label) for label in self._labels)
                if self._labels else ".")
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    # ------------------------------------------------------------------
    # Comparison (case-insensitive, per RFC 1035 §2.3.3).
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Name):
            return self._folded == other._folded
        if isinstance(other, str):
            try:
                return self._folded == Name(other)._folded
            except ValueError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        # Canonical DNS ordering: compare label-by-label from the root.
        return self._folded[::-1] < other._folded[::-1]

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._folded)
        return value


#: Label bytes that render as themselves: printable ASCII except the
#: label separator and the escape character.
_PLAIN_BYTES = bytes(b for b in range(0x21, 0x7F) if b not in b".\\")


def _label_to_text(label: bytes) -> str:
    if not label.translate(None, _PLAIN_BYTES):
        return label.decode("ascii")
    return "".join(
        chr(b) if b in _PLAIN_BYTES
        else "\\" + chr(b) if b in b".\\"
        else f"\\{b:03d}"
        for b in label)


def _labels_from_text(text: str) -> Tuple[bytes, ...]:
    r"""Split dotted text into labels, reading RFC 1035 §5.1 escapes:
    ``\DDD`` is the byte with decimal value DDD, ``\X`` is X itself for
    any other X. One trailing dot is allowed; empty labels are not."""
    stripped = text.strip()
    if stripped in (".", ""):
        return ()
    labels = []
    label = bytearray()
    index, end = 0, len(stripped)
    while index < end:
        char = stripped[index]
        if char == ".":
            if not label:
                raise NameError_(f"empty label in {text!r}")
            labels.append(bytes(label))
            label.clear()
            index += 1
            continue
        if char == "\\":
            digits = stripped[index + 1:index + 4]
            if len(digits) == 3 and all(d in "0123456789" for d in digits):
                if int(digits) > 255:
                    raise NameError_(f"escape \\{digits} exceeds 255 "
                                     f"in {text!r}")
                label.append(int(digits))
                index += 4
                continue
            if index + 1 == end or stripped[index + 1] in "0123456789":
                raise NameError_(f"malformed escape in {text!r}")
            index += 1
            char = stripped[index]
        if not char.isascii():
            raise NameError_(
                f"non-ASCII character {char!r} in {text!r}; "
                f"IDNA is out of scope")
        label.append(ord(char))
        index += 1
    if label:
        labels.append(bytes(label))
    return _validate_labels(tuple(labels))


def _validate_labels(labels: Tuple[bytes, ...]) -> Tuple[bytes, ...]:
    total = 1
    for label in labels:
        if not label:
            raise NameError_("empty label")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(
                f"label {label!r} exceeds {MAX_LABEL_LENGTH} bytes"
            )
        total += len(label) + 1
    if total > MAX_NAME_LENGTH:
        raise NameError_(f"name exceeds {MAX_NAME_LENGTH} bytes")
    return labels
