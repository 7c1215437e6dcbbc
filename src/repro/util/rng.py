"""Deterministic, hierarchical random-number management.

Every stochastic component of the simulation draws from a named stream
derived from a single root seed. Two runs with the same root seed are
bit-identical, regardless of the order in which components are created,
because each stream's seed depends only on the root seed and the stream
name — never on global RNG state.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, Sequence, Tuple, TypeVar

T = TypeVar("T")

_SEED_BYTES = 8


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from ``root_seed`` and a path of stream names.

    The derivation hashes the root seed together with the name path, so
    the child seed is stable across runs and independent of creation
    order.

    >>> derive_seed(42, "netsim") == derive_seed(42, "netsim")
    True
    >>> derive_seed(42, "netsim") != derive_seed(42, "attacks")
    True
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        encoded = name.encode("utf-8")
        # Length-prefix every component so that no concatenation of
        # names can collide with a different split of the same bytes.
        hasher.update(len(encoded).to_bytes(4, "big"))
        hasher.update(encoded)
    return int.from_bytes(hasher.digest()[:_SEED_BYTES], "big")


def make_rng(root_seed: int, *names: str) -> random.Random:
    """Create an independent :class:`random.Random` for a named stream."""
    return random.Random(derive_seed(root_seed, *names))


class StreamPrefix:
    """A pre-hashed name prefix for bulk child-stream derivation.

    :func:`derive_seed` feeds the root seed and every path component
    through one SHA-256 pass; components are length-prefixed, so the
    digest state after hashing a *prefix* of the path is a function of
    that prefix alone. A :class:`StreamPrefix` snapshots that state
    once and derives each child seed from a cheap ``hasher.copy()``
    plus the suffix components — bit-identical to
    ``derive_seed(root, *prefix, *suffix)`` by construction, without
    re-hashing the shared prefix per lookup. The population layer uses
    one prefix per client (``("population", tag)``) so building a
    100k-client shard does one prefix pass, not eight, per client.

    Streams are memoised in the owning registry's table under the same
    name-tuple keys :meth:`RngRegistry.stream` uses, so prefixed and
    direct lookups of the same path return the same generator.
    """

    __slots__ = ("_streams", "_names", "_hasher")

    def __init__(self, registry: "RngRegistry",
                 names: Tuple[str, ...]) -> None:
        self._streams = registry._streams
        self._names = names
        hasher = hashlib.sha256()
        hasher.update(str(int(registry.root_seed)).encode("ascii"))
        for name in names:
            encoded = name.encode("utf-8")
            hasher.update(len(encoded).to_bytes(4, "big"))
            hasher.update(encoded)
        self._hasher = hasher

    @property
    def names(self) -> Tuple[str, ...]:
        """The path components this prefix covers."""
        return self._names

    def derive(self, *names: str) -> int:
        """``derive_seed(root, *self.names, *names)``, from the
        snapshotted digest state."""
        hasher = self._hasher.copy()
        for name in names:
            encoded = name.encode("utf-8")
            hasher.update(len(encoded).to_bytes(4, "big"))
            hasher.update(encoded)
        return int.from_bytes(hasher.digest()[:_SEED_BYTES], "big")

    def stream(self, *names: str) -> random.Random:
        """The registry stream for ``(*self.names, *names)``."""
        key = self._names + names
        stream = self._streams.get(key)
        if stream is None:
            self._streams[key] = stream = random.Random(self.derive(*names))
        return stream


class RngRegistry:
    """A registry of named random streams sharing one root seed.

    The registry memoises streams so that repeated lookups of the same
    name return the same generator object (and therefore continue the
    same sequence).

    >>> reg = RngRegistry(7)
    >>> reg.stream("a") is reg.stream("a")
    True
    >>> reg.stream("a") is reg.stream("b")
    False

    The memo keys on the name path itself, so a name containing ``/``
    is not a path of two names:

    >>> reg.stream("a", "b") is reg.stream("a/b")
    False
    """

    def __init__(self, root_seed: int) -> None:
        self._root_seed = int(root_seed)
        self._streams: Dict[Tuple[str, ...], random.Random] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this registry derives every stream from."""
        return self._root_seed

    def stream(self, *names: str) -> random.Random:
        """Return (creating if needed) the stream for a name path."""
        stream = self._streams.get(names)
        if stream is None:
            self._streams[names] = stream = make_rng(self._root_seed, *names)
        return stream

    def prefixed(self, *names: str) -> StreamPrefix:
        """A :class:`StreamPrefix` over ``names``: bulk-derive child
        streams without re-hashing the shared path prefix."""
        return StreamPrefix(self, tuple(names))

    def fork(self, *names: str) -> "RngRegistry":
        """Create a child registry whose root seed is derived from ours.

        Useful for handing a component its own private seed universe.
        """
        return RngRegistry(derive_seed(self._root_seed, *names))

    def shuffled(self, items: Sequence[T], *names: str) -> list[T]:
        """Return a shuffled copy of ``items`` using a named stream."""
        copy = list(items)
        self.stream(*names).shuffle(copy)
        return copy

    def sample(self, items: Sequence[T], k: int, *names: str) -> list[T]:
        """Sample ``k`` distinct items using a named stream."""
        return self.stream(*names).sample(list(items), k)

    def iter_seeds(self, *names: str) -> Iterator[int]:
        """Yield an endless deterministic sequence of child seeds."""
        index = 0
        while True:
            yield derive_seed(self._root_seed, *names, str(index))
            index += 1
