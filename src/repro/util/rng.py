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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

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


class StreamClosedError(RuntimeError):
    """A draw from a :class:`ParkedStream` after its ``close()``."""


_random_random = random.Random.random
_random_getrandbits = random.Random.getrandbits


class _CountingRandom(random.Random):
    """A :class:`random.Random` that counts the 32-bit Mersenne Twister
    words it consumes: ``random()`` takes two, ``getrandbits(k)`` takes
    ``ceil(k / 32)`` (none for ``k == 0``). Every other method draws
    through one of those two, so ``words`` is exact; a call that raises
    counts nothing."""

    words = 0

    def random(self) -> float:
        value = _random_random(self)
        self.words += 2
        return value

    def getrandbits(self, k: int) -> int:
        value = _random_getrandbits(self, k)
        self.words += (k + 31) >> 5
        return value


class ParkedStream:
    """A named stream resumed from its seed and a word count.

    Between uses a stream is its seed plus the number of 32-bit words
    it has drawn, which :attr:`words` reads. ``ParkedStream(seed,
    words)`` resumes it: the first draw builds a :class:`random.Random`
    from the seed and skips the counted words with one
    ``getrandbits(32 * words)`` — the twister's state after N words
    does not depend on how those words were grouped. Every draw
    therefore returns what one long-lived ``random.Random(seed)``
    would, while nothing holds the 2.5 KB of Mersenne Twister state
    between uses. The price is CPU: each resumption reseeds (about 7 µs
    on a 2-vCPU x86 machine, Python 3.11) and regenerates the words
    drawn so far. :meth:`close` is final: a later draw raises
    :class:`StreamClosedError`, and so does a draw from a stream
    resumed from a closed one (``words=None``).

    >>> stream, plain = ParkedStream(7), random.Random(7)
    >>> a = stream.randint(0, 99)
    >>> stream = ParkedStream(7, stream.words)
    >>> [a, stream.random()] == [plain.randint(0, 99), plain.random()]
    True
    >>> stream.close(); ParkedStream(7, stream.words).random()
    Traceback (most recent call last):
    ...
    repro.util.rng.StreamClosedError: draw from a closed stream
    """

    __slots__ = ("_seed", "_words", "_rng")

    def __init__(self, seed: int, words: Optional[int] = 0) -> None:
        self._seed = seed
        self._words = words                # None once closed
        self._rng: Optional[_CountingRandom] = None

    @property
    def words(self) -> Optional[int]:
        """The 32-bit words drawn so far (``None`` once closed)."""
        rng = self._rng
        return self._words if rng is None else rng.words

    def _wake(self) -> _CountingRandom:
        words = self._words
        if words is None:
            raise StreamClosedError("draw from a closed stream")
        rng = self._rng = _CountingRandom(self._seed)
        if words:
            rng.getrandbits(32 * words)
        return rng

    def close(self) -> None:
        """Drop the generator for good; later draws raise."""
        self._rng = None
        self._words = None

    def random(self) -> float:
        return (self._rng or self._wake()).random()

    def getrandbits(self, k: int) -> int:
        return (self._rng or self._wake()).getrandbits(k)

    def randbytes(self, n: int) -> bytes:
        return self.getrandbits(n * 8).to_bytes(n, "little")

    def randrange(self, start: int, stop: Optional[int] = None,
                  step: int = 1) -> int:
        return (self._rng or self._wake()).randrange(start, stop, step)

    def randint(self, a: int, b: int) -> int:
        return (self._rng or self._wake()).randint(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        return (self._rng or self._wake()).choice(seq)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return (self._rng or self._wake()).sample(population, k)

    def uniform(self, a: float, b: float) -> float:
        return (self._rng or self._wake()).uniform(a, b)

    def expovariate(self, lambd: float) -> float:
        return (self._rng or self._wake()).expovariate(lambd)

    def getstate(self) -> tuple:
        return (self._rng or self._wake()).getstate()


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
    100k-client shard does one prefix pass, not one per stream, per
    client; it keeps the seeds and resumes a :class:`ParkedStream`
    over one only for a round in flight.
    """

    __slots__ = ("_names", "_hasher")

    def __init__(self, registry: "RngRegistry",
                 names: Tuple[str, ...]) -> None:
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
        seeds without re-hashing the shared path prefix."""
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
