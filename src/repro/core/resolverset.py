"""The configured set of trusted DoH resolvers.

A :class:`ResolverSet` is the operator-supplied list the paper calls
"a list of trusted DNS-over-HTTPS resolvers", together with the assumed
fraction ``x`` of them that an attacker cannot corrupt. The §III bounds
over ``N`` resolvers and ``x`` live in :mod:`repro.analysis.model`
(:func:`~repro.analysis.model.required_corrupted_resolvers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.core.errors import ConfigurationError
from repro.netsim.address import Endpoint
from repro.util.validation import check_fraction


@dataclass(frozen=True)
class ResolverRef:
    """One trusted DoH resolver: where to reach it and what name its
    certificate must present."""

    name: str
    endpoint: Endpoint

    def __str__(self) -> str:
        return f"{self.name} ({self.endpoint})"


class ResolverSet:
    """An ordered, duplicate-free set of trusted resolvers.

    :param resolvers: the trusted resolver references.
    :param assumed_secure_fraction: the paper's ``x`` — the fraction of
        resolvers assumed *not* attacker-controlled (e.g. ``1/2``).
    """

    def __init__(self, resolvers: Sequence[ResolverRef],
                 assumed_secure_fraction: float = 0.5) -> None:
        if not resolvers:
            raise ConfigurationError("resolver set cannot be empty")
        names = [ref.name for ref in resolvers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate resolver names in {names}")
        self._resolvers = list(resolvers)
        self._x = check_fraction(assumed_secure_fraction,
                                 "assumed_secure_fraction")

    # ------------------------------------------------------------------
    # Contents.
    # ------------------------------------------------------------------

    @property
    def resolvers(self) -> List[ResolverRef]:
        return list(self._resolvers)

    @property
    def assumed_secure_fraction(self) -> float:
        return self._x

    def __len__(self) -> int:
        return len(self._resolvers)

    def __iter__(self) -> Iterator[ResolverRef]:
        return iter(self._resolvers)

    def __getitem__(self, index: int) -> ResolverRef:
        return self._resolvers[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(ref.name for ref in self._resolvers)
        return f"ResolverSet([{names}], x={self._x})"
