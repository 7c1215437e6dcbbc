"""Shared serialization base for declarative spec dataclasses.

Historically this machinery lived in :mod:`repro.scenarios.spec`; it
moved here so spec classes owned by lower layers (e.g.
:class:`repro.dns.hierarchy.HierarchySpec`) can use it without the DNS
layer importing the scenario compiler.  ``repro.scenarios.spec``
re-exports :class:`SpecBase`, so existing imports keep working.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.util.errors import ConfigurationError


def _encode(value: Any) -> Any:
    if isinstance(value, SpecBase):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


class SpecBase:
    """Shared serialization machinery for every spec dataclass.

    Subclasses declare nested fields in ``_NESTED`` as
    ``{field: (kind, spec_class)}`` with ``kind`` one of ``"spec"``,
    ``"opt"`` (optional spec), ``"tuple"`` (tuple of specs),
    ``"opt_tuple"`` (optional tuple of specs) or ``"scalars"`` (tuple
    of plain values, ``spec_class`` ignored).  Everything else
    round-trips as a JSON scalar.
    """

    _NESTED: Dict[str, Tuple[str, Optional[type]]] = {}

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; inverse of :meth:`from_dict`."""
        return {f.name: _encode(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpecBase":
        """Rebuild a spec from :meth:`to_dict` output (lists become
        tuples; unknown keys fail loudly to catch typo'd sweeps)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"{cls.__name__}.from_dict: unknown fields "
                f"{sorted(unknown)}; known: {sorted(known)}")
        kwargs: Dict[str, Any] = {}
        for name, raw in data.items():
            kind, spec_cls = cls._NESTED.get(name, (None, None))
            if kind == "spec":
                kwargs[name] = spec_cls.from_dict(raw)
            elif kind == "opt":
                kwargs[name] = (None if raw is None
                                else spec_cls.from_dict(raw))
            elif kind == "tuple":
                kwargs[name] = tuple(spec_cls.from_dict(item)
                                     for item in raw)
            elif kind == "opt_tuple":
                kwargs[name] = (None if raw is None
                                else tuple(spec_cls.from_dict(item)
                                           for item in raw))
            elif kind == "scalars":
                kwargs[name] = tuple(raw)
            else:
                kwargs[name] = raw
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, byte-stable across runs)."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SpecBase":
        return cls.from_dict(json.loads(text))


__all__ = ["SpecBase", "_encode"]
