"""Declarative parameter grids for scenario sweeps.

A :class:`ParameterGrid` names the axes of an experiment (presets,
attack strengths, pool sizes, resolver configurations, ...) and expands
them into an ordered sequence of :class:`GridPoint`\\ s. The expansion
order is part of the contract: axes vary like an odometer, the **last
declared axis fastest**, so a grid declared as ``{"n": (3, 5), "p":
(0.1, 0.3)}`` yields ``(3, 0.1), (3, 0.3), (5, 0.1), (5, 0.3)``. Seed
derivation and aggregation key off each point's stable :attr:`GridPoint.key`,
never off its position, so inserting an axis value does not reseed the
other points.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

Params = Mapping[str, Any]
Predicate = Callable[[Params], bool]


def format_param(value: Any) -> str:
    """Render one parameter value into a stable key fragment.

    Enums render as their ``.value`` so keys survive refactors of the
    enum's module path; everything else uses ``repr`` (``repr`` of
    ints, floats and strings is stable across processes and runs).
    """
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, str):
        return value
    return repr(value)


def point_key(params: Params) -> str:
    """The stable identity of a grid point, e.g. ``"n=3,corrupted=1"``.

    Built from the point's own parameters in declaration order; fixed
    (shared) parameters are excluded so that tweaking a campaign-wide
    constant does not silently reseed every trial.
    """
    return ",".join(f"{name}={format_param(value)}"
                    for name, value in params.items())


@dataclass(frozen=True)
class GridPoint:
    """One expanded grid point.

    :param index: position in expansion order (0-based).
    :param params: the point's full parameter mapping — axis values
        merged over the grid's fixed parameters.
    :param key: stable identity string built from the axis values only.
    """

    index: int
    params: Dict[str, Any] = field(hash=False)
    key: str = ""

    def __post_init__(self) -> None:
        if not self.key:
            object.__setattr__(self, "key", point_key(self.params))


class ParameterGrid:
    """A declarative cartesian sweep (or explicit point list).

    >>> grid = ParameterGrid({"n": (3, 5), "p": (0.1, 0.3)})
    >>> [(pt.params["n"], pt.params["p"]) for pt in grid]
    [(3, 0.1), (3, 0.3), (5, 0.1), (5, 0.3)]

    :param axes: ordered mapping of axis name to its values. Declaration
        order is expansion order (last axis varies fastest).
    :param fixed: parameters shared by every point. They appear in each
        point's ``params`` but not in its ``key``.
    :param name: optional label carried into results/JSON.
    """

    def __init__(self, axes: Mapping[str, Sequence[Any]],
                 fixed: Optional[Params] = None,
                 name: str = "") -> None:
        self._axes: Dict[str, Tuple[Any, ...]] = {}
        for axis, values in axes.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            self._axes[axis] = values
        self._fixed: Dict[str, Any] = dict(fixed or {})
        overlap = set(self._axes) & set(self._fixed)
        if overlap:
            raise ValueError(f"parameters both axis and fixed: {sorted(overlap)}")
        self._explicit: Optional[List[Dict[str, Any]]] = None
        self._predicates: List[Predicate] = []
        self._base_spec: Optional[Any] = None
        self._expanded: Optional[List[GridPoint]] = None
        self.name = name

    @classmethod
    def from_points(cls, points: Sequence[Params],
                    fixed: Optional[Params] = None,
                    name: str = "") -> "ParameterGrid":
        """A grid over an explicit point list (non-cartesian sweeps).

        >>> grid = ParameterGrid.from_points([{"n": 3}, {"n": 9}])
        >>> len(grid)
        2
        """
        if not points:
            raise ValueError("from_points() needs at least one point")
        grid = cls({}, fixed=fixed, name=name)
        grid._explicit = [dict(point) for point in points]
        for point in grid._explicit:
            overlap = set(point) & set(grid._fixed)
            if overlap:
                raise ValueError(
                    f"parameters both point and fixed: {sorted(overlap)}")
        return grid

    @classmethod
    def over_spec(cls, spec: Any, axes: Mapping[str, Sequence[Any]],
                  fixed: Optional[Params] = None,
                  name: str = "") -> "ParameterGrid":
        """A grid whose axes (and fixed parameters) are *dotted spec
        paths* into a base :class:`repro.scenarios.spec.ScenarioSpec`.

        >>> from repro.scenarios.spec import population_spec
        >>> grid = ParameterGrid.over_spec(
        ...     population_spec(),
        ...     {"fleet.size": (250, 1000), "provider.corrupted": (0, 1)})
        >>> grid.points()[1].params["spec"].provider.corrupted
        1

        Every expanded point's ``params`` carries the axis values under
        their dotted names (so point keys — and therefore per-trial
        seeds — depend only on what the sweep varies) plus the fully
        materialized per-point spec under the reserved key ``"spec"``,
        which is what :func:`repro.campaign.trials.spec_trial` compiles
        and what result/cache JSON records verbatim.  Paths are applied
        fixed-first, then axes in declaration order; every path is
        validated against the base spec at declaration time.
        """
        from repro.scenarios.spec import get_path
        grid = cls(axes, fixed=fixed, name=name)
        reserved = {"spec"} & (set(grid._axes) | set(grid._fixed))
        if reserved:
            raise ValueError("'spec' is reserved for the expanded "
                             "per-point spec; rename the parameter")
        for path in list(grid._fixed) + list(grid._axes):
            get_path(spec, path)   # raises on a path the spec lacks
        grid._base_spec = spec
        return grid

    @property
    def axes(self) -> Dict[str, Tuple[Any, ...]]:
        """The declared axes (copy; empty for explicit point lists)."""
        return dict(self._axes)

    @property
    def fixed(self) -> Dict[str, Any]:
        """The shared parameters (copy)."""
        return dict(self._fixed)

    def where(self, predicate: Predicate) -> "ParameterGrid":
        """Restrict the grid to points satisfying ``predicate``.

        The predicate sees the *axis* parameters (not the fixed ones)
        so dependent axes can be expressed, e.g. ``corrupted <= n``::

            ParameterGrid({"n": (3, 5), "corrupted": range(6)}).where(
                lambda p: p["corrupted"] <= p["n"])

        Returns ``self`` for chaining (the grid is mutated in place,
        matching its declarative build-then-run lifecycle).
        """
        self._predicates.append(predicate)
        self._expanded = None     # the memoised expansion is now stale
        return self

    # ------------------------------------------------------------------
    # Expansion.
    # ------------------------------------------------------------------

    def _raw_points(self) -> Iterator[Dict[str, Any]]:
        if self._explicit is not None:
            for point in self._explicit:
                yield dict(point)
            return
        if not self._axes:
            raise ValueError("grid has no axes and no explicit points")
        names = list(self._axes)
        for combo in itertools.product(*self._axes.values()):
            yield dict(zip(names, combo))

    def points(self) -> List[GridPoint]:
        """Expand the grid into its ordered list of points.

        The expansion is memoised (``where()`` invalidates it): grids
        are expanded once per ``len``/iteration/run, and spec grids in
        particular compile one ``ScenarioSpec`` per point — work worth
        doing once, not once per ``len(grid)``. Returns a fresh list
        each call; the frozen points themselves are shared.
        """
        if self._expanded is not None:
            return list(self._expanded)
        expanded: List[GridPoint] = []
        for raw in self._raw_points():
            if not all(predicate(raw) for predicate in self._predicates):
                continue
            params = dict(self._fixed)
            params.update(raw)
            if self._base_spec is not None:
                from repro.scenarios.spec import apply_paths
                params["spec"] = apply_paths(self._base_spec, params)
            expanded.append(GridPoint(index=len(expanded), params=params,
                                      key=point_key(raw)))
        if not expanded:
            raise ValueError("grid expanded to zero points")
        keys = [point.key for point in expanded]
        if len(set(keys)) != len(keys):
            raise ValueError("grid points do not have unique keys")
        self._expanded = expanded
        return list(expanded)

    def __iter__(self) -> Iterator[GridPoint]:
        return iter(self.points())

    def __len__(self) -> int:
        return len(self.points())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._explicit is not None:
            return f"ParameterGrid({len(self._explicit)} explicit points)"
        axes = ", ".join(f"{k}×{len(v)}" for k, v in self._axes.items())
        return f"ParameterGrid({axes})"
