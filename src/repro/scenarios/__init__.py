"""Scenario layer: declarative specs, their compiler, and presets.

A *scenario* wires together the substrates — topology, DNS tree, DoH
providers, NTP pool, client fleet — into the system of the paper's
Figure 1.  The construction surface is spec-first: describe a world as
a :class:`ScenarioSpec` (typed, frozen, JSON-round-tripping dataclasses)
and compile it with :func:`materialize`; campaign grids sweep dotted
spec paths directly (``ParameterGrid.over_spec``).  Named base specs
live in :data:`SPEC_PRESETS` (:func:`get_spec_preset`); the keyword
converters :func:`pool_spec` / :func:`population_spec` build the plain
single-client and population specs.
"""

from repro.scenarios.builders import PoolScenario, PopulationScenario
from repro.scenarios.presets import (
    SPEC_PRESETS,
    e2_grid_base_spec,
    get_spec_preset,
    hierarchy_population_spec,
    hierarchy_spec,
)
from repro.scenarios.spec import (
    RESOLVER_MODES,
    AttackSpec,
    FaultSpec,
    FleetSpec,
    HierarchySpec,
    LinkSpec,
    NetworkSpec,
    PoolSpec,
    ProviderSpec,
    RegionSpec,
    ResolverSpec,
    ScenarioSpec,
    TelemetrySpec,
    World,
    get_path,
    materialize,
    pool_spec,
    population_spec,
    set_path,
)
from repro.scenarios.workload import PoolDirectory

__all__ = [
    "AttackSpec",
    "FaultSpec",
    "FleetSpec",
    "HierarchySpec",
    "LinkSpec",
    "NetworkSpec",
    "PoolDirectory",
    "PoolScenario",
    "PoolSpec",
    "PopulationScenario",
    "ProviderSpec",
    "RESOLVER_MODES",
    "RegionSpec",
    "ResolverSpec",
    "SPEC_PRESETS",
    "ScenarioSpec",
    "TelemetrySpec",
    "World",
    "e2_grid_base_spec",
    "get_path",
    "get_spec_preset",
    "hierarchy_population_spec",
    "hierarchy_spec",
    "materialize",
    "pool_spec",
    "population_spec",
    "set_path",
]
