"""The reach table: each world kind reads exactly the spec paths
:data:`~repro.scenarios.spec.WORLD_READS` lists for it.

Two directions. A path the table does not list raises at construction
once it is set to anything but its default. A path the table lists is
really read while the world is built and its trial runs: the test
records every field read on the spec's nodes, and a table row seeded
with a path nobody reads fails that check.
"""

import dataclasses
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.campaign import spec_trial
from repro.chaos import ChaosSpec
from repro.core.errors import ConfigurationError
from repro.doh.providers import FIGURE1_PROVIDERS
from repro.scenarios.spec import (
    WORLD_READS,
    AttackSpec,
    ClientSpec,
    FaultSpec,
    FleetSpec,
    LinkSpec,
    RegionSpec,
    ResolverSpec,
    ScenarioSpec,
    apply_paths,
    pool_spec,
    population_spec,
    set_path,
)
from repro.util.specbase import SpecBase

#: One non-default value per leaf path of a spec. Sub-specs that every
#: spec carries are opened; optional or tuple-valued fields are leaves.
PROBES = {
    "network.access": LinkSpec(),
    "network.fault.loss_rate": 0.1,
    "network.fault.jitter_s": 0.01,
    "network.fault.reorder_window": 0.01,
    "network.fault.reorder_rate": 0.5,
    "network.fault.duplicate_rate": 0.1,
    "network.fault.duplicate_gap_s": 0.01,
    "network.extra_fault": FaultSpec(loss_rate=0.1),
    "network.regions": (RegionSpec(name="eu"),),
    "network.backbone": LinkSpec(),
    "provider.count": 4,
    "provider.profiles": tuple(FIGURE1_PROVIDERS),
    "provider.resolver": ResolverSpec(),
    "provider.serve": "dns",
    "provider.corrupted": 1,
    "provider.behavior": "inflate",
    "provider.forged": ("203.0.113.9",),
    "provider.inflate_to": 8,
    "pool.size": 30,
    "pool.answers_per_query": 3,
    "pool.ttl": 120,
    "pool.dual_stack": True,
    "pool.lie_offset": 5.0,
    "pool.truncation": "none",
    "pool.dual_stack_policy": "union",
    "pool.min_answers": 2,
    "fleet": FleetSpec(size=3),
    "attacks": (AttackSpec.of("mitm", mode="empty"),),
    "telemetry.enabled": True,
    "telemetry.time_bin": 5.0,
    "chaos": ChaosSpec(),
    "client": ClientSpec(),
}

#: A spec of each world kind, at defaults.
BASES = {
    "single-client": pool_spec(),
    "single-client with client": replace(pool_spec(), client=ClientSpec()),
    "fleet": population_spec(num_clients=4, rounds=1),
}

#: Setting these turns a spec of that kind into another legal kind.
KIND_SWITCHES = {("single-client", "fleet"), ("single-client", "client")}

#: The worlds whose reads are recorded: one provider corrupted, so the
#: corruption settings are read too.
RECORDED = {
    "single-client": apply_paths(pool_spec(), {
        "provider.corrupted": 1, "provider.behavior": "inflate"}),
    "single-client with client": apply_paths(
        replace(pool_spec(), client=ClientSpec(sync="sntp-mean")),
        {"provider.corrupted": 1, "provider.behavior": "inflate"}),
    "fleet": population_spec(num_clients=4, rounds=1, corrupted=1,
                             behavior="inflate"),
}


def _leaves(spec_class, prefix=""):
    """The leaf paths under ``spec_class``, as :data:`PROBES` keys
    them."""
    for item in dataclasses.fields(spec_class):
        kind, nested = spec_class._NESTED.get(item.name, (None, None))
        if kind == "spec":
            yield from _leaves(nested, f"{prefix}{item.name}.")
        else:
            yield prefix + item.name


def _covered(path, reads):
    return any(path == read or path.startswith(read + ".")
               or path.startswith(read + "[") for read in reads)


@lru_cache(maxsize=None)
def _recorded_reads(kind):
    """Every spec path read while ``RECORDED[kind]``'s world is
    materialized and its trial runs."""
    spec = ScenarioSpec.from_json(RECORDED[kind].to_json())  # fresh nodes
    fields_of = {}

    def index(node, path):
        fields_of[id(node)] = (path, {f.name for f in
                                      dataclasses.fields(node)})
        for item in dataclasses.fields(node):
            value = getattr(node, item.name)
            child = f"{path}{item.name}"
            if isinstance(value, SpecBase):
                index(value, child + ".")
            elif isinstance(value, tuple):
                for position, element in enumerate(value):
                    if isinstance(element, SpecBase):
                        index(element, f"{child}[{position}].")

    index(spec, "")
    reads = set()

    def recording(node, name):
        entry = fields_of.get(id(node))
        if entry is not None and name in entry[1]:
            reads.add(entry[0] + name)
        return object.__getattribute__(node, name)

    SpecBase.__getattribute__ = recording
    try:
        spec_trial({"spec": spec}, 5)
    finally:
        del SpecBase.__getattribute__
    return frozenset(reads)


def _listed_but_unread(kind, listed):
    reads = _recorded_reads(kind)
    return [path for path in listed
            if not any(_covered(read, (path,)) for read in reads)]


def test_probes_cover_every_leaf():
    assert sorted(PROBES) == sorted(_leaves(ScenarioSpec))


def test_table_names_spec_paths():
    for reads in WORLD_READS.values():
        for read in reads:
            assert any(_covered(leaf, (read,)) for leaf in PROBES), read


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("path", sorted(PROBES))
def test_unread_paths_raise_at_construction(kind, path):
    if (kind, path) in KIND_SWITCHES:
        return
    base = BASES[kind]
    if _covered(path, WORLD_READS[kind]):
        try:
            set_path(base, path, PROBES[path])
        except ConfigurationError as error:
            # Read, but illegal here for its own reason (for example
            # serve="dns" on a single client).
            assert "do not read" not in str(error)
    else:
        with pytest.raises(ConfigurationError, match="do not read"):
            set_path(base, path, PROBES[path])


def test_sharded_fleets_read_what_fleets_read():
    sharded = set_path(BASES["fleet"], "fleet.shards", 2)
    with pytest.raises(ConfigurationError, match="fleet.min_answers"):
        set_path(sharded, "pool.min_answers", 2)
    assert set_path(sharded, "pool.truncation", "none").fleet.shards == 2


@pytest.mark.parametrize("kind", sorted(WORLD_READS))
def test_every_listed_path_is_read(kind):
    assert _listed_but_unread(kind, WORLD_READS[kind]) == []


def test_a_seeded_unread_path_is_caught():
    seeded = WORLD_READS["single-client"] + ("network.regions",)
    assert _listed_but_unread("single-client", seeded) == [
        "network.regions"]
