"""Named scenario presets used across examples and benchmarks.

Every preset returns a :class:`repro.scenarios.spec.ScenarioSpec`, so
campaigns sweep a preset's spec directly
(:meth:`repro.campaign.ParameterGrid.over_spec`) and worlds are
compiled with :func:`repro.scenarios.spec.materialize`::

    >>> from repro.scenarios.spec import materialize
    >>> world = materialize(get_spec_preset("figure1")(), seed=1)
    >>> len(world.providers)
    3
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.errors import UnknownPresetError
from repro.netsim.link import LinkProfile
from repro.scenarios.spec import (
    AttackSpec,
    ClientSpec,
    FaultSpec,
    HierarchySpec,
    LinkSpec,
    ResolverSpec,
    ScenarioSpec,
    pool_spec,
    population_spec,
    set_path,
)

#: The patient retry configuration the degraded/lossy presets use.
_PATIENT_RESOLVER = ResolverSpec(query_timeout=1.0,
                                 max_retries_per_server=3)


def figure1_spec() -> ScenarioSpec:
    """Exactly the paper's Figure 1: three named DoH providers,
    pool.ntp.org served by c/d/e.ntpns.org."""
    return pool_spec(num_providers=3, pool_size=20, answers_per_query=4)


def large_scale_spec(num_providers: int, pool_size: int = 100) -> ScenarioSpec:
    """A larger deployment for the N-sweeps of §III."""
    return pool_spec(num_providers=num_providers, pool_size=pool_size,
                     answers_per_query=4)


def lossy_network_spec(loss: float) -> ScenarioSpec:
    """Figure 1 with a degraded client access link, for robustness and
    DoS-cost experiments (E6)."""
    spec = pool_spec(num_providers=3, pool_size=20,
                     access_link=LinkProfile.lossy(loss))
    return replace(spec, provider=replace(spec.provider,
                                          resolver=_PATIENT_RESOLVER))


def degraded_network_spec(loss_rate: float = 0.0, jitter_s: float = 0.0,
                          reorder_window: float = 0.0,
                          duplicate_rate: float = 0.0) -> ScenarioSpec:
    """Figure 1 with a :class:`repro.netsim.link.FaultModel` on the
    client access link. The fault knobs are the campaign grid axes the
    availability experiments sweep (E6's ``loss_rate``, plus jitter,
    reordering and duplication); resolvers keep the patient retry
    configuration of :func:`lossy_network_spec`."""
    spec = pool_spec(num_providers=3, pool_size=20)
    return replace(
        spec,
        network=replace(spec.network,
                        fault=FaultSpec(loss_rate=loss_rate,
                                        jitter_s=jitter_s,
                                        reorder_window=reorder_window,
                                        duplicate_rate=duplicate_rate)),
        provider=replace(spec.provider, resolver=_PATIENT_RESOLVER))


#: Attacker addresses from the documentation block, 203.0.113.1-.12:
#: the E7 attacker's NTP servers.  The first 4 are E2's forged answers,
#: one per answer slot (what ``effective_forged`` synthesises).
ATTACKER = tuple(f"203.0.113.{i + 1}" for i in range(12))


def e2_grid_base_spec() -> ScenarioSpec:
    """The base spec of the E2 grid (``bench_e2_required_fraction``):
    a 40-server pool with an explicit :class:`ResolverSpec` and access
    :class:`LinkSpec` so the campaign can sweep ``provider.count`` ×
    ``provider.corrupted`` × ``network.access.latency`` directly."""
    spec = pool_spec(pool_size=40, answers_per_query=4)
    spec = set_path(spec, "provider.resolver", ResolverSpec())
    spec = set_path(spec, "provider.forged", ATTACKER[:4])
    return set_path(spec, "network.access", LinkSpec())


def hierarchy_spec(pool_size: int = 20, answers_per_query: int = 4,
                   pool_ttl: int = 60,
                   hierarchy: Optional[HierarchySpec] = None,
                   **kwargs) -> ScenarioSpec:
    """Figure 1 with iterative resolution: the providers' recursors
    walk a real root→TLD→authoritative referral chain (the
    :class:`~repro.dns.hierarchy.HierarchySpec` tree) instead of the
    legacy flat forwarding layout."""
    spec = pool_spec(pool_size=pool_size,
                     answers_per_query=answers_per_query,
                     pool_ttl=pool_ttl, **kwargs)
    return replace(spec, provider=replace(
        spec.provider,
        resolver=ResolverSpec(mode="iterative",
                              hierarchy=hierarchy or HierarchySpec())))


def hierarchy_population_spec(
    num_clients: int = 50,
    rounds: int = 3,
    pool_ttl: int = 60,
    spray_rate: float = 0.0,
    spray_duration: float = 60.0,
    txid_bits: int = 6,
    covered_bits: int = 6,
    port_window: int = 2,
    forged: tuple = ("203.0.113.66",),
    hierarchy: Optional[HierarchySpec] = None,
    **kwargs,
) -> ScenarioSpec:
    """A measured population over the iterative hierarchy with an
    off-path sprayer racing provider 0's upstream queries.

    Providers serve plain DNS (the UDP fleet transport) and run
    deliberately weakened recursors — ``txid_bits``-wide transaction
    IDs, sequential ephemeral ports once the sprayer installs — the
    paper's historical-stack entropy assumptions.  ``pool_ttl`` and
    ``spray_rate`` are the exposure-window axes ``bench_h1`` sweeps
    (as ``pool.ttl`` and ``attacks[0].rate``); ``spray_rate=0`` keeps
    the attacker passive so the same world doubles as the unattacked
    baseline.
    """
    spec = population_spec(num_clients=num_clients, rounds=rounds,
                           pool_ttl=pool_ttl, **kwargs)
    spec = replace(spec, provider=replace(
        spec.provider, serve="dns",
        resolver=ResolverSpec(mode="iterative", txid_bits=txid_bits,
                              hierarchy=hierarchy or HierarchySpec())))
    attack = AttackSpec.of(
        "offpath", rate=spray_rate, duration=spray_duration,
        covered_bits=covered_bits, port_window=port_window,
        forged=tuple(str(a) for a in forged))
    return replace(spec, attacks=(attack,))


def e7_timeshift_spec(lie_offset: float = 10.0, num_providers: int = 3,
                      corrupted_providers: int = 1,
                      pool_size: int = 20) -> ScenarioSpec:
    """The E7 time-shift world (§I, §V): one attacker on the client's
    access link, rewriting plaintext pool answers to its 12 NTP servers
    (:data:`ATTACKER`, which lie by ``lie_offset`` seconds), that also
    controls the first ``corrupted_providers`` DoH providers, which
    substitute 4 of those servers.  Algorithm 1 rides TLS past the
    on-path rewrite; plain DNS does not.  The world has a client
    (:class:`ClientSpec`, Algorithm 1 by default), since only a client
    meets the lying servers; E7's grid varies how it acquires and
    syncs."""
    spec = pool_spec(num_providers=num_providers, pool_size=pool_size,
                     answers_per_query=4)
    return replace(
        spec,
        provider=replace(spec.provider, corrupted=corrupted_providers,
                         behavior="substitute", forged=ATTACKER[:4]),
        pool=replace(spec.pool, lie_offset=lie_offset),
        attacks=(AttackSpec.of("mitm", mode="poison", forged=ATTACKER,
                               inflate_to=12),),
        client=ClientSpec())


#: The preset registry: name -> builder returning a :class:`ScenarioSpec`.
SPEC_PRESETS = {
    "figure1": figure1_spec,
    "large-scale": large_scale_spec,
    "lossy-network": lossy_network_spec,
    "degraded-network": degraded_network_spec,
    "e2-grid-base": e2_grid_base_spec,
    "hierarchy": hierarchy_spec,
    "hierarchy-population": hierarchy_population_spec,
    "e7-timeshift": e7_timeshift_spec,
    "custom": pool_spec,
}


def get_spec_preset(name: str):
    """Look up a *spec* builder by registry name.

    >>> get_spec_preset("hierarchy") is hierarchy_spec
    True

    Raises :class:`repro.core.errors.UnknownPresetError` listing the
    valid names for anything else.
    """
    try:
        return SPEC_PRESETS[name]
    except KeyError:
        raise UnknownPresetError(name, SPEC_PRESETS) from None
