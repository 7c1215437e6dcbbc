"""repro — Secure Consensus Generation with Distributed DoH.

Reproduction of Jeitner, Shulman & Waidner (DSN-S 2020,
arXiv:2010.09331): secure server-pool generation by querying a pool
domain through multiple DNS-over-HTTPS resolvers and combining the
truncated answers (Algorithm 1).

Subpackages
-----------
``repro.core``
    The paper's contribution: Algorithm 1, majority voting, policies,
    the backward-compatible plain-DNS front-end.
``repro.dns`` / ``repro.doh``
    Wire-accurate DNS substrate and the RFC 8484 DoH transport over a
    structurally honest TLS simulation.
``repro.ntp``
    NTP clocks/servers/clients and the Chronos watchdog.
``repro.attacks``
    Off-path, on-path and compromised-resolver attacker models, which
    scenario specs install (``ProviderSpec`` and ``AttackSpec`` kinds).
``repro.analysis``
    Section III closed forms and Monte-Carlo validation.
``repro.netsim`` / ``repro.scenarios``
    The deterministic discrete-event Internet and assembled worlds.
``repro.campaign``
    Declarative parameter sweeps at scale: a ``ParameterGrid`` names
    the axes as dotted paths into a ``ScenarioSpec`` (provider count ×
    corruption × pool size × resolver config × dual-stack policy, ...),
    ``spec_trial`` compiles and measures each point's world, a
    ``CampaignRunner`` shards the trials across worker processes with
    deterministic per-trial seeds, and an ``Aggregator`` folds the
    records into mean/stderr/CI summaries with JSON export. Serial and multiprocessing runs are bit-identical; the
    ``bench_e*`` experiment scripts are thin grid declarations over it.

Quick start::

    from repro.scenarios import get_spec_preset, materialize
    world = materialize(get_spec_preset("figure1")(), seed=1)
    pool = world.generate_pool_sync()

Sweep 40 scenarios across all cores::

    from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
    grid = ParameterGrid.over_spec(
        get_spec_preset("custom")(pool_size=40),
        {"provider.count": (3, 5, 9, 15, 31),
         "provider.corrupted": range(10)},
        fixed={"provider.forged": ("203.0.113.1",)}).where(
        lambda p: p["provider.corrupted"] <= p["provider.count"])
    result = CampaignRunner(spec_trial, trials_per_point=3,
                            base_seed=7).run(grid)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
