"""Reusable trial functions for campaign sweeps.

These are the bridge between the declarative campaign layer and the
simulation stack.  World trials take their world from the grid point:
``params["spec"]`` is a :class:`~repro.scenarios.spec.ScenarioSpec`
(expanded by :meth:`repro.campaign.ParameterGrid.over_spec`), compiled
with :func:`~repro.scenarios.spec.materialize`.  :func:`spec_trial` is
the one generic world trial — the spec itself picks its metric set —
and the Figure 1 pipeline (E1) and distribution-overhead (E10) trials
add their experiment knobs on top of the same spec.  Besides those
there are self-contained trials for the time-shift attack (E7), the
off-path spray ablation (A1) and the closed-form advantage (E4).

Everything here is module-level and picklable so campaigns can shard
trials across worker processes. The closed-form Monte-Carlo trials live
next to their models in :mod:`repro.analysis.montecarlo` and are
re-exported from :mod:`repro.campaign`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.analysis.advantage import security_bits
from repro.attacks.offpath import OffPathPoisoner, SprayPlan
from repro.attacks.timeshift import TimeShiftExperiment
from repro.core.majority import MajorityVoteCombiner
from repro.core.policy import DualStackPolicy, TruncationPolicy
from repro.core.pool import PoolGeneratorConfig
from repro.dns.client import StubResolver
from repro.dns.message import Question
from repro.dns.resolver import ResolverConfig
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.ntp.chronos import ChronosClient, ChronosConfig
from repro.ntp.client import NtpClient
from repro.ntp.clock import SimClock
from repro.ntp.pool import deploy_ntp_fleet
from repro.scenarios import PoolScenario
from repro.scenarios.spec import (
    ScenarioSpec,
    effective_forged,
    get_path,
    materialize,
    pool_spec,
)


def _point_spec(params: Mapping[str, Any],
                knobs: frozenset = frozenset()) -> ScenarioSpec:
    """The spec a grid point carries, with its swept paths validated.

    ``params["spec"]`` (a spec object or its ``to_dict`` form) is the
    world.  Every other parameter that is not one of the trial's own
    ``knobs`` must be a dotted path the spec carries with exactly the
    point's value: a mistyped axis, or a point whose sweep silently
    failed to land, cannot run.
    """
    if "spec" not in params:
        raise ValueError("world trials need params['spec'] "
                         "(use ParameterGrid.over_spec)")
    spec = params["spec"]
    if isinstance(spec, Mapping):
        spec = ScenarioSpec.from_dict(spec)
    for name, value in params.items():
        if name == "spec" or name in knobs:
            continue
        applied = get_path(spec, name)   # raises on a path the spec lacks
        expected = tuple(value) if isinstance(value, list) else value
        if applied != expected:
            raise ValueError(
                f"spec path {name!r} carries {applied!r} but the grid "
                f"point says {expected!r}; was the spec edited after "
                f"expansion?")
    return spec


def _share(addresses, forged: set) -> float:
    if not addresses:
        return 0.0
    return sum(1 for a in addresses if a in forged) / len(addresses)


# ----------------------------------------------------------------------
# Metric extractors (spec_trial picks them from the spec).
# ----------------------------------------------------------------------


def _pool_metrics(spec: ScenarioSpec, world: PoolScenario) -> Dict[str, float]:
    """One Algorithm 1 generation under the spec's combine policy
    (``pool.truncation`` / ``pool.min_answers`` /
    ``pool.dual_stack_policy``)."""
    # Score attacker shares against what the compiler actually serves:
    # the spec's forged set plus the default synthesis for corruption
    # behaviours that need addresses but declared none.
    forged = {IPAddress(a) for a in effective_forged(spec)}
    for attack in spec.attacks:
        forged.update(IPAddress(a) for a in attack.param("forged", ()))
    min_answers = spec.pool.min_answers
    policy = spec.pool.dual_stack_policy
    pool = world.generate_pool_sync(world.make_generator(
        config=PoolGeneratorConfig(
            truncation=TruncationPolicy(spec.pool.truncation),
            dual_stack=None if policy is None else DualStackPolicy(policy),
            min_answers=min_answers,
            ignore_empty_answers=min_answers is not None)))
    voted = (MajorityVoteCombiner().combine(pool.contributions)
             if pool.contributions else [])
    v4 = [a for a in pool.addresses if a.family == 4]
    v6 = [a for a in pool.addresses if a.family == 6]
    benign_fraction = (world.directory.benign_fraction(pool.addresses)
                       if pool.addresses else 0.0)
    return {
        "ok": 1.0 if pool.ok else 0.0,
        "degraded": 1.0 if pool.degraded else 0.0,
        "elapsed": pool.elapsed,
        "pool_size": float(len(pool.addresses)),
        "truncate_length": float(pool.truncate_length),
        "attacker_share": _share(pool.addresses, forged),
        "v4_share": _share(v4, forged),
        "v6_share": _share(v6, forged),
        "voted_size": float(len(voted)),
        "voted_attacker_share": _share(voted, forged),
        "benign_fraction": benign_fraction,
    }


def _population_metrics(world) -> Dict[str, float]:
    """Drive the whole population; metrics come from the world's
    private registry, so nothing folds across trials."""
    outcomes = world.run()
    registry = world.telemetry
    return {
        "victim_fraction": outcomes.victim_fraction,
        "availability": outcomes.availability,
        "shifted_fraction": outcomes.shifted_fraction,
        "sync_fraction": (outcomes.syncs / outcomes.rounds_ok
                          if outcomes.rounds_ok else 0.0),
        "mean_abs_clock_error": outcomes.mean_abs_clock_error,
        "p90_abs_clock_error": outcomes.p90_abs_clock_error,
        "rounds": float(outcomes.rounds),
        "rounds_ok": float(outcomes.rounds_ok),
        "churn_leaves": float(outcomes.churn_leaves),
        "churn_joins": float(outcomes.churn_joins),
        "datagrams": registry.value("net.datagrams_sent"),
        "bytes": registry.value("net.bytes_sent"),
        "stub_timeouts": registry.value("dns.stub.timeouts"),
    }


def _hierarchy_metrics(world) -> Dict[str, float]:
    """The poisoning-exposure surface of an iterative world: cache-miss
    resolution windows, referral/cache traffic, the off-path race
    outcome and the sprayers' cost."""
    counters = world.telemetry.snapshot().get("counter", {})

    def _summed(name: str) -> float:
        return float(sum(state for key, state in counters.items()
                         if key == name or key.startswith(name + "{")))

    stats = [deployment.resolver.stats
             for deployment in world.pool.providers]
    hours = world.pool.simulator.now / 3600.0
    windows = sum(s.exposure_windows for s in stats)
    poisoned = sum(s.poisoned_acceptances for s in stats)
    return {
        "exposure_windows": float(windows),
        "exposure_open_s": sum(s.exposure_open_s for s in stats),
        "windows_per_hour": windows / hours if hours > 0 else 0.0,
        "referrals_followed": float(sum(s.referrals_followed
                                        for s in stats)),
        "cache_hits": _summed("dns.cache.hits"),
        "cache_misses": _summed("dns.cache.misses"),
        "poisoned_acceptances": float(poisoned),
        "spoofs_rejected": float(sum(s.spoofs_rejected for s in stats)),
        "hijacked": 1.0 if poisoned else 0.0,
        "spray_bursts": float(sum(
            attack.bursts for _, attack in world.attacks
            if hasattr(attack, "bursts"))),
        "spray_packets": float(sum(
            attack.packets_injected for _, attack in world.attacks
            if hasattr(attack, "packets_injected"))),
    }


#: An availability bin at or above this mean counts as "recovered" when
#: the chaos SLO extractor measures time-to-recovery after a failure
#: window.
RECOVERY_THRESHOLD = 0.99


def _chaos_metrics(spec: ScenarioSpec, world,
                   availability: float) -> Dict[str, float]:
    """Graceful-degradation SLOs folded from ``pop.availability`` /
    ``pop.victim_fraction``: mean time-to-recovery over the windowed
    events, the worst availability bin and the mean victim fraction
    inside the degraded windows."""
    registry = world.telemetry
    horizon = world.simulator.now
    bin_width = spec.telemetry.time_bin
    avail = registry.get("pop.availability")
    avail_series = avail.series() if avail is not None else []
    victim = registry.get("pop.victim_fraction")
    victim_series = victim.series() if victim is not None else []

    windows = [(event.at, event.at + event.duration)
               for event in spec.chaos.events
               if getattr(event, "duration", 0.0) > 0.0]

    def _degraded(t: float) -> bool:
        return any(at < t + bin_width and t < end for at, end in windows)

    ttrs = []
    for at, end in windows:
        recovered = next(
            (t for t, mean in avail_series
             if t + bin_width > end and mean >= RECOVERY_THRESHOLD), None)
        ttrs.append(max(0.0, (horizon if recovered is None else recovered)
                        - at))
    floor = [mean for t, mean in avail_series if _degraded(t)]
    degraded_victims = [mean for t, mean in victim_series if _degraded(t)]
    return {
        "chaos_events": float(len(world.chaos.windows))
        if world.chaos is not None else 0.0,
        "mttr": sum(ttrs) / len(ttrs) if ttrs else 0.0,
        "availability_floor": min(floor) if floor else availability,
        "degraded_victim_fraction": (sum(degraded_victims)
                                     / len(degraded_victims)
                                     if degraded_victims else 0.0),
    }


# ----------------------------------------------------------------------
# The world trial.
# ----------------------------------------------------------------------


def spec_trial(params: Mapping[str, Any], seed: int):
    """One trial of whatever world ``params["spec"]`` describes.

    The bridge for :meth:`repro.campaign.ParameterGrid.over_spec`
    grids: each point carries its fully applied
    :class:`~repro.scenarios.spec.ScenarioSpec` under the reserved
    ``"spec"`` key (a spec object or its ``to_dict`` form) plus its
    swept dotted paths, which are validated against the spec so a
    point whose sweep silently failed to land cannot run.

    The spec picks the metric set:

    single-client specs (``fleet is None``)
        one Algorithm 1 generation under the spec's combine policy:
        ``ok`` / ``degraded`` (availability), ``elapsed``,
        ``pool_size``, ``truncate_length``, ``attacker_share`` /
        ``v4_share`` / ``v6_share`` (scored against the forged
        addresses the compiled world serves), ``voted_size`` /
        ``voted_attacker_share`` (per-address majority vote over the
        same contributions) and ``benign_fraction``.
    population specs
        the whole fleet: ``victim_fraction`` (of rounds that completed
        an NTP sync, how many synced against an attacker server),
        ``availability``, ``shifted_fraction``, ``sync_fraction``,
        clock-error stats, churn counts, and datagram / byte / stub
        timeout totals from the world's private registry.
    ``provider.resolver.mode == "iterative"`` (population)
        plus the exposure surface ``bench_h1`` sweeps:
        ``exposure_windows`` / ``exposure_open_s`` /
        ``windows_per_hour``, ``referrals_followed``, ``cache_hits`` /
        ``cache_misses``, ``poisoned_acceptances`` /
        ``spoofs_rejected`` / ``hijacked`` and ``spray_bursts`` /
        ``spray_packets``.
    ``spec.chaos`` with events (population)
        plus the SLOs ``bench_c1`` sweeps: ``chaos_events``, ``mttr``
        (per windowed event, the delay from its ``at`` until the first
        availability bin ending after the window whose mean reaches
        :data:`RECOVERY_THRESHOLD`; the run horizon if none does),
        ``availability_floor`` and ``degraded_victim_fraction``.

    The registry snapshot rides along whenever the world has
    telemetry (always, for populations), exported by runners configured
    with ``include_telemetry=True``.
    """
    spec = _point_spec(params)
    if spec.fleet is None:
        world = materialize(spec, seed)
        metrics = _pool_metrics(spec, world)
        if world.telemetry is not None:
            return metrics, world.telemetry.snapshot_json()
        return metrics

    iterative = (spec.provider.resolver is not None
                 and spec.provider.resolver.mode == "iterative")
    chaos = spec.chaos is not None and bool(spec.chaos.events)
    if (iterative or chaos) and spec.fleet.shards > 1:
        raise ValueError(
            "hierarchy and chaos metrics need one world per trial; shard "
            "the campaign, not the fleet (their pop.* and cache counters "
            "fold bit-identically across shards anyway — see "
            "repro.telemetry.fold_snapshots)")
    world = materialize(spec, seed)
    metrics = _population_metrics(world)
    if iterative:
        metrics.update(_hierarchy_metrics(world))
    if chaos:
        metrics.update(_chaos_metrics(spec, world, metrics["availability"]))
    return metrics, world.telemetry.snapshot_json()


# ----------------------------------------------------------------------
# E1 — the whole Figure 1 pipeline, DNS→DoH→pool→Chronos.
# ----------------------------------------------------------------------

_FIGURE1_KNOBS = frozenset({"clock_offset", "sample_size",
                            "agreement_window", "min_responses"})


def figure1_system_trial(params: Mapping[str, Any],
                         seed: int) -> Dict[str, float]:
    """One end-to-end system run: generate a pool through the
    distributed DoH resolvers of the single-client world
    ``params["spec"]``, then discipline a skewed clock with Chronos
    over the generated pool.

    Knobs: ``clock_offset`` (initial clock error, default 80 ms) and the
    Chronos ``sample_size`` / ``agreement_window`` / ``min_responses``;
    every other parameter is a validated spec path.

    Returned metrics: ``pool_size``, ``truncate_length``, ``elapsed``
    (pool generation, virtual seconds), ``benign_fraction``,
    ``chronos_ok``, ``clock_error`` and ``clock_error_before``
    (seconds), plus per-resolver ``answers[<name>]`` and
    ``latency[<name>]`` so tables can reproduce Figure 1's per-resolver
    rows.
    """
    scenario = materialize(_point_spec(params, _FIGURE1_KNOBS), seed)
    deploy_ntp_fleet(scenario.internet, scenario.directory, scenario.rng)
    pool = scenario.generate_pool_sync()
    offset = float(params.get("clock_offset", 0.080))
    clock = SimClock(lambda: scenario.simulator.now, offset=offset)
    ntp_client = NtpClient(scenario.client, scenario.simulator, clock)
    chronos = ChronosClient(
        ntp_client, pool.addresses,
        config=ChronosConfig(
            sample_size=int(params.get("sample_size", 9)),
            agreement_window=float(params.get("agreement_window", 0.060)),
            min_responses=int(params.get("min_responses", 5))),
        rng=scenario.rng.stream("bench-chronos"))
    outcomes: List = []
    chronos.sync(outcomes.append)
    scenario.simulator.run()
    sync = outcomes[0]
    metrics = {
        "pool_size": float(len(pool.addresses)),
        "truncate_length": float(pool.truncate_length),
        "elapsed": pool.elapsed,
        "benign_fraction": scenario.directory.benign_fraction(pool.addresses),
        "chronos_ok": 1.0 if sync.ok else 0.0,
        "clock_error": clock.error(),
        "clock_error_before": offset,
    }
    for answer in pool.answers:
        name = answer.resolver.name
        metrics[f"answers[{name}]"] = float(len(answer.addresses))
        metrics[f"latency[{name}]"] = answer.outcome.latency or 0.0
    return metrics


# ----------------------------------------------------------------------
# E7 — the end-to-end time-shift attack, one configuration per point.
# ----------------------------------------------------------------------

TIMESHIFT_CONFIGURATIONS = {
    "plain-dns+naive-sntp": (False, False),
    "plain-dns+chronos": (False, True),
    "distributed-doh+naive-sntp": (True, False),
    "distributed-doh+chronos": (True, True),
}

_TIMESHIFT_KEYS = frozenset({"configuration", "lie_offset", "num_providers",
                             "corrupted_providers", "pool_size"})


def timeshift_trial(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """One E7 configuration in a fresh world (trial index = world seed).

    ``configuration`` must be one of :data:`TIMESHIFT_CONFIGURATIONS`;
    ``lie_offset``, ``num_providers``, ``corrupted_providers`` and
    ``pool_size`` pass through to
    :class:`repro.attacks.timeshift.TimeShiftExperiment`.
    """
    unknown = set(params) - _TIMESHIFT_KEYS
    if unknown:
        raise ValueError(f"unrecognised trial parameters: {sorted(unknown)}; "
                         f"known: {sorted(_TIMESHIFT_KEYS)}")
    configuration = params["configuration"]
    try:
        use_doh, use_chronos = TIMESHIFT_CONFIGURATIONS[configuration]
    except KeyError:
        raise ValueError(
            f"unknown configuration {configuration!r}; known: "
            f"{sorted(TIMESHIFT_CONFIGURATIONS)}") from None
    experiment = TimeShiftExperiment(
        seed=seed, lie_offset=float(params.get("lie_offset", 10.0)),
        num_providers=int(params.get("num_providers", 3)),
        corrupted_providers=int(params.get("corrupted_providers", 1)),
        pool_size=int(params.get("pool_size", 20)))
    result = experiment.run(use_distributed_doh=use_doh,
                            use_chronos=use_chronos)
    return {
        "clock_error": result.clock_error_after,
        "abs_clock_error": abs(result.clock_error_after),
        "pool_malicious_fraction": result.pool_malicious_fraction,
        "shifted": 1.0 if result.shifted else 0.0,
        "synced": 1.0 if result.synced else 0.0,
        "pool_size": float(result.pool_size),
    }


# ----------------------------------------------------------------------
# A1 — off-path poisoning rate vs covered (TXID × port) entropy.
# ----------------------------------------------------------------------

_OFFPATH_KEYS = frozenset({"covered_bits", "txid_bits", "port_guesses",
                           "forged"})


def offpath_spray_trial(params: Mapping[str, Any],
                        seed: int) -> Dict[str, float]:
    """One off-path poisoning race against a deliberately weak resolver
    (``txid_bits``-bit transaction IDs, sequential ephemeral ports).

    The attacker sprays ``2**covered_bits`` transaction IDs across
    ``port_guesses`` predicted ports while the resolver recurses for
    the pool domain. Returns ``poisoned`` (1.0 when any forgery was
    accepted) and ``packets`` (spray cost).
    """
    unknown = set(params) - _OFFPATH_KEYS
    if unknown:
        raise ValueError(f"unrecognised trial parameters: {sorted(unknown)}; "
                         f"known: {sorted(_OFFPATH_KEYS)}")
    txid_bits = int(params.get("txid_bits", 8))
    covered_bits = int(params["covered_bits"])
    scenario = materialize(pool_spec(
        num_providers=1,
        resolver_config=ResolverConfig(txid_bits=txid_bits,
                                       randomize_txid=True)), seed)
    victim = scenario.providers[0]
    victim.host.randomize_ports = False
    poisoner = OffPathPoisoner(scenario.internet,
                               injection_node=victim.host.node)
    outcomes: List = []
    victim.resolver.resolve(scenario.pool_domain, RRType.A, outcomes.append)
    plan = SprayPlan(
        question=Question(scenario.pool_domain, RRType.A),
        spoofed_server=Endpoint(IPAddress("10.0.0.1"), 53),
        target_ports=poisoner.sequential_port_guesses(
            int(params.get("port_guesses", 2))),
        txid_guesses=poisoner.txid_space(covered_bits),
        forged_addresses=[IPAddress(a) for a in
                          params.get("forged", ("203.0.113.200",))],
    )
    poisoner.spray(victim.address, plan)
    scenario.simulator.run()
    return {
        "poisoned": 1.0 if victim.resolver.stats.poisoned_acceptances else 0.0,
        "packets": float(plan.packet_count),
    }


# ----------------------------------------------------------------------
# E4 — closed-form security bits (campaign-shaped for table uniformity).
# ----------------------------------------------------------------------


def advantage_bits_trial(params: Mapping[str, Any],
                         seed: int) -> Dict[str, float]:
    """Security bits ``-log2 P[attack]`` for one ``(n, x, p_attack)``
    point. Deterministic closed form — one trial per point suffices."""
    return {"bits": security_bits(int(params["n"]),
                                  float(params.get("x", 0.5)),
                                  float(params["p_attack"]))}


# ----------------------------------------------------------------------
# E10 — the cost of distribution vs the plain-DNS baseline.
# ----------------------------------------------------------------------

_OVERHEAD_KNOBS = frozenset({"mechanism"})


def overhead_trial(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Measure one pool acquisition's latency/bytes/packets in the
    single-client world ``params["spec"]``.

    The ``mechanism`` knob selects ``"plain-dns"`` (one stub query to
    the first provider over spoofable UDP) or ``"distributed-doh"``
    (Algorithm 1 across all providers, the default, so plain
    :meth:`~repro.campaign.ParameterGrid.over_spec` grids sweep it);
    every other parameter is a validated spec path.
    """
    mechanism = params.get("mechanism", "distributed-doh")
    if mechanism not in ("plain-dns", "distributed-doh"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    scenario = materialize(_point_spec(params, _OVERHEAD_KNOBS), seed)
    bytes_before = scenario.internet.bytes_sent
    packets_before = scenario.internet.datagrams_sent
    if mechanism == "plain-dns":
        stub = StubResolver(scenario.client, scenario.simulator,
                            scenario.providers[0].address, timeout=5.0)
        started = scenario.simulator.now
        outcomes: List = []
        stub.query(scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        latency = scenario.simulator.now - started
        pool_size = len(outcomes[0].addresses) if outcomes else 0
    else:
        pool = scenario.generate_pool_sync()
        latency = pool.elapsed
        pool_size = len(pool.addresses)
    return {
        "latency": latency,
        "bytes": float(scenario.internet.bytes_sent - bytes_before),
        "packets": float(scenario.internet.datagrams_sent - packets_before),
        "pool_size": float(pool_size),
    }
