"""Reusable trial functions for campaign sweeps.

These are the bridge between the declarative campaign layer and the
simulation stack.  :func:`spec_trial` is the one world trial: it takes
its world from the grid point (``params["spec"]``, a
:class:`~repro.scenarios.spec.ScenarioSpec` expanded by
:meth:`repro.campaign.ParameterGrid.over_spec`), compiles it with
:func:`~repro.scenarios.spec.materialize`, and the spec picks the
metric set — including what the single client does
(:class:`~repro.scenarios.spec.ClientSpec`: the Figure 1 pipeline of
E1, the time-shift configurations of E7, the acquisition cost of E10).
Beside it, the off-path spray ablation (A1) races one hand-aimed spray
burst against a one-provider :func:`~repro.scenarios.spec.pool_spec`
world, and the closed-form advantage trial (E4) builds no world.

Everything here is module-level and picklable so campaigns can shard
trials across worker processes. The closed-form Monte-Carlo trials live
next to their models in :mod:`repro.analysis.montecarlo` and are
re-exported from :mod:`repro.campaign`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.analysis.advantage import security_bits
from repro.attacks.offpath import OffPathPoisoner
from repro.core.majority import majority_vote
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.ntp.chronos import ChronosClient, ChronosConfig
from repro.ntp.client import NtpClient
from repro.ntp.clock import SimClock
from repro.scenarios import PoolScenario
from repro.scenarios.spec import (
    ResolverSpec,
    ScenarioSpec,
    attacker_servers,
    effective_forged,
    get_path,
    materialize,
    pool_spec,
)


def _point_spec(params: Mapping[str, Any]) -> ScenarioSpec:
    """The spec a grid point carries, with its swept paths validated.

    ``params["spec"]`` (a spec object or its ``to_dict`` form) is the
    world.  Every other parameter must be a dotted path the spec
    carries with exactly the point's value: a mistyped axis, or a point
    whose sweep silently failed to land, cannot run.
    """
    if "spec" not in params:
        raise ValueError("world trials need params['spec'] "
                         "(use ParameterGrid.over_spec)")
    spec = params["spec"]
    if isinstance(spec, Mapping):
        spec = ScenarioSpec.from_dict(spec)
    for name, value in params.items():
        if name == "spec":
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
    """One Algorithm 1 generation under the world's policy, which
    :func:`~repro.scenarios.spec.materialize` compiled from the spec's
    ``pool``."""
    # Score attacker shares against what the compiler actually serves:
    # the spec's forged set plus the default synthesis for corruption
    # behaviours that need addresses but declared none.
    forged = {IPAddress(a) for a in effective_forged(spec)}
    for attack in spec.attacks:
        forged.update(IPAddress(a) for a in attack.param("forged", ()))
    pool = world.generate_pool_sync()
    voted = majority_vote(pool.contributions) if pool.contributions else []
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


#: The Chronos settings every syncing client uses: sample size 9,
#: agreement window 60 ms, 5 responses.
CHRONOS = ChronosConfig(agreement_window=0.060)


def _plain_dns_query(world: PoolScenario):
    """One RD query for the pool name to the first provider over
    spoofable UDP; the stub's outcome, or ``None`` if none arrived."""
    stub = StubResolver(world.client, world.simulator,
                        world.providers[0].address, timeout=5.0)
    outcomes: List = []
    stub.query(world.pool_domain, RRType.A, outcomes.append)
    world.simulator.run()
    return outcomes[0] if outcomes else None


def _sync(world: PoolScenario, sync: str, clock: SimClock, pool) -> bool:
    """Discipline ``clock`` over ``pool`` by ``sync`` (a
    ``client.sync`` mode); whether it synced."""
    ntp_client = NtpClient(world.client, world.simulator, clock)
    if sync == "chronos":
        chronos = ChronosClient(ntp_client, pool, config=CHRONOS,
                                rng=world.rng.stream("chronos"))
        outcomes: List = []
        chronos.sync(outcomes.append)
        world.simulator.run()
        return bool(outcomes) and outcomes[0].ok
    # Naive SNTP: step by the mean offset of (up to) 4 pool servers.
    rng = world.rng.stream("naive-pick")
    samples: List = []
    for server in pool if len(pool) <= 4 else rng.sample(pool, 4):
        ntp_client.sample(server, samples.append)
    world.simulator.run()
    good = [s.offset for s in samples if s.ok]
    if good:
        clock.step(sum(good) / len(good))
    return bool(good)


def _client_metrics(spec: ScenarioSpec,
                    world: PoolScenario) -> Dict[str, float]:
    """The single client's procedure (``spec.client``): acquire a pool,
    then discipline a clock that starts ``client.clock_offset`` off."""
    client = spec.client
    internet = world.internet
    bytes_before = internet.bytes_sent
    packets_before = internet.datagrams_sent
    metrics: Dict[str, float] = {}
    if client.acquire == "algorithm1":
        generated = world.generate_pool_sync()
        pool = generated.addresses
        elapsed = generated.elapsed
        metrics["truncate_length"] = float(generated.truncate_length)
        for answer in generated.answers:
            name = answer.resolver.name
            metrics[f"answers[{name}]"] = float(len(answer.addresses))
            metrics[f"latency[{name}]"] = answer.outcome.latency or 0.0
    else:
        started = world.simulator.now
        outcome = _plain_dns_query(world)
        pool = outcome.addresses if outcome is not None and outcome.ok else []
        elapsed = world.simulator.now - started
    metrics["bytes"] = float(internet.bytes_sent - bytes_before)
    metrics["packets"] = float(internet.datagrams_sent - packets_before)

    clock = SimClock(lambda: world.simulator.now, offset=client.clock_offset)
    synced = (client.sync is not None and bool(pool)
              and _sync(world, client.sync, clock, pool))
    error = clock.error()
    attackers = set(attacker_servers(spec, world.directory))
    metrics.update({
        "pool_size": float(len(pool)),
        "elapsed": elapsed,
        "benign_fraction": (world.directory.benign_fraction(pool)
                            if pool else 0.0),
        "pool_malicious_fraction": _share(pool, attackers),
        "synced": 1.0 if synced else 0.0,
        "clock_error": error,
        "abs_clock_error": abs(error),
        "shifted": (1.0 if abs(error) > 0.1 * abs(spec.pool.lie_offset)
                    else 0.0),
    })
    return metrics


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

    Every world combines by the one Algorithm 1 policy
    :func:`~repro.scenarios.spec.materialize` compiles from
    ``spec.pool`` (truncation, quorum, dual stack); a fleet takes its
    quorum from ``fleet.min_answers`` instead.

    The spec picks the metric set:

    single-client specs (``fleet is None``) without a ``client``
        one Algorithm 1 generation: ``ok`` / ``degraded``
        (availability), ``elapsed``, ``pool_size``,
        ``truncate_length``, ``attacker_share`` /
        ``v4_share`` / ``v6_share`` (scored against the forged
        addresses the compiled world serves), ``voted_size`` /
        ``voted_attacker_share`` (per-address majority vote over the
        same contributions) and ``benign_fraction``.
    single-client specs with a ``client``
        (:class:`~repro.scenarios.spec.ClientSpec`)
        the client's procedure: it acquires a pool (``client.acquire``:
        Algorithm 1, or one plain-DNS query to the first provider over
        spoofable UDP), then disciplines a clock that starts
        ``client.clock_offset`` seconds off (``client.sync``: not at
        all, by the mean offset of up to 4 pool servers, or by Chronos
        with :data:`CHRONOS`; never over an empty pool).  Metrics:
        ``pool_size``; ``elapsed`` (virtual seconds of the acquisition:
        Algorithm 1's own timing, or until the plain query's world
        drained); ``bytes`` / ``packets`` (wire cost of the
        acquisition); ``benign_fraction`` and
        ``pool_malicious_fraction`` (of the pool, the attacker's
        servers, :func:`~repro.scenarios.spec.attacker_servers`);
        ``synced``; ``clock_error`` / ``abs_clock_error`` (seconds,
        after discipline) and ``shifted`` (1.0 when ``|clock_error|``
        exceeds 10% of ``pool.lie_offset``).  Algorithm 1 adds
        ``truncate_length`` and, per resolver, ``answers[<name>]`` and
        ``latency[<name>]`` (Figure 1's per-resolver rows).
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
        metrics = (_pool_metrics(spec, world) if spec.client is None
                   else _client_metrics(spec, world))
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
        resolver_config=ResolverSpec(txid_bits=txid_bits,
                                     randomize_txid=True)), seed)
    victim = scenario.providers[0]
    victim.host.randomize_ports = False
    poisoner = OffPathPoisoner(scenario.internet,
                               injection_node=victim.host.node)
    outcomes: List = []
    victim.resolver.resolve(scenario.pool_domain, RRType.A, outcomes.append)
    report = poisoner.poison_resolver_lookup(
        victim.address, scenario.pool_domain, RRType.A,
        spoofed_server=Endpoint(scenario.root_hints[0][1], 53),
        forged_addresses=[IPAddress(a) for a in
                          params.get("forged", ("203.0.113.200",))],
        port_window=int(params.get("port_guesses", 2)),
        txid_bits=covered_bits)
    scenario.simulator.run()
    return {
        "poisoned": 1.0 if victim.resolver.stats.poisoned_acceptances else 0.0,
        "packets": float(report.packets_injected),
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
