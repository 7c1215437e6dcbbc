"""Declarative scenario specifications and their compiler.

The paper's experiments are all variations of one world — DNS resolution
paths feeding NTP pool selection under provider corruption and network
degradation.  A :class:`ScenarioSpec` describes one such world as *data*:
typed, frozen, composable dataclasses with exact JSON round-tripping, so
scenario diversity becomes something the campaign engine can sweep,
cache, and record verbatim in its result files.

The spec tree::

    ScenarioSpec
    ├── network: NetworkSpec          # access link, faults, RegionSpecs
    │     └── regions: (RegionSpec,)  # per-region fleet access edges
    ├── provider: ProviderSpec        # resolver chain, serving, corruption
    ├── pool: PoolSpec                # directory size/ttl, combine policy
    ├── fleet: FleetSpec | None       # population (None = single client)
    ├── attacks: (AttackSpec, ...)    # named installers from repro.attacks
    ├── telemetry: TelemetrySpec      # registry scoping + binning
    ├── chaos: ChaosSpec | None       # scheduled failure timeline
    └── client: ClientSpec | None     # the single client's procedure

Three operations close the loop:

* ``to_dict()`` / ``from_dict()`` / ``to_json()`` — exact, stable
  serialization (``from_dict(to_dict(s)) == s`` for every spec);
* :func:`set_path` / :func:`get_path` — dotted-path access
  (``"fleet.size"``, ``"network.regions[0].link.loss"``) used by
  :meth:`repro.campaign.ParameterGrid.over_spec` to sweep specs;
* :func:`materialize` — the single compiler from a spec (plus a seed)
  to a wired world, and the only way to build one.  :func:`pool_spec` /
  :func:`population_spec` turn flat keywords into the plain
  single-client and population specs.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.chaos.spec import ChaosSpec
from repro.core.errors import ConfigurationError
from repro.dns.resolver import ResolverConfig
from repro.doh.providers import DoHProviderProfile
from repro.netsim.link import FaultModel, LinkProfile


# ----------------------------------------------------------------------
# Serialization base (moved to repro.util.specbase so lower layers can
# define specs too; re-exported here for compatibility).
# ----------------------------------------------------------------------

from repro.dns.hierarchy import HierarchySpec  # noqa: E402
from repro.util.specbase import SpecBase, _encode  # noqa: E402, F401


# ----------------------------------------------------------------------
# Network layer.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinkSpec(SpecBase):
    """Serializable mirror of :class:`repro.netsim.link.LinkProfile`.

    Defaults match ``LinkProfile.metro()`` — the access-edge profile the
    legacy builders used.
    """

    latency: float = 0.003
    jitter: float = 0.001
    loss: float = 0.0

    def to_profile(self) -> LinkProfile:
        return LinkProfile(latency=self.latency, jitter=self.jitter,
                           loss=self.loss)

    @classmethod
    def from_profile(cls, profile: LinkProfile) -> "LinkSpec":
        return cls(latency=profile.latency, jitter=profile.jitter,
                   loss=profile.loss)


@dataclass(frozen=True)
class FaultSpec(SpecBase):
    """Serializable mirror of :class:`repro.netsim.link.FaultModel`."""

    loss_rate: float = 0.0
    jitter_s: float = 0.0
    reorder_window: float = 0.0
    reorder_rate: float = 0.25
    duplicate_rate: float = 0.0
    duplicate_gap_s: float = 0.002

    @property
    def active(self) -> bool:
        return self.to_model().active

    def to_model(self) -> FaultModel:
        return FaultModel(
            loss_rate=self.loss_rate, jitter_s=self.jitter_s,
            reorder_window=self.reorder_window,
            reorder_rate=self.reorder_rate,
            duplicate_rate=self.duplicate_rate,
            duplicate_gap_s=self.duplicate_gap_s)


@dataclass(frozen=True)
class RegionSpec(SpecBase):
    """One population access region: a dedicated edge node joined to a
    backbone attachment point by its own (possibly degraded) link."""

    name: str
    attach: str = "eu-central"
    link: LinkSpec = LinkSpec()
    fault: Optional[FaultSpec] = None

    _NESTED = {"link": ("spec", LinkSpec), "fault": ("opt", FaultSpec)}

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("RegionSpec.name must be non-empty")

    @property
    def node(self) -> str:
        """The topology node this region's clients attach to."""
        return f"pop-edge-{self.name}"

    @property
    def link_name(self) -> str:
        """Canonical name of the region's access link."""
        return "--".join(sorted((self.node, self.attach)))


@dataclass(frozen=True)
class NetworkSpec(SpecBase):
    """The world's network shape beyond the fixed global backbone.

    :param access: client access-link profile (``None`` = metro).
        Applies to the single client's edge *and*, in population
        worlds without explicit regions, to every ``pop-edge-*`` link.
    :param fault: imposed degradation on the client access link (the
        E6/R1 sweep axes); inactive by default.
    :param extra_fault: a second :class:`FaultSpec` composed on top of
        ``fault`` (set by dotted path, ``"network.extra_fault"``).
    :param regions: population access regions.  Empty means the legacy
        layout — one ``pop-edge-<region>`` link per backbone region
        (``access`` profile, metro by default), all carrying the
        access fault.  Non-empty regions get their own heterogeneous
        links/faults instead.
    :param backbone: ``None`` keeps the realistic continental/oceanic
        backbone mix; a :class:`LinkSpec` replaces *every* backbone hop
        with that uniform link (determinism harnesses use a zero-jitter
        profile here so transit draws are shard-invariant).
    """

    access: Optional[LinkSpec] = None
    fault: FaultSpec = FaultSpec()
    extra_fault: Optional[FaultSpec] = None
    regions: Tuple[RegionSpec, ...] = ()
    backbone: Optional[LinkSpec] = None

    _NESTED = {"access": ("opt", LinkSpec), "fault": ("spec", FaultSpec),
               "extra_fault": ("opt", FaultSpec),
               "regions": ("tuple", RegionSpec),
               "backbone": ("opt", LinkSpec)}

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"region names must be unique, got {names}")

    def access_fault_model(self) -> Optional[FaultModel]:
        """The composed client-edge fault, or ``None`` when inactive."""
        model = self.fault.to_model()
        if self.extra_fault is not None:
            model = model.compose(self.extra_fault.to_model())
        return model if model.active else None


# ----------------------------------------------------------------------
# Provider / pool layers.
# ----------------------------------------------------------------------

#: ResolverSpec modes: ``"forwarding"`` (the legacy flat tree — the
#: providers' recursors resolve against the fixed root/org/ntpns
#: layout) or ``"iterative"`` (a :class:`HierarchySpec`-compiled
#: root→TLD→zone tree with instrumented caching recursion).
RESOLVER_MODES = ("forwarding", "iterative")


@dataclass(frozen=True)
class ResolverSpec(ResolverConfig):
    """The providers' :class:`~repro.dns.resolver.ResolverConfig` (its
    fields and defaults, passed to every provider's recursor as is),
    plus the world-level resolution axis: ``mode``/``hierarchy`` pick
    the DNS tree the recursors walk.  Both serialize only when
    non-default, so pre-hierarchy spec JSON stays byte-identical.
    """

    mode: str = "forwarding"
    hierarchy: Optional[HierarchySpec] = None

    _NESTED = {"hierarchy": ("opt", HierarchySpec)}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in RESOLVER_MODES:
            raise ConfigurationError(
                f"resolver mode must be one of {RESOLVER_MODES}, "
                f"got {self.mode!r}")
        if self.hierarchy is not None and self.mode != "iterative":
            raise ConfigurationError(
                "ResolverSpec.hierarchy needs mode='iterative'")

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        if self.mode == "forwarding":
            del data["mode"]
        if self.hierarchy is None:
            del data["hierarchy"]
        return data


#: ProviderSpec serving modes: full DoH front-end (the default, what
#: ``deploy_provider`` stands up) or recursion engine + plain :53 only.
PROVIDER_SERVE_MODES = ("doh", "dns")

_BEHAVIORS = ("substitute", "inflate", "empty", "truthful")


@dataclass(frozen=True)
class ProviderSpec(SpecBase):
    """The trusted-resolver side: how many providers, what they serve,
    and how many of them the adversary has corrupted.

    :param count: number of providers (Figure 1 names the first three).
    :param profiles: explicit deployments; ``None`` uses Figure 1's
        providers plus synthetic ones beyond three.
    :param resolver: recursion-engine tunables shared by all providers.
    :param serve: ``"doh"`` (TLS identity + DoH front-end + plain :53,
        the legacy deployment) or ``"dns"`` (plain-DNS serving only —
        no certificate, no front-end; cheaper for UDP fleets).
    :param corrupted: how many providers answer pool queries with
        attacker-chosen records (always the first ``corrupted``).
    :param behavior: one of ``substitute``/``inflate``/``empty``/
        ``truthful`` (see :class:`repro.attacks.compromise`).
    :param forged: the attacker's addresses; synthesised from the
        ``203.0.113.0/24`` block at materialization when needed and
        empty.
    :param inflate_to: answer inflation for the ``inflate`` behaviour.
    """

    count: int = 3
    profiles: Optional[Tuple[DoHProviderProfile, ...]] = None
    resolver: Optional[ResolverSpec] = None
    serve: str = "doh"
    corrupted: int = 0
    behavior: str = "substitute"
    forged: Tuple[str, ...] = ()
    inflate_to: int = 20

    _NESTED = {"profiles": ("opt_tuple", DoHProviderProfile),
               "resolver": ("opt", ResolverSpec),
               "forged": ("scalars", None)}

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("need at least one provider")
        if self.resolver is not None and not isinstance(self.resolver,
                                                        ResolverSpec):
            raise ConfigurationError(
                "ProviderSpec.resolver must be a ResolverSpec (a "
                "ResolverConfig plus the world's resolution mode)")
        if self.profiles is not None:
            object.__setattr__(self, "profiles", tuple(self.profiles))
            if len(self.profiles) != self.count:
                raise ValueError("profiles length must equal num_providers")
        object.__setattr__(self, "forged", tuple(self.forged))
        if self.serve not in PROVIDER_SERVE_MODES:
            raise ConfigurationError(
                f"serve must be one of {PROVIDER_SERVE_MODES}, "
                f"got {self.serve!r}")
        if self.behavior not in _BEHAVIORS:
            raise ValueError(
                f"{self.behavior!r} is not a valid "
                f"CompromisedResolverBehavior")
        if not 0 <= self.corrupted <= self.count:
            raise ValueError(
                f"corrupted must be in [0, {self.count}], "
                f"got {self.corrupted}")

_TRUNCATIONS = ("shortest", "median", "none")
_DUAL_STACK_POLICIES = (None, "union", "per-family")


@dataclass(frozen=True)
class PoolSpec(SpecBase):
    """The NTP pool directory behind ``pool.ntp.org`` and the world's
    Algorithm 1 policy over the providers' answers.

    :func:`materialize` compiles ``truncation`` / ``min_answers`` /
    ``dual_stack_policy`` into the one policy every world combines by
    (``PoolScenario.policy``).  A fleet spells its quorum
    :attr:`FleetSpec.min_answers` and asks for A records only, so a
    fleet spec that sets ``min_answers`` or ``dual_stack_policy``
    raises (see :data:`WORLD_READS`).
    """

    size: int = 20
    answers_per_query: int = 4
    ttl: int = 60
    dual_stack: bool = False
    lie_offset: float = 10.0
    truncation: str = "shortest"
    dual_stack_policy: Optional[str] = None
    min_answers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError("pool size must be >= 1")
        if self.answers_per_query < 1:
            raise ConfigurationError("answers_per_query must be >= 1")
        if self.truncation not in _TRUNCATIONS:
            raise ConfigurationError(
                f"truncation must be one of {_TRUNCATIONS}, "
                f"got {self.truncation!r}")
        if self.dual_stack_policy not in _DUAL_STACK_POLICIES:
            raise ConfigurationError(
                f"dual_stack_policy must be one of "
                f"{_DUAL_STACK_POLICIES}, got {self.dual_stack_policy!r}")


# ----------------------------------------------------------------------
# Fleet / telemetry layers.
# ----------------------------------------------------------------------

#: FleetSpec transports: plain-DNS stub queries (cheap, the legacy
#: population path) or per-query DoH with full TLS cost.
FLEET_TRANSPORTS = ("udp", "doh")


@dataclass(frozen=True)
class FleetSpec(SpecBase):
    """A measured client population; the configuration
    :class:`repro.population.ClientFleet` reads, at construction and in
    every client round. Every float setting must be finite.

    :param size: number of clients, at most
        :data:`repro.population.fleet.MAX_CLIENTS` (the fleet's
        ``10.120.0.0+`` address range).
    :param rounds: resolve→sync rounds each client performs.
    :param mean_interval: seconds between one client's rounds (the
        period for ``periodic`` arrivals, the mean for ``poisson``);
        at most :data:`repro.population.fleet.MAX_DELAY`, like
        ``rejoin_delay``.
    :param arrival: ``"periodic"`` or ``"poisson"``.
    :param resolve_every: re-query DNS every k-th round; between
        re-resolutions a client reuses its cached pool (real SNTP
        clients do not hit DNS per packet).
    :param churn_rate: per-round probability that a client leaves after
        the round and rejoins ``rejoin_delay`` seconds later with its
        pool cache dropped (forcing a re-resolve).
    :param rejoin_delay: seconds a churned client stays away.
    :param min_answers: ``None`` for the paper's strict all-must-answer
        combination; an integer for the E6 quorum extension (at most
        the provider count).
    :param transport: ``"udp"`` (one plain-DNS stub query per provider:
        cheap, spoofable, the default) or ``"doh"`` (one RFC 8484 query
        over a fresh TLS connection per provider per resolve, so every
        client pays the per-query handshake the paper's distributed
        lookup implies).  ``"doh"`` requires
        ``ProviderSpec.serve == "doh"``.
    :param initial_clock_error: clients start with clock errors uniform
        in ±this (seconds).
    :param shift_threshold: |clock error| beyond which a synced client
        counts as successfully time-shifted.
    :param shards: 1 (the default) runs the whole population in one
        world; K > 1 materializes a
        :class:`repro.population.sharding.ShardedFleet` — K windows of
        the population, each in its own world, executed through the
        campaign executor layer and folded back into one telemetry
        registry (the megafleet path; see the sharding module).

    The telemetry bin width is :attr:`TelemetrySpec.time_bin`.
    """

    size: int = 50
    rounds: int = 3
    mean_interval: float = 16.0
    arrival: str = "periodic"
    resolve_every: int = 1
    churn_rate: float = 0.0
    rejoin_delay: float = 30.0
    min_answers: Optional[int] = None
    transport: str = "udp"
    initial_clock_error: float = 0.050
    shift_threshold: float = 1.0
    shards: int = 1

    def __post_init__(self) -> None:
        # Imported here: repro.population imports this module.
        from repro.population.fleet import MAX_CLIENTS, MAX_DELAY
        if not 1 <= self.size <= MAX_CLIENTS:
            raise ConfigurationError(
                f"fleet size must be in [1, {MAX_CLIENTS}] (the fleet's "
                f"10.120.0.0+ address range), got {self.size}")
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        # A non-finite value would fail mid-run (an infinite delay in
        # the dispatcher) or silently zero a metric (a NaN clock error
        # or threshold).
        for name in ("mean_interval", "rejoin_delay", "initial_clock_error",
                     "shift_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not self.mean_interval > 0:
            raise ConfigurationError(
                f"mean_interval must be > 0, got {self.mean_interval}")
        for name in ("mean_interval", "rejoin_delay"):
            if getattr(self, name) > MAX_DELAY:
                raise ConfigurationError(
                    f"{name} must be <= {MAX_DELAY:g} s, "
                    f"got {getattr(self, name)}")
        if self.arrival not in ("periodic", "poisson"):
            raise ConfigurationError(
                f"arrival must be 'periodic' or 'poisson', "
                f"got {self.arrival!r}")
        if self.resolve_every < 1:
            raise ConfigurationError("resolve_every must be >= 1")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ConfigurationError("churn_rate must be in [0, 1]")
        if not self.rejoin_delay >= 0:
            raise ConfigurationError(
                f"rejoin_delay must be >= 0, got {self.rejoin_delay}")
        if self.min_answers is not None and self.min_answers < 1:
            raise ConfigurationError(
                "min_answers must be >= 1 (or None for the strict "
                "all-must-answer semantics)")
        if self.transport not in FLEET_TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {FLEET_TRANSPORTS}, "
                f"got {self.transport!r}")
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}")


@dataclass(frozen=True)
class TelemetrySpec(SpecBase):
    """Registry scoping for the materialized world.

    :param enabled: ``True`` forces a registry, ``False`` forbids one,
        ``None`` (default) follows the legacy rule — population worlds
        get one, single-client worlds do not.
    :param time_bin: bin width (virtual seconds) of the population's
        victim/availability time series.
    """

    enabled: Optional[bool] = None
    time_bin: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.time_bin < math.inf:
            raise ConfigurationError(
                f"time_bin must be finite and > 0, got {self.time_bin}")


#: ClientSpec acquisition modes: Algorithm 1 over every provider's DoH
#: front end, or one plain-DNS query to the first provider over
#: spoofable UDP.
CLIENT_ACQUIRE_MODES = ("algorithm1", "plain-dns")

#: ClientSpec clock disciplines: none, a step by the mean offset of up
#: to 4 pool servers (naive SNTP), or Chronos.
CLIENT_SYNC_MODES = (None, "sntp-mean", "chronos")


@dataclass(frozen=True)
class ClientSpec(SpecBase):
    """What the single client of a single-client world does:
    acquire a pool, then (optionally) discipline its clock over it.

    :param acquire: one of :data:`CLIENT_ACQUIRE_MODES`.
    :param sync: one of :data:`CLIENT_SYNC_MODES`.  Setting it makes
        :func:`materialize` deploy the pool's NTP servers, lying ones
        at :func:`attacker_servers` included.
    :param clock_offset: the client clock's initial error (seconds).
    """

    acquire: str = "algorithm1"
    sync: Optional[str] = None
    clock_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.acquire not in CLIENT_ACQUIRE_MODES:
            raise ConfigurationError(
                f"client.acquire must be one of {CLIENT_ACQUIRE_MODES}, "
                f"got {self.acquire!r}")
        if self.sync not in CLIENT_SYNC_MODES:
            raise ConfigurationError(
                f"client.sync must be one of {CLIENT_SYNC_MODES}, "
                f"got {self.sync!r}")


# ----------------------------------------------------------------------
# Attacks.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AttackSpec(SpecBase):
    """One named attack from the :data:`ATTACK_INSTALLERS` registry.

    Parameters are a canonical (sorted) tuple of ``(name, value)``
    pairs so specs stay frozen/hashable; build them with
    :meth:`AttackSpec.of` and read them with :meth:`param`.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_INSTALLERS:
            raise ConfigurationError(
                f"unknown attack kind {self.kind!r}; "
                f"known: {sorted(ATTACK_INSTALLERS)}")
        canonical = tuple(sorted(
            (str(name), tuple(value) if isinstance(value, list) else value)
            for name, value in self.params))
        object.__setattr__(self, "params", canonical)

    @classmethod
    def of(cls, kind: str, **params: Any) -> "AttackSpec":
        return cls(kind=kind, params=tuple(params.items()))

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def has_param(self, name: str) -> bool:
        return any(key == name for key, _ in self.params)

    def with_param(self, name: str, value: Any) -> "AttackSpec":
        """A copy with one parameter replaced (or added) — the
        :func:`set_path` surface for sweeping attack knobs."""
        kept = tuple((k, v) for k, v in self.params if k != name)
        return AttackSpec(kind=self.kind, params=kept + ((name, value),))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "params": {name: _encode(value)
                           for name, value in self.params}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackSpec":
        params = data.get("params", {})
        return cls(kind=data["kind"], params=tuple(params.items()))


@dataclass
class AttackContext:
    """What an attack installer gets to work with (one built world)."""

    internet: Any
    rng: Any
    pool_domain: Any
    providers: List[Any]
    directory: Any
    access_links: List[str]
    region_links: Dict[str, str] = field(default_factory=dict)
    ntp_fleet: Any = None
    root_hints: List[Any] = field(default_factory=list)

    @property
    def simulator(self):
        return self.internet.simulator

    def links_for(self, attack: AttackSpec) -> List[str]:
        """Resolve an attack's target links: explicit ``links``, one
        region's access link (``at="region:<name>"``), or every access
        link (``at="access"``, the default)."""
        explicit = attack.param("links", ())
        if explicit:
            return list(explicit)
        at = attack.param("at", "access")
        if at == "access":
            return list(self.access_links)
        if isinstance(at, str) and at.startswith("region:"):
            name = at[len("region:"):]
            if name not in self.region_links:
                raise ConfigurationError(
                    f"attack targets unknown region {name!r}; "
                    f"known: {sorted(self.region_links)}")
            return [self.region_links[name]]
        raise ConfigurationError(
            f"attack 'at' must be 'access' or 'region:<name>', got {at!r}")


def _install_mitm(attack: AttackSpec, ctx: AttackContext):
    from repro.attacks.mitm import OnPathAttacker
    attacker = OnPathAttacker(ctx.internet, ctx.links_for(attack))
    mode = attack.param("mode", "poison")
    if mode == "poison":
        forged = attack.param("forged", ())
        if not forged:
            raise ConfigurationError("mitm poison mode needs forged=")
        attacker.poison_a_records(ctx.pool_domain, list(forged),
                                  inflate_to=attack.param("inflate_to"))
    elif mode == "empty":
        attacker.empty_a_answers(ctx.pool_domain)
    elif mode == "block-tls":
        attacker.block_tls()
    elif mode == "delay-tls":
        attacker.delay_tls(float(attack.param("delay", 0.5)))
    elif mode == "blackhole":
        attacker.block_everything()
    else:
        raise ConfigurationError(f"unknown mitm mode {mode!r}")
    return attacker


def _install_offpath(attack: AttackSpec, ctx: AttackContext):
    """The off-path poisoner, driven entirely by :class:`AttackSpec`
    data.  With no ``rate`` the installer returns a passive
    :class:`~repro.attacks.offpath.OffPathPoisoner` (the legacy
    behaviour — trial code sprays by hand).  With ``rate > 0`` it
    schedules a :class:`~repro.attacks.offpath.PeriodicSprayer` that
    bursts forged responses at one victim resolver for the run's
    duration; every knob (spray rate, port/TXID entropy assumptions,
    spoofed server, forged addresses) is a sweepable spec field.
    """
    from repro.attacks.offpath import OffPathPoisoner, PeriodicSprayer
    from repro.dns.message import Question
    from repro.dns.rrtype import RRType
    from repro.netsim.address import Endpoint, IPAddress

    node = attack.param("node") or ctx.providers[0].host.node
    poisoner = OffPathPoisoner(ctx.internet, injection_node=node)
    rate = float(attack.param("rate", 0.0))
    if rate <= 0.0:
        return poisoner

    victim = ctx.providers[int(attack.param("victim", 0))]
    track_ports = bool(attack.param("track_ports", True))
    if track_ports:
        # The paper's zero-port-entropy assumption: a victim stack
        # allocating ephemeral ports sequentially, so the attacker's
        # oracle (Host.next_sequential_port) predicts the open socket.
        victim.host.randomize_ports = False
    spoof = attack.param("spoof")
    if spoof is not None:
        spoofed_server = Endpoint(IPAddress(str(spoof)), 53)
    else:
        if not ctx.root_hints:
            raise ConfigurationError(
                "offpath rate-mode needs a spoofable server: no root "
                "hints in context and no spoof= param")
        # The resolver's first hop re-asks the root on every cache
        # miss (referrals are not cached), so racing the root wins
        # the whole resolution.
        spoofed_server = Endpoint(ctx.root_hints[0][1], 53)
    forged = [str(a) for a in attack.param("forged", ())]
    if not forged:
        raise ConfigurationError("offpath rate-mode needs forged= "
                                 "addresses to inject")
    sprayer = PeriodicSprayer(
        poisoner, ctx.simulator, victim.host,
        question=Question(ctx.pool_domain, RRType.A),
        spoofed_server=spoofed_server, forged_addresses=forged,
        rate=rate,
        duration=float(attack.param("duration", 60.0)),
        start=float(attack.param("start", 0.0)),
        port_window=int(attack.param("port_window", 2)),
        covered_bits=int(attack.param("covered_bits", 6)),
        track_ports=track_ports,
        ttl=int(attack.param("ttl", 86_400)))
    sprayer.schedule()
    return sprayer


def _install_timeshift(attack: AttackSpec, ctx: AttackContext):
    if ctx.ntp_fleet is None:
        raise ConfigurationError(
            "timeshift attack needs a population world (deployed NTP "
            "fleet); add a FleetSpec to the scenario")
    count = int(attack.param("count", 1))
    lie_offset = float(attack.param("lie_offset", 10.0))
    corrupted = list(ctx.directory.benign[:count])
    for address in corrupted:
        ctx.ntp_fleet.corrupt(address, lie_offset)
    return corrupted


#: The attack registry: spec kind -> installer over a built world.
ATTACK_INSTALLERS: Dict[str, Callable[[AttackSpec, AttackContext], Any]] = {
    "mitm": _install_mitm,
    "offpath": _install_offpath,
    "timeshift": _install_timeshift,
}


# ----------------------------------------------------------------------
# The reach table: what each world kind reads.
# ----------------------------------------------------------------------

#: The paths every world kind reads: its network, providers, pool
#: directory, attacks and chaos timeline.
_READ_BY_EVERY_WORLD = (
    "network.access", "network.fault", "network.extra_fault",
    "network.backbone", "provider.count", "provider.profiles",
    "provider.resolver", "provider.serve", "provider.corrupted",
    "provider.behavior", "provider.forged", "provider.inflate_to",
    "pool.size", "pool.answers_per_query", "pool.ttl", "pool.dual_stack",
    "attacks", "chaos")

#: Per world kind, the spec paths its worlds read; a path covers
#: everything beneath it.  Every other path must keep its default, or
#: the spec raises at construction, so no world runs without a setting
#: it was given.  A sharded fleet reads what a fleet does.
WORLD_READS: Dict[str, Tuple[str, ...]] = {
    "single-client": _READ_BY_EVERY_WORLD + (
        "pool.truncation", "pool.dual_stack_policy", "pool.min_answers",
        "telemetry.enabled"),
    "single-client with client": _READ_BY_EVERY_WORLD + (
        "pool.truncation", "pool.dual_stack_policy", "pool.min_answers",
        "pool.lie_offset", "telemetry.enabled", "client"),
    "fleet": _READ_BY_EVERY_WORLD + (
        "network.regions", "pool.lie_offset", "pool.truncation", "fleet",
        "telemetry.time_bin"),
}

#: Why a fleet leaves a path unread, where the reason is not plain.
_UNREAD_BECAUSE = {
    "pool.min_answers": "a fleet's quorum is fleet.min_answers",
    "pool.dual_stack_policy": "fleet clients ask for A records only",
    "client": "client describes the single client; a spec with a "
              "FleetSpec has none",
}


def _changed_paths(node: SpecBase, prefix: str = "") -> List[str]:
    """The paths under ``node`` whose values differ from their
    defaults: a sub-spec that replaces a default of its own type is
    compared field by field, anything else is one path."""
    paths = []
    for item in dataclasses.fields(node):
        value = getattr(node, item.name)
        default = item.default
        if value == default:
            continue
        path = prefix + item.name
        if (dataclasses.is_dataclass(default)
                and type(value) is type(default)):
            paths.extend(_changed_paths(value, path + "."))
        else:
            paths.append(path)
    return paths


def _check_reach(spec: "ScenarioSpec") -> None:
    if spec.fleet is not None:
        kind = "fleet"
    elif spec.client is not None:
        kind = "single-client with client"
    else:
        kind = "single-client"
    for path in _changed_paths(spec):
        if not any(path == read or path.startswith(read + ".")
                   for read in WORLD_READS[kind]):
            because = _UNREAD_BECAUSE.get(path)
            raise ConfigurationError(
                f"{kind} worlds do not read {path}"
                + (f" ({because})" if because else "")
                + "; leave it at its default")


# ----------------------------------------------------------------------
# The scenario spec itself.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec(SpecBase):
    """A complete, serializable description of one simulated world."""

    network: NetworkSpec = NetworkSpec()
    provider: ProviderSpec = ProviderSpec()
    pool: PoolSpec = PoolSpec()
    fleet: Optional[FleetSpec] = None
    attacks: Tuple[AttackSpec, ...] = ()
    telemetry: TelemetrySpec = TelemetrySpec()
    chaos: Optional[ChaosSpec] = None
    client: Optional[ClientSpec] = None

    _NESTED = {"network": ("spec", NetworkSpec),
               "provider": ("spec", ProviderSpec),
               "pool": ("spec", PoolSpec),
               "fleet": ("opt", FleetSpec),
               "attacks": ("tuple", AttackSpec),
               "telemetry": ("spec", TelemetrySpec),
               "chaos": ("opt", ChaosSpec),
               "client": ("opt", ClientSpec)}

    def to_dict(self) -> Dict[str, Any]:
        # ``chaos`` and ``client`` postdate the committed golden spec
        # fixtures; omit each when absent so specs without them
        # serialize byte-identically to their earlier JSON.
        data = super().to_dict()
        for name in ("chaos", "client"):
            if data[name] is None:
                del data[name]
        return data

    def __post_init__(self) -> None:
        object.__setattr__(self, "attacks", tuple(self.attacks))
        count = self.provider.count
        quorums = {"pool.min_answers": self.pool.min_answers,
                   "fleet.min_answers": (None if self.fleet is None
                                         else self.fleet.min_answers)}
        for path, quorum in quorums.items():
            if quorum is not None and not 1 <= quorum <= count:
                raise ConfigurationError(
                    f"{path} must be in [1, {count}] (the provider "
                    f"count) or None, got {quorum}")
        if (self.fleet is not None and self.fleet.transport == "doh"
                and self.provider.serve != "doh"):
            raise ConfigurationError(
                "fleet.transport='doh' needs provider.serve='doh'")
        if self.fleet is None and self.provider.serve != "doh":
            raise ConfigurationError(
                "single-client worlds resolve via DoH; "
                "provider.serve='dns' needs a FleetSpec riding the "
                "plain-DNS transport")
        _check_reach(self)


#: What :func:`materialize` returns — a single-client world
#: (:class:`repro.scenarios.builders.PoolScenario`) or a population
#: world (:class:`repro.scenarios.builders.PopulationScenario`).
World = Union["PoolScenario", "PopulationScenario"]  # noqa: F821


# ----------------------------------------------------------------------
# Dotted-path access (the campaign sweep surface).
# ----------------------------------------------------------------------

_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(\[(\d+)\])?$")


def _split_path(path: str) -> List[Tuple[str, Optional[int]]]:
    steps = []
    for token in path.split("."):
        match = _TOKEN.match(token)
        if match is None:
            raise ConfigurationError(f"malformed spec path {path!r} "
                                     f"(at {token!r})")
        index = match.group(3)
        steps.append((match.group(1), None if index is None else int(index)))
    return steps


def get_path(spec: SpecBase, path: str) -> Any:
    """Read a dotted path, e.g. ``get_path(s, "fleet.size")`` or
    ``get_path(s, "network.regions[0].link.loss")``.  On an
    :class:`AttackSpec` node, a name that is not a dataclass field
    falls through to the attack's parameters (``"attacks[0].rate"``) —
    the surface campaign grids sweep attack knobs with."""
    value: Any = spec
    for attr, index in _split_path(path):
        if not hasattr(value, attr):
            if isinstance(value, AttackSpec) and value.has_param(attr):
                if index is not None:
                    raise ConfigurationError(
                        f"spec path {path!r}: attack params are not "
                        f"indexable")
                value = value.param(attr)
                continue
            raise ConfigurationError(
                f"spec path {path!r}: {type(value).__name__} has no "
                f"field {attr!r}")
        value = getattr(value, attr)
        if index is not None:
            value = value[index]
    return value


def set_path(spec: SpecBase, path: str, value: Any) -> SpecBase:
    """A copy of ``spec`` with the dotted ``path`` replaced by
    ``value`` (lists coerce to tuples; every node is rebuilt, so the
    original spec is untouched)."""
    return _set_steps(spec, _split_path(path), value, path)


def _set_steps(node: Any, steps: List[Tuple[str, Optional[int]]],
               value: Any, path: str) -> Any:
    attr, index = steps[0]
    if not dataclasses.is_dataclass(node) or not hasattr(node, attr):
        # Attack knobs live in the params tuple, not as fields; a
        # terminal non-field name on an AttackSpec sets (or adds) the
        # parameter so grids can sweep e.g. "attacks[0].rate".
        if (isinstance(node, AttackSpec) and len(steps) == 1
                and index is None and not hasattr(node, attr)):
            return node.with_param(
                attr, tuple(value) if isinstance(value, list) else value)
        raise ConfigurationError(
            f"spec path {path!r}: {type(node).__name__} has no "
            f"field {attr!r}")
    current = getattr(node, attr)
    if index is not None:
        if not isinstance(current, tuple) or index >= len(current):
            raise ConfigurationError(
                f"spec path {path!r}: {attr}[{index}] out of range")
        if len(steps) == 1:
            item = value
        else:
            item = _set_steps(current[index], steps[1:], value, path)
        new = current[:index] + (item,) + current[index + 1:]
    elif len(steps) == 1:
        new = tuple(value) if isinstance(value, list) else value
    else:
        if current is None:
            raise ConfigurationError(
                f"spec path {path!r}: {attr} is None; set the whole "
                f"sub-spec first")
        new = _set_steps(current, steps[1:], value, path)
    return replace(node, **{attr: new})


def apply_paths(spec: ScenarioSpec,
                assignments: Mapping[str, Any]) -> ScenarioSpec:
    """Apply dotted-path assignments in declaration order."""
    for path, value in assignments.items():
        spec = set_path(spec, path, value)
    return spec


# ----------------------------------------------------------------------
# Keyword -> spec converters.
# ----------------------------------------------------------------------

def pool_spec(
    num_providers: int = 3,
    pool_size: int = 20,
    answers_per_query: int = 4,
    dual_stack: bool = False,
    profiles: Optional[Sequence[DoHProviderProfile]] = None,
    resolver_config: Optional[ResolverSpec] = None,
    access_link: Optional[LinkProfile] = None,
    pool_ttl: int = 60,
    loss_rate: float = 0.0,
    jitter_s: float = 0.0,
    reorder_window: float = 0.0,
    duplicate_rate: float = 0.0,
) -> ScenarioSpec:
    """The single-client Figure 1 spec, from flat keywords."""
    if num_providers < 1:
        raise ValueError("need at least one provider")
    return ScenarioSpec(
        network=NetworkSpec(
            access=(None if access_link is None
                    else LinkSpec.from_profile(access_link)),
            fault=FaultSpec(loss_rate=loss_rate, jitter_s=jitter_s,
                            reorder_window=reorder_window,
                            duplicate_rate=duplicate_rate)),
        provider=ProviderSpec(count=num_providers, profiles=profiles,
                              resolver=resolver_config),
        pool=PoolSpec(size=pool_size, answers_per_query=answers_per_query,
                      ttl=pool_ttl, dual_stack=dual_stack))


def population_spec(
    num_clients: int = 50,
    rounds: int = 3,
    mean_interval: float = 16.0,
    arrival: str = "periodic",
    resolve_every: int = 1,
    churn_rate: float = 0.0,
    rejoin_delay: float = 30.0,
    min_answers: Optional[int] = None,
    corrupted: int = 0,
    behavior: Any = "substitute",
    forged: tuple = (),
    lie_offset: float = 10.0,
    num_providers: int = 3,
    pool_size: int = 20,
    answers_per_query: int = 4,
    pool_ttl: int = 60,
    loss_rate: float = 0.0,
    jitter_s: float = 0.0,
    reorder_window: float = 0.0,
    duplicate_rate: float = 0.0,
    initial_clock_error: float = 0.050,
    shift_threshold: float = 1.0,
    time_bin: float = 10.0,
    shards: int = 1,
) -> ScenarioSpec:
    """The population spec, from flat keywords (including the
    ``shards`` megafleet axis)."""
    behavior = getattr(behavior, "value", behavior)
    return ScenarioSpec(
        network=NetworkSpec(
            fault=FaultSpec(loss_rate=loss_rate, jitter_s=jitter_s,
                            reorder_window=reorder_window,
                            duplicate_rate=duplicate_rate)),
        provider=ProviderSpec(count=num_providers, corrupted=corrupted,
                              behavior=behavior,
                              forged=tuple(str(a) for a in forged)),
        pool=PoolSpec(size=pool_size, answers_per_query=answers_per_query,
                      ttl=pool_ttl, lie_offset=lie_offset),
        fleet=FleetSpec(size=num_clients, rounds=rounds,
                        mean_interval=mean_interval, arrival=arrival,
                        resolve_every=resolve_every, churn_rate=churn_rate,
                        rejoin_delay=rejoin_delay, min_answers=min_answers,
                        initial_clock_error=initial_clock_error,
                        shift_threshold=shift_threshold, shards=shards),
        telemetry=TelemetrySpec(time_bin=time_bin))


# ----------------------------------------------------------------------
# The compiler.
# ----------------------------------------------------------------------

def materialize(spec: ScenarioSpec, seed: int, registry=None) -> World:
    """Compile a spec (plus a seed) into a wired world.

    Single-client specs (``fleet is None``) produce a
    :class:`~repro.scenarios.builders.PoolScenario` (with the pool's
    NTP servers deployed when ``client.sync`` is set); specs with a
    :class:`FleetSpec` produce a
    :class:`~repro.scenarios.builders.PopulationScenario` — or, when
    ``fleet.shards > 1``, a
    :class:`~repro.population.sharding.ShardedFleet` (same ``run()`` /
    ``outcomes()`` / ``telemetry`` surface, population split across K
    worlds).

    :param registry: telemetry sink for population worlds (a private
        one is created when omitted); ignored for single-client worlds
        unless ``spec.telemetry.enabled`` forces one.
    """
    if not isinstance(spec, ScenarioSpec):
        raise ConfigurationError(
            f"materialize needs a ScenarioSpec, got {type(spec).__name__}")
    if spec.fleet is None:
        return _materialize_single(spec, seed, registry)
    if spec.fleet.shards > 1:
        from repro.population.sharding import ShardedFleet
        return ShardedFleet(spec, seed, registry=registry)
    return _materialize_population(spec, seed, registry)


def effective_forged(spec: ScenarioSpec) -> List[str]:
    """The forged addresses the compiled world's corruption actually
    serves: the spec's own or, when a corruption behaviour needs
    addresses and none were given, the documentation block (one per
    answer slot).  Metric code must score attacker shares against
    *this*, not ``spec.provider.forged`` alone."""
    provider = spec.provider
    if provider.forged or not provider.corrupted:
        return list(provider.forged)
    if provider.behavior in ("substitute", "inflate"):
        return [f"203.0.113.{i + 1}"
                for i in range(spec.pool.answers_per_query)]
    return []


def _materialize_single(spec: ScenarioSpec, seed: int, registry):
    from repro.telemetry.registry import MetricsRegistry, use_registry

    if spec.telemetry.enabled:
        registry = registry or MetricsRegistry()
        with use_registry(registry):
            world = _build_pool_world(spec, seed)
    else:
        registry = None
        world = _build_pool_world(spec, seed)
    world.telemetry = registry
    _install_adversary(spec, world, world, ntp_fleet=world.ntp_fleet,
                       registry=registry,
                       access_links=["client-edge--eu-central"],
                       region_links={})
    return world


def _build_pool_world(spec: ScenarioSpec, seed: int):
    """The Figure 1 world.  ``mode="forwarding"`` deploys the legacy
    flat tree (ported verbatim through
    :func:`repro.dns.hierarchy.compile_legacy_tree` so spec-built
    worlds stay bit-identical); ``mode="iterative"`` compiles the
    scenario's :class:`~repro.dns.hierarchy.HierarchySpec` into a
    root→TLD→zone referral chain and instruments the providers'
    caching resolvers.  ``spec.pool``'s combine settings become the
    world's one Algorithm 1 policy (``PoolScenario.policy``)."""
    from repro.core.policy import DualStackPolicy, TruncationPolicy
    from repro.core.pool import PoolGeneratorConfig
    from repro.dns.hierarchy import (
        HierarchySpec,
        compile_hierarchy,
        compile_legacy_tree,
    )
    from repro.doh.providers import (
        FIGURE1_PROVIDERS,
        deploy_provider,
        synthetic_profiles,
    )
    from repro.doh.tls import CertificateAuthority, TrustStore
    from repro.netsim.address import ip
    from repro.netsim.host import Host
    from repro.netsim.internet import Internet
    from repro.netsim.simulator import Simulator
    from repro.netsim.topology import Topology
    from repro.scenarios.builders import CLIENT_ADDRESS, PoolScenario
    from repro.util.rng import RngRegistry

    provider_spec = spec.provider
    pool = spec.pool
    registry = RngRegistry(seed)
    simulator = Simulator()
    topology = Topology.global_backbone(
        rng_registry=registry,
        profile=(spec.network.backbone.to_profile()
                 if spec.network.backbone is not None else None))

    # Attach infrastructure edges.
    edge = (spec.network.access.to_profile()
            if spec.network.access is not None else LinkProfile.metro())
    topology.add_link("client-edge", "eu-central", edge)
    topology.add_link("dns-root-edge", "us-east", LinkProfile.metro())
    topology.add_link("dns-org-edge", "eu-west", LinkProfile.metro())
    topology.add_link("ntpns-edge", "us-west", LinkProfile.metro())
    access_fault = spec.network.access_fault_model()
    if access_fault is not None:
        topology.set_fault_model("client-edge", "eu-central", access_fault)
    internet = Internet(simulator, topology, registry)

    # --- DNS tree -----------------------------------------------------
    iterative = (provider_spec.resolver is not None
                 and provider_spec.resolver.mode == "iterative")
    if iterative:
        tree = compile_hierarchy(
            internet, registry, pool,
            provider_spec.resolver.hierarchy or HierarchySpec())
    else:
        tree = compile_legacy_tree(internet, registry, pool)
    directory = tree.directory
    pool_zone = tree.pool_zone
    dns_servers = tree.servers
    root_hints = tree.root_hints

    # --- DoH providers -------------------------------------------------
    authority = CertificateAuthority("SimRoot CA", registry.stream("ca"))
    if provider_spec.profiles is None:
        if provider_spec.count <= len(FIGURE1_PROVIDERS):
            profiles = FIGURE1_PROVIDERS[:provider_spec.count]
        else:
            profiles = list(FIGURE1_PROVIDERS) + synthetic_profiles(
                provider_spec.count - len(FIGURE1_PROVIDERS),
                regions=["us-west", "us-east", "eu-west", "eu-central",
                         "asia-east", "asia-south"])
    else:
        profiles = provider_spec.profiles
    # serve="dns" providers get no CA: the same deployment without a
    # DoH front end.
    provider_ca = authority if provider_spec.serve == "doh" else None
    providers = [
        deploy_provider(internet, profile, provider_ca, root_hints,
                        registry, resolver_config=provider_spec.resolver,
                        instrument=iterative)
        for profile in profiles
    ]

    trust_store = TrustStore([authority])
    client = internet.add_host(
        Host("client", "client-edge", [ip(CLIENT_ADDRESS)],
             rng=registry.stream("client-ports")))

    # A syncing client needs the pool's NTP servers: honest directory
    # members, lying malicious ones and the attacker's own servers.
    ntp_fleet = None
    if spec.client is not None and spec.client.sync is not None:
        from repro.ntp.pool import backbone_nodes, deploy_ntp_fleet
        ntp_fleet = deploy_ntp_fleet(
            internet, directory, registry, backbone_nodes(topology),
            malicious_lie_offset=pool.lie_offset,
            extra_addresses=attacker_servers(spec, directory))

    policy = PoolGeneratorConfig(
        truncation=TruncationPolicy(pool.truncation),
        dual_stack=(None if pool.dual_stack_policy is None
                    else DualStackPolicy(pool.dual_stack_policy)),
        min_answers=pool.min_answers)

    return PoolScenario(
        seed=seed, simulator=simulator, internet=internet, rng=registry,
        client=client, providers=providers, authority=authority,
        trust_store=trust_store, directory=directory, pool_zone=pool_zone,
        dns_servers=dns_servers, root_hints=root_hints,
        access_fault=access_fault, pool_domain=tree.pool_domain,
        hierarchy=tree if iterative else None, ntp_fleet=ntp_fleet,
        policy=policy,
    )


def _materialize_population(spec: ScenarioSpec, seed: int, registry,
                            window: Optional[Tuple[int, int, int]] = None):
    """The population world (the original keyword-built layout, plus
    per-region access edges and the DoH fleet transport).

    ``window`` is the sharding hook: ``(first_index, size, population)``
    builds the world with a :class:`~repro.population.ClientFleet`
    covering only that window of the population (``spec.fleet.shards``
    is ignored — the caller, :class:`ShardedFleet`, owns the split).
    """
    from repro.ntp.pool import backbone_nodes, deploy_ntp_fleet
    from repro.population.fleet import ClientFleet
    from repro.scenarios.builders import PopulationScenario
    from repro.telemetry.registry import MetricsRegistry, use_registry

    fleet_spec = spec.fleet
    registry = registry or MetricsRegistry()
    with use_registry(registry):
        pool_scenario = _build_pool_world(spec, seed)
        pool_scenario.telemetry = registry
        # Population access edges.  With no RegionSpecs: one per
        # backbone region (metro profile, the scenario's access fault),
        # so the fault axes degrade the whole population — the legacy
        # layout.  With RegionSpecs: exactly the declared regions, each
        # with its own link profile and fault.
        topology = pool_scenario.internet.topology
        regions = backbone_nodes(topology)
        access_nodes = []
        region_links: Dict[str, str] = {}
        if spec.network.regions:
            for region in spec.network.regions:
                if not topology.has_node(region.attach):
                    raise ConfigurationError(
                        f"region {region.name!r} attaches to unknown "
                        f"node {region.attach!r}")
                topology.add_link(region.node, region.attach,
                                  region.link.to_profile())
                if region.fault is not None and region.fault.active:
                    topology.set_fault_model(region.node, region.attach,
                                             region.fault.to_model())
                access_nodes.append(region.node)
                region_links[region.name] = region.link_name
        else:
            pop_edge = (spec.network.access.to_profile()
                        if spec.network.access is not None
                        else LinkProfile.metro())
            for region in regions:
                node = f"pop-edge-{region}"
                topology.add_link(node, region, pop_edge)
                if pool_scenario.access_fault is not None:
                    topology.set_fault_model(node, region,
                                             pool_scenario.access_fault)
                access_nodes.append(node)
        # Attacker servers (forged answer targets) must exist before
        # the fleet deploys; with the malicious directory members and
        # the timeshift-corrupted ones they count as attackers from the
        # first sync.
        directory = pool_scenario.directory
        servers = attacker_servers(spec, directory)
        attackers = servers + directory.malicious + [
            a for a in _attack_addresses(spec, directory)
            if a not in servers and a not in directory.malicious]
        ntp_fleet = deploy_ntp_fleet(
            pool_scenario.internet, pool_scenario.directory,
            pool_scenario.rng, regions,
            malicious_lie_offset=spec.pool.lie_offset,
            extra_addresses=servers)
        first_index, size, population = (
            window if window is not None
            else (0, fleet_spec.size, fleet_spec.size))
        fleet = ClientFleet(
            pool_scenario.internet, pool_scenario.providers,
            pool_scenario.pool_domain, pool_scenario.rng, fleet_spec,
            pool_scenario.policy.truncation, spec.telemetry.time_bin,
            nodes=access_nodes,
            attacker_addresses=attackers, registry=registry,
            trust_store=pool_scenario.trust_store, first_index=first_index,
            clients=size, population=population)
    world = PopulationScenario(pool=pool_scenario, fleet=fleet,
                               ntp_fleet=ntp_fleet, telemetry=registry,
                               attacker_addresses=attackers)
    _install_adversary(spec, world, pool_scenario, ntp_fleet=ntp_fleet,
                       registry=registry,
                       access_links=[
                           "--".join(sorted((node, attach)))
                           for node, attach in zip(
                               access_nodes,
                               [r.attach for r in spec.network.regions]
                               or regions)],
                       region_links=region_links)
    return world


def _attack_addresses(spec: ScenarioSpec, directory) -> List["IPAddress"]:
    """The addresses the spec's attacks make attacker-serving, once
    each in attack order: forged answer targets and timeshift-corrupted
    pool members."""
    from repro.netsim.address import IPAddress
    addresses: List[IPAddress] = []
    for attack in spec.attacks:
        if attack.kind == "timeshift":
            named = directory.benign[:int(attack.param("count", 1))]
        else:
            named = attack.param("forged", ())
        for address in map(IPAddress, named):
            if address not in addresses:
                addresses.append(address)
    return addresses


def attacker_servers(spec: ScenarioSpec, directory) -> List["IPAddress"]:
    """The addresses a world deploys lying NTP servers at, beyond the
    pool directory's own members: the forged set the corrupted
    providers serve (:func:`effective_forged`), then every forged
    address an attack names that is neither listed yet nor a directory
    member.  Callers pass it to
    :func:`repro.ntp.pool.deploy_ntp_fleet` as ``extra_addresses``."""
    from repro.netsim.address import IPAddress
    servers = [IPAddress(a) for a in effective_forged(spec)]
    return servers + [
        a for a in _attack_addresses(spec, directory)
        if a not in servers and a not in directory.benign
        and a not in directory.malicious]


def _install_adversary(spec: ScenarioSpec, world, pool_scenario, ntp_fleet,
                       registry, access_links, region_links) -> None:
    """The compile steps every world ends with: corrupt the first
    ``provider.corrupted`` providers, install ``spec.attacks`` (into
    ``world.attacks``) and schedule the chaos timeline."""
    from repro.attacks.compromise import (
        CompromiseConfig,
        CompromisedResolverBehavior,
        corrupt_first_k,
    )
    from repro.chaos.controller import install_chaos

    provider = spec.provider
    if provider.corrupted:
        corrupt_first_k(
            pool_scenario.providers, provider.corrupted,
            CompromiseConfig(
                target=pool_scenario.pool_domain,
                behavior=CompromisedResolverBehavior(provider.behavior),
                forged_addresses=effective_forged(spec),
                inflate_to=provider.inflate_to))
    context = AttackContext(
        internet=pool_scenario.internet, rng=pool_scenario.rng,
        pool_domain=pool_scenario.pool_domain,
        providers=pool_scenario.providers,
        directory=pool_scenario.directory,
        access_links=access_links, region_links=region_links,
        ntp_fleet=ntp_fleet, root_hints=list(pool_scenario.root_hints))
    for attack in spec.attacks:
        world.attacks.append((attack.kind,
                              ATTACK_INSTALLERS[attack.kind](attack,
                                                             context)))
    world.chaos = install_chaos(spec, pool_scenario, ntp_fleet=ntp_fleet,
                                registry=registry)


__all__ = [
    "ATTACK_INSTALLERS",
    "AttackContext",
    "AttackSpec",
    "ChaosSpec",
    "ClientSpec",
    "FaultSpec",
    "FleetSpec",
    "HierarchySpec",
    "LinkSpec",
    "NetworkSpec",
    "PoolSpec",
    "ProviderSpec",
    "RESOLVER_MODES",
    "RegionSpec",
    "ResolverSpec",
    "ScenarioSpec",
    "SpecBase",
    "TelemetrySpec",
    "World",
    "apply_paths",
    "attacker_servers",
    "effective_forged",
    "get_path",
    "materialize",
    "pool_spec",
    "population_spec",
    "set_path",
]
