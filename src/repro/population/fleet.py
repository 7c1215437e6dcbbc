"""A population of NTP clients living inside one simulated internet.

The paper's claims are population statements — what fraction of *all*
clients ends up on attacker servers, how availability degrades under the
empty-answer DoS — but the single-client trials re-derive those
aggregates statistically across worlds. :class:`ClientFleet` instead
stands up N client hosts in one world (mirroring the server-side
:func:`repro.ntp.pool.deploy_ntp_fleet`) and measures them through the
telemetry registry, so one simulation yields the population curve
directly.

Each client runs the paper's distributed-resolver lookup as rounds:
query the pool domain through every configured provider, apply
Algorithm 1's truncate-and-combine, pick one pool server, and discipline
its clock with one SNTP exchange. Clients ride the plain-DNS stub
query (:func:`repro.dns.client.stub_query`) rather than per-query TLS —
the provider-corruption threat model lives behind the recursion engine
(see ``RecursiveResolver.serve_engine``), so the DNS-layer outcome is
identical to the DoH path while the hot loop stays cheap enough for
thousands of clients.

Scale machinery:

* **Batched dispatch** — client wake-ups are coalesced into quantized
  virtual-time bins (:class:`BatchDispatcher`); one simulator event
  drains a whole bin, so the event heap carries O(bins), not O(clients),
  round-trigger entries.
* **Dedicated RNG streams** — every client draws arrivals, churn and
  server selection from its own named streams of the scenario's
  :class:`~repro.util.rng.RngRegistry`, so fleet behaviour is
  reproducible from the seed alone and independent of dispatch order.
  The streams are :class:`~repro.util.rng.ParkedStream` objects: a
  client holds generator state only while it is in a round, and is a
  seed plus a word count per stream in between.
* **Shared plumbing** — what every client sends through is built once
  per fleet: one :class:`~repro.netsim.address.Endpoint` per provider
  (over the provider host's own address object) and one retry policy
  per ``(timeout, retries)``. A client holds its host, whose one
  :class:`~repro.netsim.transport.Transport` carries its stub queries
  and its SNTP exchanges alike, and its per-provider TXID streams.
* **Streaming telemetry** — nothing per-client is accumulated in Python
  lists; every observation folds into the registry's counters,
  histograms and virtual-time series, and population outcomes are read
  back from there.
* **A pure round loop** — every decision a round makes (resolve or
  reuse, combine, pick, victim/shift classification, churn, next
  delay) lives in the module-level :func:`advance_round` function over
  explicit ``(spec, state, rng, phase event)`` inputs, returning the
  effects as a :class:`RoundStep`. :class:`ClientFleet` is the thin
  effectful shell (sockets, clocks, telemetry, scheduling); the
  sharded engine (:mod:`repro.population.sharding`) reuses the same
  function, so the round semantics cannot fork between the two.

Fleets can also be a *window* of a larger population: ``first_index``
and ``population`` give each client its **global** identity — RNG
stream names, addresses, node attachment and arrival phase all derive
from the global index over the total population — so K windows
covering ``range(population)`` behave client-for-client exactly like
one fleet of ``population`` clients (the sharded megafleet contract).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.pool import combine_with_quorum
from repro.dns.client import DNS_PORT, StubStats, stub_query
from repro.dns.name import Name
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.simulator import SimulationError, Simulator
from repro.netsim.transport import Transport, retry_policy
from repro.ntp.client import NtpClient, NtpSample
from repro.ntp.clock import SimClock
from repro.population.arrivals import ArrivalProcess, make_arrivals
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.telemetry.trace import current_tracer
from repro.util.rng import ParkedStream, RngRegistry

if TYPE_CHECKING:
    from repro.doh.providers import ProviderDeployment
    from repro.scenarios.spec import FleetSpec

#: Ceiling of the fleet's ``10.120+`` address scheme: 200 hosts per
#: /24 block, 256 blocks per second octet, second octets 10.120-10.255.
MAX_CLIENTS = 136 * 256 * 200

#: A client's patience: per-attempt timeout (s) and retries of each
#: stub or DoH query, and the SNTP exchange's timeout (s).
DNS_TIMEOUT = 3.0
DNS_RETRIES = 1
NTP_TIMEOUT = 1.0

#: Batching bin (virtual seconds) of round wake-ups.
DISPATCH_QUANTUM = 0.05


def _doh_addresses(outcome) -> Optional[List[IPAddress]]:
    """A DoH query outcome's answer addresses, with the same semantics
    the stub path feeds the combiner: ``None`` for a failed resolver,
    a (possibly empty) address list for an answer."""
    from repro.dns.rcode import RCode
    if not outcome.ok or outcome.message is None:
        return None
    if outcome.message.rcode is not RCode.NOERROR:
        return None
    return [record.rdata.address for record in outcome.message.answers
            if record.rrtype in (RRType.A, RRType.AAAA)]


class BatchDispatcher:
    """Coalesces many wake-ups into one simulator event per time bin.

    ``call_after(delay, fn)`` rounds the target instant *up* to the next
    multiple of ``quantum`` and appends ``fn`` to that bin; the first
    callback into a bin schedules the single simulator event that later
    drains it. Within a bin, callbacks run in registration order —
    deterministic, and cache-friendly because a thousand clients waking
    in the same 50 ms share one heap entry instead of a thousand.
    """

    def __init__(self, simulator: Simulator, quantum: float = 0.05) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        self._simulator = simulator
        self._quantum = quantum
        self._bins: Dict[int, List[Callable[[], None]]] = {}
        self._dispatched = 0
        self._batches = 0

    @property
    def dispatched(self) -> int:
        """Callbacks delivered so far."""
        return self._dispatched

    @property
    def batches(self) -> int:
        """Simulator events it took to deliver them."""
        return self._batches

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        target = self._simulator.now + delay
        index = math.ceil(target / self._quantum)
        batch = self._bins.get(index)
        if batch is None:
            self._bins[index] = batch = []
            when = max(index * self._quantum, self._simulator.now)
            self._simulator.schedule_at(when, lambda: self._drain(index))
        batch.append(fn)

    def _drain(self, index: int) -> None:
        self._batches += 1
        for fn in self._bins.pop(index):
            self._dispatched += 1
            fn()


@dataclass
class PopulationOutcomes:
    """Population-level results, read straight from the registry."""

    clients: int
    rounds: int                    # rounds attempted
    rounds_ok: int                 # rounds that produced a pool
    syncs: int                     # successful NTP exchanges
    victim_rounds: int             # synced against an attacker server
    availability: float            # rounds_ok / rounds
    victim_fraction: float         # victim_rounds / syncs
    shifted_fraction: float        # synced rounds ending |err| > threshold
    mean_abs_clock_error: float
    p90_abs_clock_error: float
    churn_leaves: int
    churn_joins: int
    victim_curve: List[Tuple[float, float]] = field(default_factory=list)
    availability_curve: List[Tuple[float, float]] = field(default_factory=list)


# ----------------------------------------------------------------------
# The round loop, as a pure function.
# ----------------------------------------------------------------------

#: Phase events fed to :func:`advance_round` — one per effect boundary
#: of a client round (the shell performs I/O between them).
ROUND_BEGIN = "round-begin"
ANSWERS_COMPLETE = "answers-complete"
SYNC_COMPLETE = "sync-complete"


@dataclass
class ClientRoundState:
    """Everything the round loop reads or advances for one client —
    and nothing effectful (hosts, sockets, clocks and telemetry stay in
    the shell)."""

    pool: Optional[List[IPAddress]] = None
    rounds_done: int = 0


@dataclass(frozen=True)
class RoundRng:
    """The per-client randomness :func:`advance_round` draws from:
    explicit inputs, so identical streams replay identical rounds."""

    select: Any        # ParkedStream — pool-server selection
    churn: Any         # ParkedStream — leave/stay (None: churn off)
    arrivals: ArrivalProcess


@dataclass(frozen=True)
class RoundStep:
    """What the shell must do next, as plain data.

    ``action`` is one of:

    * ``"resolve"`` — fan out one query per provider, then feed the
      answers back as an :data:`ANSWERS_COMPLETE` event;
    * ``"sync"`` — the round has a ``pool`` and a ``pick``; run one
      SNTP exchange against the pick and feed the sample back as a
      :data:`SYNC_COMPLETE` event;
    * ``"stop"`` / ``"leave"`` / ``"reschedule"`` — the round
      concluded; the flags say how (``failed`` resolve, ``synced``
      exchange with its ``victim``/``shifted``/``clock_error``
      classification, or a ``timed_out`` exchange) and ``delay`` says
      when the client acts again (rejoin after churn, or the next
      arrival).
    """

    action: str
    pool: Optional[List[IPAddress]] = None
    pick: Optional[IPAddress] = None
    delay: float = 0.0
    failed: bool = False
    synced: bool = False
    timed_out: bool = False
    victim: bool = False
    shifted: bool = False
    clock_error: float = 0.0


def advance_round(spec: FleetSpec, state: ClientRoundState,
                  rng: RoundRng, phase: str,
                  answers: Optional[Dict[int, Optional[List[IPAddress]]]] = None,
                  synced: bool = False, attacker: bool = False,
                  clock_error: float = 0.0) -> RoundStep:
    """Advance one client's round by one phase event.

    This is the *entire* round-loop logic — resolve cadence,
    truncate-and-combine, server selection, victim/shift
    classification, churn and next-arrival scheduling — over explicit
    inputs: the fleet ``spec``, the client's ``state`` (advanced in
    place), its ``rng`` streams and the phase payload. It touches no
    simulator, no sockets, no telemetry; every effect comes back as a
    :class:`RoundStep` for the shell to perform. Identical inputs
    (including stream states) produce identical steps, which is what
    makes shard execution mode irrelevant to fleet behaviour.

    Phase payloads: :data:`ANSWERS_COMPLETE` takes ``answers`` (per
    provider index, ``None`` for a failed resolver);
    :data:`SYNC_COMPLETE` takes ``synced``, ``attacker`` (was the pick
    attacker-controlled) and ``clock_error`` (|error| after stepping
    the clock, when synced).
    """
    if phase == ROUND_BEGIN:
        needs_resolve = (state.pool is None
                         or state.rounds_done % spec.resolve_every == 0)
        if needs_resolve:
            return RoundStep("resolve")
        return RoundStep("sync", pool=state.pool,
                         pick=rng.select.choice(state.pool))
    if phase == ANSWERS_COMPLETE:
        # Truncate-and-combine under strict or quorum semantics —
        # delegated to combine_with_quorum so the population can never
        # drift from the single-client trials.
        pool = combine_with_quorum(
            {str(index): addresses
             for index, addresses in sorted(answers.items())},
            min_answers=spec.min_answers)
        state.pool = pool if pool else None
        if not pool:
            return _conclude(spec, state, rng, failed=True)
        return RoundStep("sync", pool=pool, pick=rng.select.choice(pool))
    if phase == SYNC_COMPLETE:
        # A victim is a client that actually *synced* against an
        # attacker server; a timed-out exchange shifts nothing.
        return _conclude(
            spec, state, rng, synced=synced, timed_out=not synced,
            victim=synced and attacker,
            shifted=synced and clock_error > spec.shift_threshold,
            clock_error=clock_error if synced else 0.0)
    raise ValueError(f"unknown round phase {phase!r}")


def _conclude(spec: FleetSpec, state: ClientRoundState, rng: RoundRng,
              **flags) -> RoundStep:
    """Close the round: count it, then decide stop / churn-leave /
    reschedule (drawing churn and arrival randomness in that order)."""
    state.rounds_done += 1
    if state.rounds_done >= spec.rounds:
        return RoundStep("stop", **flags)
    if spec.churn_rate and rng.churn.random() < spec.churn_rate:
        # Leave now, rejoin later with the pool cache dropped (the
        # rejoin is a fresh resolve — "churn forces re-resolution").
        state.pool = None
        return RoundStep("leave", delay=spec.rejoin_delay, **flags)
    return RoundStep("reschedule", delay=rng.arrivals.next_delay(), **flags)


def population_outcomes(registry: MetricsRegistry,
                        clients: int) -> PopulationOutcomes:
    """Read :class:`PopulationOutcomes` back from a registry.

    Works on a live fleet's registry and equally on a registry folded
    from per-shard snapshots (:func:`repro.telemetry.fold_snapshots`) —
    the sharded engine's way of reporting one population from K worlds.
    """
    rounds = int(registry.value("pop.rounds"))
    rounds_ok = int(registry.value("pop.rounds_ok"))
    syncs = int(registry.value("pop.syncs"))
    victims = int(registry.value("pop.victim_rounds"))
    shifted = registry.get("pop.shifted")
    histogram = registry.get("pop.clock_abs_error")
    ts_victim = registry.get("pop.victim_fraction")
    ts_avail = registry.get("pop.availability")
    return PopulationOutcomes(
        clients=clients,
        rounds=rounds,
        rounds_ok=rounds_ok,
        syncs=syncs,
        victim_rounds=victims,
        availability=rounds_ok / rounds if rounds else 0.0,
        victim_fraction=victims / syncs if syncs else 0.0,
        shifted_fraction=shifted.mean() if shifted is not None else 0.0,
        mean_abs_clock_error=histogram.mean if histogram is not None else 0.0,
        p90_abs_clock_error=(histogram.quantile(0.90)
                             if histogram is not None else 0.0),
        churn_leaves=int(registry.value("pop.churn_leaves")),
        churn_joins=int(registry.value("pop.churn_joins")),
        victim_curve=ts_victim.series() if ts_victim is not None else [],
        availability_curve=ts_avail.series() if ts_avail is not None else [],
    )


class _FleetClient:
    """One population member: host + clock + stub TXID streams (or
    DoH) + SNTP, all over the host's one transport."""

    __slots__ = ("fleet", "index", "host", "clock", "transport", "doh",
                 "ntp", "rng", "streams", "state", "span")

    def __init__(self, fleet: "ClientFleet", index: int, host: Host,
                 clock: SimClock, transport: Transport, ntp: NtpClient,
                 rng: RoundRng, streams: Tuple[ParkedStream, ...],
                 doh=None) -> None:
        self.fleet = fleet
        self.index = index            # global index over the population
        self.host = host
        self.clock = clock
        self.transport = transport    # the host's, shared by stubs and NTP
        self.doh = doh                # DoHClient in transport="doh" mode
        self.ntp = ntp
        self.rng = rng
        # Every stream above, to park/close. In transport="udp" mode
        # streams[pi] is provider pi's TXID stream.
        self.streams = streams
        self.state = ClientRoundState()
        self.span = None              # live "client.round" trace span


class ClientFleet:
    """N resolve→sync clients deployed on an existing topology.

    :param internet: the scenario's packet fabric.
    :param providers: the deployed providers clients query (all of
        them, per Algorithm 1's distributed lookup): each provider's
        plain-DNS address, or in ``transport="doh"`` mode its DoH
        endpoint and TLS name.
    :param pool_domain: the name whose answers form each client's pool.
    :param rng: the scenario's seed universe; the fleet draws every
        client stream from it under the ``("population", ...)`` names.
    :param spec: fleet shape and behaviour
        (:class:`~repro.scenarios.spec.FleetSpec`).
    :param time_bin: width (virtual seconds) of the telemetry time bins
        (:attr:`~repro.scenarios.spec.TelemetrySpec.time_bin`).
    :param nodes: topology nodes clients attach to, round-robin
        (default: every node). Scenario builders pass dedicated access
        edges here so link faults reach the whole population.
    :param attacker_addresses: addresses that count a synced client as
        a victim (forged answers and attacker-enrolled pool members).
    :param registry: telemetry sink; a private one is created when not
        supplied. All client-side instruments (protocol counters
        included) are captured against it.
    :param trust_store: CAs the clients trust (DoH mode).
    :param first_index: global index of this fleet's first client —
        non-zero when the fleet is one shard's window of a larger
        population (see the module docstring).
    :param clients: clients in this fleet (default: ``spec.size``).
    :param population: total population size across every window
        (default: ``spec.size``). Drives arrival phasing and the
        active-clients gauge so per-shard telemetry is
        window-position-independent.
    """

    def __init__(self, internet: Internet,
                 providers: Sequence[ProviderDeployment],
                 pool_domain: "Name | str", rng: RngRegistry,
                 spec: FleetSpec, time_bin: float,
                 nodes: Optional[Sequence[str]] = None,
                 attacker_addresses: Sequence["IPAddress | str"] = (),
                 registry: Optional[MetricsRegistry] = None,
                 trust_store=None, first_index: int = 0,
                 clients: Optional[int] = None,
                 population: Optional[int] = None) -> None:
        self._internet = internet
        self._simulator = internet.simulator
        self._spec = spec
        if spec.transport == "doh":
            self._servers = [(d.endpoint, d.name) for d in providers]
        else:
            # Each provider host's own address object, not a copy: a
            # query's destination then matches the provider's socket
            # and host tables by identity instead of through
            # IPAddress.__eq__.
            self._servers = [Endpoint(d.address, DNS_PORT)
                             for d in providers]
        self._pool_domain = Name(pool_domain)
        self._nodes = list(nodes) if nodes else internet.topology.nodes
        self._rng = rng
        self._trust_store = trust_store
        self._attackers: Set[IPAddress] = {
            IPAddress(a) for a in attacker_addresses}
        self._first_index = int(first_index)
        clients = spec.size if clients is None else int(clients)
        self._population = (int(population) if population is not None
                            else spec.size)
        if not (self._first_index >= 0 and clients >= 1
                and self._first_index + clients
                <= self._population <= MAX_CLIENTS):
            raise ValueError(
                f"window [{self._first_index}, "
                f"{self._first_index + clients}) must be a non-empty "
                f"window of the population "
                f"(got population={self._population}, max {MAX_CLIENTS})")
        self.registry = registry or MetricsRegistry()
        # The stub plumbing every client shares: one endpoint per
        # provider (above), one retry policy, one statistics record.
        self._stub_policy = retry_policy(DNS_TIMEOUT, DNS_RETRIES)
        self._stub_stats = StubStats()
        # Same zero-cost contract as the registry: capture the ambient
        # tracer once; with none installed the round loop allocates
        # nothing trace-related.
        self._tracer = current_tracer()
        self._dispatcher = BatchDispatcher(self._simulator, DISPATCH_QUANTUM)
        self._started = False
        self._build_instruments(time_bin)
        self._clients = [self._build_client(index)
                         for index in range(clients)]
        # The gauge reports the *global* population: every window of the
        # same population publishes the same value at the same virtual
        # times (under churn each shard tracks only its own leavers, so
        # the gauge stays exact only for churn_rate == 0 splits).
        self._active_count = self._population

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _build_instruments(self, bin_width: float) -> None:
        reg = self.registry
        self._m_rounds = reg.counter("pop.rounds")
        self._m_rounds_ok = reg.counter("pop.rounds_ok")
        self._m_rounds_failed = reg.counter("pop.rounds_failed")
        self._m_victims = reg.counter("pop.victim_rounds")
        self._m_syncs = reg.counter("pop.syncs")
        self._m_sync_timeouts = reg.counter("pop.sync_timeouts")
        self._m_leaves = reg.counter("pop.churn_leaves")
        self._m_joins = reg.counter("pop.churn_joins")
        self._m_active = reg.gauge("pop.active_clients")
        self._ts_victim = reg.timeseries("pop.victim_fraction", bin_width)
        self._ts_avail = reg.timeseries("pop.availability", bin_width)
        self._ts_shifted = reg.timeseries("pop.shifted", bin_width)
        self._h_abs_error = reg.histogram("pop.clock_abs_error")
        # Pin the NTP client series' binning before any client exists.
        reg.timeseries("ntp.offset", bin_width)

    def _build_client(self, index: int) -> _FleetClient:
        spec = self._spec
        # Everything about a client keys off its *global* index, so a
        # window build is client-for-client identical to the same
        # client inside one whole-population fleet.
        g = self._first_index + index
        tag = str(g)
        # One pre-hashed ("population", tag) prefix per client: each of
        # the client's streams derives from a digest copy instead of
        # re-hashing the shared path (the construction is bit-identical
        # to the direct derive_seed path — see StreamPrefix).
        streams = self._rng.prefixed("population", tag)
        # 200 clients per /24, 256 blocks per second octet, octets
        # 10.120-10.255: room for MAX_CLIENTS addresses
        # clear of every infrastructure range.
        block, slot = divmod(g, 200)
        address = IPAddress(
            f"10.{120 + block // 256}.{block % 256}.{slot + 1}")
        # Every stream the client draws during rounds is parked: it
        # holds a Mersenne Twister (2.5 KB) only from its first draw in
        # a round until the round concludes. The clock offset is the
        # "client" stream's only draw, so that generator is transient,
        # and "arrival" / "churn" exist only under Poisson arrivals / a
        # nonzero churn rate.
        ports = streams.parked("ports")
        host = self._internet.add_host(Host(
            f"pop-{g}", self._nodes[g % len(self._nodes)], [address],
            rng=ports))
        client_rng = random.Random(streams.derive("client"))
        clock = SimClock(
            lambda: self._simulator.now,
            offset=client_rng.uniform(-spec.initial_clock_error,
                                      spec.initial_clock_error))
        # The host's transport is created here, under the fleet's
        # registry, so transport and stub/NTP counters land next to the
        # population metrics.
        doh = None
        with use_registry(self.registry):
            transport = host.transport(self._simulator)
            if spec.transport == "doh":
                from repro.doh.client import DoHClient
                query_streams = [streams.parked("doh")]
                doh = DoHClient(host, self._simulator, self._trust_store,
                                rng=query_streams[0],
                                timeout=DNS_TIMEOUT, retries=DNS_RETRIES)
            else:
                query_streams = [streams.parked("txid", str(pi))
                                 for pi in range(len(self._servers))]
            ntp = NtpClient(host, self._simulator, clock,
                            timeout=NTP_TIMEOUT)
        arrival = (streams.parked("arrival")
                   if spec.arrival == "poisson" else None)
        arrivals = make_arrivals(
            spec.arrival, spec.mean_interval, g, self._population,
            rng=arrival)
        rng = RoundRng(select=streams.parked("select"),
                       churn=(streams.parked("churn")
                              if spec.churn_rate else None),
                       arrivals=arrivals)
        owned = (*query_streams, ports, rng.select, rng.churn, arrival)
        return _FleetClient(self, g, host, clock, transport, ntp, rng,
                            tuple(s for s in owned if s is not None),
                            doh=doh)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def clients(self) -> int:
        return len(self._clients)

    @property
    def first_index(self) -> int:
        """Global index of this fleet's first client."""
        return self._first_index

    @property
    def population(self) -> int:
        """Total population this fleet is a window of."""
        return self._population

    @property
    def dispatcher(self) -> BatchDispatcher:
        return self._dispatcher

    # ------------------------------------------------------------------
    # Driving.
    # ------------------------------------------------------------------

    def start(self) -> "ClientFleet":
        """Schedule every client's first round; returns self."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self._m_active.set(self._active_count, at=self._simulator.now)
        for client in self._clients:
            self._dispatcher.call_after(client.rng.arrivals.first_delay(),
                                        lambda c=client: self._round(c))
            # A Poisson first delay woke the arrival stream.
            for stream in client.streams:
                stream.park()
        return self

    def run(self, max_events: int = 5_000_000) -> PopulationOutcomes:
        """Start (if needed), drain the simulation, report outcomes.

        :raises SimulationError: when ``max_events`` stops the run with
            events still pending — the outcomes would cover only part
            of the population's rounds.
        """
        if not self._started:
            self.start()
        self._simulator.run_until_idle(max_events=max_events)
        pending = self._simulator.pending_events
        if pending:
            raise SimulationError(
                f"fleet run hit max_events={max_events} with {pending} "
                f"events still pending; its outcomes would be partial")
        return self.outcomes()

    # ------------------------------------------------------------------
    # One client round — the effectful shell around advance_round.
    # ------------------------------------------------------------------

    def _round(self, client: _FleetClient) -> None:
        self._m_rounds.inc()
        tracer = self._tracer
        step = advance_round(self._spec, client.state, client.rng,
                             ROUND_BEGIN)
        if tracer is None:
            self._apply(client, step)
            return
        # The round span lives on the client until the round concludes
        # (which happens through later simulator callbacks); scoping it
        # here parents the resolve fan-out / cached-pool sync under it.
        client.span = tracer.begin(
            "client.round",
            attrs={"client": client.index,
                   "round": client.state.rounds_done})
        with tracer.scope(client.span):
            self._apply(client, step)

    def _apply(self, client: _FleetClient, step: RoundStep) -> None:
        """Perform one :class:`RoundStep`: the I/O, telemetry and
        scheduling half of the round loop."""
        if step.action == "resolve":
            self._resolve(client)
            return
        if step.action == "sync":
            self._ts_avail.record(self._simulator.now, 1.0)
            self._m_rounds_ok.inc()
            pick = step.pick
            if client.span is not None:
                # Which pool member this round disciplines against —
                # the pivot of the victim classification.
                client.span.set(pick=str(pick))
            client.ntp.sample(
                pick,
                lambda sample: self._after_sync(
                    client, sample, attacker=pick in self._attackers))
            return
        # Concluding steps: record how the round ended...
        now = self._simulator.now
        if step.failed:
            self._ts_avail.record(now, 0.0)
            self._m_rounds_failed.inc()
        if step.synced:
            self._m_syncs.inc()
            self._ts_victim.record(now, 1.0 if step.victim else 0.0)
            if step.victim:
                self._m_victims.inc()
            self._h_abs_error.observe(step.clock_error)
            self._ts_shifted.record(now, 1.0 if step.shifted else 0.0)
        if step.timed_out:
            self._m_sync_timeouts.inc()
        if client.span is not None:
            tracer = self._tracer
            span = client.span
            client.span = None
            span.set(outcome=step.action, synced=step.synced,
                     victim=step.victim, shifted=step.shifted)
            if step.failed:
                span.set(failed=True)
            if step.timed_out:
                span.set(timed_out=True)
            if step.synced:
                span.set(clock_error=step.clock_error)
            tracer.finish(span)
        # ...then schedule what comes next. Every draw of the round is
        # behind it (the fleet waited for each answer and for the
        # sync), so a client out of rounds drops its streams for good
        # and one with rounds left parks them until it wakes.
        if step.action == "stop":
            for stream in client.streams:
                stream.close()
            return
        for stream in client.streams:
            stream.park()
        if step.action == "leave":
            self._m_leaves.inc()
            self._active_count -= 1
            self._m_active.set(self._active_count, at=now)

            def rejoin() -> None:
                self._m_joins.inc()
                self._active_count += 1
                self._m_active.set(self._active_count,
                                   at=self._simulator.now)
                self._round(client)

            self._dispatcher.call_after(step.delay, rejoin)
            return
        self._dispatcher.call_after(step.delay,
                                    lambda: self._round(client))

    def _resolve(self, client: _FleetClient) -> None:
        """Algorithm 1's fan-out: one query per provider (plain stub or
        TLS-wrapped DoH, per the configured transport), then feed the
        completed answer set back into the round loop."""
        answers: Dict[int, Optional[List[IPAddress]]] = {}
        expected = len(self._servers)
        tracer = self._tracer
        query_spans: Dict[int, Any] = {}

        def on_answer(provider_index: int,
                      addresses: Optional[List[IPAddress]]) -> None:
            answers[provider_index] = addresses
            if tracer is not None:
                span = query_spans.pop(provider_index, None)
                if span is not None:
                    if addresses is None:
                        span.set(failed=True)
                    else:
                        span.set(answers=[str(a) for a in addresses])
                    tracer.finish(span)
            if len(answers) < expected:
                return
            step = advance_round(self._spec, client.state, client.rng,
                                 ANSWERS_COMPLETE, answers=answers)
            if tracer is None or client.span is None:
                self._apply(client, step)
                return
            # The last answer arrives through a delivery callback whose
            # active span is the inbound flight; re-activate the round
            # span so the combine record (and any follow-on sync
            # exchange) parent under the round, not the wire.
            with tracer.scope(client.span):
                tracer.event(
                    "client.combine",
                    attrs={"client": client.index,
                           "pool": [str(a) for a in (step.pool or [])],
                           "ok": step.action == "sync"})
                self._apply(client, step)

        def issue(provider_index: int, send: Callable[[], None]) -> None:
            if tracer is None:
                send()
                return
            span = query_spans[provider_index] = tracer.begin(
                "client.query", parent=client.span,
                attrs={"provider": provider_index})
            with tracer.scope(span):
                send()

        if client.doh is not None:
            for provider_index, (endpoint, name) in enumerate(
                    self._servers):
                issue(provider_index,
                      lambda e=endpoint, n=name, pi=provider_index:
                      client.doh.query(e, n, self._pool_domain, RRType.A,
                                       lambda outcome, pi=pi:
                                       on_answer(pi, _doh_addresses(outcome))))
        else:
            for provider_index, server in enumerate(self._servers):
                issue(provider_index,
                      lambda s=server, pi=provider_index:
                      stub_query(client.transport, s, self._stub_policy,
                                 client.streams[pi], self._stub_stats,
                                 self._pool_domain, RRType.A,
                                 lambda outcome, pi=pi:
                                 on_answer(pi, outcome.addresses
                                           if outcome.ok else None)))

    def _after_sync(self, client: _FleetClient, sample: NtpSample,
                    attacker: bool) -> None:
        clock_error = 0.0
        if sample.ok:
            # Stepping the clock is an effect of the *exchange*, not a
            # round decision; the loop only classifies the result.
            client.clock.step(sample.offset)
            clock_error = abs(client.clock.error())
        step = advance_round(
            self._spec, client.state, client.rng, SYNC_COMPLETE,
            synced=sample.ok, attacker=attacker, clock_error=clock_error)
        tracer = self._tracer
        if tracer is not None and client.span is not None:
            # Sync completion also arrives through a callback hop —
            # conclude the round under its own span.
            with tracer.scope(client.span):
                self._apply(client, step)
            return
        self._apply(client, step)

    # ------------------------------------------------------------------
    # Outcomes (read back from the registry).
    # ------------------------------------------------------------------

    def outcomes(self) -> PopulationOutcomes:
        return population_outcomes(self.registry, len(self._clients))
