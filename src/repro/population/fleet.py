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
  Between rounds a stream is its seed plus the number of words it has
  drawn; a round in flight draws through a
  :class:`~repro.util.rng.ParkedStream` rebuilt from the two, so every
  draw keeps the value one long-lived generator would give.
* **Shared plumbing** — what every client sends through is built once
  per fleet: one :class:`~repro.netsim.address.Endpoint` per provider
  (over the provider host's own address object) and one retry policy
  per ``(timeout, retries)``. A client's host has one
  :class:`~repro.netsim.transport.Transport`, which carries its stub
  queries and its SNTP exchanges alike.
* **Clients as rows** — between rounds a client is its registered
  :class:`~repro.netsim.host.Host` plus one row of per-fleet columns
  indexed by window position: rounds done, the cached pool, the clock
  offset, and each stream's seed and word count (or a closed mark).
  The objects only a round in flight reads (round state and
  randomness, the clock view, the SNTP and DoH clients, the round's
  trace span) are built when the client wakes and dropped when its
  round concludes. The host stays registered, so a late reply to a
  finished round still lands on the host and drops as ``no-socket``.
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
from array import array
from dataclasses import dataclass, field
from functools import partial
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

#: A row's word count once its client has stopped: the stream is
#: closed, and a draw from it raises StreamClosedError.
_CLOSED = -1

#: The port stream a client host holds between rounds: closed, so a
#: port drawn outside a round raises instead of drawing out of turn.
_NO_PORTS = ParkedStream(0, None)


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


class _LiveRound:
    """One client's round in flight: the objects only a running round
    reads, built from the client's row when it wakes
    (:meth:`ClientFleet._open_round`) and dropped when the round
    concludes (:meth:`ClientFleet._close_round`)."""

    __slots__ = ("row", "index", "host", "transport", "clock", "ntp", "doh",
                 "streams", "rng", "state", "span")

    def __init__(self, row: int, index: int, host: Host,
                 transport: Transport, clock: SimClock, ntp: NtpClient,
                 doh, streams: List[ParkedStream], rng: RoundRng,
                 state: ClientRoundState) -> None:
        self.row = row                # window position: the column index
        self.index = index            # global index over the population
        self.host = host
        self.transport = transport    # the host's, shared by stubs and NTP
        self.clock = clock
        self.ntp = ntp
        self.doh = doh                # DoHClient in transport="doh" mode
        # One stream per column of the row, in ClientFleet._kinds order:
        # the query streams first (streams[pi] is provider pi's TXID
        # stream in transport="udp" mode).
        self.streams = streams
        self.rng = rng
        self.state = state
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
        simulator = self._simulator
        # Every round's clock view reads virtual true time through this.
        self._true_time = lambda: simulator.now
        # The streams of a row, in column order: the query streams (one
        # TXID stream per provider, or the DoH stream), the host's
        # ports, select, then churn and arrival where the spec draws
        # them.
        kinds = ([("doh",)] if spec.transport == "doh"
                 else [("txid", str(pi)) for pi in range(len(self._servers))])
        self._ports_at = len(kinds)
        kinds += [("ports",), ("select",)]
        self._churn_at = self._arrival_at = None
        if spec.churn_rate:
            self._churn_at = len(kinds)
            kinds.append(("churn",))
        if spec.arrival == "poisson":
            self._arrival_at = len(kinds)
            kinds.append(("arrival",))
        self._kinds = tuple(kinds)
        self._stride = len(kinds)
        # The rows: one entry per client in each column (one entry per
        # stream in the seed and word columns), indexed by window
        # position.
        self._hosts: List[Host] = []
        self._seeds = array("Q")
        self._words = array("q", bytes(8 * self._stride * clients))
        self._offsets = array("d")
        self._rounds_done = array("q", bytes(8 * clients))
        self._pools: List[Optional[List[IPAddress]]] = [None] * clients
        for index in range(clients):
            self._add_row(index)
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

    def _add_row(self, index: int) -> None:
        spec = self._spec
        # Everything about a client keys off its *global* index, so a
        # window build is client-for-client identical to the same
        # client inside one whole-population fleet.
        g = self._first_index + index
        # One pre-hashed ("population", tag) prefix per client: each of
        # the client's seeds derives from a digest copy instead of
        # re-hashing the shared path (the construction is bit-identical
        # to the direct derive_seed path — see StreamPrefix).
        prefix = self._rng.prefixed("population", str(g))
        # 200 clients per /24, 256 blocks per second octet, octets
        # 10.120-10.255: room for MAX_CLIENTS addresses
        # clear of every infrastructure range.
        block, slot = divmod(g, 200)
        address = IPAddress(
            f"10.{120 + block // 256}.{block % 256}.{slot + 1}")
        host = self._internet.add_host(Host(
            f"pop-{g}", self._nodes[g % len(self._nodes)], [address],
            rng=_NO_PORTS))
        # The host's transport is created here, under the fleet's
        # registry, so transport and stub/NTP counters land next to the
        # population metrics.
        with use_registry(self.registry):
            host.transport(self._simulator)
        self._hosts.append(host)
        self._seeds.extend([prefix.derive(*names) for names in self._kinds])
        # The clock offset is the "client" stream's only draw, so that
        # generator is transient.
        self._offsets.append(random.Random(prefix.derive("client")).uniform(
            -spec.initial_clock_error, spec.initial_clock_error))

    def _stream(self, row: int, kind: int) -> ParkedStream:
        """Stream ``kind`` (a position in ``_kinds``) of a row, resumed
        from its seed and word count."""
        at = row * self._stride + kind
        words = self._words[at]
        return ParkedStream(self._seeds[at],
                            None if words == _CLOSED else words)

    def _arrivals(self, g: int,
                  stream: Optional[ParkedStream]) -> ArrivalProcess:
        spec = self._spec
        return make_arrivals(spec.arrival, spec.mean_interval, g,
                             self._population, rng=stream)

    def _open_round(self, row: int) -> _LiveRound:
        """Build the objects a round of the client at ``row`` reads."""
        spec = self._spec
        simulator = self._simulator
        streams = [self._stream(row, kind) for kind in range(self._stride)]
        host = self._hosts[row]
        host.rng = streams[self._ports_at]
        clock = SimClock(self._true_time, offset=self._offsets[row])
        doh = None
        if spec.transport == "doh":
            from repro.doh.client import DoHClient
            doh = DoHClient(host, simulator, self._trust_store,
                            rng=streams[0], timeout=DNS_TIMEOUT,
                            retries=DNS_RETRIES)
        g = self._first_index + row
        rng = RoundRng(
            select=streams[self._ports_at + 1],
            churn=None if self._churn_at is None else streams[self._churn_at],
            arrivals=self._arrivals(g, None if self._arrival_at is None
                                    else streams[self._arrival_at]))
        return _LiveRound(
            row, g, host, host.transport(simulator), clock,
            NtpClient(host, simulator, clock, timeout=NTP_TIMEOUT), doh,
            streams, rng, ClientRoundState(pool=self._pools[row],
                                           rounds_done=self._rounds_done[row]))

    def _close_round(self, client: _LiveRound, stop: bool) -> None:
        """Write a concluded round back into its row.

        Every draw of the round is behind it (the fleet waited for each
        answer and for the sync), so the word counts are final. The
        round's stream objects are closed, so none of them can draw
        outside its row; a client out of rounds closes its row's
        streams for good and drops its pool."""
        row = client.row
        self._rounds_done[row] = client.state.rounds_done
        self._pools[row] = None if stop else client.state.pool
        self._offsets[row] = client.clock.offset
        words = self._words
        at = row * self._stride
        for stream in client.streams:
            words[at] = _CLOSED if stop else stream.words
            stream.close()
            at += 1
        client.host.rng = _NO_PORTS

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def clients(self) -> int:
        return len(self._hosts)

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
        arrival_at = self._arrival_at
        for row in range(len(self._hosts)):
            stream = (None if arrival_at is None
                      else self._stream(row, arrival_at))
            self._dispatcher.call_after(
                self._arrivals(self._first_index + row, stream).first_delay(),
                partial(self._wake, row))
            if stream is not None:
                # A Poisson first delay drew from the arrival stream.
                self._words[row * self._stride + arrival_at] = stream.words
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

    def _wake(self, row: int) -> None:
        self._round(self._open_round(row))

    def _rejoin(self, row: int) -> None:
        self._m_joins.inc()
        self._active_count += 1
        self._m_active.set(self._active_count, at=self._simulator.now)
        self._wake(row)

    def _round(self, client: _LiveRound) -> None:
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

    def _apply(self, client: _LiveRound, step: RoundStep) -> None:
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
        # ...then fold the round back into its row and schedule what
        # comes next.
        self._close_round(client, stop=step.action == "stop")
        if step.action == "stop":
            return
        if step.action == "leave":
            self._m_leaves.inc()
            self._active_count -= 1
            self._m_active.set(self._active_count, at=now)
            self._dispatcher.call_after(step.delay,
                                        partial(self._rejoin, client.row))
            return
        self._dispatcher.call_after(step.delay,
                                    partial(self._wake, client.row))

    def _resolve(self, client: _LiveRound) -> None:
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

    def _after_sync(self, client: _LiveRound, sample: NtpSample,
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
        return population_outcomes(self.registry, len(self._hosts))
