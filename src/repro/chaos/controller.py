"""Executes a :class:`~repro.chaos.spec.ChaosSpec` timeline against a
compiled world.

The controller is built by ``materialize`` when (and only when) the
scenario spec carries chaos events: a chaos-free spec builds no
controller, schedules nothing, draws nothing, and stays byte-identical
to the golden fixtures. Every event schedules an apply callback at its
``at`` (and, for windowed events, a revert at ``at + duration``) on the
world's existing :class:`~repro.netsim.simulator.Simulator`, so chaos
interleaves deterministically with client traffic in virtual time.

Mutation discipline: host crash/restart switches
(``Internet.set_host_down`` / ``set_host_up``) and partition topology
edits are confined to this module — a CI grep bans them elsewhere — so
every infrastructure failure in a run is attributable to a declared,
sweepable chaos event.

Telemetry (all lazily created, so worlds without chaos leave the
registry untouched): a ``chaos.events{kind=...}`` counter per applied
event, a ``chaos.active`` time series marking degraded windows, and one
``chaos.event`` trace span per windowed event.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.chaos.capacity import ServerCapacity
from repro.chaos.spec import (
    CacheWipe,
    ChaosSpec,
    LinkFlap,
    Overload,
    Partition,
    ServerOutage,
)
from repro.core.errors import ConfigurationError
from repro.netsim.link import FaultModel
from repro.telemetry.trace import current_tracer

#: Bin width (virtual seconds) of the ``chaos.active`` series.
ACTIVE_BIN = 1.0


class ChaosController:
    """Schedules and executes one world's chaos timeline.

    :param spec: the timeline to execute.
    :param pool: the compiled :class:`~repro.scenarios.builders.PoolScenario`
        (carries the simulator, internet, providers, DNS servers and
        RNG registry).
    :param ntp_fleet: the deployed :class:`~repro.ntp.pool.NtpFleet`
        for ``scope="pool"`` targets (``None`` in single-client worlds
        without a deployed fleet).
    :param registry: metrics registry for the ``chaos.*`` / ``srv.*``
        instruments (``None`` disables chaos telemetry).
    """

    def __init__(self, spec: ChaosSpec, pool, *, ntp_fleet=None,
                 registry=None) -> None:
        self._spec = spec
        self._pool = pool
        self._ntp_fleet = ntp_fleet
        self._simulator = pool.simulator
        self._internet = pool.internet
        self._topology = pool.internet.topology
        self._rng = pool.rng
        self._registry = registry
        self._tracer = current_tracer()
        #: Applied windows, for introspection/tests:
        #: ``(kind, at, end, targets)`` in schedule order.
        self.windows: List[Tuple[str, float, float, Tuple[str, ...]]] = []
        self._partition_saved: Dict[int, List] = {}
        self._flap_saved: Dict[int, List] = {}
        self._overloaded: Dict[int, List] = {}
        self._ts_active = (registry.timeseries("chaos.active", ACTIVE_BIN)
                          if registry is not None else None)

    @property
    def spec(self) -> ChaosSpec:
        return self._spec

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def install(self) -> "ChaosController":
        """Schedule every event on the simulator; returns self."""
        for index, event in enumerate(self._spec.events):
            if isinstance(event, ServerOutage):
                targets = self._outage_targets(event, index)
                self._schedule_window(
                    index, event, targets,
                    lambda t=targets: self._crash(t),
                    lambda t=targets: self._restart(t))
            elif isinstance(event, LinkFlap):
                self._schedule_window(
                    index, event, tuple(event.links),
                    lambda i=index, e=event: self._flap(i, e),
                    lambda i=index: self._unflap(i))
            elif isinstance(event, Partition):
                self._schedule_window(
                    index, event, tuple(event.isolate),
                    lambda i=index, e=event: self._partition(i, e),
                    lambda i=index: self._heal(i))
            elif isinstance(event, Overload):
                targets = self._overload_targets(event)
                self._schedule_window(
                    index, event, tuple(label for label, _ in targets),
                    lambda i=index, e=event, t=targets:
                        self._overload(i, e, t),
                    lambda i=index: self._relax(i))
            elif isinstance(event, CacheWipe):
                self._simulator.schedule_at(
                    event.at, lambda e=event: self._wipe(e))
            else:  # pragma: no cover - ChaosSpec validates kinds
                raise ConfigurationError(
                    f"unhandled chaos event {type(event).__name__}")
        return self

    def _schedule_window(self, index: int, event, targets: Tuple[str, ...],
                         apply, revert) -> None:
        kind = type(event).KIND
        end = event.at + event.duration

        def do_apply() -> None:
            self._mark(kind, event.at, end, targets)
            apply()

        def do_revert() -> None:
            if self._ts_active is not None:
                self._ts_active.record(self._simulator.now, 0.0)
            revert()

        self._simulator.schedule_at(event.at, do_apply)
        self._simulator.schedule_at(end, do_revert)

    def _mark(self, kind: str, at: float, end: float,
              targets: Tuple[str, ...]) -> None:
        self.windows.append((kind, at, end, targets))
        if self._registry is not None:
            self._registry.counter("chaos.events", kind=kind).inc()
            if self._ts_active is not None:
                self._ts_active.record(at, 1.0)
        if self._tracer is not None:
            self._tracer.span_at(
                "chaos.event", at, max(at, end),
                attrs={"kind": kind, "targets": ",".join(targets)})

    # ------------------------------------------------------------------
    # Target resolution.
    # ------------------------------------------------------------------

    def _scope_hosts(self, scope: str) -> List[str]:
        """Host names a scope addresses, in a deterministic order."""
        if scope == "providers":
            return [deployment.host.name
                    for deployment in self._pool.providers]
        if scope == "dns":
            return [server.host.name for _, server in
                    sorted(self._pool.dns_servers.items())]
        if scope == "pool":
            if self._ntp_fleet is None:
                return []
            return [server.host.name for _, server in
                    sorted(self._ntp_fleet.servers.items(),
                           key=lambda item: str(item[0]))]
        raise ConfigurationError(f"unknown chaos scope {scope!r}")

    def _outage_targets(self, event: ServerOutage,
                        index: int) -> Tuple[str, ...]:
        if event.hosts:
            known = {host.name for host in self._internet.hosts}
            unknown = [name for name in event.hosts if name not in known]
            if unknown:
                raise ConfigurationError(
                    f"chaos outage names unknown hosts {unknown}")
            return tuple(event.hosts)
        names = self._scope_hosts(event.scope)
        if event.fraction <= 0.0 or not names:
            return ()
        count = min(len(names), math.ceil(event.fraction * len(names)))
        # The chaos layer's only randomness: which scope members the
        # fractional outage hits, from a dedicated ("chaos", ...)
        # stream so chaos-free runs draw nothing anywhere.
        rng = self._rng.stream("chaos", "outage", str(index))
        return tuple(sorted(rng.sample(names, count)))

    def _overload_targets(self, event: Overload) -> List[Tuple[str, Tuple]]:
        """(label, serve engines) pairs the overload window gates: one
        queue per label, shared by every engine behind it."""
        targets: List[Tuple[str, Tuple]] = []
        if event.scope == "providers":
            # A provider is one host: its :53 resolver and its DoH front
            # end (when it has one) drain the same queue.
            for deployment in self._pool.providers:
                engines = (deployment.resolver, deployment.doh_server)
                targets.append((deployment.name,
                                tuple(e for e in engines if e is not None)))
        elif event.scope == "dns":
            for name, server in sorted(self._pool.dns_servers.items()):
                targets.append((name, (server,)))
        elif event.scope == "pool" and self._ntp_fleet is not None:
            for address, server in sorted(self._ntp_fleet.servers.items(),
                                          key=lambda item: str(item[0])):
                targets.append((server.host.name, (server,)))
        if event.servers:
            wanted = set(event.servers)
            targets = [(label, engines) for label, engines in targets
                       if label in wanted]
        return targets

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------

    def _crash(self, targets: Tuple[str, ...]) -> None:
        for name in targets:
            self._internet.set_host_down(name)

    def _restart(self, targets: Tuple[str, ...]) -> None:
        for name in targets:
            self._internet.set_host_up(name)

    def _flap(self, index: int, event: LinkFlap) -> None:
        saved = []
        flap = FaultModel(loss_rate=event.loss_rate)
        for name in event.links:
            link = self._link_by_name(name)
            previous = link.fault
            saved.append((link.ends, previous))
            model = previous.compose(flap) if previous is not None else flap
            self._topology.set_fault_model(*link.ends, model)
        self._flap_saved[index] = saved

    def _unflap(self, index: int) -> None:
        for (a, b), previous in self._flap_saved.pop(index, ()):
            self._topology.set_fault_model(a, b, previous)

    def _link_by_name(self, name: str):
        for link in self._topology.links:
            if link.name == name:
                return link
        raise ConfigurationError(
            f"chaos link-flap names unknown link {name!r}; known: "
            f"{[link.name for link in self._topology.links]}")

    def _partition(self, index: int, event: Partition) -> None:
        isolate = set(event.isolate)
        saved = []
        for link in list(self._topology.links):
            a, b = link.ends
            if (a in isolate) != (b in isolate):
                saved.append((a, b, link.profile, link.fault))
                self._topology.remove_link(a, b)
        self._partition_saved[index] = saved

    def _heal(self, index: int) -> None:
        for a, b, profile, fault in self._partition_saved.pop(index, ()):
            self._topology.add_link(a, b, profile)
            if fault is not None:
                self._topology.set_fault_model(a, b, fault)

    def _wipe(self, event: CacheWipe) -> None:
        wanted = set(event.resolvers)
        targets = []
        for deployment in self._pool.providers:
            if not wanted or deployment.name in wanted:
                deployment.resolver.cache.flush()
                targets.append(deployment.name)
        now = self._simulator.now
        self.windows.append((CacheWipe.KIND, now, now, tuple(targets)))
        if self._registry is not None:
            self._registry.counter("chaos.events",
                                   kind=CacheWipe.KIND).inc()
        if self._tracer is not None:
            self._tracer.event("chaos.event", at=now,
                               attrs={"kind": CacheWipe.KIND,
                                      "targets": ",".join(targets)})

    def _overload(self, index: int, event: Overload,
                  targets: List[Tuple[str, Tuple]]) -> None:
        attached = []
        for label, engines in targets:
            capacity = ServerCapacity(
                self._simulator, qps=event.qps,
                queue_depth=event.queue_depth,
                service_time=event.service_time,
                overflow=event.overflow, label=label,
                registry=self._registry)
            for engine in engines:
                engine.capacity = capacity
            attached.extend(engines)
        self._overloaded[index] = attached

    def _relax(self, index: int) -> None:
        for engine in self._overloaded.pop(index, ()):
            engine.capacity = None


def install_chaos(spec, pool, *, ntp_fleet=None,
                  registry=None) -> Optional[ChaosController]:
    """Build and install a controller for ``spec.chaos``; ``None`` when
    the spec has no chaos (the zero-cost steady state)."""
    chaos = getattr(spec, "chaos", None)
    if chaos is None or not chaos.events:
        return None
    controller = ChaosController(chaos, pool, ntp_fleet=ntp_fleet,
                                 registry=registry)
    return controller.install()


__all__ = ["ACTIVE_BIN", "ChaosController", "install_chaos"]
