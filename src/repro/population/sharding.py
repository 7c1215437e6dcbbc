"""Sharded megafleet execution: one population, K worlds.

A 100k-client population does not fit comfortably in one simulator —
not because the event loop is slow (it is O(bins) thanks to the batch
dispatcher) but because one world holds every client's host and state
at once. The megafleet path instead
splits the population into K contiguous *windows* and materializes each
window as its own complete world from the same :class:`ScenarioSpec`
and seed: same backbone, same DNS tree, same providers, same pool
directory — only the resident client window differs. Shards execute
through the campaign executor layer (serial or fork pool, chosen by
the campaign's own :func:`~repro.campaign.executors.decide_executor`)
and their telemetry snapshots fold back, in shard order, into one
registry.

Why this is exact, not approximate:

* Every client keys its RNG streams, address, node attachment and
  arrival phase off its **global** index over the **global** population
  (see :class:`~repro.population.fleet.ClientFleet`'s window
  parameters), so client ``i`` behaves identically whether it lives in
  a ``shards=1`` world or in window ``k``.
* Every window is built as the same
  :class:`~repro.population.fleet.ClientFleet`, so each client runs the
  one round implementation whatever its window, and a round draws only
  from its own client's streams; execution mode cannot leak into round
  decisions.
* Shard results are JSON registry snapshots; the round trip is exact
  and :func:`~repro.telemetry.fold_snapshots` folds them in shard
  order, so serial and forked execution of the *same* shard split
  produce byte-identical folded snapshots.

What is and is not invariant across different K: infrastructure
metrics (``dns.*``, ``net.*``, ``ntp.*``) replicate per world — K
shards run K recursions' worth of infrastructure — and float
accumulations (histogram totals) depend on how observations group into
shards. The population's *integer-valued* instruments, however, are
window-exact: :func:`population_invariant` selects that subset, and
folding it must agree byte-for-byte between ``shards=1`` and
``shards=K`` runs of a shard-invariant spec (single region, uniform
zero-jitter links, no churn — see ``tests/population/test_sharding.py``
and ``benchmarks/bench_p3_megafleet.py`` for the pinned check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.netsim.simulator import SimulationError
from repro.population.fleet import PopulationOutcomes, population_outcomes
from repro.telemetry.registry import MetricsRegistry, fold_snapshots
from repro.telemetry.trace import current_tracer, fold_trace_snapshots


@dataclass(frozen=True)
class ShardPlan:
    """One shard's window of the population."""

    shard: int
    first_index: int
    size: int


def plan_shards(population: int, shards: int) -> List[ShardPlan]:
    """Split ``population`` clients into contiguous windows.

    The remainder spreads over the first shards (sizes differ by at
    most one); ``shards`` is capped at ``population`` so no shard is
    empty. The split is a pure function of the two integers — the same
    ``(population, shards)`` always yields the same windows, which the
    shard seeds and tests rely on.
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, population)
    base, remainder = divmod(population, shards)
    plans = []
    first = 0
    for shard in range(shards):
        size = base + (1 if shard < remainder else 0)
        plans.append(ShardPlan(shard=shard, first_index=first, size=size))
        first += size
    return plans


def population_invariant(kind: str, name: str,
                         labels: Mapping[str, str]) -> bool:
    """Selects the instruments that are exact across shard counts.

    ``pop.*`` instruments accumulate integers (counts, 0/1 indicator
    sums) or K-invariant gauge values, so any shard split folds to the
    same bytes. The one exception is ``pop.clock_abs_error``: its
    histogram ``total`` is a float sum whose grouping follows the shard
    boundaries, so it is fold-order-exact at fixed K but not across
    different K.
    """
    return name.startswith("pop.") and name != "pop.clock_abs_error"


def _shard_trial(params: Mapping[str, Any], seed: int):
    """Build and run one shard's world; executor-layer trial function.

    Module-level and driven by plain JSON-able ``params`` so fork-pool
    workers can pickle and run it. Every shard receives the *same*
    seed: infrastructure streams replicate identically across shards
    (same pool rotation, same provider behaviour) while client streams
    differ per global client tag.
    """
    from repro.scenarios.spec import ScenarioSpec, _materialize_population

    spec = ScenarioSpec.from_json(params["spec"])
    window = (int(params["first_index"]), int(params["size"]),
              int(params["population"]))
    metrics = {"shard": float(params["shard"])}
    if params.get("trace"):
        # The parent's tracer cannot cross the process boundary; each
        # shard records into its own and ships the snapshot back with
        # its metrics snapshot, to be folded in shard order.
        from repro.telemetry.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            world = _materialize_population(spec, seed, None, window=window)
            world.run(max_events=int(params["max_events"]))
        return (metrics, world.telemetry.snapshot_json(),
                tracer.snapshot_json())
    world = _materialize_population(spec, seed, None, window=window)
    world.run(max_events=int(params["max_events"]))
    return (metrics, world.telemetry.snapshot_json())


class ShardedFleet:
    """K windows of one population, executed as shard trials and folded.

    Duck-types the surface the campaign and bench layers use on a
    :class:`~repro.scenarios.builders.PopulationScenario`: ``run()``,
    ``outcomes()``, ``telemetry``. :func:`repro.scenarios.spec.materialize`
    returns one of these whenever ``spec.fleet.shards > 1``.

    :param spec: the scenario; ``spec.fleet`` must be set. The shard
        count comes from ``spec.fleet.shards`` unless overridden.
    :param seed: the scenario seed, shared by every shard world.
    :param registry: fold target (a private one is created when
        omitted).
    :param shards: override ``spec.fleet.shards`` (tests use this to
        shard a spec without rewriting it).
    :param workers: executor worker cap (default: ``os.cpu_count()``).

    The ``executor`` attribute ("adaptive", "serial" or "processes")
    may be set before :meth:`run` to force a mode; the
    determinism tests run the same split under different modes and
    assert byte-identical folds.
    """

    def __init__(self, spec, seed: int,
                 registry: Optional[MetricsRegistry] = None,
                 shards: Optional[int] = None,
                 workers: Optional[int] = None) -> None:
        if spec.fleet is None:
            raise ValueError("ShardedFleet needs a population spec "
                             "(spec.fleet is None)")
        self.spec = spec
        self.seed = int(seed)
        self.population = spec.fleet.size
        self.plans = plan_shards(self.population,
                                 shards if shards is not None
                                 else spec.fleet.shards)
        self.telemetry = registry if registry is not None else MetricsRegistry()
        # Ambient tracer at construction (materialize runs under the
        # trial's use_tracer scope); shards trace themselves and the
        # folded result grafts back under the current span after run().
        self._tracer = current_tracer()
        self.workers = workers
        self.executor = "adaptive"
        #: Per-shard snapshot_json strings, in shard order (after run).
        self.shard_snapshots: List[str] = []
        #: Per-shard trace snapshot_json strings, in shard order (after
        #: a traced run; empty otherwise).
        self.shard_traces: List[str] = []
        #: The executor mode the run actually used (after run).
        self.executed_mode: Optional[str] = None
        self._ran = False

    @property
    def shards(self) -> int:
        return len(self.plans)

    @property
    def clients(self) -> int:
        return self.population

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def _specs(self, max_events: int) -> List[tuple]:
        spec_json = self.spec.to_json()
        return [
            (_shard_trial, plan.shard, f"shard={plan.shard}",
             {"spec": spec_json, "shard": plan.shard,
              "first_index": plan.first_index, "size": plan.size,
              "population": self.population, "max_events": max_events,
              "trace": self._tracer is not None},
             0, self.seed)
            for plan in self.plans
        ]

    def run(self, max_events: int = 5_000_000) -> PopulationOutcomes:
        """Execute every shard, fold telemetry in shard order, report.

        ``max_events`` caps each shard's own simulator (a shard runs a
        strict subset of the whole population's events, so any cap that
        suffices for ``shards=1`` suffices per shard).

        :raises SimulationError: when any shard's run raised, including
            a shard cut short by ``max_events``.
        """
        if self._ran:
            raise RuntimeError("sharded fleet already ran")
        self._ran = True
        from repro.campaign.executors import decide_executor, dispatch

        records: Dict[int, Any] = {}

        def emit(record) -> None:
            records[record.point_index] = record

        # The campaign's own decision: adaptive mode probes shard 0
        # in-parent as the calibration measurement.
        choice, specs = decide_executor(self._specs(max_events),
                                        self.executor, self.workers, emit)
        self.executed_mode = dispatch(specs, choice, emit).kind
        missing = [plan.shard for plan in self.plans
                   if plan.shard not in records]
        if missing:
            raise RuntimeError(f"shards {missing} produced no record")
        # The executor contains trial exceptions as record errors; a
        # shard that raised (e.g. its run hit ``max_events``) has no
        # telemetry, and folding the rest would report partial outcomes.
        for plan in self.plans:
            error = records[plan.shard].error
            if error:
                raise SimulationError(f"shard {plan.shard} failed: {error}")
        self.shard_snapshots = [records[plan.shard].telemetry
                                for plan in self.plans]
        self.telemetry.merge(fold_snapshots(self.shard_snapshots))
        if self._tracer is not None:
            self.shard_traces = [records[plan.shard].trace
                                 for plan in self.plans]
            self._tracer.absorb(fold_trace_snapshots(self.shard_traces))
        return self.outcomes()

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def outcomes(self) -> PopulationOutcomes:
        """Population outcomes read from the folded registry."""
        return population_outcomes(self.telemetry, self.population)

    def invariant_snapshot_json(self) -> str:
        """Canonical JSON of the shard-count-invariant telemetry subset
        (see :func:`population_invariant`) — the bytes compared between
        ``shards=1`` and ``shards=K`` runs."""
        if not self.shard_snapshots:
            raise RuntimeError("run() the fleet before snapshotting")
        return fold_snapshots(self.shard_snapshots,
                              select=population_invariant).snapshot_json()


def invariant_snapshot_json(registry: MetricsRegistry) -> str:
    """The shard-count-invariant subset of any registry's snapshot —
    apply to a ``shards=1`` world's registry to get the reference bytes
    a :meth:`ShardedFleet.invariant_snapshot_json` must reproduce."""
    return fold_snapshots([registry.snapshot_json()],
                          select=population_invariant).snapshot_json()


def shard_invariant_spec(population: int, rounds: int = 2,
                         corrupted: int = 1, shards: int = 1):
    """A population spec whose invariant telemetry subset is *provably*
    byte-identical across shard counts — the harness behind the
    K=1 == K=N determinism checks.

    Cross-K equality needs every per-world stochastic draw to be either
    client-keyed (global index streams — always invariant) or identical
    in every world regardless of which client window is resident. The
    spec arranges the latter:

    * one population region, so every client shares one attach node and
      one deterministic path to everything;
    * zero jitter on the access link and (via the ``backbone``
      override) on every backbone hop, so packet latencies carry no
      per-world draw positions;
    * a pool TTL covering the whole run and arrival spacing wider than
      one recursion, so exactly one recursion per provider fills every
      world's cache with the same rotation draws;
    * no churn, so the active-clients gauge stays at the global
      population in every shard.
    """
    from repro.scenarios.spec import (
        FleetSpec,
        LinkSpec,
        NetworkSpec,
        PoolSpec,
        ProviderSpec,
        RegionSpec,
        ScenarioSpec,
        TelemetrySpec,
    )

    # >= 2 virtual seconds between consecutive client arrivals: far
    # longer than one zero-jitter recursion, so only the first client
    # ever races the provider caches.
    interval = max(2.0 * population, 16.0)
    horizon = interval * (rounds + 1)
    return ScenarioSpec(
        network=NetworkSpec(
            regions=(RegionSpec(name="mono", attach="eu-central",
                                link=LinkSpec(latency=0.003, jitter=0.0)),),
            backbone=LinkSpec(latency=0.02, jitter=0.0)),
        provider=ProviderSpec(count=3, corrupted=corrupted),
        pool=PoolSpec(ttl=int(horizon) + 60),
        fleet=FleetSpec(size=population, rounds=rounds,
                        mean_interval=interval, shards=shards),
        telemetry=TelemetrySpec(time_bin=10.0))

