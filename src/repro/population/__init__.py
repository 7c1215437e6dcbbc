"""Population-scale client fleets over the simulated internet.

Where :mod:`repro.ntp.pool` deploys the *server* side of pool.ntp.org,
this package deploys the *client* side: thousands of resolve→sync
clients with arrival processes and churn, measured through the
streaming telemetry registry. See :mod:`repro.population.fleet` for
the single-world fleet (and the pure round loop it is a shell around)
and :mod:`repro.population.sharding` for the K-world megafleet that
scales the same population past 100k clients.
"""

from repro.population.arrivals import (
    ArrivalProcess,
    PeriodicArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.population.fleet import (
    ANSWERS_COMPLETE,
    ROUND_BEGIN,
    SYNC_COMPLETE,
    BatchDispatcher,
    ClientFleet,
    ClientRoundState,
    PopulationOutcomes,
    RoundRng,
    RoundStep,
    advance_round,
    population_outcomes,
)
from repro.population.sharding import (
    ShardedFleet,
    ShardPlan,
    plan_shards,
    population_invariant,
)

__all__ = [
    "ANSWERS_COMPLETE",
    "ROUND_BEGIN",
    "SYNC_COMPLETE",
    "ArrivalProcess",
    "BatchDispatcher",
    "ClientFleet",
    "ClientRoundState",
    "PeriodicArrivals",
    "PoissonArrivals",
    "PopulationOutcomes",
    "RoundRng",
    "RoundStep",
    "ShardPlan",
    "ShardedFleet",
    "advance_round",
    "make_arrivals",
    "plan_shards",
    "population_invariant",
    "population_outcomes",
]
