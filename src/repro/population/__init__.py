"""Population-scale client fleets over the simulated internet.

Where :mod:`repro.ntp.pool` deploys the *server* side of pool.ntp.org,
this package deploys the *client* side: thousands of resolve→sync
clients with periodic or Poisson arrivals and churn, measured through
the streaming telemetry registry. See :mod:`repro.population.fleet` for
the single-world fleet, whose :class:`ClientFleet` runs every client
round, and :mod:`repro.population.sharding` for the K-world megafleet
that scales the same population past 100k clients by building each
window with that same class.
"""

from repro.population.fleet import (
    BatchDispatcher,
    ClientFleet,
    PopulationOutcomes,
    population_outcomes,
)
from repro.population.sharding import (
    ShardedFleet,
    ShardPlan,
    plan_shards,
    population_invariant,
)

__all__ = [
    "BatchDispatcher",
    "ClientFleet",
    "PopulationOutcomes",
    "ShardPlan",
    "ShardedFleet",
    "plan_shards",
    "population_invariant",
    "population_outcomes",
]
