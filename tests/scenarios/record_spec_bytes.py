"""Record the canonical JSON bytes of every named scenario spec.

Run from the repository root::

    PYTHONPATH=src python -m tests.scenarios.record_spec_bytes

:func:`specs` names every spec the project builds by name: each
``SPEC_PRESETS`` builder (at its defaults, or
:data:`PRESET_ARGS`), the golden scenarios
(``tests/golden/scenarios.SPECS``), the trace-digest worlds
(``tests/golden/trace_worlds.WORLDS``), the three perf fleet workloads
at their full and smoke sizes (``benchmarks/perf/unit.fleet_spec``,
read-only), and two specs that carry explicit values through the
keyword builder: a custom resolver and explicit provider profiles.
``fixtures/spec_bytes.json`` keeps the SHA-256 of each spec's
``to_json()``. Campaign fingerprints, cache keys and result files all
hash these bytes, so a refactor of the spec classes must leave the
fixture as it is; record it only from a tree whose specs are trusted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "spec_bytes.json"

#: The perf fleet workloads whose specs are pinned.
PERF_FLEETS = ("udp-fleet", "doh-fleet", "iterative-chaos")

#: Arguments for the presets that have required parameters.
PRESET_ARGS = {"large-scale": {"num_providers": 5},
               "lossy-network": {"loss": 0.1}}


def _custom_resolver():
    from repro.scenarios.spec import ResolverSpec, pool_spec
    return pool_spec(num_providers=1, resolver_config=ResolverSpec(
        query_timeout=0.3, max_retries_per_server=0, txid_bits=8,
        randomize_txid=False, cache_max_entries=64))


def _explicit_profiles():
    from repro.doh.providers import CLOUDFLARE, DoHProviderProfile
    from repro.scenarios.spec import pool_spec
    return pool_spec(num_providers=2, profiles=[
        CLOUDFLARE,
        DoHProviderProfile("doh.asia.example", "asia-east", "10.53.0.9")])


def specs() -> Dict[str, Callable[[], object]]:
    """Fixture key -> zero-argument spec builder."""
    from benchmarks.perf.unit import SIZES, fleet_spec
    from repro.scenarios.presets import SPEC_PRESETS
    from tests.golden.scenarios import SPECS
    from tests.golden.trace_worlds import WORLDS

    named: Dict[str, Callable[[], object]] = {}
    for name, build in SPEC_PRESETS.items():
        named[f"preset/{name}"] = (
            lambda b=build, n=name: b(**PRESET_ARGS.get(n, {})))
    for name, build in SPECS.items():
        named[f"golden/{name}"] = build
    for name, build in WORLDS.items():
        named[f"trace/{name}"] = build
    for workload in PERF_FLEETS:
        for size, (clients, rounds) in SIZES[workload].items():
            named[f"perf/{workload}/{size}"] = (
                lambda w=workload, c=clients, r=rounds: fleet_spec(w, c, r))
    named["custom/resolver"] = _custom_resolver
    named["custom/profiles"] = _explicit_profiles
    return named


def digest(spec) -> str:
    return hashlib.sha256(spec.to_json().encode()).hexdigest()


def record() -> Dict[str, str]:
    return {key: digest(build()) for key, build in specs().items()}


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {FIXTURE_PATH}")
