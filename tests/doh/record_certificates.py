"""Record every provider certificate of two seeded worlds.

Run from the repository root::

    PYTHONPATH=src python -m tests.doh.record_certificates

:data:`WORLDS` names two single-client worlds: the three Figure 1
providers, and five providers of which two are synthetic.
``fixtures/provider_certificates.json`` keeps ``(subject, serial,
fingerprint hex)`` for every provider of each, in deployment order.
The fingerprint hashes subject, issuer, public key and serial, so it
pins the provider's key pair as well as the CA's issuance order.
Record it only from a tree whose certificates are already trusted; a
change to how or when certificates are made must leave it as it is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "provider_certificates.json"

#: (fixture key, provider count, seed) of each recorded world.
WORLDS: Tuple[Tuple[str, int, int], ...] = (
    ("figure1", 3, 23),
    ("five-providers", 5, 2323),
)


def certificates(world) -> List[List]:
    """``[subject, serial, fingerprint hex]`` per provider, in
    deployment order."""
    return [[p.certificate.subject, p.certificate.serial,
             p.certificate.fingerprint.hex()] for p in world.providers]


def build(count: int, seed: int):
    from repro.scenarios import materialize, pool_spec
    return materialize(pool_spec(num_providers=count), seed)


def record() -> Dict[str, Dict]:
    return {key: {"providers": count, "seed": seed,
                  "certificates": certificates(build(count, seed))}
            for key, count, seed in WORLDS}


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {FIXTURE_PATH}")
