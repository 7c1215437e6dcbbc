"""Attacker models.

Each module implements one capability class from the paper's threat
discussion, at the mechanical level the simulation supports — attacks
succeed or fail because of what the protocol code actually checks, not
because of a hard-coded coin flip:

* :mod:`repro.attacks.offpath` — classic off-path DNS poisoning: spray
  forged responses racing the authoritative answer, guessing TXID and
  source port (the attack class of [1] against NTP/Chronos);
* :mod:`repro.attacks.mitm` — on-path attackers controlling a subset of
  links: observe/drop/rewrite plaintext, drop/delay (only) TLS.  Its
  plaintext rewrite is a superset of fragmentation poisoning
  (Herzberg & Shulman [5]), which can overwrite only the records past
  the first fragment;
* :mod:`repro.attacks.compromise` — a corrupted DoH provider answering
  pool queries with attacker-chosen records (substitution, inflation,
  empty-answer DoS).  Inflation is [1]'s over-population move against
  Chronos, the attack §II footnote 2's truncation neutralises.

Scenario specs install these by data: ``ProviderSpec.corrupted`` and
``ProviderSpec.behavior`` compromise providers, and ``AttackSpec``
kinds (``mitm``, ``offpath``, ``timeshift``) name the rest (see
:mod:`repro.scenarios.spec`); :func:`repro.campaign.spec_trial` runs
them.  E5's over-population sweep is ``provider.behavior="inflate"``
× ``pool.truncation``, and the end-to-end time-shift attack (E7) is
the ``"e7-timeshift"`` spec preset with a
:class:`~repro.scenarios.spec.ClientSpec`.
"""

from repro.attacks.compromise import CompromisedResolverBehavior, compromise_provider
from repro.attacks.mitm import OnPathAttacker
from repro.attacks.offpath import OffPathPoisoner, SprayPlan

__all__ = [
    "CompromisedResolverBehavior",
    "compromise_provider",
    "OnPathAttacker",
    "OffPathPoisoner",
    "SprayPlan",
]
