"""Attacker models.

Each module implements one capability class from the paper's threat
discussion, at the mechanical level the simulation supports — attacks
succeed or fail because of what the protocol code actually checks, not
because of a hard-coded coin flip:

* :mod:`repro.attacks.offpath` — classic off-path DNS poisoning: spray
  forged responses racing the authoritative answer, guessing TXID and
  source port (the attack class of [1] against NTP/Chronos);
* :mod:`repro.attacks.fragmentation` — fragmentation-based poisoning
  (Herzberg & Shulman [5]): overwrite the tail of oversized responses
  without needing TXID/port (they travel in the first fragment);
* :mod:`repro.attacks.mitm` — on-path attackers controlling a subset of
  links: observe/drop/rewrite plaintext, drop/delay (only) TLS;
* :mod:`repro.attacks.compromise` — a corrupted DoH provider answering
  pool queries with attacker-chosen records (substitution, inflation,
  empty-answer DoS);
* :mod:`repro.attacks.overpopulation` — [1]'s anti-Chronos move:
  flooding the answer list with attacker addresses, the attack §II
  footnote 2's truncation neutralises.

Scenario specs install these by data: ``ProviderSpec.corrupted``
compromises providers and ``AttackSpec`` kinds (``mitm``, ``offpath``,
``timeshift``) name the rest (see :mod:`repro.scenarios.spec`).  The
end-to-end time-shift attack (E7) is the ``"e7-timeshift"`` spec
preset, run by :func:`repro.campaign.timeshift_trial`.
"""

from repro.attacks.compromise import CompromisedResolverBehavior, compromise_provider
from repro.attacks.fragmentation import FragmentationPoisoner
from repro.attacks.mitm import OnPathAttacker
from repro.attacks.offpath import OffPathPoisoner, SprayPlan
from repro.attacks.overpopulation import OverPopulationAttack

__all__ = [
    "CompromisedResolverBehavior",
    "compromise_provider",
    "FragmentationPoisoner",
    "OnPathAttacker",
    "OffPathPoisoner",
    "SprayPlan",
    "OverPopulationAttack",
]
