"""Architecture rules as one table, checked by tier-1.

Each row is a grep gate over the source tree: a pattern, the paths it
searches and the message printed when it fails.
``test_tree_obeys_rule`` runs every row over the tree; a second test
feeds each row a line that breaks it, so a row whose pattern or scope
rots into matching nothing fails here instead of passing silently.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Rule:
    name: str
    #: Python regex matched against each source line.
    pattern: str
    #: Repository-relative directories searched (``*.py`` files).
    paths: Tuple[str, ...]
    message: str

    def violations(self, path: str, text: str) -> List[str]:
        """``path:line: text`` for every line of ``text`` that breaks
        the rule, if ``path`` is in its scope."""
        if not any(path.startswith(prefix + "/") for prefix in self.paths):
            return []
        compiled = re.compile(self.pattern)
        return [f"{path}:{number}: {line}"
                for number, line in enumerate(text.splitlines(), 1)
                if compiled.search(line)]


RULES = (
    # Speed comes from freeing objects, not from steering the cyclic
    # collector: finished exchanges die by refcount (see the
    # netsim/transport.py lifetime contract), recorded spans are rows
    # of atoms (telemetry/trace.py), and the repository benchmark
    # measures with the collector at its defaults. Disabling, freezing,
    # re-thresholding or forcing collections in src/ would hide a
    # reintroduced reference cycle instead of fixing it.
    Rule(name="collector-tuning",
         pattern=r"gc\.(disable|freeze|set_threshold|collect)\b",
         paths=("src",),
         message="collector tuning in src/: break the reference cycle "
                 "instead (tests/netsim/test_exchange_lifetime.py)"),
    # Trace span IDs are counter-derived, never random: the tracing
    # layer importing util.rng, random or uuid would entangle trace
    # identity with simulation randomness and break the bit-identical
    # serial == sharded trace contract.
    Rule(name="span-identity",
         pattern=r"^\s*(from repro\.util|import repro\.util|import random"
                 r"|from random|import uuid|from uuid)",
         paths=("src/repro/telemetry",),
         message="telemetry layer reaching for randomness: span IDs must "
                 "stay counter-derived (deterministic)"),
)

#: One line per rule that breaks it, at a path inside its scope.
SEEDED = {
    "collector-tuning": ("src/repro/netsim/simulator.py", "    gc.freeze()"),
    "span-identity": ("src/repro/telemetry/trace.py", "import random"),
}


def _sources(rule: Rule) -> Iterator[Tuple[str, str]]:
    for prefix in rule.paths:
        for path in sorted((ROOT / prefix).rglob("*.py")):
            yield path.relative_to(ROOT).as_posix(), path.read_text()


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_tree_obeys_rule(rule):
    offenders = [line for path, text in _sources(rule)
                 for line in rule.violations(path, text)]
    assert not offenders, rule.message + "\n" + "\n".join(offenders)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_catches_a_seeded_violation(rule):
    path, line = SEEDED[rule.name]
    assert (ROOT / path).is_file()
    assert rule.violations(path, f"x = 1\n{line}\n") == [
        f"{path}:2: {line}"]


def test_every_rule_has_a_seeded_violation():
    assert sorted(SEEDED) == sorted(rule.name for rule in RULES)


def test_rules_stay_inside_their_scope():
    collector, identity = RULES
    assert not collector.violations("tests/netsim/test_x.py", "gc.collect()")
    assert not identity.violations("src/repro/netsim/transport.py",
                                   "import random")
    assert not collector.violations("src/repro/telemetry/trace.py",
                                    "_is_tracked = gc.is_tracked")
