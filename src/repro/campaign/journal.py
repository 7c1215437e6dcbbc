"""Per-point completion journal: campaigns that survive being killed.

A :class:`CampaignJournal` is an append-only JSONL file recording every
finished trial of one campaign *while it runs* — one line per record,
flushed as it lands — keyed on disk by the same content-hash
fingerprint the result cache uses (``<name>-<fingerprint16>.jsonl``).
A killed sweep therefore restarts where it stopped: on the next run the
runner recovers the journal, skips every recovered ``(point key,
trial)`` identity, and executes only what is missing. Because per-trial
seeds derive from that identity — never from execution order — the
resumed campaign's records are bit-identical to an uninterrupted run's.

The journal's lifecycle brackets the result cache's: it exists only
while its campaign is incomplete. A run that finishes writes the cache
entry and deletes its journal; a fingerprint change (code edit, grid
change, different base seed) changes the journal *filename*, so a stale
journal can never leak records into a different campaign. A trailing
line cut short by the kill simply fails to parse and is dropped — the
trial it described re-runs.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Any, Dict, IO, Mapping, Optional, Tuple

from repro.campaign.aggregate import TrialRecord

logger = logging.getLogger("repro.campaign")

#: One recovered journal entry, pre-validation: the raw dict of a line.
Entry = Dict[str, Any]


def store_path(directory: Path, name: str, fingerprint: str,
               suffix: str) -> Path:
    """``<directory>/<name>-<fingerprint16><suffix>``, with the campaign
    name reduced to filename-safe characters (the journal and the
    result cache share this layout)."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return directory / f"{safe}-{fingerprint[:16]}{suffix}"


def journal_path(journal_dir: Path, name: str, fingerprint: str) -> Path:
    """Where the journal for campaign ``name``/``fingerprint`` lives."""
    return store_path(journal_dir, name, fingerprint, ".jsonl")


def rehydrate(entry: Optional[Entry], point_index: int, key: str,
              params: Mapping[str, Any], trial: int,
              seed: int) -> Optional[TrialRecord]:
    """A journaled or cached entry as a live record, or ``None``.

    The entry's seed must equal the live derivation and its metrics
    must all be numbers; anything else (drifted content, a hand-edited
    or truncated file) is a miss, never a crash.  Params come from the
    live spec, so Python types survive the JSON round trip.
    """
    if entry is None or entry.get("seed") != seed:
        return None
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict):
        return None
    try:
        metrics = {str(k): float(v) for k, v in metrics.items()}
    except (TypeError, ValueError):
        return None
    return TrialRecord(point_index=point_index, point_key=key, params=params,
                       trial=trial, seed=seed, metrics=metrics,
                       telemetry=entry.get("telemetry"),
                       trace=entry.get("trace"))


class CampaignJournal:
    """Append-only completion journal for one campaign fingerprint."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._handle: Optional[IO[str]] = None

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def recover(self) -> Dict[Tuple[str, int], Entry]:
        """Entries from a previous interrupted run, latest line wins.

        Lines that fail to parse (the torn tail of a killed write) or
        lack the identity fields are dropped; the runner re-validates
        each entry's seed against its own derivation before trusting it.
        """
        if not self._path.exists():
            return {}
        recovered: Dict[Tuple[str, int], Entry] = {}
        try:
            text = self._path.read_text()
        except OSError:
            return {}
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                identity = (str(entry["point_key"]), int(entry["trial"]))
                int(entry["seed"])
                if not isinstance(entry["metrics"], dict):
                    continue
            except (ValueError, KeyError, TypeError):
                continue
            recovered[identity] = entry
        if recovered:
            logger.info("campaign journal: recovered %d completed trial(s) "
                        "from %s", len(recovered), self._path)
        return recovered

    # ------------------------------------------------------------------
    # Appending.
    # ------------------------------------------------------------------

    def append(self, record: TrialRecord) -> None:
        """Journal one finished trial (flushed so a kill loses at most
        the in-flight line). Best-effort like the result cache — an
        unwritable journal degrades to a non-resumable campaign."""
        entry = {"point_key": record.point_key, "trial": record.trial,
                 "seed": record.seed, "metrics": dict(record.metrics)}
        if record.telemetry is not None:
            entry["telemetry"] = record.telemetry
        if record.trace is not None:
            entry["trace"] = record.trace
        try:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self._path.open("a")
            self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
            self._handle.flush()
        except OSError:
            logger.warning("campaign journal write failed at %s", self._path)
            self.close()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def discard(self) -> None:
        """Delete the journal — its campaign completed (the result
        cache, when configured, now owns the records)."""
        self.close()
        try:
            self._path.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            logger.warning("campaign journal: could not remove %s",
                           self._path)
