"""The campaign store: one append-only record log per campaign.

Every campaign fingerprint owns one JSONL log,
``<name>-<fingerprint16>.jsonl`` — one line per finished trial, flushed
as it lands. The same file is both the resume journal and the result
cache; only its trailer tells the two apart:

* **unsealed** — the log grows in ``journal_dir`` (or directly in
  ``cache_dir`` when that is the only directory set) while its campaign
  runs. A killed sweep leaves it unsealed; the next run replays every
  logged ``(point key, trial)`` identity and executes only what is
  missing. Because per-trial seeds derive from that identity — never
  from execution order — the resumed records are bit-identical to an
  uninterrupted run's.
* **sealed** — a run with no errored trial appends the trailer
  ``{"complete": true}`` and moves the log into ``cache_dir`` (or
  deletes it when there is none). A sealed log is a cache hit: the
  runner replays it through the very same path, and nothing executes.

A fingerprint change (code edit, grid change, different base seed)
changes the *filename*, so a stale log can never leak records into a
different campaign. A trailing line cut short by a kill simply fails to
parse and is dropped — the trial it described re-runs. ``cache_dir`` is
bounded by :func:`sweep`, an LRU eviction over store logs only.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
from pathlib import Path
from typing import Any, Dict, IO, Mapping, Optional, Tuple

from repro.campaign.aggregate import TrialRecord

logger = logging.getLogger("repro.campaign")

#: One recovered log entry, pre-validation: the raw dict of a line.
Entry = Dict[str, Any]

#: The last line of a sealed (complete) log.
TRAILER: Entry = {"complete": True}

#: Filenames :func:`sweep` may evict: ``<name>-<fingerprint16>.jsonl``.
_STORE_NAME = re.compile(r".+-[0-9a-f]{16}\.jsonl")


def journal_path(directory: Path, name: str, fingerprint: str) -> Path:
    """``<directory>/<name>-<fingerprint16>.jsonl``, with the campaign
    name reduced to filename-safe characters."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return Path(directory) / f"{safe}-{fingerprint[:16]}.jsonl"


def rehydrate(entry: Optional[Entry], point_index: int, key: str,
              params: Mapping[str, Any], trial: int,
              seed: int) -> Optional[TrialRecord]:
    """A logged entry as a live record, or ``None``.

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
    """The append-only record log of one campaign fingerprint."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._handle: Optional[IO[str]] = None
        self._appended = False
        self._torn = False
        #: Whether the recovered log ended in :data:`TRAILER`.
        self.sealed = False

    @classmethod
    def open(cls, name: str, fingerprint: str,
             journal_dir: Optional[Path],
             cache_dir: Optional[Path]) -> "Optional[CampaignJournal]":
        """The log for one campaign run, or ``None`` with no directory.

        A log already filed in ``cache_dir`` (sealed, or left unsealed
        by a killed cache-only run) wins; otherwise the log grows in
        ``journal_dir``, falling back to ``cache_dir``.
        """
        home = journal_dir if journal_dir is not None else cache_dir
        if home is None:
            return None
        if cache_dir is not None:
            filed = journal_path(cache_dir, name, fingerprint)
            if filed.exists():
                return cls(filed)
        return cls(journal_path(home, name, fingerprint))

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def recover(self) -> Dict[Tuple[str, int], Entry]:
        """Entries from a previous run, latest line wins.

        Lines that fail to parse (the torn tail of a killed write) or
        lack the identity fields are dropped; the runner re-validates
        each entry's seed against its own derivation before trusting it.
        Sets :attr:`sealed` when the last line is the trailer.
        """
        recovered: Dict[Tuple[str, int], Entry] = {}
        try:
            text = self._path.read_text()
        except OSError:
            return recovered
        # A kill mid-write leaves a partial last line; the next append
        # must start on a fresh line or it would be glued to the tear.
        self._torn = bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            if not line.strip():
                continue
            self.sealed = False
            try:
                entry = json.loads(line)
                if entry == TRAILER:
                    self.sealed = True
                    continue
                identity = (str(entry["point_key"]), int(entry["trial"]))
                int(entry["seed"])
                if not isinstance(entry["metrics"], dict):
                    continue
            except (ValueError, KeyError, TypeError):
                continue
            recovered[identity] = entry
        if recovered and not self.sealed:
            logger.info("campaign store: recovered %d completed trial(s) "
                        "from %s", len(recovered), self._path)
        return recovered

    # ------------------------------------------------------------------
    # Appending.
    # ------------------------------------------------------------------

    def append(self, record: TrialRecord) -> None:
        """Log one finished trial (flushed so a kill loses at most the
        in-flight line)."""
        entry = {"point_key": record.point_key, "trial": record.trial,
                 "seed": record.seed, "metrics": dict(record.metrics)}
        if record.telemetry is not None:
            entry["telemetry"] = record.telemetry
        if record.trace is not None:
            entry["trace"] = record.trace
        self._write(entry)

    def _write(self, entry: Entry) -> bool:
        """Best-effort: an unwritable log degrades to a campaign that
        neither resumes nor caches, never to a failed one."""
        try:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self._path.open("a")
            self._handle.write("\n" * self._torn
                               + json.dumps(entry, sort_keys=True) + "\n")
            self._handle.flush()
        except OSError:
            logger.warning("campaign store write failed at %s", self._path)
            self.close()
            return False
        self._appended = True
        self._torn = False
        return True

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def seal(self, cache_dir: Optional[Path]) -> Optional[Path]:
        """Mark the campaign complete and file its log.

        Appends :data:`TRAILER` (a replayed sealed log only has its
        mtime refreshed, the LRU recency signal), then moves the log
        into ``cache_dir`` — or deletes it when there is none. Returns
        the sealed log's path, or ``None`` when nothing was kept.
        """
        if self.sealed and not self._appended:
            try:
                os.utime(self._path, None)
            except OSError:
                pass
        elif not self._write(TRAILER):
            return None
        self.close()
        if cache_dir is None:
            try:
                self._path.unlink(missing_ok=True)
            except OSError:
                logger.warning("campaign store: could not remove %s",
                               self._path)
            return None
        target = Path(cache_dir) / self._path.name
        if target != self._path:
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(str(self._path), str(target))
            except OSError:
                logger.warning("campaign store: could not move %s into %s",
                               self._path, cache_dir)
                return None
        return target

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


def sweep(cache_dir: Path, max_bytes: int, protect: Path) -> None:
    """Evict least-recently-used store logs above ``max_bytes``.

    Only files named like store logs are candidates; anything else in
    ``cache_dir`` is left alone. mtime is the recency signal: appends
    and seals write a log and cache hits touch it, so eviction order
    tracks actual use. Ties break on name for determinism. ``protect``
    (the log this sweep runs on behalf of) is always exempt — without
    it, a single log larger than the cap would evict *itself* right
    after being sealed, turning every run into a write/evict loop.
    Best-effort — a vanished file (concurrent campaign) is skipped.
    """
    entries = []
    for path in Path(cache_dir).glob("*.jsonl"):
        if not _STORE_NAME.fullmatch(path.name):
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, path.name, stat.st_size, path))
    total = sum(size for _, _, size, _ in entries)
    for _, _, size, path in sorted(entries):
        if total <= max_bytes:
            return
        if path == protect:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        logger.info("campaign cache: evicted %s (%d bytes, LRU sweep; "
                    "%d bytes still cached, cap %d)",
                    path, size, total, max_bytes)
