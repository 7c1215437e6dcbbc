"""Resumable campaigns: the campaign store's record log and
kill-and-resume.

The centrepiece SIGKILLs a real mid-flight campaign subprocess, reruns
it, and asserts (a) the resumed records are bit-identical to an
uninterrupted run's and (b) logged trials were not re-executed. The
same log, once sealed into ``cache_dir``, is the campaign's cache hit.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignJournal, CampaignRunner, ParameterGrid
from repro.campaign.journal import journal_path

from tests.campaign import _resume_driver
from tests.campaign._resume_driver import (
    records_payload,
    run_campaign,
    slow_logged_trial,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def logged_seeds(log_path: Path) -> set:
    if not log_path.exists():
        return set()
    return {int(line) for line in log_path.read_text().split() if line}


def journaled_seeds(journal_file: Path) -> set:
    """The trial seeds a killed campaign's record log holds.

    A SIGKILL can tear the log's last line, and replay drops a torn
    tail, so only a *final* line that does not parse is skipped; a
    malformed line anywhere before it still fails the test.
    """
    lines = [line for line in journal_file.read_text().splitlines()
             if line.strip()]
    seeds = set()
    for position, line in enumerate(lines):
        try:
            seeds.add(int(json.loads(line)["seed"]))
        except ValueError:
            if position < len(lines) - 1:
                raise
    return seeds


class TestKillAndResume:
    def _spawn(self, journal_dir: Path, out_json: Path, log: Path,
               sleep_s: float, grid: str = "",
               store: str = "journal") -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                             + str(REPO_ROOT)
                             + (os.pathsep + env["PYTHONPATH"]
                                if env.get("PYTHONPATH") else ""))
        env["RESUME_LOG"] = str(log)
        env["RESUME_SLEEP"] = str(sleep_s)
        if grid:
            env["RESUME_GRID"] = grid
        else:
            env.pop("RESUME_GRID", None)
        env["RESUME_STORE"] = store
        return subprocess.Popen(
            [sys.executable, "-m", "tests.campaign._resume_driver",
             str(journal_dir), str(out_json)],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def _wait_for_journal_lines(self, journal_dir: Path, minimum: int,
                                timeout_s: float = 60.0) -> Path:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            files = list(journal_dir.glob("*.jsonl"))
            if files:
                # Count newline-terminated lines only: the writer may
                # be mid-line, and the kill that follows can tear it.
                lines = [line for line in
                         files[0].read_text().split("\n")[:-1]
                         if line.strip()]
                if len(lines) >= minimum:
                    return files[0]
            time.sleep(0.01)
        raise AssertionError(
            f"journal never reached {minimum} complete lines")

    def test_sigkill_mid_campaign_then_resume_bit_identical(self, tmp_path):
        journal_dir = tmp_path / "journal"
        log_1, log_2 = tmp_path / "exec1.log", tmp_path / "exec2.log"
        out_interrupted = tmp_path / "never-written.json"
        out_resumed = tmp_path / "resumed.json"

        # Phase 1: a slow campaign, SIGKILLed after >= 2 journal lines.
        victim = self._spawn(journal_dir, out_interrupted, log_1,
                             sleep_s=0.2)
        try:
            journal_file = self._wait_for_journal_lines(journal_dir, 2)
        finally:
            victim.kill()    # SIGKILL: no cleanup, no atexit, no flush
            victim.wait(timeout=30)
        assert not out_interrupted.exists(), \
            "campaign finished before it could be interrupted"
        journaled = journaled_seeds(journal_file)
        assert len(journaled) >= 2

        # Phase 2: rerun (fast trials now) — must complete and resume.
        resumer = self._spawn(journal_dir, out_resumed, log_2, sleep_s=0.0)
        assert resumer.wait(timeout=120) == 0
        resumed = json.loads(out_resumed.read_text())
        assert resumed["resumed"] == len(journaled)

        # Completed points were not re-executed...
        assert not journaled & logged_seeds(log_2)
        # ...and the journal is gone now that the campaign completed.
        assert not list(journal_dir.glob("*.jsonl"))

        # Reference: one uninterrupted run, fresh journal dir.
        os.environ.pop("RESUME_LOG", None)
        os.environ["RESUME_SLEEP"] = "0"
        try:
            reference = run_campaign(tmp_path / "fresh-journal")
        finally:
            os.environ.pop("RESUME_SLEEP", None)
        assert (json.dumps(resumed["records"], sort_keys=True)
                == records_payload(reference))

    def test_sigkill_cache_only_campaign_then_resume_and_hit(self, tmp_path):
        """With only ``cache_dir`` set the log grows in the cache
        directory itself: a killed run leaves it unsealed there, the
        rerun replays it without re-executing anything logged and seals
        it, and a third run is a pure cache hit."""
        cache_dir = tmp_path / "cache"
        log_1, log_2, log_3 = (tmp_path / f"exec{i}.log" for i in (1, 2, 3))
        out_resumed, out_cached = tmp_path / "resumed.json", \
            tmp_path / "cached.json"

        victim = self._spawn(cache_dir, tmp_path / "never.json", log_1,
                             sleep_s=0.2, store="cache")
        try:
            log_file = self._wait_for_journal_lines(cache_dir, 2)
        finally:
            victim.kill()
            victim.wait(timeout=30)
        logged = journaled_seeds(log_file)
        assert len(logged) >= 2

        resumer = self._spawn(cache_dir, out_resumed, log_2, sleep_s=0.0,
                              store="cache")
        assert resumer.wait(timeout=120) == 0
        resumed = json.loads(out_resumed.read_text())
        assert resumed["resumed"] >= len(logged)
        assert not logged & logged_seeds(log_2)
        (sealed,) = cache_dir.glob("*.jsonl")
        assert sealed == log_file
        assert json.loads(sealed.read_text().splitlines()[-1]) \
            == {"complete": True}

        hitter = self._spawn(cache_dir, out_cached, log_3, sleep_s=0.0,
                             store="cache")
        assert hitter.wait(timeout=120) == 0
        cached = json.loads(out_cached.read_text())
        assert cached["mode"] == "cached"
        assert not logged_seeds(log_3)
        assert cached["records"] == resumed["records"]

        os.environ.pop("RESUME_LOG", None)
        os.environ["RESUME_SLEEP"] = "0"
        try:
            reference = run_campaign(tmp_path / "fresh-journal")
        finally:
            os.environ.pop("RESUME_SLEEP", None)
        assert (json.dumps(resumed["records"], sort_keys=True)
                == records_payload(reference))

    def test_sigkill_mid_chaos_campaign_then_resume_bit_identical(
            self, tmp_path):
        """The resume guarantee over real chaos worlds: kill a chaos-axis
        sweep (full simulations, telemetry attached to every record)
        mid-flight, rerun, and the resumed records — telemetry snapshots
        included — match an uninterrupted run byte for byte."""
        journal_dir = tmp_path / "journal"
        log_1, log_2 = tmp_path / "exec1.log", tmp_path / "exec2.log"
        out_resumed = tmp_path / "resumed.json"

        victim = self._spawn(journal_dir, tmp_path / "never.json", log_1,
                             sleep_s=0.3, grid="chaos")
        try:
            journal_file = self._wait_for_journal_lines(journal_dir, 2)
        finally:
            victim.kill()
            victim.wait(timeout=30)
        journaled = journaled_seeds(journal_file)
        assert len(journaled) >= 2

        resumer = self._spawn(journal_dir, out_resumed, log_2,
                              sleep_s=0.0, grid="chaos")
        assert resumer.wait(timeout=180) == 0
        resumed = json.loads(out_resumed.read_text())
        assert resumed["resumed"] >= len(journaled)
        assert not journaled & logged_seeds(log_2)
        assert not list(journal_dir.glob("*.jsonl"))

        os.environ.pop("RESUME_LOG", None)
        os.environ["RESUME_SLEEP"] = "0"
        os.environ["RESUME_GRID"] = "chaos"
        try:
            reference = run_campaign(tmp_path / "fresh-journal")
        finally:
            os.environ.pop("RESUME_SLEEP", None)
            os.environ.pop("RESUME_GRID", None)
        assert (json.dumps(resumed["records"], sort_keys=True)
                == records_payload(reference))


def quick_trial(params, seed):
    import random
    rng = random.Random(seed)
    return {"value": params["offset"] + rng.random()}


GRID_AXES = {"offset": (0.0, 10.0, 100.0)}


class TestJournalLifecycle:
    def _runner(self, journal_dir, **kwargs):
        defaults = dict(trials_per_point=2, base_seed=5, executor="serial",
                        journal_dir=journal_dir)
        defaults.update(kwargs)
        return CampaignRunner(quick_trial, **defaults)

    def _grid(self, name="journal-test"):
        return ParameterGrid(GRID_AXES, name=name)

    def test_journal_removed_after_completed_run(self, tmp_path):
        result = self._runner(tmp_path).run(self._grid())
        assert result.resumed == 0
        assert not list(tmp_path.glob("*.jsonl"))

    def test_partial_journal_resumes_without_reexecution(self, tmp_path):
        full = CampaignRunner(quick_trial, trials_per_point=2, base_seed=5,
                              executor="serial").run(self._grid())
        runner = self._runner(tmp_path)
        specs = runner.specs(self._grid())
        fingerprint = runner._fingerprint("journal-test", specs)
        journal = CampaignJournal(
            journal_path(tmp_path, "journal-test", fingerprint))
        for record in full.records[:3]:
            journal.append(record)
        journal.close()

        result = runner.run(self._grid())
        assert result.resumed == 3
        assert result.records == full.records
        assert (json.dumps(result.to_json()["results"], sort_keys=True)
                == json.dumps(full.to_json()["results"], sort_keys=True))

    def test_fully_journaled_run_reports_resumed_mode(self, tmp_path):
        runner = self._runner(tmp_path)
        # Every trial logged but the log never sealed (a kill between
        # the last append and the trailer) — simplest: log by hand.
        full = CampaignRunner(quick_trial, trials_per_point=2, base_seed=5,
                              executor="serial").run(self._grid())
        specs = runner.specs(self._grid())
        fingerprint = runner._fingerprint("journal-test", specs)
        journal = CampaignJournal(
            journal_path(tmp_path, "journal-test", fingerprint))
        for record in full.records:
            journal.append(record)
        journal.close()
        result = runner.run(self._grid())
        assert result.mode == "resumed"
        assert result.resumed == len(full.records)
        assert result.records == full.records

    def test_torn_trailing_line_is_dropped_and_reexecuted(self, tmp_path):
        full = CampaignRunner(quick_trial, trials_per_point=2, base_seed=5,
                              executor="serial").run(self._grid())
        runner = self._runner(tmp_path, cache_dir=tmp_path / "cache")
        specs = runner.specs(self._grid())
        fingerprint = runner._fingerprint("journal-test", specs)
        path = journal_path(tmp_path, "journal-test", fingerprint)
        journal = CampaignJournal(path)
        for record in full.records[:2]:
            journal.append(record)
        journal.close()
        with path.open("a") as handle:      # the SIGKILL-torn tail
            handle.write('{"point_key": "offset=10.0", "tri')
        result = runner.run(self._grid())
        assert result.resumed == 2
        assert result.records == full.records
        # The first append after the tear starts on a fresh line, so the
        # sealed log replays every record: the next run is a pure hit.
        again = runner.run(self._grid())
        assert again.mode == "cached"
        assert again.records == full.records

    def test_seed_mismatch_in_journal_is_not_trusted(self, tmp_path):
        runner = self._runner(tmp_path)
        specs = runner.specs(self._grid())
        fingerprint = runner._fingerprint("journal-test", specs)
        path = journal_path(tmp_path, "journal-test", fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "point_key": "offset=0.0", "trial": 0, "seed": 123,
            "metrics": {"value": 99.0}}) + "\n")
        result = runner.run(self._grid())
        assert result.resumed == 0
        assert all(r.metrics["value"] != 99.0 for r in result.records)

    def test_base_seed_change_ignores_stale_journal(self, tmp_path):
        r1 = self._runner(tmp_path)
        specs = r1.specs(self._grid())
        journal = CampaignJournal(journal_path(
            tmp_path, "journal-test", r1._fingerprint("journal-test", specs)))
        full = CampaignRunner(quick_trial, trials_per_point=2, base_seed=5,
                              executor="serial").run(self._grid())
        for record in full.records:
            journal.append(record)
        journal.close()
        result = self._runner(tmp_path, base_seed=6).run(self._grid())
        assert result.resumed == 0      # different fingerprint, new journal

    def test_journal_and_cache_compose(self, tmp_path):
        """A completed run seals its log and moves it from the journal
        directory into the cache; the rerun replays it as a cache hit
        and the journal directory stays empty."""
        cache_dir = tmp_path / "cache"
        first = self._runner(tmp_path, cache_dir=cache_dir).run(self._grid())
        assert first.mode == "serial"
        assert not list(tmp_path.glob("*.jsonl"))
        (sealed,) = cache_dir.glob("journal-test-*.jsonl")
        assert json.loads(sealed.read_text().splitlines()[-1]) \
            == {"complete": True}
        again = self._runner(tmp_path, cache_dir=cache_dir).run(self._grid())
        assert again.mode == "cached"
        assert again.resumed == 0
        assert again.records == first.records
        assert not list(tmp_path.glob("*.jsonl"))

    def test_fully_logged_unsealed_cache_log_resumes_then_hits(
            self, tmp_path):
        """An unsealed log filed directly in ``cache_dir`` (a cache-only
        run killed before its trailer) holds every record: the rerun
        executes nothing but reports ``resumed``, not ``cached``, and
        seals it; only the run after that is a cache hit."""
        full = CampaignRunner(quick_trial, trials_per_point=2, base_seed=5,
                              executor="serial").run(self._grid())
        runner = self._runner(None, cache_dir=tmp_path)
        fingerprint = runner._fingerprint(
            "journal-test", runner.specs(self._grid()))
        path = journal_path(tmp_path, "journal-test", fingerprint)
        journal = CampaignJournal(path)
        for record in full.records:
            journal.append(record)
        journal.close()
        result = runner.run(self._grid())
        assert result.mode == "resumed"
        assert result.resumed == len(full.records)
        assert result.records == full.records
        assert path.read_text().splitlines()[-1] == '{"complete": true}'
        again = runner.run(self._grid())
        assert again.mode == "cached"
        assert again.records == full.records

    def test_parallel_executors_journal_too(self, tmp_path):
        serial = CampaignRunner(quick_trial, trials_per_point=4, base_seed=9,
                                executor="serial").run(self._grid("par"))
        result = CampaignRunner(quick_trial, trials_per_point=4, base_seed=9,
                                workers=2, executor="processes",
                                journal_dir=tmp_path).run(self._grid("par"))
        assert result.mode == "processes:2"
        assert result.records == serial.records
        assert not list(tmp_path.glob("*.jsonl"))
