"""The campaign store's size cap and LRU sweep over ``cache_dir``."""

import json
import logging
import os
import time

from repro.campaign import CampaignRunner, ParameterGrid, advantage_bits_trial

GRID = ParameterGrid({"n": (3, 5)}, fixed={"p_attack": 0.5},
                     name="evict_probe")


def _plant(cache_dir, name: str, size: int, age_s: float):
    """Create a fake file of ``size`` bytes, ``age_s`` old (named like a
    store log, ``<name>-<16 hex>.jsonl``, it is an eviction candidate)."""
    path = cache_dir / name
    path.write_text("x" * size)
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))
    return path


def test_lru_sweep_evicts_oldest_first(tmp_path, caplog):
    oldest = _plant(tmp_path, "a-old-00000000000000a0.jsonl", 4000, age_s=300)
    newer = _plant(tmp_path, "b-new-00000000000000b0.jsonl", 4000, age_s=100)
    runner = CampaignRunner(advantage_bits_trial, base_seed=1,
                            cache_dir=tmp_path, cache_max_bytes=6000)
    with caplog.at_level(logging.INFO, logger="repro.campaign"):
        runner.run(GRID)
    assert not oldest.exists()
    assert newer.exists()
    # The just-written entry is the most recent; it always survives.
    written = [p for p in tmp_path.glob("evict_probe-*.jsonl")]
    assert len(written) == 1
    assert any("evicted" in record.message for record in caplog.records)


def test_sweep_keeps_directory_under_cap(tmp_path):
    for index in range(6):
        _plant(tmp_path, f"entry-{index:016x}.jsonl", 3000,
               age_s=600 - index)
    CampaignRunner(advantage_bits_trial, base_seed=1, cache_dir=tmp_path,
                   cache_max_bytes=5000).run(GRID)
    total = sum(p.stat().st_size for p in tmp_path.glob("*.jsonl"))
    assert total <= 5000


def test_cache_hit_refreshes_mtime_for_lru(tmp_path):
    runner = CampaignRunner(advantage_bits_trial, base_seed=1,
                            cache_dir=tmp_path)
    runner.run(GRID)
    (path,) = tmp_path.glob("evict_probe-*.jsonl")
    stale = time.time() - 900
    os.utime(path, (stale, stale))
    result = runner.run(GRID)
    assert result.mode == "cached"
    assert path.stat().st_mtime > stale + 300


def test_entry_larger_than_cap_survives_its_own_write(tmp_path):
    """Regression: the sweep must exempt the just-written entry, or a
    campaign bigger than ``cache_max_bytes`` evicts itself and the very
    next run recomputes instead of hitting the cache."""
    runner = CampaignRunner(advantage_bits_trial, base_seed=1,
                            cache_dir=tmp_path, cache_max_bytes=1)
    first = runner.run(GRID)
    (entry,) = tmp_path.glob("evict_probe-*.jsonl")
    assert entry.stat().st_size > 1
    again = runner.run(GRID)
    assert again.mode == "cached"
    assert again.records == first.records


def test_oversized_entry_still_evictable_by_later_writes(tmp_path):
    """The exemption covers only the write that created the entry; a
    *different* campaign's sweep may evict it normally."""
    CampaignRunner(advantage_bits_trial, base_seed=1, cache_dir=tmp_path,
                   cache_max_bytes=1).run(GRID)
    (entry,) = tmp_path.glob("evict_probe-*.jsonl")
    stale = time.time() - 900
    os.utime(entry, (stale, stale))
    other = ParameterGrid({"n": (4, 6)}, fixed={"p_attack": 0.5},
                          name="evict_other")
    CampaignRunner(advantage_bits_trial, base_seed=1, cache_dir=tmp_path,
                   cache_max_bytes=1).run(other)
    assert not entry.exists()
    assert list(tmp_path.glob("evict_other-*.jsonl"))


def test_no_cap_disables_sweep(tmp_path):
    planted = _plant(tmp_path, "keep-000000000000beef.jsonl", 50_000,
                     age_s=900)
    CampaignRunner(advantage_bits_trial, base_seed=1, cache_dir=tmp_path,
                   cache_max_bytes=None).run(GRID)
    assert planted.exists()


def test_sweep_ignores_unreadable_entries(tmp_path):
    CampaignRunner(advantage_bits_trial, base_seed=1, cache_dir=tmp_path,
                   cache_max_bytes=1).run(GRID)
    # Even with an absurd cap the just-run campaign still returned
    # records and left at most the newest file behind.
    leftovers = list(tmp_path.glob("*.jsonl"))
    assert len(leftovers) <= 1


def test_cache_entries_are_valid_json_after_sweep(tmp_path):
    runner = CampaignRunner(advantage_bits_trial, base_seed=1,
                            cache_dir=tmp_path, cache_max_bytes=10_000_000)
    runner.run(GRID)
    (path,) = tmp_path.glob("*.jsonl")
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert entries[-1] == {"complete": True}
    assert len(entries) == 1 + len(GRID.points())
    assert all("metrics" in entry for entry in entries[:-1])


def test_sweep_spares_files_the_campaign_never_wrote(tmp_path):
    """Regression: only files named like store logs are eviction
    candidates — a stranger in ``cache_dir`` (including an old-format
    ``.json`` result) survives even a 1-byte cap."""
    strangers = [_plant(tmp_path, name, 4000, age_s=900)
                 for name in ("keep.json", "notes.jsonl",
                              "evict_probe-0123456789abcdef.json",
                              "short-0123abcd.jsonl")]
    CampaignRunner(advantage_bits_trial, base_seed=1, cache_dir=tmp_path,
                   cache_max_bytes=1).run(GRID)
    assert all(path.exists() for path in strangers)
    assert list(tmp_path.glob("evict_probe-*.jsonl"))
