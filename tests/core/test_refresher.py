"""Tests for the periodic pool refresher."""

import pytest

from repro.attacks.compromise import (
    CompromiseConfig,
    CompromisedResolverBehavior,
    corrupt_first_k,
)
from repro.core.refresher import PoolRefresher
from repro.scenarios import materialize, pool_spec


def make_refresher(scenario, interval=120.0, max_staleness=None,
                   consumer=None, generator=None):
    received = []

    def default_consumer(pool, fresh):
        received.append((pool, fresh))

    refresher = PoolRefresher(
        generator or scenario.make_generator(timeout=2.0),
        scenario.simulator,
        scenario.pool_domain.to_text(),
        interval=interval,
        consumer=consumer or default_consumer,
        max_staleness=max_staleness)
    return refresher, received


class TestSchedule:
    def test_immediate_first_refresh(self):
        scenario = materialize(pool_spec(), 130)
        refresher, received = make_refresher(scenario)
        refresher.start()
        scenario.simulator.run(until=1.0)
        assert len(received) == 1
        assert received[0][1] is True  # fresh

    def test_periodic_refreshes(self):
        scenario = materialize(pool_spec(pool_ttl=1), 131)
        refresher, received = make_refresher(scenario, interval=100.0)
        refresher.start()
        scenario.simulator.run(until=350.0)
        # t≈0, 100, 200, 300.
        assert len(received) == 4
        assert refresher.stats.refreshes_succeeded == 4

    def test_delayed_start(self):
        scenario = materialize(pool_spec(), 132)
        refresher, received = make_refresher(scenario, interval=60.0)
        refresher.start(immediate=False)
        scenario.simulator.run(until=30.0)
        assert received == []
        scenario.simulator.run(until=90.0)
        assert len(received) == 1

    def test_stop_halts_schedule(self):
        scenario = materialize(pool_spec(), 133)
        refresher, received = make_refresher(scenario, interval=50.0)
        refresher.start()
        scenario.simulator.run(until=10.0)
        refresher.stop()
        scenario.simulator.run(until=500.0)
        assert len(received) == 1
        assert not refresher.running

    def test_double_start_rejected(self):
        scenario = materialize(pool_spec(), 134)
        refresher, _ = make_refresher(scenario)
        refresher.start()
        with pytest.raises(RuntimeError):
            refresher.start()

    def test_interval_validation(self):
        scenario = materialize(pool_spec(), 135)
        with pytest.raises(ValueError):
            PoolRefresher(scenario.make_generator(), scenario.simulator,
                          "pool.ntp.org", interval=0,
                          consumer=lambda pool, fresh: None)

    def test_rotation_gives_fresh_pools(self):
        scenario = materialize(pool_spec(pool_ttl=1), 136)
        refresher, received = make_refresher(scenario, interval=100.0)
        refresher.start()
        scenario.simulator.run(until=150.0)
        first = [str(a) for a in received[0][0].addresses]
        second = [str(a) for a in received[1][0].addresses]
        assert first != second


class TestStaleServing:
    def corrupt_all_empty(self, scenario):
        corrupt_first_k(scenario.providers, 1, CompromiseConfig(
            target=scenario.pool_domain,
            behavior=CompromisedResolverBehavior.EMPTY))

    def test_serves_last_good_during_outage(self):
        scenario = materialize(pool_spec(pool_ttl=1), 137)
        refresher, received = make_refresher(scenario, interval=100.0)
        refresher.start()
        scenario.simulator.run(until=10.0)
        assert received[0][1] is True
        # DoS begins: a provider starts answering empty.
        self.corrupt_all_empty(scenario)
        scenario.simulator.run(until=150.0)
        assert len(received) == 2
        pool, fresh = received[1]
        assert fresh is False            # stale re-serve
        assert pool.ok                    # but it is the old good pool
        assert refresher.stats.served_stale == 1
        assert refresher.staleness() > 0

    def test_staleness_bound_fails_closed(self):
        scenario = materialize(pool_spec(pool_ttl=1), 138)
        refresher, received = make_refresher(scenario, interval=100.0,
                                             max_staleness=150.0)
        refresher.start()
        scenario.simulator.run(until=10.0)
        self.corrupt_all_empty(scenario)
        scenario.simulator.run(until=450.0)
        # t=100: stale ok (age 100 <= 150); t=200+: too stale.
        stale_served = [r for r in received[1:] if r[0].ok]
        failed = [r for r in received[1:] if not r[0].ok]
        assert len(stale_served) == 1
        assert len(failed) >= 2
        for pool, fresh in failed:
            assert fresh is False

    def test_no_good_pool_yet_fails_closed(self):
        scenario = materialize(pool_spec(), 139)
        self.corrupt_all_empty(scenario)
        refresher, received = make_refresher(scenario, interval=100.0)
        refresher.start()
        scenario.simulator.run(until=10.0)
        pool, fresh = received[0]
        assert not pool.ok
        assert fresh is False
        assert refresher.last_good_pool is None
        assert refresher.staleness() is None
