"""DFS x resilience policies: breakers steer reads/repairs, hedged reads."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.resilience import (
    BreakerConfig,
    HedgePolicy,
    ResiliencePolicies,
    RetryPolicy,
)
from repro.simcore import Simulator
from repro.storage.dfs import DFSConfig, DistributedFS


def _fs(policies=None, auto_repair=True, speed_factors=None, seed=3):
    sim = Simulator()
    cl = make_cluster(sim, n_racks=3, nodes_per_rack=3,
                      speed_factors=speed_factors)
    dfs = DistributedFS(cl, DFSConfig(block_size=64 * 1024,
                                      auto_repair=auto_repair,
                                      detection_delay=0.5),
                        seed=seed, policies=policies)
    return sim, cl, dfs


def _payload(n=100_000, seed=11):
    return np.random.default_rng(seed).bytes(n)


BREAKER = ResiliencePolicies(breaker_config=BreakerConfig(
    failure_threshold=1, recovery_time=60.0))


class TestBreakerNodeEvents:
    def test_fail_trips_and_recover_resets(self):
        sim, cl, dfs = _fs(BREAKER, auto_repair=False)
        cl.nodes["h0_0"].fail()
        sim.run(until=1.0)
        assert dfs.breaker.state("h0_0", sim.now) == "open"
        cl.nodes["h0_0"].recover()
        sim.run(until=2.0)
        assert dfs.breaker.state("h0_0", sim.now) == "closed"

    def test_reads_avoid_breaker_open_replica(self):
        # with the reader-local replica's breaker open, the read must be
        # served by some other replica; each served source shows up as a
        # closed breaker entry via record_success, the open one stays open
        sim, cl, dfs = _fs(BREAKER, auto_repair=False)
        data = _payload()
        sim.run_until_done(dfs.write("/f.bin", data=data, writer="h0_0",
                                     mode="replicate"))
        local = dfs.locations("/f.bin")[0][0]
        dfs.breaker.trip(local, sim.now)
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader=local))
        assert got == data
        served = {n for n, t in dfs.breaker._targets.items()
                  if t.state == "closed"}
        assert served               # a non-broken replica served the read
        assert local not in served  # never the open one
        assert dfs.breaker.state(local, sim.now) == "open"

    def test_all_breakers_open_still_reads(self):
        # availability beats breaker hygiene: the unfiltered replica list
        # comes back when every candidate is broken
        sim, cl, dfs = _fs(BREAKER, auto_repair=False)
        data = _payload()
        sim.run_until_done(dfs.write("/f.bin", data=data, writer="h0_0",
                                     mode="replicate"))
        for n in cl.nodes:
            dfs.breaker.trip(n, sim.now)
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader="h2_2"))
        assert got == data


class TestHedgedReads:
    def test_hedged_read_engages_and_data_survives(self):
        policies = ResiliencePolicies(
            hedge=HedgePolicy(quantile=0.5, multiplier=1.5, min_samples=2))
        sim, cl, dfs = _fs(policies, auto_repair=False)
        data = _payload()
        sim.run_until_done(dfs.write("/f.bin", data=data, writer="h0_0",
                                     mode="replicate"))
        # make the preferred (reader-local) replica a straggler so the
        # hedge to the second replica wins the race
        local = dfs.locations("/f.bin")[0][0]
        for _ in range(3):   # build the duration estimate
            got, _ = sim.run_until_done(dfs.read("/f.bin", reader=local))
            assert got == data
        cl.nodes[local].set_speed_factor(0.05)
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader=local))
        assert got == data
        assert dfs.hedged_reads >= 1

    def test_no_hedging_below_min_samples(self):
        policies = ResiliencePolicies(
            hedge=HedgePolicy(min_samples=100))
        sim, _cl, dfs = _fs(policies, auto_repair=False)
        data = _payload()
        sim.run_until_done(dfs.write("/f.bin", data=data, writer="h0_0",
                                     mode="replicate"))
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader="h2_2"))
        assert got == data
        assert dfs.hedged_reads == 0


class TestRepairPolicy:
    def test_repair_exhaustion_is_counted_not_raised(self):
        policies = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=1))
        sim, _cl, dfs = _fs(policies)
        block = type("B", (), {"block_id": 0})()
        session = dfs._repair_session(block, 0)
        delay = dfs._repair_failed(session, "rereplicate:b0s0", "target_lost")
        assert delay < 0
        assert dfs.repairs_abandoned == 1
        assert dfs.repairs_failed == 1

    def test_default_repair_abandonment_is_counted(self):
        # no policy: the default RetryPolicy() allows four immediate
        # attempts, and giving up on the fourth is counted, not silent
        sim, _cl, dfs = _fs(None)
        block = type("B", (), {"block_id": 0})()
        session = dfs._repair_session(block, 0)
        delays = [dfs._repair_failed(session, "rereplicate:b0s0",
                                     "target_lost") for _ in range(4)]
        assert delays[:3] == [0.0, 0.0, 0.0]
        assert delays[3] < 0
        assert dfs.repairs_abandoned == 1
        assert dfs.repairs_failed == 4

    def test_repair_backoff_delay_flows_through(self):
        policies = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=5, base_delay=2.0, jitter="none"))
        sim, _cl, dfs = _fs(policies)
        block = type("B", (), {"block_id": 0})()
        session = dfs._repair_session(block, 0)
        delay = dfs._repair_failed(session, "op", "target_lost")
        assert delay == pytest.approx(2.0)
        assert dfs.repairs_abandoned == 0

    def test_policy_repair_still_recovers_node_loss(self):
        policies = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=8, base_delay=0.1, seed=1),
            breaker_config=BreakerConfig(failure_threshold=2))
        sim, cl, dfs = _fs(policies)
        data = _payload()
        sim.run_until_done(dfs.write("/f.bin", data=data, writer="h0_0",
                                     mode="replicate"))
        victim = dfs.locations("/f.bin")[0][0]
        cl.nodes[victim].fail()
        sim.run(until=30.0)
        assert dfs.repairs_started >= 1
        # the dead node's slot was re-homed onto a live target
        assert all(n != victim for n in dfs.locations("/f.bin")[0])
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader="h2_2"))
        assert got == data
