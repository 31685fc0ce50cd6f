"""Extension A21 — crash-safe sharded streaming runtime.

Streams one workload — a simulated human population plus a crawler and
NAT pools, merged in time order — through the sharded runtime at 1, 2
and 4 shards (fault-free) and reports sustained throughput per shard
count, then kills both workers of a 2-shard run mid-stream and reports
the failover recovery times.  Every configuration — including the kill
run — must seal output byte-identical (canonical digest) to the serial
governed pipeline, and every ledger must reconcile; those are asserted,
so the bench doubles as a correctness gate.  Phase 2 must extend
sessions on this traffic (asserted too): a workload whose requests all
sit more than ρ apart would measure the pipes and nothing of the
reconstruction.

Reading the numbers: with fewer CPU cores than shards + 1, worker
processes time-slice rather than parallelize — the shard sweep then
measures the *coordination overhead* of the runtime (pipes, framing,
capsule acks), not a speedup.  The recovery column is
hardware-independent either way.
"""

from __future__ import annotations

import os
import time

import pytest

from _bench_utils import BENCH_QUICK, BENCH_SEED, emit
from repro.faults.execution import use_execution_faults
from repro.obs import Registry, use_registry
from repro.parallel import RetryPolicy
from repro.sessions.model import SessionSet
from repro.simulator.adversarial import adversarial_workload
from repro.simulator.config import SimulationConfig
from repro.simulator.population import simulate_population
from repro.streaming import ShardedConfig, ShardedStreamingRuntime
from repro.streaming.governor import GovernorConfig
from repro.streaming.pipeline import streaming_smart_sra
from repro.topology.generators import random_site

_SHARD_COUNTS = (1, 2) if BENCH_QUICK else (1, 2, 4)
_AGENTS = 150 if BENCH_QUICK else 1_500
_CRAWLER_REQUESTS = 100 if BENCH_QUICK else 400
_NAT_POOLS = 2 if BENCH_QUICK else 10

#: generous budget: the byte-identity contract requires global-budget
#: eviction (shard-order dependent) to stay out of play.
_GOVERNOR = GovernorConfig(memory_budget=1 << 30, per_user_cap=128)

#: fast seeded backoff so recovery timings measure replay, not sleeps.
_RETRY = RetryPolicy(max_retries=3, deadline=120.0, backoff_base=0.01,
                     backoff_cap=0.05, seed=BENCH_SEED)


@pytest.fixture(scope="module")
def workload():
    """Humans, one crawler and NAT pools (Meiss et al.), in time order."""
    topology = random_site(120, 5.0, seed=BENCH_SEED)
    population = simulate_population(
        topology, SimulationConfig(n_agents=_AGENTS, seed=BENCH_SEED))
    hostile = adversarial_workload(
        topology, crawlers=1, crawler_requests=_CRAWLER_REQUESTS,
        nat_pools=_NAT_POOLS, humans_per_pool=12, normal_agents=0,
        seed=BENCH_SEED)
    return topology, tuple(sorted(population.log_requests + hostile))


def _serial_run(topology, requests, bench_metrics):
    """The serial reference: digest, seconds, Phase-2 extensions."""
    counting = Registry()
    with use_registry(counting):
        pipeline = streaming_smart_sra(topology, governor=_GOVERNOR)
        start = time.perf_counter()
        sessions = pipeline.feed_many(requests)
        sessions.extend(pipeline.flush())
        elapsed = time.perf_counter() - start
    bench_metrics.merge_snapshot(counting.snapshot())
    extensions = counting.counter("sessions.phase2.extensions").value
    return SessionSet(sessions).canonical_digest(), elapsed, extensions


def _sharded_run(topology, requests, shards, *faults):
    runtime = ShardedStreamingRuntime(
        topology, governor=_GOVERNOR,
        sharded=ShardedConfig(shards=shards, ack_interval=64,
                              retry=_RETRY))
    start = time.perf_counter()
    if faults:
        with use_execution_faults(*faults):
            result = runtime.run(requests, flush_interval=600.0)
    else:
        result = runtime.run(requests, flush_interval=600.0)
    return result, time.perf_counter() - start


def test_sharded_scaling_and_failover(workload, results_dir,
                                      bench_metrics):
    topology, requests = workload
    expected, serial_elapsed, extensions = _serial_run(topology, requests,
                                                       bench_metrics)
    assert extensions > 0, "Phase 2 never extended a session"
    serial_krec = len(requests) / serial_elapsed / 1000.0
    users = len({request.user_id for request in requests})

    lines = [
        "Extension A21 — crash-safe sharded streaming runtime",
        f"  workload:        {len(requests)} requests, {users} users "
        f"(humans + 1 crawler + {_NAT_POOLS} NAT pools), seed "
        f"{BENCH_SEED}, quick={'yes' if BENCH_QUICK else 'no'}",
        f"  phase 2:         {extensions} extensions in the serial run",
        f"  host cores:      {os.cpu_count() or 1} (fewer than shards + 1 "
        f"time-slice: read krec/s as coordination overhead, not scaling)",
        f"  serial baseline: {serial_krec:7.1f} krec/s (in-process "
        f"governed pipeline)",
        "",
        "  shards    krec/s   vs-serial   failovers   sealed-sessions",
    ]
    for shards in _SHARD_COUNTS:
        result, elapsed = _sharded_run(topology, requests, shards)
        stats = result.stats
        assert stats.reconciles(), stats
        assert stats.fed == len(requests)
        assert result.sessions.canonical_digest() == expected, (
            f"{shards}-shard output diverged from serial")
        krec = stats.fed / elapsed / 1000.0
        lines.append(
            f"  {shards:>6}  {krec:8.1f}   {krec / serial_krec:8.2f}x"
            f"   {stats.failovers:>9}   {stats.sealed_sessions:>15}")
        bench_metrics.gauge(f"bench.sharded.krec_s.{shards}").set(
            round(krec, 2))

    # the failover leg: both workers of a 2-shard run die mid-stream.
    kill_at = max(50, len(requests) // 40)
    result, elapsed = _sharded_run(
        topology, requests, 2,
        f"kill-worker:0:{kill_at}", f"kill-worker:1:{kill_at * 2}")
    stats = result.stats
    assert stats.failovers == 2, stats
    assert stats.reconciles(), stats
    assert result.sessions.canonical_digest() == expected, (
        "output diverged after failover")
    krec = stats.fed / elapsed / 1000.0
    recoveries_ms = [seconds * 1000.0 for seconds in
                     result.recovery_seconds]
    lines += [
        "",
        "  failover run (2 shards, both workers killed mid-stream):",
        f"    throughput:      {krec:7.1f} krec/s including recovery",
        f"    events replayed: {stats.replayed} "
        f"(of {stats.fed} fed; ledger reconciles, asserted)",
        f"    recovery times:  "
        + ", ".join(f"{ms:.0f} ms" for ms in recoveries_ms)
        + " (failover-to-first-ack)",
        f"    sealed output:   byte-identical to serial "
        f"(canonical digest, asserted)",
        "",
    ]
    for index, ms in enumerate(recoveries_ms):
        bench_metrics.gauge(f"bench.sharded.recovery_ms.{index}").set(
            round(ms, 1))
    bench_metrics.gauge("bench.sharded.failover_krec_s").set(
        round(krec, 2))
    emit(results_dir, "sharded", "\n".join(lines))
