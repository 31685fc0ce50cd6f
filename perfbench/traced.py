"""The traced run: per-layer seconds and counts, measured in-process.

Each probe calls one layer's public functions on the workload's inputs
and records a span around the call.  Spans live only in this file's
:class:`Tracer` (name, start, end, parent), are kept in memory and are
written once at the end.  Nothing inside the program is instrumented,
and no number from this run feeds an end-to-end metric.

Every workload runs every probe, so every per-layer metric is measured on
every workload.  ``COMMAND_LAYERS`` names the layers the workload's own
command goes through; ``unattributed_s`` is the untraced median wall time
minus their sum.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

import measure
import prepare
import workloads

#: the layers each workload's command runs, whose sum the untraced wall
#: time is compared with.
COMMAND_LAYERS = {
    "batch-reconstruct": ("cli.import_s", "topology.load_s", "logs.parse_s",
                          "logs.build_s", "core.reconstruct_s",
                          "sessions.save_s"),
    "stream-sharded": ("cli.import_s", "topology.load_s", "logs.parse_s",
                       "logs.build_s", "streaming.sharded_s",
                       "sessions.save_s"),
}

#: fresh interpreters timed for ``cli.import_s``.
IMPORT_REPEATS = 3
#: requests streamed by the failover leg; shard 0 is killed about half
#: way through its share of them.
FAILOVER_EVENTS = 20_000


class Tracer:
    """In-memory spans: name, start, end and the span that caused it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


class Layers:
    """Per-layer metrics gathered by the probes: name -> (value, unit)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks: list[str] = []
        self.attempted = 0

    def set(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (self.metrics.get(name, (0, unit))[0] + value,
                              unit)

    @contextlib.contextmanager
    def timed(self, metric: str, **attrs):
        """Span named ``metric``; its duration adds to the metric."""
        with self.tracer.span(metric, **attrs) as record:
            yield record
        self.add(metric, record["end"] - record["start"], "s")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.checks.append(what)


def _import_seconds(root: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=root,
                       env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _simulation(workload: str, seed: int, scale: float):
    """The population the workload's traffic comes from."""
    from repro.simulator.config import SimulationConfig
    agents = (workloads.BATCH_AGENTS if workload == "batch-reconstruct"
              else workloads.STREAM_AGENTS)
    return SimulationConfig(n_agents=workloads.scaled(agents, scale),
                            seed=seed)


def _simulate_and_score(layers: Layers, config, graph) -> None:
    """simulator and evaluation probes over the workload's population."""
    from repro.evaluation.harness import standard_heuristics
    from repro.evaluation.metrics import evaluate_reconstruction
    from repro.simulator.population import simulate_population
    with layers.timed("simulator.simulate_s"):
        simulation = simulate_population(graph, config)
    for name, heuristic in standard_heuristics(graph).items():
        with layers.timed(f"evaluation.reconstruct_s.{name}"):
            sessions = heuristic.reconstruct(simulation.log_requests)
        with layers.timed("evaluation.score_s", heuristic=name):
            evaluate_reconstruction(name, simulation.ground_truth, sessions)
    layers.set("simulator.krec_s", len(simulation.log_requests) / 1000.0
               / layers.metrics["simulator.simulate_s"][0], "krec/s")


def _parse_and_build(layers: Layers, path: str) -> list:
    """logs probes; returns the log's requests."""
    from repro.logs import IngestReport, read_clf_file, records_to_requests
    report = IngestReport()
    with layers.timed("logs.parse_s"):
        records = read_clf_file(path, skip_malformed=True, report=report)
    with layers.timed("logs.build_s"):
        requests = records_to_requests(records)
    layers.set("logs.parse_krec_s", len(records) / 1000.0
               / layers.metrics["logs.parse_s"][0], "krec/s")
    layers.set("logs.dropped", report.dropped, "count")
    layers.check(report.dropped == 0, "log lines dropped as malformed")
    return requests


def _core(layers: Layers, requests: list, graph):
    """core and columnar probes; returns the object engine's sessions."""
    from repro.core import columnar
    from repro.core.smart_sra import SmartSRA
    from repro.obs import Registry, use_registry
    registry = Registry()
    with use_registry(registry), layers.timed("core.reconstruct_s"):
        sessions = SmartSRA(graph).reconstruct(requests)
    with layers.timed("core.columnar_s"):
        fast = SmartSRA(graph).reconstruct(requests, engine="columnar")
    with layers.tracer.span("check.columnar_digest"):
        layers.check(fast.canonical_digest() == sessions.canonical_digest(),
                     "columnar and object engines disagree")
        del fast
    with layers.tracer.span("core.columnar.partition"):
        per_user: dict[str, list] = {}
        for request in requests:
            per_user.setdefault(request.user_id, []).append(request)
        for user_requests in per_user.values():
            user_requests.sort(key=lambda r: r.timestamp)
        items = list(per_user.items())
    plane = columnar.ColumnarPlane.for_smart_sra(graph,
                                                 SmartSRA(graph).config)
    with layers.timed("core.columnar.ingest_s"):
        batch = columnar.ColumnBatch.from_user_requests(items, plane.symbols)
    with layers.timed("core.columnar.plane_s"):
        result = plane.run_batch(batch)
    with layers.timed("core.columnar.materialize_s"):
        columnar.materialize_sessions(items, result)
    object_s = layers.metrics["core.reconstruct_s"][0]
    columnar_s = layers.metrics["core.columnar_s"][0]
    layers.set("core.columnar_vs_object", object_s / columnar_s, "x")
    layers.set("core.phase1.candidates",
               registry.value("sessions.phase1.candidates"), "count")
    layers.set("core.phase2.extensions",
               registry.value("sessions.phase2.extensions"), "count")
    return sessions


def _save(layers: Layers, sessions, requests: int, path: str) -> None:
    """sessions.model probes over the sessions the command writes."""
    with layers.timed("sessions.save_s"):
        sessions.save(path)
    layers.set("sessions.save_mb", os.path.getsize(path) / 1e6, "MB")
    layers.set("sessions.count", len(sessions), "count")
    layers.set("sessions.per_request", len(sessions) / requests,
               "sessions/req")


def _streaming(layers: Layers, requests: list, graph, seed: int):
    """streaming probes: serial vs sharded, routing, wire, failover.

    Returns the serial pipeline's sessions.
    """
    from repro.faults.execution import use_execution_faults
    from repro.parallel import RetryPolicy
    from repro.sessions.model import SessionSet
    from repro.streaming import ShardedConfig, ShardedStreamingRuntime
    from repro.streaming.pipeline import streaming_smart_sra
    from repro.streaming.sharded import shard_for
    from repro.streaming.wire import SymbolEncoder

    governor = prepare.stream_governor()
    flush = float(workloads.STREAM_FLUSH_EVERY)
    shards = workloads.STREAM_SHARDS

    def serial(requests):
        pipeline = streaming_smart_sra(graph, governor=governor)
        emitted = pipeline.feed_many(requests)
        emitted.extend(pipeline.flush())
        return SessionSet(emitted), pipeline.stats()

    def sharded(requests, retry=None):
        config = (ShardedConfig(shards=shards) if retry is None
                  else ShardedConfig(shards=shards, retry=retry))
        runtime = ShardedStreamingRuntime(graph, governor=governor,
                                          sharded=config)
        return runtime.run(requests, flush_interval=flush)

    # logs are written in time order, so the requests stream as they are.
    with layers.timed("streaming.serial_s"):
        sessions, stats = serial(requests)
    with layers.timed("streaming.sharded_s"):
        result = sharded(requests)
    with layers.tracer.span("check.sharded_digest"):
        layers.check(result.sessions.canonical_digest()
                     == sessions.canonical_digest(),
                     "sharded output differs from serial")
    layers.check(result.stats.reconciles(), "ledger does not reconcile")
    with layers.timed("streaming.route_s"):
        for request in requests:
            shard_for(request.user_id, shards)
    encoder, out = SymbolEncoder(), bytearray()
    with layers.timed("streaming.wire.encode_s"):
        for request in requests:
            encoder.encode_event(out, request.timestamp, request.user_id,
                                 request.page, request.referrer,
                                 request.synthetic)

    prefix = requests[:FAILOVER_EVENTS]
    with layers.tracer.span("check.failover_reference"):
        expected = serial(prefix)[0].canonical_digest()
    retry = RetryPolicy(max_retries=3, deadline=120.0, backoff_base=0.01,
                        backoff_cap=0.05, seed=seed)
    kill_at = max(1, len(prefix) // (2 * shards))
    with layers.tracer.span("streaming.failover_leg"), \
            use_execution_faults(f"kill-worker:0:{kill_at}"):
        killed = sharded(prefix, retry)
    with layers.tracer.span("check.failover_digest"):
        killed_digest = killed.sessions.canonical_digest()
    layers.check(killed_digest == expected,
                 "output after failover differs from serial")
    layers.check(killed.stats.failovers == 1, "shard 0 was not killed")
    layers.check(killed.stats.reconciles(),
                 "ledger does not reconcile after failover")

    serial_s = layers.metrics["streaming.serial_s"][0]
    sharded_s = layers.metrics["streaming.sharded_s"][0]
    events = len(requests)
    layers.set("streaming.serial_krec_s", events / 1000.0 / serial_s,
               "krec/s")
    layers.set("streaming.sharded_krec_s", events / 1000.0 / sharded_s,
               "krec/s")
    layers.set("streaming.sharded_vs_serial", serial_s / sharded_s, "x")
    layers.set("streaming.wire.bytes_per_event", len(out) / events, "B")
    for key in ("routed", "replayed", "shed"):
        layers.set(f"streaming.ledger.{key}", getattr(result.stats, key),
                   "count")
    layers.set("streaming.governor.peak_tracked_bytes",
               stats.peak_tracked_bytes, "B")
    layers.set("streaming.governor.evictions", stats.evictions, "count")
    layers.set("streaming.governor.cap_strikes", stats.cap_strikes, "count")
    recovery = killed.recovery_seconds
    layers.set("streaming.recovery_ms",
               1000.0 * statistics.median(recovery) if recovery else 0.0,
               "ms")
    layers.set("streaming.replayed_on_kill", killed.stats.replayed, "count")
    return sessions


def run(root: str, workload: str, files: dict, reference: dict,
        seconds: float, *, seed: int, scale: float,
        trace_path: str) -> Layers:
    """Every probe on ``workload``'s inputs, then the untraced command."""
    from repro.topology.io import load_graph

    tracer = Tracer()
    layers = Layers(tracer)
    work = os.path.dirname(files["topology"])
    with tracer.span("traced_run", workload=workload, seed=seed):
        with tracer.span("cli.import_s"):
            layers.set("cli.import_s", _import_seconds(root), "s")
        with layers.timed("topology.load_s"):
            graph = load_graph(files["topology"])
        with tracer.span("simulator_and_evaluation"):
            _simulate_and_score(layers, _simulation(workload, seed, scale),
                                graph)
        requests = _parse_and_build(layers, files[workload])
        reconstructed = _core(layers, requests, graph)
        streamed = _streaming(layers, requests, graph, seed)
        # save what the workload's command writes.
        written = (streamed if workload == "stream-sharded"
                   else reconstructed)
        del reconstructed, streamed
        _save(layers, written, len(requests),
              os.path.join(work, "traced-sessions.json"))
        del requests, written
        with tracer.span("untraced_command"):
            runs = measure.timed_runs(root, workload, files, reference,
                                      seconds)
    for command in runs:
        layers.check(command.ok, command.detail)
    wall = statistics.median(command.wall_s for command in runs)
    attributed = sum(layers.metrics[name][0]
                     for name in COMMAND_LAYERS[workload])
    layers.set("untraced_wall_s", wall, "s")
    layers.set("unattributed_s", wall - attributed, "s")
    tracer.write(trace_path)
    return layers
