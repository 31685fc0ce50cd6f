"""Generate one workload's inputs and its reference output for a seed.

Run as ``python3 perfbench/prepare.py --workload NAME --seed N --dir DIR``
with the program's ``src`` on ``PYTHONPATH``.  Writes the inputs and
``reference.json`` into DIR and reuses them when DIR already holds the
same seed and scale.  References come from the program's own in-process
oracles:

* ``batch-reconstruct``: canonical digest of the object engine's heur4
  sessions over the parsed log;
* ``stream-sharded``: canonical digest of the serial governed streaming
  pipeline over the same log, plus its Phase-2 extension count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import workloads


def _parse(path: str):
    from repro.logs import IngestReport, read_clf_file, records_to_requests
    report = IngestReport()
    records = read_clf_file(path, skip_malformed=True, report=report)
    return records_to_requests(records), report.dropped


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _file_sha256(sessions, directory: str) -> str:
    """Hash of the file the command writes when its sessions come out in
    the reference's order: the object engine's order for the batch, the
    canonical-key order the sharded runtime seals in for the stream."""
    path = os.path.join(directory, "reference-sessions.json")
    sessions.save(path)
    try:
        return file_sha256(path)
    finally:
        os.remove(path)


def stream_governor():
    """The governor the ``stream-sharded`` command line configures."""
    from repro.streaming.governor import GovernorConfig, parse_memory_budget
    return GovernorConfig(
        memory_budget=parse_memory_budget(workloads.STREAM_MEMORY_BUDGET),
        per_user_cap=workloads.STREAM_PER_USER_CAP)


def reference(workload: str, seed: int, directory: str,
              scale: float) -> dict:
    """Generate the inputs and compute the expected output."""
    from repro.obs import Registry, use_registry
    from repro.sessions.model import SessionSet
    from repro.topology.io import load_graph

    records = workloads.generate(workload, seed, directory, scale)
    files = workloads.input_files(directory)
    graph = load_graph(files["topology"])
    result = {"workload": workload, "seed": seed, "scale": scale}
    registry = Registry()
    requests, dropped = _parse(files[workload])
    with use_registry(registry):
        if workload == "batch-reconstruct":
            from repro.core.smart_sra import SmartSRA
            sessions = SmartSRA(graph).reconstruct(requests)
        else:
            from repro.streaming.pipeline import streaming_smart_sra
            pipeline = streaming_smart_sra(graph, governor=stream_governor())
            emitted = pipeline.feed_many(requests)
            emitted.extend(pipeline.flush())
            sessions = SessionSet(sorted(
                emitted, key=lambda session: session.canonical_key()))
    result.update(digest=sessions.canonical_digest(),
                  file_sha256=_file_sha256(sessions, directory),
                  sessions=len(sessions), dropped=dropped, records=records)
    result["phase2_extensions"] = int(
        registry.value("sessions.phase2.extensions"))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    path = os.path.join(args.dir, "reference.json")
    try:
        with open(path, encoding="utf-8") as handle:
            cached = json.load(handle)
        if (cached["seed"], cached["scale"]) == (args.seed, args.scale):
            return 0
    except (OSError, ValueError, KeyError):
        pass
    result = reference(args.workload, args.seed, args.dir, args.scale)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
