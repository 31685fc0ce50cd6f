"""End-to-end benchmark of the ``repro`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  The seed generates the workload's inputs and reference output
(``prepare.py``, cached per seed under ``.perfbench_work/``); generation
time is in no metric.

``--trace 0`` times the workload's command in a subprocess, one command
at a time (closed loop, one client), for S seconds, and checks every
output against the reference.  It reports:

* ``krec_s``: input records / command wall time, median over commands;
* ``setup_s``: median wall time of the command over its empty input;
* ``peak_rss_mb``: median over commands of the largest peak resident set
  among the command's processes.

``--trace 1`` runs the per-layer probes of ``traced.py`` instead.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A copy with the host fingerprint is written
to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

#: module each per-layer metric belongs to, by name prefix.
MODULES = {"cli": "repro.cli", "topology": "repro.topology",
           "logs": "repro.logs", "core": "repro.core",
           "sessions": "repro.sessions.model",
           "streaming": "repro.streaming", "simulator": "repro.simulator",
           "evaluation": "repro.evaluation"}


def _prepare(workload: str, seed: int, scale: float, directory: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(ROOT, "src"), HERE)))
    subprocess.run([sys.executable, os.path.join(HERE, "prepare.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--scale", repr(scale), "--dir", directory],
                   cwd=ROOT, env=env, check=True)
    with open(os.path.join(directory, "reference.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _end_to_end(workload, files, reference, args):
    import measure
    setup = measure.setup_runs(ROOT, workload, files)
    runs = measure.timed_runs(ROOT, workload, files, reference, args.seconds)
    records = reference["records"]
    metrics = {
        "krec_s": (statistics.median(records / 1000.0 / r.wall_s
                                     for r in runs), "krec/s"),
        "setup_s": (statistics.median(r.wall_s for r in setup), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs),
                        "MB"),
    }
    commands = setup + runs
    failures = [r.detail or "failed" for r in commands if not r.ok]
    print(f"{workload}: {len(runs)} timed commands over {records} records, "
          f"{len(setup)} set-up commands")
    print("  command wall s: " + " ".join(f"{r.wall_s:.3f}" for r in runs)
          + "; set-up wall s: " + " ".join(f"{r.wall_s:.3f}" for r in setup))
    for name, (value, unit) in metrics.items():
        print(f"  {name:12} {value:12.4f} {unit}")
    print(f"  {'error_rate':12} {len(failures) / len(commands):12.4f} "
          f"fraction of runs")
    return metrics, len(commands), failures


def _per_layer(workload, files, reference, args):
    import traced
    layers = traced.run(
        ROOT, workload, files, reference, args.seconds, seed=args.seed,
        scale=args.scale,
        trace_path=os.path.join(WORK, "results",
                                f"{workload}-seed{args.seed}.trace.jsonl"))
    print(f"{workload}: per-layer metrics (traced run, seed {args.seed})")
    for name, (value, unit) in layers.metrics.items():
        module = MODULES.get(name.split(".")[0], workload)
        print(f"  {module:20} {name:40} {value:14.4f} {unit}")
    print("  core.columnar_vs_object = object-engine s / columnar-engine s; "
          "streaming.sharded_vs_serial = serial-pipeline s / sharded s")
    return layers.metrics, layers.attempted, layers.checks


def main(argv: list[str] | None = None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (self-check only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no program source under {ROOT}/src; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    directory = os.path.join(WORK, args.workload,
                             f"seed{args.seed}-x{args.scale:g}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    reference = _prepare(args.workload, args.seed, args.scale, directory)
    files = workloads.input_files(directory)
    measure_fn = _per_layer if args.trace else _end_to_end
    metrics, attempted, failures = measure_fn(args.workload, files,
                                              reference, args)
    for failure in failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    import host
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "host": host.fingerprint()}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
