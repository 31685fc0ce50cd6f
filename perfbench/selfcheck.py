"""Quick self-check of the benchmark, on tiny inputs.

    python3 perfbench/selfcheck.py

Generates each log's inputs twice from one seed and asserts the files
are byte-identical, then runs every workload once untraced and once traced
at 5% scale and asserts that each run is correct and emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit.  Takes about a
minute.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SCALE = 0.05


def _check_generation() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    work = os.path.join(ROOT, ".perfbench_work", "selfcheck")
    for workload in ("batch-reconstruct", "stream-sharded"):
        first, second = (os.path.join(work, f"{workload}-{n}")
                         for n in (1, 2))
        for directory in (first, second):
            workloads.generate(workload, SEED, directory, SCALE)
        names = sorted(os.listdir(first))
        match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                                   shallow=False)
        assert not mismatch and not errors, (workload, mismatch, errors)
        print(f"ok  {workload}: two generations byte-identical "
              f"({', '.join(match)})")


def _check_run(workload: str, trace: int, expected: dict) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, (workload, trace,
                             set(got) ^ set(expected),
                             {k: (got.get(k), v) for k, v in expected.items()
                              if got.get(k) != v})
    print(f"ok  {workload} trace={trace}: {len(got)} metrics with units")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    _check_generation()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {metric["name"]: metric["unit"] for metric in spec[key]}
        for workload in spec["workloads"]:
            _check_run(workload["name"], trace, expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
