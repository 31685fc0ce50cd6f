"""Host fingerprint written beside every result, and the comparison guard.

Two results are comparable only when they were measured on the same kind
of host: the same usable CPU count, Python, numpy and platform.

    python3 perfbench/host.py compare RESULT_A.json RESULT_B.json

prints both results' metrics side by side, or exits 2 when their
fingerprints differ.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def fingerprint() -> dict:
    """What a number measured here depends on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform()}


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    if a["host"] != b["host"]:
        print(f"error: results come from different hosts:\n  {a['host']}\n"
              f"  {b['host']}", file=sys.stderr)
        return 2
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        left = a["metrics"].get(name, {}).get("value")
        right = b["metrics"].get(name, {}).get("value")
        unit = (a["metrics"].get(name) or b["metrics"][name])["unit"]
        print(f"{name:40} {left!s:>14} {right!s:>14} {unit}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "compare":
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[2], sys.argv[3]))
