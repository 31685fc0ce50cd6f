"""Time ``repro`` commands in a subprocess and check what they wrote.

One client, closed loop: the next command starts only after the previous
one has exited.  Wall time runs from launch to exit; the peak resident
set is the largest one among the command's processes, read from
``wait4``, which folds in every child the command reaped (the shard
workers).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import prepare
import workloads

#: empty-input runs per benchmark run; their median is ``setup_s``.
SETUP_REPEATS = 3


@dataclass
class CommandRun:
    """One finished command: its wall time, peak RSS and verdict."""

    wall_s: float
    peak_rss_mb: float
    ok: bool
    detail: str = ""


def run_command(root: str, argv: list[str]) -> tuple[CommandRun, str, str]:
    """Run ``python3 -m repro ARGV`` from ``root`` against ``root/src``.

    Returns the timing and the command's stdout and stderr; ``ok`` is the
    exit status only, the caller adds its output check.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out_path = os.path.join(root, ".perfbench_work", "cmd.out")
    err_path = os.path.join(root, ".perfbench_work", "cmd.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                                cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    code = proc.returncode
    run = CommandRun(wall, usage.ru_maxrss / 1024.0, code == 0,
                     "" if code == 0 else f"exit {code}: {stderr[-500:]}")
    return run, stdout, stderr


def check_output(workload: str, output: str, stdout: str, stderr: str,
                 reference: dict) -> str:
    """Compare a command's output with the reference; '' when correct."""
    if "malformed lines" in stderr:
        return "log lines dropped as malformed"
    if reference["dropped"]:
        return f"reference parse dropped {reference['dropped']} lines"
    if workload == "stream-sharded":
        if "(reconciles)" not in stdout:
            return "sharded ledger does not reconcile"
        if reference["phase2_extensions"] <= 0:
            return "Phase 2 never extended a session"
    # equal bytes prove equal sessions; otherwise compare canonically,
    # since sessions may legitimately come out in another order.
    if prepare.file_sha256(output) == reference["file_sha256"]:
        return ""
    from repro.sessions.model import SessionSet
    digest = SessionSet.load(output).canonical_digest()
    return "" if digest == reference["digest"] else "session digest differs"


def timed_runs(root: str, workload: str, files: dict, reference: dict,
               seconds: float) -> list[CommandRun]:
    """Run the workload's full command for ``seconds`` (at least once),
    checking each output against the reference.

    A command is started only while the median command so far still fits
    in the time left, so the run ends within ``seconds`` instead of
    overrunning it by up to one command.
    """
    output = os.path.join(root, ".perfbench_work", "output")
    argv = workloads.repro_argv(workload, files, output)
    runs: list[CommandRun] = []
    deadline = time.perf_counter() + seconds
    while not runs or (time.perf_counter() + statistics.median(
            run.wall_s for run in runs) < deadline):
        if os.path.exists(output):
            os.remove(output)
        run, stdout, stderr = run_command(root, argv)
        if run.ok:
            run.detail = check_output(workload, output, stdout, stderr,
                                      reference)
            run.ok = not run.detail
        runs.append(run)
    return runs


def setup_runs(root: str, workload: str, files: dict) -> list[CommandRun]:
    """Run the workload's command over its empty log a few times."""
    output = os.path.join(root, ".perfbench_work", "output")
    argv = workloads.repro_argv(workload, files, output, empty=True)
    return [run_command(root, argv)[0] for _ in range(SETUP_REPEATS)]
