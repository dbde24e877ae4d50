"""Pieces shared by the workloads: paths, operation records, outcome
classification, child processes and order statistics."""

from __future__ import annotations

import os
import select
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One timed operation and how it ended.

    ``status`` is ``completed``, ``refused`` (the program declined the input
    cleanly) or ``failed`` (a crash, or a check found a wrong answer).
    ``kind`` refines it: a verdict, a crash class or a check's name.
    ``stratum`` is the input class (preset, scenario or model family) that
    outcomes and times are tallied by."""

    seconds: float
    status: str
    kind: str
    stratum: str
    items: int = 0
    wrong: bool = False
    detail: dict = field(default_factory=dict)


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """(status, kind) for an exception that escaped the program.

    Only a bare ``ArithmeticError`` that names its cause is a clean refusal;
    its subclasses (``OverflowError``, ``ZeroDivisionError``), a
    ``RecursionError`` and anything else are failures."""
    if type(exc) is ArithmeticError and str(exc):
        return "refused", "clean_refusal"
    if isinstance(exc, OverflowError):
        return "failed", "overflow"
    if isinstance(exc, RecursionError):
        return "failed", "recursion"
    if isinstance(exc, ZeroDivisionError):
        return "failed", "zero_division"
    return "failed", "other_crash"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mb: float


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``argv`` from the repository root with the sources on the path.

    The child is reaped with ``wait4`` so its own peak resident memory is
    known; output goes through unlinked files inside the benchmark's output
    directory so a large report cannot block on a full pipe."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
        if not ready:
            stderr += f"\nkilled after {timeout:.0f} s"
        return Child(
            code=proc.returncode,
            stdout=out.read().decode(errors="replace"),
            stderr=stderr,
            seconds=seconds,
            maxrss_mb=usage.ru_maxrss / 1024.0,
        )


def median(xs) -> float:
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return float("nan")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(xs) -> tuple[float, float]:
    """(value, percentile level) of the highest percentile, at most p99, that
    leaves at least ten samples above it; the median when there are too few
    samples for any higher level."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return float("nan"), float("nan")
    idx = min(n - 11, int(0.99 * n) - 1)
    if idx <= (n - 1) // 2:
        return median(xs), 50.0
    return xs[idx], 100.0 * (idx + 1) / n


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Whole rounds that take about ``seconds`` at the workload's nominal
    rate on the reference machine.

    A count, not a clock, ends the loop: every run at one ``--seconds`` does
    the same number of operations, so its order statistics sit at the same
    percentile levels however fast the host runs that minute.  A faster
    program finishes sooner."""
    return max(1, round(seconds / nominal_round_s))


def run_rounds(stream, round_len: int, rounds: int, op_fn) -> list[Op]:
    """Closed loop, one client: ``rounds`` whole rounds, one operation at a time."""
    return [op_fn(*next(stream)) for _ in range(rounds * round_len)]


def traced_pair(stream, round_len: int, rounds: int, op_fn, tracer) -> tuple[list[Op], list[Op]]:
    """The same inputs twice: untraced, then under the tracer."""
    inputs = [next(stream) for _ in range(rounds * round_len)]
    untraced = [op_fn(*args) for args in inputs]
    with tracer:
        traced = [op_fn(*args) for args in inputs]
    return untraced, traced


def overhead_ms(untraced: list[Op], traced: list[Op]) -> float:
    """Traced minus untraced time per operation, over the same inputs."""
    return 1e3 * (sum(op.seconds for op in traced) - sum(op.seconds for op in untraced)) / len(traced)
