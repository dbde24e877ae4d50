"""Time ``run_batch`` at one and two workers and append the point to BENCH_workers.json.

    python3 scripts/workers_scaling.py [--tree DIR] [--repeats 5] [--label TEXT]

Simulates ``asym_leak`` as ``cmjsim verify`` does (its n, N, seed, spectral
data and constants) at R = 20,000 and 100,000 replicates, at one and two
workers, after one untimed batch at each worker count.  Each repeat times
every (R, workers) case once, and the worker order alternates from repeat
to repeat.  A case records every wall time, their median and the median
CPU/wall ratio, where CPU counts this process and the pool workers it
reaped.  The point names the tree by ``tree_identity`` (its commit,
``source_sha256`` and ``src_lines``).  It also records ``nproc``, the
usable CPUs, the three variables OpenBLAS reads for its thread count as
``import cmjsim`` left them, and the process's thread count right after
that import (Linux only), which shows how many threads OpenBLAS started.
cmjsim is imported before numpy, as the CLI does.  ``--tree`` measures
another checkout of the program (default: this one).  Run it on an
otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tree_identity import tree_identity

ROOT = Path(__file__).resolve().parent.parent
PRESET = "asym_leak"
SIZES = (20_000, 100_000)
WORKERS = (1, 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _cpu_s() -> float:
    """User and system seconds of this process and its reaped children."""
    usage = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    return sum(u.ru_utime + u.ru_stime for u in usage)


def measure(tree: Path, repeats: int) -> dict:
    sys.path.insert(0, str(tree / "src"))
    import cmjsim  # before numpy, so the program's BLAS default applies

    blas_env = {k: os.environ.get(k) for k in BLAS_VARS}
    task = Path("/proc/self/task")
    threads = len(list(task.iterdir())) if task.is_dir() else None

    import numpy as np
    from cmjsim import cli

    run = cli._Pipeline(argparse.Namespace(scenario=PRESET, seed=None, workers=None))
    scn, phi = run.scn, run.characteristic

    def batch(R: int, workers: int) -> None:
        cmjsim.run_batch(
            run.model, [phi], scn.n, scn.N, R, scn.run["seed"],
            S=run.S, constants=run.const, ns=scn.times, workers=workers,
        )

    for workers in WORKERS:
        batch(SIZES[0], workers)
    samples: dict[tuple[int, int], list[tuple[float, float]]] = {(R, w): [] for R in SIZES for w in WORKERS}
    for rep in range(repeats):
        for R in SIZES:
            for workers in WORKERS if rep % 2 == 0 else WORKERS[::-1]:
                cpu0, wall0 = _cpu_s(), time.perf_counter()
                batch(R, workers)
                wall = time.perf_counter() - wall0
                samples[(R, workers)].append((wall, (_cpu_s() - cpu0) / wall))
    return {
        **tree_identity(tree),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": blas_env,
        "threads_after_import": threads,
        "preset": PRESET,
        "repeats": repeats,
        "cases": [
            {
                "R": R,
                "workers": workers,
                "wall_s": [round(wall, 4) for wall, _ in runs],
                "median_s": round(statistics.median(wall for wall, _ in runs), 4),
                "cpu_per_wall": round(statistics.median(ratio for _, ratio in runs), 3),
            }
            for (R, workers), runs in samples.items()
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--label", default=None, help="free-form tag stored with the point")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    point = measure(args.tree.resolve(), args.repeats)
    if args.label is not None:
        point = {"label": args.label, **point}
    path = ROOT / "BENCH_workers.json"
    points = json.loads(path.read_text()) if path.exists() else []
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")
    for case in point["cases"]:
        print(f"R={case['R']:>7} workers={case['workers']}  median {case['median_s']:.3f} s  "
              f"CPU/wall {case['cpu_per_wall']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
