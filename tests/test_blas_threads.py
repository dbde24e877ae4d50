"""OpenBLAS's thread default: ``import cmjsim`` sets one thread before numpy
loads, yields to a thread count the user set, and changes no bit of a batch
or its verdict.  Each case runs in a fresh interpreter, because the setting
only acts before numpy's first import."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# asym_leak at R = 20,000, the size at which two workers start a pool: one
# sha256 over W_hat, T, Z^phi and the verify report
DIGEST = """
import argparse, hashlib, json, sys
from cmjsim import cli, run_batch, verify_dichotomy
run = cli._Pipeline(argparse.Namespace(scenario="asym_leak", seed=None, workers=None))
scn = run.scn
batch = run_batch(
    run.model, [run.characteristic], scn.n, scn.N, 20_000, scn.run["seed"],
    S=run.S, constants=run.const, ns=scn.times, workers=int(sys.argv[1]),
)
report = verify_dichotomy(batch, run.const, run.S, w_min=scn.run["w_min"])
h = hashlib.sha256()
for col in (batch.w_hat, *batch.T.values(), *batch.zphi.values()):
    h.update(col.tobytes())
h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
print(h.hexdigest())
"""

# the three variables after ``import cmjsim``, and the threads it left running
ENVIRON = """
import json, os, cmjsim
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps({"env": {k: os.environ.get(k) for k in %r}, "threads": threads}))
""" % (BLAS_VARS,)


def _python(code: str, *argv: str, **blas: str) -> str:
    """stdout of ``python -c code`` with only the given BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(blas)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_blas_thread_count_and_workers_change_no_bit():
    digests = {
        (threads, workers): _python(DIGEST, str(workers), OPENBLAS_NUM_THREADS=threads)
        for threads in ("1", "2")
        for workers in (1, 2)
    }
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize(
    "given",
    [{}, {"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "3"}, {"GOTO_NUM_THREADS": "2"}],
    ids=["unset", "omp", "openblas", "goto"],
)
def test_import_defaults_to_one_blas_thread_unless_set(given):
    got = json.loads(_python(ENVIRON, **given))
    expected = {k: given.get(k) for k in BLAS_VARS}
    if not given:
        expected["OPENBLAS_NUM_THREADS"] = "1"
    assert got["env"] == expected
    openblas = "openblas" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    if openblas and got["threads"] is not None:
        # OpenBLAS starts its threads as numpy loads, one process thread per
        # BLAS thread, up to the usable CPUs
        asked = int(next(iter(given.values()), 1))
        assert got["threads"] == min(asked, len(os.sched_getaffinity(0)))
