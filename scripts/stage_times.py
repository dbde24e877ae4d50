"""Time each stage of the constants pipeline in two trees, paired per model in one process.

    python3 scripts/stage_times.py --parent DIR --change DIR --seed N [--models N]

Loads each tree's ``src/cmjsim`` as a package of its own (``stage_parent``
and ``stage_change``) and takes the first ``--models`` models of
``constants_sweep.inputs(seed)`` (this repository's ``perfbench``) through
the stages of ``constants_sweep.compute``: ``build_model``,
``validate_assumptions``, ``spectral_decompose``, the characteristic
(``make_phi1`` for a ``kesten_stigum`` input, the Perron-orthogonal row
otherwise) and ``compute_constants``.  Each model runs in both trees,
alternating which goes first.  A model that fails its standing assumptions
or raises in either tree is left out of both.

For each tree it prints the median milliseconds of each stage and of the
per-model total, then the median over models of the change's total over the
parent's, and appends that point to ``BENCH_stages.json`` at this
repository's root.  A point names each tree by its commit (suffixed
``+dirty`` when ``src/`` has uncommitted changes) and the hash of its
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_stages.json"
STAGES = ("build_model", "validate_assumptions", "spectral_decompose", "characteristic", "compute_constants")


def load_tree(tree: Path, name: str):
    """``tree/src/cmjsim`` imported as the package ``name``."""
    init = tree / "src" / "cmjsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # its submodules and dataclasses look it up
    spec.loader.exec_module(package)
    return package


def load_sweep():
    """This repository's ``perfbench/constants_sweep.py``, for its inputs."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    spec = importlib.util.spec_from_file_location("stage_constants_sweep", ROOT / "perfbench" / "constants_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def stage_seconds(pkg, inp: dict) -> list | None:
    """Seconds of each of ``STAGES`` for one input, or None when the model
    fails its assumptions or a stage raises."""
    import numpy as np  # after a tree's cmjsim has set OpenBLAS's thread count

    clock = time.perf_counter
    try:
        t0 = clock()
        m = pkg.model.build_model(inp["model"])
        t1 = clock()
        ok = pkg.model.validate_assumptions(m).all_ok
        t2 = clock()
        if not ok:
            return None
        S = pkg.spectral.spectral_decompose(m.A)
        t3 = clock()
        row = np.asarray(inp["row"], dtype=float)
        if inp["family"] == "kesten_stigum":
            source = pkg.characteristics.make_phi1(S, row, model=m)
        else:
            source = row - float(row @ S.u) * S.v
        t4 = clock()
        pkg.constants.compute_constants(source, S, m)
        t5 = clock()
    except Exception:  # a refusal or crash is timed by neither tree
        return None
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4]


def tree_info(tree: Path) -> dict:
    digest = hashlib.sha256()
    paths = sorted((tree / "src" / "cmjsim").glob("*.py"))
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=tree, capture_output=True, text=True)
    dirty = "+dirty" if status.stdout.strip() else ""  # the measured sources differ from that commit
    return {
        "commit": head.stdout.strip() + dirty if head.returncode == 0 else None,
        "source_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in paths),
    }


def measure(trees: dict, inputs) -> dict:
    """``{label: [per-stage seconds of each timed model]}``, each model run
    in both trees, the first tree alternating per model."""
    labels = list(trees)
    times: dict = {label: [] for label in labels}
    for i, (inp,) in enumerate(inputs):
        order = labels if i % 2 == 0 else labels[::-1]
        got = {label: stage_seconds(trees[label], inp) for label in order}
        if all(t is not None for t in got.values()):
            for label, t in got.items():
                times[label].append(t)
    return times


def summarize(times: list) -> dict:
    """Median milliseconds of each stage and of the per-model total."""
    out = {stage: 1e3 * statistics.median(t[k] for t in times) for k, stage in enumerate(STAGES)}
    out["total"] = 1e3 * statistics.median(sum(t) for t in times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the changed tree")
    parser.add_argument("--seed", type=int, required=True, help="constants_sweep seed")
    parser.add_argument("--models", type=int, default=4000, help="sweep inputs to take (default 4000)")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    trees = {label: load_tree(tree, f"stage_{label}") for label, tree in dirs.items()}
    sweep = load_sweep()
    times = measure(trees, itertools.islice(sweep.inputs(args.seed), args.models))
    if not times["parent"]:
        raise SystemExit("no model completed in both trees")
    medians = {label: summarize(t) for label, t in times.items()}
    point = {
        "seed": args.seed,
        "models": args.models,
        "timed": len(times["parent"]),
        "nproc": os.cpu_count(),
        **{label: {**tree_info(tree), "median_ms": medians[label]} for label, tree in dirs.items()},
        # paired: the median over models of the change's total over the parent's
        "paired_change": statistics.median(sum(c) / sum(p) for p, c in zip(times["parent"], times["change"])) - 1.0,
    }
    print(f"seed {args.seed}: {point['timed']} of {args.models} models timed in both trees")
    print(f"{'stage':<22} {'parent ms':>10} {'change ms':>10}")
    for stage in (*STAGES, "total"):
        print(f"{stage:<22} {medians['parent'][stage]:>10.4f} {medians['change'][stage]:>10.4f}")
    print(f"per-model total, change against parent (paired median): {100 * point['paired_change']:+.2f} %")
    points = json.loads(OUT.read_text()) if OUT.exists() else []
    points.append(point)
    OUT.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
