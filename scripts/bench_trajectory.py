"""Append one benchmark point to the committed trajectory, or summarize its pairs.

    python3 scripts/bench_trajectory.py --workload calibration --seed 901 \
        [--seconds 26] [--tree DIR] [--label parent|change|...]
    python3 scripts/bench_trajectory.py --workload calibration --summary

Runs ``perfbench/run.py`` untraced on one workload in ``--tree`` (a checkout
of the program, by default this repository) and appends a point to
``BENCH_<workload>.json`` at this repository's root.  A point holds the
tree's ``tree_identity``: the commit (suffixed ``+dirty`` when ``src/`` has
uncommitted changes), the hash of the sources the run measured and
``src_lines`` (the lines in the tree's ``src/cmjsim/*.py``).  It also holds
``nproc``, the seed, ``--seconds``, the repeat count (the timed operations
behind the per-operation metrics) and the six end-to-end metrics.
Alternate parent and change runs on fresh seeds to compare two trees on the
same machine.

``--summary`` runs nothing and writes nothing: it reads the workload's
``BENCH_<workload>.json`` and pairs the points labelled ``parent`` and
``change`` that share a seed, among those measuring the sources of the
last point of each label.  For each end-to-end metric of ``BENCHMARK.json``
it prints both medians, the parent's quartiles (``statistics.quantiles``)
and the pairs in which the change is better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tree_identity import tree_identity

ROOT = Path(__file__).resolve().parent.parent


def run_point(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    prov = report["provenance"]
    return {
        **tree_identity(tree),
        "nproc": prov["nproc"],
        "seed": seed,
        "seconds": seconds,
        "repeats": report["samples"]["op_p50_ms"]["n"],
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def labelled_pairs(points: list) -> list:
    """``(parent, change)`` points with one seed, in the order of the change
    points, among the points of the last source measured under each label;
    a later point of a seed replaces an earlier one."""
    source = {p["label"]: p["source_sha256"] for p in points if p.get("label") in ("parent", "change")}
    if len(source) < 2:
        return []
    by_seed = {"parent": {}, "change": {}}
    for p in points:
        if p.get("label") in source and p["source_sha256"] == source[p["label"]]:
            by_seed[p["label"]][p["seed"]] = p
    return [(by_seed["parent"][seed], c) for seed, c in by_seed["change"].items() if seed in by_seed["parent"]]


def summarize(points: list, end_to_end: list) -> str:
    """The summary table of ``labelled_pairs(points)``."""
    pairs = labelled_pairs(points)
    if not pairs:
        return "no parent/change pairs"
    parent, change = pairs[0]
    lines = [
        f"{len(pairs)} pairs: parent {parent['source_sha256'][:12]} (src_lines {parent['src_lines']}), "
        f"change {change['source_sha256'][:12]} (src_lines {change['src_lines']}), seeds "
        f"{min(c['seed'] for _, c in pairs)}-{max(c['seed'] for _, c in pairs)}",
        f"{'metric':<12} {'parent median':>14} {'parent q1':>11} {'parent q3':>11} "
        f"{'change median':>14} {'change wins':>12}",
    ]
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a = [p["metrics"][name] for p, _ in pairs]
        b = [c["metrics"][name] for _, c in pairs]
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], None, a[0])
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        lines.append(
            f"{name:<12} {statistics.median(a):>14.4g} {q1:>11.4g} {q3:>11.4g} "
            f"{statistics.median(b):>14.4g} {f'{wins}/{len(pairs)}':>12}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify_cli", "calibration", "constants_sweep"))
    parser.add_argument("--seed", type=int, default=None, help="the run's seed (required unless --summary)")
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--label", default=None, help="free-form tag stored with the point")
    parser.add_argument("--summary", action="store_true", help="print the labelled pairs' summary; run nothing")
    args = parser.parse_args(argv)
    path = ROOT / f"BENCH_{args.workload}.json"
    points = json.loads(path.read_text()) if path.exists() else []
    if args.summary:
        print(summarize(points, json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]))
        return 0
    if args.seed is None:
        parser.error("--seed is required to run a point")

    point = run_point(args.tree.resolve(), args.workload, args.seed, args.seconds)
    if args.label is not None:
        point = {"label": args.label, **point}
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")
    print(json.dumps(point))
    return 0


if __name__ == "__main__":
    sys.exit(main())
