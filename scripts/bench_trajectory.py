"""Append one benchmark point to the committed trajectory.

    python3 scripts/bench_trajectory.py --workload calibration --seed 901 \
        [--seconds 26] [--tree DIR] [--label parent|change|...]

Runs ``perfbench/run.py`` untraced on one workload in ``--tree`` (a checkout
of the program, by default this repository) and appends a point to
``BENCH_<workload>.json`` at this repository's root.  A point holds the
commit (suffixed ``+dirty`` when ``src/`` has uncommitted changes) and the
hash of the sources the run measured, ``src_lines`` (the lines in the
tree's ``src/cmjsim/*.py``), ``nproc``, the seed, ``--seconds``, the repeat
count (the timed operations behind the per-operation metrics) and the six
end-to-end metrics.  Alternate parent and change runs on fresh seeds
to compare two trees on the same machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

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
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=tree, capture_output=True, text=True
    )
    dirty = status.returncode == 0 and bool(status.stdout.strip())
    return {
        # "+dirty": the measured sources differ from that commit; the hash names them
        "commit": f"{prov['git_commit']}+dirty" if dirty else prov["git_commit"],
        "source_sha256": prov["source_sha256"],
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (tree / "src" / "cmjsim").glob("*.py")),
        "nproc": prov["nproc"],
        "seed": seed,
        "seconds": seconds,
        "repeats": report["samples"]["op_p50_ms"]["n"],
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify_cli", "calibration", "constants_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--label", default=None, help="free-form tag stored with the point")
    args = parser.parse_args(argv)

    point = run_point(args.tree.resolve(), args.workload, args.seed, args.seconds)
    if args.label is not None:
        point = {"label": args.label, **point}
    path = ROOT / f"BENCH_{args.workload}.json"
    points = json.loads(path.read_text()) if path.exists() else []
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")
    print(json.dumps(point))
    return 0


if __name__ == "__main__":
    sys.exit(main())
