"""cmjsim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from ``src/``.  With
``--trace 0`` the workload is measured untraced and the end-to-end metrics of
``BENCHMARK.json`` are printed; with ``--trace 1`` every layer is measured
under the span recorder, each on the workload the layer map in
``perfbench/layers.json`` assigns it to, together with the tracing overhead
of each workload.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds provenance, outcome accounting and sample counts, and the same report
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

from common import OUT, ROOT, SRC, median, run_child, tail
from tracer import Tracer

WORKLOADS = ("verify_cli", "calibration", "constants_sweep")
SETUP_PROBES = 5


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load(workload: str):
    """The workload's module; importing it imports cmjsim, except for
    ``verify_cli``, whose client never imports the program."""
    return importlib.import_module(workload)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up in a fresh process: ``import cmjsim`` plus the workload's model,
    spectral and constants set-up, timed inside the child."""
    child = run_child(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    )
    if child.code != 0:
        raise RuntimeError(f"set-up probe failed ({child.code}): {child.stderr.strip()[-500:]}")
    return float(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])


def timed_setup(workload: str, seed: int) -> float:
    start = time.perf_counter()
    import cmjsim  # noqa: F401  (the import is part of set-up)

    load(workload).setup(seed)
    return time.perf_counter() - start


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cmjsim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain export has no commit; never ask a parent repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def accounting(ops) -> dict:
    attempted = len(ops)
    counts = {s: sum(1 for op in ops if op.status == s) for s in ("completed", "refused", "failed")}
    kinds: dict = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {
        "attempted": attempted,
        **counts,
        "wrong_answers": sum(1 for op in ops if op.wrong),
        "failed_share": counts["failed"] / attempted,
        "by_kind": kinds,
        "failures": [{"stratum": op.stratum, "kind": op.kind, **op.detail} for op in ops if op.status == "failed"][:20],
    }


def strata(ops) -> dict:
    """Per input class: operation count, median time and outcome tallies
    (for verify_cli and calibration these are the verdicts)."""
    out: dict = {}
    for op in ops:
        entry = out.setdefault(op.stratum, {"n": 0, "times": [], "outcomes": {}})
        entry["n"] += 1
        entry["times"].append(op.seconds)
        entry["outcomes"][op.kind] = entry["outcomes"].get(op.kind, 0) + 1
    for entry in out.values():
        entry["p50_ms"] = 1e3 * median(entry.pop("times"))
    return out


def untraced(args) -> tuple[dict, dict, list]:
    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    module = load(args.workload)
    state = module.setup(args.seed)
    result = module.measure(args.seed, args.seconds, state)
    ops = result["ops"]
    times = [op.seconds for op in ops]
    tail_value, tail_level = tail(times)
    items = sum(op.items for op in ops)
    peak = result.get("peak_rss_mb")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_ops = ops + result.get("checks", [])
    failed = sum(1 for op in all_ops if op.status == "failed")
    metrics = {
        "setup_s": median(setups),
        "op_p50_ms": 1e3 * median(times),
        "op_tail_ms": 1e3 * tail_value,
        "items_per_s": items / sum(times),
        "peak_rss_mb": peak,
        "ok_share": (len(all_ops) - failed) / len(all_ops),
    }
    samples = {
        "setup_s": {"n": SETUP_PROBES, "setup_samples_s": setups},
        "op_p50_ms": {"n": len(times)},
        "op_tail_ms": {"n": len(times), "percentile": tail_level},
        "items_per_s": {"n": items, "unit_of_work": result["items_unit"], "busy_s": sum(times)},
        "peak_rss_mb": {"n": len(ops) if "peak_rss_mb" in result else 1},
        "ok_share": {"n": len(all_ops)},
    }
    extra = {
        "samples": samples,
        "accounting": accounting(ops),
        "strata": strata(ops),
        "op_seconds": [[op.stratum, op.seconds] for op in ops],
        "contract_checks": accounting(result["checks"]) if "checks" in result else None,
        **result.get("info", {}),
    }
    if args.workload == "constants_sweep":
        extra["certified_share"] = sum(1 for op in ops if op.kind == "certified") / len(ops)
    return metrics, extra, all_ops


def traced(args) -> tuple[dict, dict, list]:
    """Every workload's traced pass, a third of ``--seconds`` each."""
    metrics: dict = {}
    extra: dict = {"spans": {}}
    all_ops = []
    for workload in WORKLOADS:
        module = load(workload)
        state = module.setup(args.seed)
        tracer = Tracer()
        layer_metrics, ops = module.trace(args.seed, args.seconds / len(WORKLOADS), tracer, state)
        metrics.update(layer_metrics)
        all_ops += ops
        path = OUT / f"spans-{workload}-seed{args.seed}.json"
        tracer.write(path)
        extra["spans"][workload] = {
            "file": str(path.relative_to(ROOT)),
            "recorded": len(tracer.spans),
            "dropped": tracer.dropped,
            "calls": {name: tot.calls for name, tot in sorted(tracer.totals.items())},
        }
        extra[f"accounting_{workload}"] = accounting(ops)
    return metrics, extra, all_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cmjsim" / "__init__.py").is_file():
        print(f"error: no cmjsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)}))
        return 0

    spec = benchmark_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, extra, ops = (traced if args.trace else untraced)(args)
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    report = {"provenance": provenance(args), **extra}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    report.pop("op_seconds", None)  # in the file only: one entry per operation
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": not any(op.wrong for op in ops),
                "attempted": len(ops),
                "failed": sum(1 for op in ops if op.status == "failed"),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
