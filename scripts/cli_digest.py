"""Print one sha256 per preset and CLI subcommand over everything it outputs.

    python3 scripts/cli_digest.py [--tree DIR]

Runs ``cmjsim.cli.main`` in-process on every preset for ``analyze``,
``constants``, ``star-check``, and ``verify`` (with ``--emit-hist``) and
``simulate`` at ``--workers 1`` and ``2``, each with ``--out`` in a fresh
directory.  Every preset is at most three blocks, which two workers run
in-process, so ``simulate`` also runs at both worker counts on a scenario
file of ``asym_leak`` with ``run.replicates: 1100``: five blocks, which two
workers run in the process pool (lines named ``asym_leak@1100``).  Each line hashes the run's stdout, stderr, exit code and every
file it wrote (name and bytes), with the output directory's path masked,
and ends with the run's name and exit code.  Two trees that print the same
line ran that command with the same output byte for byte.  ``--tree``
measures another checkout of the program (default: this one); nothing is
written outside a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (
    ("analyze", ()),
    ("constants", ()),
    ("star-check", ()),
    ("verify", ("--workers", "1")),
    ("verify", ("--workers", "2")),
    ("simulate", ("--workers", "1")),
    ("simulate", ("--workers", "2")),
)
POOLED = ("asym_leak", 1100)
MASK = "<out>"


def _run(main, scenario: str, command: str, extra: tuple) -> tuple[str, int]:
    """(sha256 hex digest, exit code) of one command on one preset or
    scenario file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        target = out / ("report.csv" if command == "simulate" else "report.json")
        argv = [command, "--scenario", scenario, *extra, "--out", str(target)]
        if command == "verify":
            argv += ["--emit-hist", str(out / "hist.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        h = hashlib.sha256()
        for part in (stdout.getvalue(), stderr.getvalue(), str(code)):
            h.update(part.replace(tmp, MASK).encode() + b"\0")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes().replace(tmp.encode(), MASK.encode()) + b"\0")
    return h.hexdigest(), code


def digests(tree: Path):
    """Yield ``(digest, name, command, extra, exit code)`` for the program
    in ``tree``, presets in ``PRESETS`` order, then the pooled ``simulate``
    runs."""
    sys.path.insert(0, str(tree / "src"))
    from cmjsim.cli import main
    from cmjsim.presets import PRESETS, preset
    from cmjsim.scenario import save_scenario, scenario_from_dict

    for name in PRESETS:
        for command, extra in RUNS:
            value, code = _run(main, name, command, extra)
            yield value, name, command, extra, code
    name, replicates = POOLED
    doc = preset(name).to_dict()
    doc["run"] = {**doc["run"], "replicates": replicates}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.yaml"
        save_scenario(scenario_from_dict(doc), path)
        for command, extra in RUNS:
            if command == "simulate":
                value, code = _run(main, str(path), command, extra)
                yield value, f"{name}@{replicates}", command, extra, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    for value, name, command, extra, code in digests(args.tree.resolve()):
        print(f"{value}  {name} {' '.join((command, *extra))}  exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
