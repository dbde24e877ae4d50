"""Print one sha256 per preset and CLI subcommand over everything it outputs.

    python3 scripts/cli_digest.py [--tree DIR]

Runs ``cmjsim.cli.main`` in-process on every preset for ``analyze``,
``constants``, ``star-check``, and ``verify`` (with ``--emit-hist``) and
``simulate`` at ``--workers 1`` and ``2``, each with ``--out`` in a fresh
directory.  Each line hashes the run's stdout, stderr, exit code and every
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
MASK = "<out>"


def _run(main, preset: str, command: str, extra: tuple) -> tuple[str, int]:
    """(sha256 hex digest, exit code) of one command on one preset."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        target = out / ("report.csv" if command == "simulate" else "report.json")
        argv = [command, "--scenario", preset, *extra, "--out", str(target)]
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
    """Yield ``(digest, preset, command, extra, exit code)`` for the program
    in ``tree``, presets in ``PRESETS`` order."""
    sys.path.insert(0, str(tree / "src"))
    from cmjsim.cli import main
    from cmjsim.presets import PRESETS

    for preset in PRESETS:
        for command, extra in RUNS:
            value, code = _run(main, preset, command, extra)
            yield value, preset, command, extra, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    for value, preset, command, extra, code in digests(args.tree.resolve()):
        print(f"{value}  {preset} {' '.join((command, *extra))}  exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
