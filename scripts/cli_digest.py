"""Print one sha256 per scenario and CLI subcommand over everything it outputs.

    python3 scripts/cli_digest.py [--tree DIR]

Runs ``cmjsim.cli.main`` in-process on every preset for ``analyze``,
``constants``, and ``verify`` (with ``--emit-hist``) and
``simulate`` at ``--workers 1`` and ``2``, each with ``--out`` in a fresh
directory.  Every preset is at most three blocks, which two workers run
in-process, so ``simulate`` also runs at both worker counts on a scenario
file of ``asym_leak`` with ``run.replicates: 1100``: five blocks, which two
workers run in the process pool (lines named ``asym_leak@1100``).

Every preset counts an indicator with R >= 50, so the same runs also go
over scenario files derived from presets that reach what no preset does:
``asym_leak`` with the coeff and noise cells of ``perfbench/calibration.py``'s
``asym_leak_custom`` at its own 600 replicates, at 1 and at 1100
(``asym_leak_custom``, ``asym_leak_custom@1``, ``asym_leak_custom@1100``);
``single_type_binary`` counted by phi1 (``single_type_binary+kesten_stigum``);
``two_type_mirror`` counted by a base table at ages -1, 0 and 1 with a
trajectory and no requested case (``two_type_mirror+table``); the
``two_type_mirror`` indicator at one replicate (``two_type_mirror@1``);
and ``two_type_mirror`` counted by its row as a base table at age 0, whose
lines equal the preset's (``two_type_mirror+age0_table``).  Five more files
reach the degenerate scale and a mean matrix with no Perron root:
``single_type_binary`` counted by an all-zero table with no requested
case, whose verify checks that |T| decays
(``single_type_binary+zero_table``), and by the all-zero indicator row,
whose lines equal the zero table's (``single_type_binary+zero_row``); a
one-type model that dies out in every replicate at seed 11, whose verify
has no survivor to check decay on (``extinct@11``); and two two-type
models whose mean matrix is zero (``zero_matrix``) or nilpotent
(``nilpotent``), the two causes ``spectral_decompose`` names.  One more meets every standing assumption
and has rho/s1^2 = 0.9984: its descending sigma2 tail keeps terms above
1e-14 for about 10^4 lags, and the closed-form tail gives sigma2 = 50
(``uncertified_tail``).  Two count ``asym_leak``'s row plus a
noise cell at age 0 on type 1 with values 0 and v, each with probability
1/2: at v = 1e200 the cell's variance leaves float64, which every command
that reads the characteristic refuses (``asym_leak+huge_noise``); at
v = 1e150 the variance fits but the square of its row's norm does not
(``asym_leak+large_noise``).  One more counts every type of a four-type
model whose mean matrix has an exact zero row, each column a
Bernoulli-rounded law as the presets build them, under a labelling whose
projections ``spectral_decompose`` refuses: ``analyze``, ``constants`` and
``simulate`` refuse with that cause, and ``verify`` refuses the model as not
positively regular (``deflation_refused``).  Two more are
``single_type_binary`` at ``run.n: 2100``, where r_n = 2^1050 leaves
float64: ``verify`` and ``simulate`` refuse the r_t, each with exit 2, while
``analyze`` and ``constants`` run (``single_type_binary@n2100``), and at
``run.n: 1000``, where r_n fits but every replicate outgrows the overflow
guard: ``verify`` and ``simulate`` refuse the abort rate, each with exit 2
(``single_type_binary@n1000``).
The last two reach refusal causes no other line does: ``two_type_mirror``
counted by a base table at age -1500 with no requested case, where
pi1 A^k pi1 is not representable in float64 at k = 513, which
``constants``, ``verify`` and ``simulate`` refuse, while ``analyze`` runs
(``two_type_mirror+far_age``); and ``cross_feed`` at 80 replicates with
``run.case: ii``, whose ``verify`` refuses the requested case
(``cross_feed+case_ii``).  The last file is written as it is, since the
schema refuses it: ``asym_leak`` counted by two noise cells at age 0 on
type 1, on which every command exits 1 naming the later cell
(``asym_leak+duplicate_noise``).

A run that exits 2 having stopped early prints its report so far with
``verdict: REFUSED`` and its cause as ``reason``.  Each line hashes the
run's stdout, stderr (with a fresh warning registry, so a run prints its
warnings as it would alone), exit code and every file it wrote (name and bytes), with the output directory's path masked,
and ends with the run's name and exit code.  Two trees that print the same
line ran that command with the same output byte for byte.  ``--tree``
measures another checkout of the program (default: this one), always with
this checkout's ``asym_leak_custom``; nothing is written outside a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
RUNS = (
    ("analyze", ()),
    ("constants", ()),
    ("verify", ("--workers", "1")),
    ("verify", ("--workers", "2")),
    ("simulate", ("--workers", "1")),
    ("simulate", ("--workers", "2")),
)
POOLED = ("asym_leak", 1100)
TABLE = {"kind": "table", "base": {-1: ["1", "0"], 0: ["1", "-1"], 1: ["0", "1"]}}
AGE0_TABLE = {"kind": "table", "base": {0: ["1", "-1"]}}
FAR_AGE = {"kind": "table", "base": {-1500: ["1", "-1"]}}
MASK = "<out>"
EXTINCT = {
    "schema": 1,
    "model": {"types": 1, "initial_type": 1,
              "offspring": {1: [{"p": "1/2", "counts": [0]}, {"p": "1/2", "counts": [4]}]}},
    "characteristic": {"kind": "table", "base": {}},
    "run": {"n": 6, "delta": 2, "replicates": 3, "seed": 11, "trajectory": [4, 6]},
}
ZERO_MATRIX = {
    "schema": 1,
    "model": {"types": 2, "initial_type": 1,
              "offspring": {1: [{"p": 1, "counts": [0, 0]}], 2: [{"p": 1, "counts": [0, 0]}]}},
    "characteristic": {"kind": "indicator", "row": [1, 0]},
    "run": {"n": 4},
}
NILPOTENT = {**ZERO_MATRIX, "model": {"types": 2, "initial_type": 1, "offspring": {
    1: [{"p": "1/2", "counts": [0, 2]}, {"p": "1/2", "counts": [0, 0]}],
    2: [{"p": 1, "counts": [0, 0]}]}}}

UNCERTIFIED_TAIL = {
    "schema": 1,
    "model": {"types": 2, "initial_type": 1, "offspring": {
        1: [{"p": "37/100", "counts": [5, 2]}, {"p": "1/2", "counts": [4, 2]},
            {"p": "13/100", "counts": [4, 1]}],
        2: [{"p": "37/100", "counts": [2, 5]}, {"p": "1/2", "counts": [2, 4]},
            {"p": "13/100", "counts": [1, 4]}]}},
    "characteristic": {"kind": "indicator", "row": ["1", "-1"]},
    "run": {"n": 6, "delta": 4, "replicates": 300, "seed": 5},
}

# [[0,1.191,3.274,0.252],[0,0,0,0],[0.001,0,0,3.607],[0,2.65,2.518,0]] with
# types 1 and 2 swapped: its projections fail spectral_decompose's residual check
DEFLATION_REFUSED = (("0", "0", "0", "0"), ("1.191", "0", "3.274", "0.252"),
                     ("0", "0.001", "0", "3.607"), ("2.65", "0", "2.518", "0"))


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
            # a filter change empties the warning registry: each run prints
            # its own warnings once, as it would alone
            with warnings.catch_warnings():
                warnings.simplefilter("default", RuntimeWarning)
                code = main(argv)
        h = hashlib.sha256()
        for part in (stdout.getvalue(), stderr.getvalue(), str(code)):
            h.update(part.replace(tmp, MASK).encode() + b"\0")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes().replace(tmp.encode(), MASK.encode()) + b"\0")
    return h.hexdigest(), code


def _replicates(doc: dict, replicates: int) -> dict:
    return {**doc, "run": {**doc["run"], "replicates": replicates}}


def _derived(preset):
    """``(name, scenario document)`` of each scenario file that reaches a
    path no preset does."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from calibration import asym_leak_custom
    from cmjsim.presets import _bernoulli_column

    custom = asym_leak_custom().to_dict()
    yield "asym_leak_custom", custom
    for replicates in (1, 1100):
        yield f"asym_leak_custom@{replicates}", _replicates(custom, replicates)
    ks = preset("single_type_binary").to_dict()
    ks["characteristic"] = {"kind": "kesten_stigum", "row": ["1"]}
    yield "single_type_binary+kesten_stigum", ks
    mirror = preset("two_type_mirror").to_dict()
    table = {**mirror, "characteristic": TABLE, "run": {**mirror["run"], "trajectory": [10, 12]}}
    del table["run"]["case"]
    yield "two_type_mirror+table", table
    yield "two_type_mirror@1", _replicates(mirror, 1)
    yield "two_type_mirror+age0_table", {**mirror, "characteristic": AGE0_TABLE}
    zero = preset("single_type_binary").to_dict()
    zero["characteristic"] = {"kind": "table", "base": {}}
    del zero["run"]["case"]
    yield "single_type_binary+zero_table", zero
    yield "single_type_binary+zero_row", {**zero, "characteristic": {"kind": "indicator", "row": ["0"]}}
    yield "extinct@11", EXTINCT
    yield "zero_matrix", ZERO_MATRIX
    yield "nilpotent", NILPOTENT
    yield "uncertified_tail", UNCERTIFIED_TAIL
    for size, value in (("huge", 1e200), ("large", 1e150)):
        noisy = preset("asym_leak").to_dict()
        noisy["characteristic"] = {"kind": "custom", "base": {0: ["1", "-1"]}, "noise": [
            {"age": 0, "type": 1, "probs": ["1/2", "1/2"], "values": [0, value]}]}
        yield f"asym_leak+{size}_noise", noisy
    offspring = {}
    for j in range(4):
        means = [Fraction(row[j]) for row in DEFLATION_REFUSED]
        offspring[j + 1] = _bernoulli_column([int(x) for x in means], [x - int(x) for x in means])
    yield "deflation_refused", {
        "schema": 1, "model": {"types": 4, "initial_type": 1, "offspring": offspring},
        "characteristic": {"kind": "indicator", "row": [1, 1, 1, 1]}, "run": {"n": 4},
    }
    large_n = preset("single_type_binary").to_dict()
    large_n["run"]["n"] = 2100
    yield "single_type_binary@n2100", large_n
    yield "single_type_binary@n1000", {**large_n, "run": {**large_n["run"], "n": 1000}}
    far = preset("two_type_mirror").to_dict()
    far["characteristic"] = FAR_AGE
    del far["run"]["case"]
    yield "two_type_mirror+far_age", far
    case_ii = preset("cross_feed").to_dict()
    case_ii["run"].update(case="ii", replicates=80)
    yield "cross_feed+case_ii", case_ii


def _refused(preset):
    """``(name, scenario document)`` of each scenario file the schema
    refuses, which every command answers with exit 1."""
    duplicate = preset("asym_leak").to_dict()
    duplicate["characteristic"] = {"kind": "custom", "base": {0: ["1", "-1"]}, "noise": [
        {"age": 0, "type": 1, "probs": ["1/2", "1/2"], "values": [0, 1]},
        {"age": 0, "type": 1, "probs": [1], "values": [5]}]}
    yield "asym_leak+duplicate_noise", duplicate


def digests(tree: Path):
    """Yield ``(digest, name, command, extra, exit code)`` for the program
    in ``tree``, presets in ``PRESETS`` order, then the pooled ``simulate``
    runs, then every run on each derived scenario and each refused one."""
    sys.path.insert(0, str(tree / "src"))
    from cmjsim.cli import main
    from cmjsim.presets import PRESETS, preset
    from cmjsim.scenario import save_scenario, scenario_from_dict

    for name in PRESETS:
        for command, extra in RUNS:
            value, code = _run(main, name, command, extra)
            yield value, name, command, extra, code
    name, replicates = POOLED
    files = [(f"{name}@{replicates}", _replicates(preset(name).to_dict(), replicates), "simulate")]
    refused = dict(_refused(preset))
    files += [(derived, doc, None) for derived, doc in (*_derived(preset), *refused.items())]
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, only in files:
            path = Path(tmp) / f"{name}.yaml"
            if name in refused:  # written as it is, since the schema refuses it
                path.write_text(yaml.safe_dump(doc, sort_keys=False))
            else:
                save_scenario(scenario_from_dict(doc), path)
            for command, extra in RUNS:
                if only in (None, command):
                    value, code = _run(main, str(path), command, extra)
                    yield value, name, command, extra, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    for value, name, command, extra, code in digests(args.tree.resolve()):
        print(f"{value}  {name} {' '.join((command, *extra))}  exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
