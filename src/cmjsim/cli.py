"""Command-line interface.

Subcommands::

    analyze     validate model assumptions and print the spectral analysis
    constants   print every limit constant with its error certificate
    simulate    run a replicate batch and write per-replicate CSV
    verify      run the full statistical acceptance battery (PASS/FAIL)

Each subcommand adds its blocks to one report, and ``main`` alone writes it:
to ``--out`` first (``simulate``: its ``--out`` is the CSV), then ``verify``'s
``--emit-hist``, then as the one JSON document on stdout.  Exit codes: 0
success / statistical PASS; 1 usage or schema error, or an output that cannot
be written, or one file named by both ``--out`` and ``--emit-hist``, named
on stderr, with nothing on stdout and none of the run's files left; 2 a
refusal; 3 statistical FAIL.  Every subcommand refuses in one
form: the report formed so far, with ``verdict: REFUSED`` and
a ``reason`` naming the cause (failed assumptions, no Perron root,
uncertifiable constants, a case mismatch, an unusable run, a value outside
float64).  ``analyze`` and ``constants`` on a model that fails its
assumptions write their whole report and exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .characteristics import Characteristic, NoiseLaw, make_phi1
from .constants import TheoreticalConstants, compute_constants
from .model import build_model, validate_assumptions
from .presets import PRESETS, preset
from .scenario import Scenario, ScenarioError, _canon_run, check_characteristic, load_scenario
from .simulator import run_batch
from .spectral import spectral_decompose
from .stats import ABORT_RATE_MAX, lln_check, studentized, verify_dichotomy

__all__ = ["main", "build_characteristic"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSUMPTION = 2
EXIT_STAT_FAIL = 3


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fields(obj, drop=()) -> dict:
    """A dataclass instance's fields by name, without those in ``drop``."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in drop}


def _to_jsonable(x):
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = _fields(x)
    if isinstance(x, np.generic):
        x = x.item()
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, complex):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, np.ndarray):
        return [_to_jsonable(v) for v in x.tolist()]
    if isinstance(x, Mapping):
        return {str(k): _to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_jsonable(v) for v in x]
    raise TypeError(f"no JSON form for {type(x).__name__}")


def _dumps(x) -> str:
    return json.dumps(_to_jsonable(x), indent=2, sort_keys=True)


def _write(path: str, write) -> None:
    """Make the directory of the output file ``path``, then ``write(path)``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write(path)


# ---------------------------------------------------------------------------
# scenario -> domain objects
# ---------------------------------------------------------------------------

def _load(scenario_arg: str) -> Scenario:
    if os.path.exists(scenario_arg):
        return load_scenario(scenario_arg)
    if scenario_arg in PRESETS:
        return preset(scenario_arg)
    raise ScenarioError(
        f"scenario: {scenario_arg!r} is neither a file nor a preset "
        f"(presets: {', '.join(PRESETS)})"
    )


def build_characteristic(scn: Scenario, model, S) -> tuple[Characteristic, np.ndarray | None]:
    """Characteristic named by the scenario, built from the exact values
    :func:`check_characteristic` parses, plus its row for ``kind: indicator``
    (None otherwise), which only the benchmark reads.  Only ``kesten_stigum``
    reads ``S``.  The pipeline forms ``S`` first, so its refusals come first."""
    kind = scn.characteristic["kind"]
    row, base, coeff, cells = check_characteristic(scn.characteristic, model.J)[1]
    row = None if row is None else np.array(row, dtype=float)
    if kind == "kesten_stigum":
        return make_phi1(S, row, model=model, k_min=scn.times[-1] - scn.N + 1), None
    noise = {}
    for key, (i, probs, values) in cells.items():
        try:
            noise[key] = NoiseLaw(tuple(map(float, probs)), tuple(complex(float(v)) for v in values))
        except ValueError as exc:
            raise ScenarioError(f"characteristic.noise[{i}]: {exc}") from None
    base, coeff = ({k: np.array(r, dtype=float) for k, r in t.items()} for t in (base, coeff))
    return Characteristic(J=model.J, base=base, coeff=coeff, noise=noise, label=kind), row


def _spectral_report(S) -> dict:
    return {
        "rho": S.rho,
        "sqrt_rho": S.sqrt_rho,
        "u": S.u,
        "v": S.v,
        "theta": S.theta,
        "clusters": [_fields(cl, drop=("projection",)) for cl in S.clusters],
        "residuals": S.residuals,
        "worst_residual": max(S.residuals.values()),
    }


_ASSUMPTION_FAILURES = (
    ("supercritical", "not supercritical"),
    ("positively_regular", "not positively regular"),
    ("nondegenerate", "degenerate"),
)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

class _Pipeline:
    """One scenario taken through load -> build_model -> validate_assumptions
    -> spectral_decompose -> build_characteristic -> compute_constants.

    Each stage runs on first use, so a subcommand runs only the stages it
    reads, in that order.  ``report`` holds the blocks a subcommand has
    formed so far; a subcommand refuses by raising, and ``main`` writes them,
    then each (path, text) in ``files``."""

    def __init__(self, args):
        self.args = args
        self.report = {}
        self.files = []

    @cached_property
    def scn(self) -> Scenario:
        scn = _load(self.args.scenario)
        # --seed and --workers override the file's run section and meet its rules
        overrides = {k: v for k in ("seed", "workers") if (v := getattr(self.args, k)) is not None}
        return dataclasses.replace(scn, run=_canon_run({**scn.run, **overrides}))

    @cached_property
    def model(self):
        return build_model(self.scn.model)

    @cached_property
    def assumptions(self):
        return validate_assumptions(self.model)

    @cached_property
    def S(self):
        return spectral_decompose(self.model.A)

    @cached_property
    def characteristic(self) -> Characteristic:
        return build_characteristic(self.scn, self.model, self.S)[0]

    @cached_property
    def const(self) -> TheoreticalConstants:
        return compute_constants(self.characteristic, self.S, self.model)

    def batch(self):
        scn, const = self.scn, self.const
        return run_batch(
            self.model, [self.characteristic], scn.n, scn.N, scn.run["replicates"], scn.run["seed"],
            S=self.S, constants=const, ns=scn.times, workers=scn.run["workers"],
        )


def _cmd_analyze(run: _Pipeline) -> int:
    run.report.update(assumptions=run.assumptions, scenario=run.scn.to_dict()["model"])
    run.report["spectral"] = _spectral_report(run.S)
    return EXIT_OK if run.assumptions.all_ok else EXIT_ASSUMPTION


def _cmd_constants(run: _Pipeline) -> int:
    run.report["assumptions"] = run.assumptions
    run.report["spectral"] = _spectral_report(run.S)
    run.report["constants"] = run.const
    return EXIT_OK if run.assumptions.all_ok else EXIT_ASSUMPTION


def _cmd_simulate(run: _Pipeline) -> int:
    batch = run.batch()
    out = run.args.out or os.path.join(run.scn.output["dir"], "simulate.csv")
    _write(out, lambda path: batch.to_csv(path, t=run.scn.n))
    run.report.update(batch.summary(), csv=out)
    if batch.abort_rate > ABORT_RATE_MAX:
        raise RuntimeError(f"abort rate {batch.abort_rate:.1%} exceeds {ABORT_RATE_MAX:.0%}")
    return EXIT_OK


def _cmd_verify(run: _Pipeline) -> int:
    scn, report, w_min = run.scn, run.report, run.scn.run["w_min"]
    report["assumptions"] = run.assumptions
    if not run.assumptions.all_ok:
        failed = [text for key, text in _ASSUMPTION_FAILURES if not getattr(run.assumptions, key)]
        raise RuntimeError("standing assumptions fail: " + ", ".join(failed))
    const = run.const
    # B_table is the constants subcommand's: here it would be most of the output
    report["constants"] = _fields(const, drop=("B_table",))
    batch = run.batch()
    try:
        verified = verify_dichotomy(batch, const, run.S, w_min=w_min, requested_case=scn.run["case"])
    except ValueError as exc:  # the wrong case, or too few survivors to judge
        raise RuntimeError(str(exc)) from None
    report["verification"] = verified.to_dict()
    report["lln"] = lln_check(batch, run.characteristic, run.model, run.S, w_min=w_min)
    report["verdict"] = "PASS" if verified.passed else "FAIL"
    if run.args.emit_hist:
        eps, _ = studentized(batch, const, t=scn.n, w_min=w_min)
        vals = eps.real
        counts, edges = np.histogram(vals, bins=max(10, int(math.sqrt(max(vals.size, 1)) * 2)))
        hist = {
            "bin_edges": edges,
            "counts": counts,
            "mean": float(vals.mean()) if vals.size else None,
            "var": float(vals.var(ddof=1)) if vals.size > 1 else None,
        }
        run.files.append((run.args.emit_hist, _dumps(hist) + "\n"))
    return EXIT_OK if verified.passed else EXIT_STAT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "analyze": ("model assumptions and spectral analysis", _cmd_analyze),
    "constants": ("limit constants with error certificates", _cmd_constants),
    "simulate": ("replicate batch -> CSV", _cmd_simulate),
    "verify": ("statistical acceptance battery", _cmd_verify),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmjsim",
        description="Multitype branching processes counted with random "
        "characteristics: exact constants, exact simulation, statistical checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--scenario", required=True, help="scenario YAML path or preset name")
        sp.add_argument("--seed", type=int, default=None, help="override run.seed")
        sp.add_argument("--workers", type=int, default=None, help="override run.workers")
        sp.add_argument("--out", default=None, help="also write the JSON report/CSV here")
        if name == "verify":
            sp.add_argument(
                "--emit-hist", default=None, help="write a histogram of the studentized statistic"
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    run = _Pipeline(args)
    try:
        hist = getattr(args, "emit_hist", None)
        if args.out and hist and os.path.realpath(args.out) == os.path.realpath(hist):
            raise ValueError(f"--out and --emit-hist name one file: {hist!r}")
        try:
            code = _COMMANDS[args.command][1](run)
        except (ArithmeticError, RuntimeError) as exc:  # a refusal: the report so far, and its cause
            run.report.update(verdict="REFUSED", reason=str(exc))
            code = EXIT_ASSUMPTION
        # the one write of the report: --out first, then the other files, and
        # stdout last, so a failed write leaves no output of this run behind
        text = _dumps(run.report)
        if args.out and args.command != "simulate":  # simulate's --out is its CSV
            run.files.insert(0, (args.out, text + "\n"))
        for i, (path, body) in enumerate(run.files):
            try:
                _write(path, lambda p: Path(p).write_text(body))
            except OSError:
                for done, _ in run.files[:i]:
                    os.remove(done)
                raise
        print(text)
        return code
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
