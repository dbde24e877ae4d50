"""The benchmark's contract with the library.

Its traced run wraps library functions by name, with ``getattr`` on the
module where each caller looks the name up, so every ``(module,
attribute)`` it lists must resolve.  Its calibration workload reads the
batch API after each timed batch, so one batch per case must complete, and
its contract checks write CSVs through ``to_csv``, so every check must
pass.  Its constants sweep and the verify workload's set-up call the
library directly, not through the tracer, so one round of each must run.
A renamed function or a changed batch API would otherwise surface only when
the benchmark runs."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _wraps():
    return _load("tracer").WRAPS


def test_every_wrapped_name_resolves():
    wraps = _wraps()
    assert wraps
    missing = [
        (mod, attr)
        for mod, attr, _ in wraps
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, missing


def test_calibration_batch_completes_on_every_case(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its ``import common``
    calibration = _load("calibration")
    for case in calibration.setup(0):
        op = calibration.batch_op(case, 1)
        assert op.status == "completed", (case.name, op.detail)
        assert not op.wrong and op.items == calibration.R, (case.name, op.detail)


def test_calibration_contract_checks_complete_on_every_case(monkeypatch, tmp_path):
    # the benchmark's one call of BatchResult.to_csv(path, t=...)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    calibration = _load("calibration")
    monkeypatch.setattr(calibration, "OUT", tmp_path)
    ops = calibration.contract_checks(calibration.setup(0), 0)
    assert len(ops) == 2 * len(calibration.SCENARIOS)
    for op in ops:
        assert op.status == "completed" and not op.wrong, (op.stratum, op.kind, op.detail)
    assert not list(tmp_path.iterdir())


def test_constants_sweep_round_is_never_wrong(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sweep = _load("constants_sweep")
    stream = sweep.inputs(0)
    ops = [sweep.model_op(*next(stream)) for _ in sweep.FAMILIES]
    assert [op.stratum for op in ops] == list(sweep.FAMILIES)
    for op in ops:
        assert op.status in ("completed", "refused") and not op.wrong, (op.stratum, op.kind, op.detail)


def test_verify_cli_setup_runs_on_every_preset(monkeypatch):
    # unpacks cli.build_characteristic as (phi, row) and passes the row, when
    # there is one, to compute_constants
    monkeypatch.syspath_prepend(str(PERFBENCH))
    _load("verify_cli").setup(0)
