"""The benchmark's contract with the library.

Its traced run wraps library functions by name, with ``getattr`` on the
module where each caller looks the name up, so every ``(module,
attribute)`` it lists must resolve.  Its calibration workload reads the
batch API after each timed batch, so one batch per case must complete.  A
renamed function or a changed batch API would otherwise surface only when
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
