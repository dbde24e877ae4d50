"""The benchmark's traced run wraps library functions by name, with
``getattr`` on the module where each caller looks the name up.  Every
``(module, attribute)`` it lists must therefore resolve; a renamed or
removed function would otherwise surface only when the traced run fails."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up
    spec.loader.exec_module(tracer)
    return tracer.WRAPS


def test_every_wrapped_name_resolves():
    wraps = _wraps()
    assert wraps
    missing = [
        (mod, attr)
        for mod, attr, _ in wraps
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, missing
