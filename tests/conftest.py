"""Shared fixtures: each preset's model/spectral/constants built once per session."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from cmjsim import (
    build_model,
    compute_constants,
    make_indicator_characteristic,
    preset,
    spectral_decompose,
    validate_assumptions,
)
from cmjsim.scenario import check_characteristic


class PresetBundle:
    """Lazily-built (scenario, model, spectral, constants) for one preset."""

    def __init__(self, name: str):
        self.name = name
        self.scenario = preset(name)
        self.model = build_model(self.scenario.model)
        self._S = None
        self._constants = None
        self._report = None

    @property
    def S(self):
        if self._S is None:
            self._S = spectral_decompose(self.model.A)
        return self._S

    @property
    def report(self):
        if self._report is None:
            self._report = validate_assumptions(self.model)
        return self._report

    @property
    def row(self) -> np.ndarray:
        row = check_characteristic(self.scenario.characteristic, self.model.J)[1][0]
        if row is None:
            raise ValueError(f"{self.name} has no single defining row")
        return np.asarray(row, dtype=float)

    @property
    def phi(self):
        return make_indicator_characteristic(self.row)

    @property
    def constants(self):
        if self._constants is None:
            self._constants = compute_constants(self.phi, self.S, self.model)
        return self._constants


_BUNDLES: dict[str, PresetBundle] = {}


def bundle(name: str) -> PresetBundle:
    if name not in _BUNDLES:
        _BUNDLES[name] = PresetBundle(name)
    return _BUNDLES[name]


@pytest.fixture(scope="session")
def single_type():
    return bundle("single_type_binary")


@pytest.fixture(scope="session")
def mirror():
    return bundle("two_type_mirror")


@pytest.fixture(scope="session")
def jordan():
    return bundle("jordan_critical")


@pytest.fixture(scope="session")
def cross_feed():
    return bundle("cross_feed")


@pytest.fixture(scope="session")
def asym_leak():
    return bundle("asym_leak")


@pytest.fixture(scope="session")
def three_scale():
    return bundle("three_scale_symmetric")


@pytest.fixture(scope="session")
def cyclic():
    return bundle("cyclic_three")


@pytest.fixture(scope="session")
def degenerate():
    return bundle("cross_feed_deterministic")


# ---------------------------------------------------------------------------
# acceptance summary: tests/test_acceptance.py records one line and one row per
# criterion; print the lines after the run so the log always carries the
# scoreboard, and write the rows, in tag order, to out/acceptance.json.
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES: list[str] = []
ACCEPTANCE_ROWS: list[dict] = []
SCOREBOARD = Path(__file__).resolve().parent.parent / "out" / "acceptance.json"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
    SCOREBOARD.parent.mkdir(exist_ok=True)
    rows = sorted(ACCEPTANCE_ROWS, key=lambda row: row["tag"])
    SCOREBOARD.write_text(json.dumps(rows, indent=2) + "\n")
