"""Shared fixtures: each preset taken once per session through the CLI's own
pipeline, ``cli._Pipeline``, and the loader of the repository's benchmark and
script files."""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cmjsim.cli import _Pipeline


@functools.cache
def bundle(name: str) -> _Pipeline:
    """The preset ``name`` as ``cmjsim`` runs it; each stage (``scn``,
    ``model``, ``assumptions``, ``S``, ``characteristic``, ``const``) is formed
    on first read and kept for the session."""
    return _Pipeline(argparse.Namespace(scenario=name, seed=None, workers=None))


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


def load_repo_module(relpath: str):
    """The repository's file ``relpath`` (``perfbench/tracer.py``,
    ``scripts/cli_digest.py``, ...) as the module ``perfbench_tracer``,
    ``scripts_cli_digest``, ..., with its own directory on ``sys.path`` while
    it loads, for ``perfbench``'s ``import common``."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location("_".join(Path(relpath).with_suffix("").parts), path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved = list(sys.path)
    sys.path.insert(0, str(path.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


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
