"""The output-contract scripts' contract with the library.

``scripts/constants_digest.py`` and ``scripts/cli_digest.py`` compare two
trees by what the program computes and prints.  They reach into the library
(``cli._Pipeline``, ``compute_constants``, ``presets._bernoulli_column``,
``save_scenario``) and into the benchmark
(``calibration.asym_leak_custom``, ``constants_sweep.inputs``), so a renamed
name would otherwise surface only when someone runs them.  The digests
themselves depend on numpy and BLAS, so only their shape is checked here,
and the equalities between lines of one run that a derived scenario
registers."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
import yaml

from cmjsim.cli import main
from cmjsim.presets import preset
from cmjsim.scenario import ScenarioError, save_scenario, scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def script(monkeypatch):
    """Load ``scripts/<name>.py`` as a module; both scripts prepend to
    ``sys.path``, which is restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))

    def load(name: str):
        spec = importlib.util.spec_from_file_location(f"scripts_{name}", ROOT / "scripts" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_constants_digest_hashes_every_preset_input(script):
    # 8 presets, no sweep seed, 8 custom characteristics per preset
    value, n = script("constants_digest").digest(ROOT, 0)
    assert n == 72 and len(value) == 64


def test_cli_digest_runs_every_command_on_a_preset(script):
    cli_digest = script("cli_digest")
    codes = [cli_digest._run(main, "jordan_critical", command, extra)[1] for command, extra in cli_digest.RUNS]
    # analyze, constants, star-check, verify at 1 and 2 workers, simulate at 1 and 2
    assert codes == [0, 0, 0, 3, 3, 0, 0]


def test_cli_digest_derives_valid_scenario_files(script):
    docs = list(script("cli_digest")._derived(preset))
    assert docs
    for _, doc in docs:
        scenario_from_dict(doc)


def test_cli_digest_refused_scenario_files_are_refused(script, tmp_path, capsys):
    # every command exits 1 on each, with the schema's message on stderr alone
    cli_digest = script("cli_digest")
    docs = dict(cli_digest._refused(preset))
    assert docs
    for name, doc in docs.items():
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        for command, extra in cli_digest.RUNS:
            assert main([command, "--scenario", str(path), *extra]) == 1
            assert capsys.readouterr() == ("", f"error: {err.value}\n")


def test_cli_digest_registers_each_age0_form_on_one_road(script, tmp_path):
    # a row and its age-0 table, and the zero row and the empty table, print the same constants
    cli_digest = script("cli_digest")
    docs = dict(cli_digest._derived(preset))

    def constants(name: str):
        if name in docs:
            path = tmp_path / f"{name}.yaml"
            save_scenario(scenario_from_dict(docs[name]), path)
            name = str(path)
        return cli_digest._run(main, name, "constants", ())

    assert constants("two_type_mirror+age0_table") == constants("two_type_mirror")
    assert constants("single_type_binary+zero_row") == constants("single_type_binary+zero_table")
