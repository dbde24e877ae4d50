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

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from cmjsim.cli import main
from cmjsim.presets import preset
from cmjsim.scenario import ScenarioError, save_scenario, scenario_from_dict

from conftest import load_repo_module

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def script(monkeypatch):
    """Load ``scripts/<name>.py`` as a module; both scripts prepend to
    ``sys.path``, which is restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    return lambda name: load_repo_module(f"scripts/{name}.py")


def test_constants_digest_hashes_every_preset_input(script):
    # 8 presets, no sweep seed, 8 custom characteristics per preset
    value, n = script("constants_digest").digest(ROOT, 0)
    assert n == 72 and len(value) == 64


def test_cli_digest_runs_every_command_on_a_preset(script):
    cli_digest = script("cli_digest")
    codes = [cli_digest._run(main, "jordan_critical", command, extra)[1] for command, extra in cli_digest.RUNS]
    # analyze, constants, verify at 1 and 2 workers, simulate at 1 and 2
    assert codes == [0, 0, 3, 3, 0, 0]


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


def test_bench_summary_pairs_the_last_sources_by_seed(script):
    # a stale parent source and an unlabelled point are left out; a seed met
    # twice counts once, at its later point; ties are not wins
    bench = script("bench_trajectory")

    def point(label, source, seed, rate):
        p = {"source_sha256": source, "src_lines": 10, "seed": seed, "metrics": {"items_per_s": rate}}
        return p if label is None else {"label": label, **p}

    points = [
        point("parent", "old", 1, 1.0),
        point("parent", "p", 1, 10.0), point("change", "c", 1, 12.0),
        point("change", "c", 2, 9.0), point("parent", "p", 2, 11.0),
        point("parent", "p", 3, 20.0), point("change", "c", 3, 20.0),
        point(None, "x", 3, 99.0),
        point("change", "c", 1, 13.0),
    ]
    pairs = bench.labelled_pairs(points)
    assert [(p["seed"], p["metrics"]["items_per_s"], c["metrics"]["items_per_s"]) for p, c in pairs] == [
        (1, 10.0, 13.0), (2, 11.0, 9.0), (3, 20.0, 20.0)
    ]
    table = bench.summarize(points, [{"name": "items_per_s", "better": "higher"}]).splitlines()
    assert table[0].startswith("3 pairs: parent p")
    assert table[-1].split() == ["items_per_s", "11", "10", "20", "13", "1/3"]
    assert bench.summarize(points[:2], []) == "no parent/change pairs"


def test_stage_times_pairs_a_tree_with_itself(script, monkeypatch, tmp_path, capsys):
    stages = script("stage_times")
    monkeypatch.setattr(stages, "OUT", tmp_path / "BENCH_stages.json")
    for name in ("stage_parent", "stage_change", "stage_constants_sweep"):
        monkeypatch.setitem(sys.modules, name, None)  # dropped again afterwards
    assert stages.main(["--parent", str(ROOT), "--change", str(ROOT), "--seed", "0", "--models", "20"]) == 0
    (point,) = json.loads((tmp_path / "BENCH_stages.json").read_text())
    assert point["seed"] == 0 and point["models"] == 20 and 0 < point["timed"] <= 20
    for label in ("parent", "change"):
        assert point[label]["source_sha256"] == point["change"]["source_sha256"]
        assert set(point[label]["median_ms"]) == {*stages.STAGES, "total"}
        assert all(v > 0 for v in point[label]["median_ms"].values())
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"seed 0: {point['timed']} of 20 models timed in both trees"
    assert [line.split()[0] for line in lines[2:-1]] == [*stages.STAGES, "total"]


def test_tree_identity_marks_a_tree_with_uncommitted_sources_dirty(script, tmp_path):
    # the identity bench_trajectory, stage_times and workers_scaling record
    tree_identity = script("tree_identity").tree_identity
    src = tmp_path / "src" / "cmjsim"
    shutil.copytree(ROOT / "src" / "cmjsim", src, ignore=shutil.ignore_patterns("__pycache__"))
    export = tree_identity(tmp_path)  # no checkout yet: a plain export has no commit
    assert export["commit"] is None
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True).stdout.strip()
    clean = tree_identity(tmp_path)
    assert clean == {**export, "commit": head}
    # the benchmark's own hash of the same sources
    provenance = load_repo_module("perfbench/run.py").provenance
    args = argparse.Namespace(workload=None, seed=0, seconds=0, trace=0)
    assert tree_identity(ROOT)["source_sha256"] == provenance(args)["source_sha256"] == clean["source_sha256"]
    assert clean["src_lines"] == sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    with open(src / "constants.py", "a") as fh:
        fh.write("# an uncommitted line\n")
    dirty = tree_identity(tmp_path)
    assert dirty["commit"] == head + "+dirty"
    assert dirty["source_sha256"] != clean["source_sha256"] and dirty["src_lines"] == clean["src_lines"] + 1
