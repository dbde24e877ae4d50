"""End-to-end command-line runs, in process through ``main(argv)``.

Every test drives the real argument parser and dispatch table; only the
statistical-FAIL test replaces the verifier, so that its failure does not
depend on a lucky seed, and three tests call ``main`` in a fresh interpreter
to see which modules a run imports.  Exit-code contract under test:

    0  success / statistical PASS
    1  usage or schema error
    2  a refusal: the report so far with verdict REFUSED and its reason;
       or analyze/constants on a model that fails its assumptions
    3  statistical FAIL
"""

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
import yaml

from cmjsim import (
    AssumptionReport, TheoreticalConstants, VerificationReport, build_model, cli, spectral_decompose
)
from cmjsim.cli import EXIT_ASSUMPTION, EXIT_OK, EXIT_STAT_FAIL, EXIT_USAGE, main
from cmjsim.presets import PRESETS, preset
from cmjsim.scenario import load_scenario, save_scenario, scenario_from_dict
from cmjsim.spectral import EigenCluster
from cmjsim.stats import Z_99

from conftest import load_repo_module


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strict_json(text: str):
    """``json.loads`` that refuses ``Infinity`` and ``NaN``, which strict JSON has no form for."""

    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def write_yaml(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def out_args(command, path) -> list:
    """``--out path`` for ``simulate``, whose CSV it names; no other command takes ``--out``."""
    return ["--out", str(path)] if command == "simulate" else []


def _digest_doc(name: str, monkeypatch) -> dict:
    """The scenario document ``scripts/cli_digest.py`` derives under ``name``."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    cli_digest = load_repo_module("scripts/cli_digest.py")
    return dict(cli_digest._derived(preset))[name]


def _digest_scenario(name: str, tmp_path, monkeypatch) -> str:
    """A preset's name, or the path of the scenario file ``scripts/cli_digest.py``
    derives under ``name``."""
    if name in PRESETS:
        return name
    path = tmp_path / f"{name}.yaml"
    save_scenario(scenario_from_dict(_digest_doc(name, monkeypatch)), path)
    return str(path)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    rc, _, _ = run_cli([], capsys)
    assert rc == EXIT_USAGE


def test_help_exits_cleanly(capsys):
    rc, out, _ = run_cli(["--help"], capsys)
    assert rc == EXIT_OK
    assert "{analyze,constants,simulate,verify}" in out


def test_a_removed_subcommand_is_a_usage_error(capsys):
    rc, out, err = run_cli(["star-check", "--scenario", "asym_leak"], capsys)
    assert (rc, out) == (EXIT_USAGE, "")
    assert "invalid choice" in err and "star-check" in err


ONE_FILE_RUNS = [["analyze"], ["constants"], ["simulate", "--out", "runs/batch.csv"], ["verify"]]


@pytest.mark.parametrize("argv", ONE_FILE_RUNS, ids=["analyze", "constants", "simulate", "verify"])
def test_a_run_writes_at_most_its_one_file(argv, tmp_path, monkeypatch, capsys):
    # a report goes only to stdout; simulate's CSV is the only file a run writes
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli([argv[0], "--scenario", "two_type_mirror", *argv[1:]], capsys)
    assert rc == EXIT_OK and not err and strict_json(out)
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == argv[2:]


@pytest.mark.parametrize("command, option", [
    ("analyze", "--out"), ("constants", "--out"), ("verify", "--out"), ("verify", "--emit-hist"),
], ids=["analyze", "constants", "verify", "verify-emit-hist"])
def test_a_report_command_has_no_out_option(command, option, tmp_path, capsys):
    target = tmp_path / "r.json"
    rc, out, err = run_cli([command, "--scenario", "two_type_mirror", option, str(target)], capsys)
    assert (rc, out) == (EXIT_USAGE, "")
    assert f"unrecognized arguments: {option}" in err
    assert not target.exists()


def test_unknown_scenario_names_the_presets(capsys):
    rc, _, err = run_cli(["analyze", "--scenario", "no_such_thing"], capsys)
    assert rc == EXIT_USAGE
    assert "neither a file nor a preset" in err
    assert "cross_feed" in err  # the message lists what *would* work


@pytest.mark.parametrize("output", [5, "out"])
def test_non_mapping_output_section_is_a_schema_error(output, tmp_path, capsys):
    d = preset("cross_feed").to_dict()
    d["output"] = output
    path = write_yaml(tmp_path, "bad_output.yaml", d)
    rc, out, err = run_cli(["analyze", "--scenario", path], capsys)
    assert rc == EXIT_USAGE and not out
    assert err == "error: output: expected a mapping\n"


def test_trajectory_past_the_horizon_is_a_schema_error(tmp_path, capsys):
    d = preset("cross_feed").to_dict()
    d["run"].update(n=10, delta=2, trajectory=[4, 30])
    path = write_yaml(tmp_path, "late.yaml", d)
    for command in ("analyze", "verify"):
        rc, out, err = run_cli([command, "--scenario", path], capsys)
        assert rc == EXIT_USAGE and not out
        assert err == "error: run.trajectory[1]: must be <= n + delta = 12, got 30\n"


# a second run.n as run's last entry, and a second offspring law for type 1
# as offspring's last entry, each written just before the next section
@pytest.mark.parametrize("before, repeated, key", [
    ("output:\n", "  n: 9\n", "'n'"),
    ("characteristic:\n", "    1:\n    - p: 1\n      counts: [1, 1]\n", "1"),
], ids=["run-n", "offspring-label"])
def test_a_key_given_twice_is_a_schema_error(before, repeated, key, tmp_path, capsys):
    text = yaml.safe_dump(preset("two_type_mirror").to_dict(), sort_keys=False)
    at = text.index(before)
    path = tmp_path / "twice.yaml"
    path.write_text(text[:at] + repeated + text[at:])
    rc, out, err = run_cli(["simulate", "--scenario", str(path)], capsys)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == f"error: scenario: key {key} is given twice (line {text[:at].count(chr(10)) + 1})\n"


@pytest.mark.parametrize("probs", [["-1/2", "3/2"], ["1/2", "2/5"]])
def test_bad_noise_probabilities_name_the_noise_cell(probs, tmp_path, capsys):
    # each probability in [0, 1], and the cell's probabilities summing to 1
    d = preset("cross_feed").to_dict()
    d["characteristic"] = {
        "kind": "custom",
        "base": {0: [1, 0]},
        "noise": [{"age": 0, "type": 1, "probs": probs, "values": [0, 2]}],
    }
    path = write_yaml(tmp_path, "noise.yaml", d)
    rc, out, err = run_cli(["constants", "--scenario", path], capsys)
    assert rc == EXIT_USAGE
    assert "characteristic.noise[0].probs" in err
    assert out == ""


def _asym_leak_noise(tmp_path, value) -> str:
    """asym_leak's row plus a noise cell with values 0 and ``value``, each
    with probability 1/2, written as a scenario file."""
    d = preset("asym_leak").to_dict()
    d["characteristic"] = {
        "kind": "custom",
        "base": {0: [1, -1]},
        "noise": [{"age": 0, "type": 1, "probs": ["1/2", "1/2"], "values": [0, value]}],
    }
    return write_yaml(tmp_path, "noise.yaml", d)


VARIANCE_OUTSIDE_FLOAT64 = "error: characteristic.noise[0]: noise law: variance is outside float64 range\n"


def test_a_noise_variance_outside_float64_is_a_named_constants_error(tmp_path, capsys):
    rc, out, err = run_cli(["constants", "--scenario", _asym_leak_noise(tmp_path, 1e200)], capsys)
    assert rc == EXIT_USAGE and out == ""
    assert err == VARIANCE_OUTSIDE_FLOAT64


@pytest.mark.parametrize("command, code", [
    ("analyze", EXIT_OK), ("verify", EXIT_USAGE), ("simulate", EXIT_USAGE),
])
def test_a_noise_variance_outside_float64_stops_each_command_that_reads_it(command, code, tmp_path, capsys):
    path = _asym_leak_noise(tmp_path, 1e200)
    rc, _, err = run_cli([command, "--scenario", path, *out_args(command, tmp_path / "out")], capsys)
    assert rc == code
    assert err == ("" if code == EXIT_OK else VARIANCE_OUTSIDE_FLOAT64)


def test_a_noise_variance_whose_square_overflows_gets_finite_assumption_sums(tmp_path, capsys):
    # the variance 2.5e299 fits float64, the square of its row's norm does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(["constants", "--scenario", _asym_leak_noise(tmp_path, 1e150)], capsys)
    assert rc == EXIT_OK and not err
    sums = strict_json(out)["constants"]["notes"]["assumption_sums"]
    assert sums["variance_weighted_sum"] == pytest.approx(2.5e299, rel=1e-15)


def test_a_mean_weighted_sum_outside_float64_is_reported_without_a_warning(tmp_path, capsys):
    # a one-type law of always one child (rho = theta = 1) counted by base
    # rows 1e308 and -2: the sum of the rho- and theta-weighted norms
    # overflows, and once warned on stderr before the report
    d = {"schema": 1, "model": {"types": 1, "initial_type": 1, "offspring": {1: [{"p": "1", "counts": [1]}]}},
         "characteristic": {"kind": "custom", "base": {0: ["1e308"], 4: ["-2"]}},
         "run": {"n": 4, "replicates": 60, "seed": 1}}
    path = write_yaml(tmp_path, "huge_mean.yaml", d)
    runs = []
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            runs.append(run_cli(["constants", "--scenario", path], capsys))
    (rc, out, err), ignored = runs
    assert (rc, err) == (EXIT_ASSUMPTION, "") and runs[0] == ignored
    assert json.loads(out)["constants"]["notes"]["assumption_sums"]["mean_weighted_sum"] == math.inf


@pytest.mark.parametrize("characteristic", [
    {"kind": "kesten_stigum", "row": [1e308, -1e308]},
    {"kind": "kesten_stigum", "row": [1e300, -1e300]},
    {"kind": "table", "base": {0: [1e308, -1e308]}},
    {"kind": "custom", "base": {0: [1, 0]}, "coeff": {1: [1e308, 1e308]}},
], ids=["phi1-1e308", "phi1-1e300", "table", "custom-coeff"])
@pytest.mark.parametrize("command", ["constants", "verify", "simulate"])
def test_a_sigma2_outside_float64_is_refused_without_a_warning(command, characteristic, tmp_path, capsys):
    # each once warned on stderr from a mass, a row norm or |row|_M^2 that
    # overflowed before the refusal
    d = preset("asym_leak").to_dict()
    d["characteristic"] = characteristic
    d["run"] = {"n": 6, "delta": 4, "replicates": 60, "seed": 3}
    path = write_yaml(tmp_path, "huge_row.yaml", d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli([command, "--scenario", path, *out_args(command, tmp_path / "out.csv")], capsys)
    assert (rc, err) == (EXIT_ASSUMPTION, "")
    assert json.loads(out)["reason"] == "sigma2 lies outside float64 range"


@pytest.mark.parametrize("command", ["constants", "verify", "simulate"])
def test_a_sigma_l_outside_float64_is_refused_without_a_warning(command, tmp_path, capsys):
    # sigma_l of this row is of order 1e600: it was once reported as
    # Infinity, after an overflow warning, and verify refused its KS test
    d = preset("two_type_mirror").to_dict()
    d["characteristic"] = {"kind": "table", "base": {0: [1e300, -1e300]}}
    path = write_yaml(tmp_path, "huge_sigma_l.yaml", d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli([command, "--scenario", path, *out_args(command, tmp_path / "out.csv")], capsys)
    assert (rc, err) == (EXIT_ASSUMPTION, "")
    assert json.loads(out)["reason"] == "sigma_l lies outside float64 range"


@pytest.mark.parametrize("name, characteristic, code", [
    ("two_type_mirror", {"kind": "kesten_stigum", "row": [1e308, 1e308]}, EXIT_OK),
    ("cross_feed_deterministic", {"kind": "table", "base": {0: [1.7e308, 1.7e308]}}, EXIT_ASSUMPTION),
], ids=["row-norms", "perron-check"])
def test_constants_with_a_certificate_past_float64_print_no_warning(name, characteristic, code, tmp_path, capsys):
    # each once warned from sigma2's row-error norms, and the second also
    # from sigma_star2's Perron check; the non-finite certificates stay
    d = preset(name).to_dict()
    d["characteristic"] = characteristic
    path = write_yaml(tmp_path, "huge_row.yaml", d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(["constants", "--scenario", path], capsys)
    assert (rc, err) == (code, "")
    c = json.loads(out)["constants"]
    assert c["sigma2"] == 0.0 and not math.isfinite(c["sigma2_error"])


def _too_large_for_a_float(d, where):
    huge = 10**400 if where.endswith("_int") else "1e400"  # an int, or a string parsed as a rational
    if where.startswith(("w_min", "eps_tail")):
        d["run"][where.removesuffix("_int")] = huge
    elif where.startswith("offspring"):
        d["model"]["offspring"][1][0]["p"] = huge
    elif where.startswith("row"):
        d["characteristic"]["row"][0] = huge
    else:
        d["characteristic"] = {
            "kind": "custom",
            "base": {0: [1, 0]},
            "noise": [{"age": 0, "type": 1, "probs": ["1e400", "1/2"], "values": [0, 2]}],
        }


@pytest.mark.parametrize("where, key", [("offspring", "model.offspring.1.0.p"),
                                        ("row", "characteristic.row[0]"),
                                        ("noise", "characteristic.noise[0].probs[0]"),
                                        ("offspring_int", "model.offspring.1.0.p"),
                                        ("row_int", "characteristic.row[0]"),
                                        ("w_min_int", "run.w_min"),
                                        ("eps_tail_int", "run.eps_tail")])
def test_numbers_too_large_for_a_float_name_their_key(where, key, tmp_path, capsys):
    d = preset("cross_feed").to_dict()
    _too_large_for_a_float(d, where)
    path = write_yaml(tmp_path, "huge.yaml", d)
    rc, out, err = run_cli(["constants", "--scenario", path], capsys)
    assert rc == EXIT_USAGE
    # a run value is checked as given, against its interval; any other entry as a float64
    assert key in err and ("lie in (0, 1)" if key.startswith("run.") else "finite") in err
    assert out == ""


@pytest.mark.parametrize("count", [2**63, 10**30])
def test_offspring_count_beyond_int64_names_its_key(count, tmp_path, capsys):
    d = preset("cross_feed").to_dict()
    d["model"]["offspring"][1][0]["counts"][0] = count
    path = write_yaml(tmp_path, "huge_count.yaml", d)
    rc, out, err = run_cli(["constants", "--scenario", path], capsys)
    assert rc == EXIT_USAGE
    assert "model.offspring.1.0.counts[0]" in err and str(2**63 - 1) in err
    assert out == ""


@pytest.mark.parametrize("flag, value, key", [("--workers", "0", "run.workers"),
                                              ("--workers", "-3", "run.workers"),
                                              ("--seed", "-5", "run.seed")])
def test_run_overrides_meet_the_run_rules(flag, value, key, capsys):
    rc, out, err = run_cli(["verify", "--scenario", "cross_feed", flag, value], capsys)
    assert rc == EXIT_USAGE
    assert key in err
    assert out == ""


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_healthy_preset(capsys):
    rc, out, _ = run_cli(["analyze", "--scenario", "cross_feed"], capsys)
    assert rc == EXIT_OK
    rep = strict_json(out)
    assert rep["assumptions"]["all_ok"] is True
    assert rep["spectral"]["worst_residual"] < 1e-9
    labels = [cl["label"] for cl in rep["spectral"]["clusters"]]
    assert "super" in labels


def test_analyze_periodic_matrix_fails_regularity_but_still_reports(capsys):
    rc, out, _ = run_cli(["analyze", "--scenario", "cyclic_three"], capsys)
    assert rc == EXIT_ASSUMPTION
    rep = strict_json(out)
    assert rep["assumptions"]["positively_regular"] is False
    # the spectral picture is still computed and emitted for diagnosis
    assert "spectral" in rep and rep["spectral"]["rho"] > 1


def test_preset_name_and_checked_in_file_agree(capsys):
    rc1, out1, _ = run_cli(["analyze", "--scenario", "two_type_mirror"], capsys)
    rc2, out2, _ = run_cli(
        ["analyze", "--scenario", os.path.join("scenarios", "two_type_mirror.yaml")], capsys
    )
    assert (rc1, out1) == (rc2, out2)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_report_shape(capsys):
    rc, out, _ = run_cli(["constants", "--scenario", "two_type_mirror"], capsys)
    assert rc == EXIT_OK
    const = strict_json(out)["constants"]
    assert const["case"] == "ii"
    assert const["l_star"] == 0
    assert abs(const["sigma_l"][0] - 2.0) < 1e-12
    # JSON object keys are strings; the lag table must survive serialization
    assert const["B_table"] and all(isinstance(k, str) for k in const["B_table"])
    assert {int(k) for k in const["B_table"]} == set(range(const["B_window"][0], const["B_window"][1] + 1))


def test_constants_dual_route_agreement_shows_up_in_report(capsys):
    rc, out, _ = run_cli(["constants", "--scenario", "asym_leak"], capsys)
    assert rc == EXIT_OK
    const = strict_json(out)["constants"]
    assert const["sigma_star2"] is not None
    assert abs(const["sigma2"] - const["sigma_star2"]) <= 1e-6 * max(1.0, abs(const["sigma2"]))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "runs" / "batch.csv"
    rc, out, _ = run_cli(
        ["simulate", "--scenario", "cross_feed_deterministic", "--out", str(out_csv)], capsys
    )
    assert rc == EXIT_OK
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == 1 + preset("cross_feed_deterministic").run["replicates"]
    summary = strict_json(out)
    assert summary["csv"] == str(out_csv)
    assert summary["replicates"] == len(lines) - 1


def _wild_scenario(tmp_path) -> str:
    """Each individual has 10^6 children or none: a line that keeps growing
    outruns the overflow cap and its replicate aborts."""
    offspring = {1: [{"p": "1/2", "counts": [1000000]}, {"p": "1/2", "counts": [0]}]}
    d = {"schema": 1, "model": {"types": 1, "initial_type": 1, "offspring": offspring},
         "characteristic": {"kind": "indicator", "row": [1]},
         "run": {"n": 4, "replicates": 60}, "output": {"dir": str(tmp_path / "runs")}}
    return write_yaml(tmp_path, "wild.yaml", d)


def test_simulate_writes_to_the_output_dir_and_refuses_a_high_abort_rate(tmp_path, capsys):
    rc, out, err = run_cli(["simulate", "--scenario", _wild_scenario(tmp_path)], capsys)
    assert rc == EXIT_ASSUMPTION and not err
    csv = tmp_path / "runs" / "simulate.csv"
    rep = strict_json(out)
    assert rep["csv"] == str(csv) and rep["verdict"] == "REFUSED"
    assert rep["reason"] == "abort rate 51.7% exceeds 10%"
    assert len(csv.read_text().splitlines()) == 1 + 60


def test_simulate_summary_counts_survived_as_its_csv_does(tmp_path, capsys):
    # an aborted replicate outgrew the cap: alive in the summary and the CSV alike
    _, out, _ = run_cli(["simulate", "--scenario", _wild_scenario(tmp_path)], capsys)
    rows = (tmp_path / "runs" / "simulate.csv").read_text().splitlines()[1:]
    summary = strict_json(out)
    assert summary["aborted"] == 31
    assert summary["survived"] == sum(row.split(",")[1] == "1" for row in rows) == 31


def test_simulate_worker_count_does_not_change_the_csv(tmp_path, capsys):
    paths = []
    for workers in (1, 4):
        p = tmp_path / f"w{workers}.csv"
        rc, _, _ = run_cli(
            [
                "simulate",
                "--scenario",
                "cross_feed_deterministic",
                "--seed",
                "90210",
                "--workers",
                str(workers),
                "--out",
                str(p),
            ],
            capsys,
        )
        assert rc == EXIT_OK
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_seed_flag_changes_draws(tmp_path, capsys):
    texts = []
    for seed in ("11", "12"):
        p = tmp_path / f"s{seed}.csv"
        rc, _, _ = run_cli(
            ["simulate", "--scenario", "single_type_binary", "--seed", seed, "--out", str(p)],
            capsys,
        )
        assert rc == EXIT_OK
        texts.append(p.read_text())
    assert texts[0] != texts[1]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_healthy_preset(capsys):
    rc, out, _ = run_cli(["verify", "--scenario", "cross_feed"], capsys)
    assert rc == EXIT_OK
    rep = strict_json(out)
    assert rep["verdict"] == "PASS"
    assert rep["verification"]["passed"] is True
    assert rep["verification"]["reasons"] == []
    assert "lln" in rep


@pytest.mark.parametrize("name", ["cross_feed", "two_type_mirror"])
def test_verify_constants_block_is_the_constants_one_without_the_B_table(name, capsys):
    _, out, _ = run_cli(["constants", "--scenario", name], capsys)
    want = strict_json(out)["constants"]
    assert want.pop("B_table")
    rc, out, _ = run_cli(["verify", "--scenario", name], capsys)
    assert rc == EXIT_OK
    assert strict_json(out)["constants"] == want


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_verify_never_builds_the_B_table(name, capsys):
    """verify leaves the B(k) table out of its report; ``constants`` prints
    it, one row per k of the finite window ``B_window``."""
    verified = strict_json(run_cli(["verify", "--scenario", name], capsys)[1])
    assert "B_table" not in verified.get("constants", {})  # a refusal has no constants block
    const = strict_json(run_cli(["constants", "--scenario", name], capsys)[1])["constants"]
    lo, hi = const["B_window"]
    assert [int(k) for k in const["B_table"]] == list(range(lo, hi + 1))


def test_verify_requested_case_mismatch_is_refused(tmp_path, capsys):
    d = preset("cross_feed").to_dict()
    d["run"]["case"] = "ii"  # no polynomial index exists for this pair
    d["run"]["replicates"] = 80
    path = write_yaml(tmp_path, "mismatch.yaml", d)
    rc, out, _ = run_cli(["verify", "--scenario", path], capsys)
    assert rc == EXIT_ASSUMPTION
    rep = strict_json(out)
    assert rep["verdict"] == "REFUSED"
    assert "requested case" in rep["reason"]


def test_verify_exit_codes_over_the_presets(capsys):
    # jordan_critical's 3 is ROADMAP Known defect 1 (its law at n = 12 is still
    # far from the limit mixture); the two 2s are cross_feed_deterministic and
    # cyclic_three, refused on the standing assumptions
    codes = tuple(run_cli(["verify", "--scenario", name], capsys)[0] for name in PRESETS)
    assert codes == (EXIT_OK, EXIT_OK, EXIT_STAT_FAIL, EXIT_OK, EXIT_OK, EXIT_ASSUMPTION, EXIT_ASSUMPTION, EXIT_OK)


def test_verify_refuses_a_run_with_too_few_survivors(tmp_path, capsys):
    d = preset("two_type_mirror").to_dict()
    d["run"]["replicates"] = 1  # no gate can run on one survivor
    path = write_yaml(tmp_path, "one.yaml", d)
    rc, out, _ = run_cli(["verify", "--scenario", path], capsys)
    assert rc == EXIT_ASSUMPTION
    rep = strict_json(out)
    assert rep["verdict"] == "REFUSED"
    assert rep["reason"] == "only 1 usable survivors; need 50"


def test_verify_refuses_a_degenerate_run_with_no_survivor(tmp_path, monkeypatch, capsys):
    path = _digest_scenario("extinct@11", tmp_path, monkeypatch)
    rc, out, _ = run_cli(["verify", "--scenario", path, "--seed", "11"], capsys)
    assert rc == EXIT_ASSUMPTION
    assert "NaN" not in out
    rep = strict_json(out)
    assert rep["constants"]["case"] == "degenerate"
    assert rep["verdict"] == "REFUSED"
    assert rep["reason"] == "only 0 usable survivors; need 1"


def test_verify_checks_decay_on_a_degenerate_run_with_survivors(tmp_path, capsys):
    d = preset("single_type_binary").to_dict()
    d["characteristic"] = {"kind": "table", "base": {}}
    del d["run"]["case"]
    rc, out, _ = run_cli(["verify", "--scenario", write_yaml(tmp_path, "zero.yaml", d)], capsys)
    assert rc == EXIT_OK
    rep = strict_json(out)
    assert rep["verdict"] == "PASS"
    assert rep["verification"]["case"] == "degenerate" and rep["verification"]["decay"]["passed"]


def test_verify_refuses_constants_that_cannot_be_certified(tmp_path, monkeypatch, capsys):
    # two_type_mirror counted at age -1500: x1 needs pi1 A^1500 pi1, and 4^1500
    # is far outside float64
    path = _digest_scenario("two_type_mirror+far_age", tmp_path, monkeypatch)
    assert run_cli(["analyze", "--scenario", path], capsys)[0] == EXIT_OK
    rc, out, err = run_cli(["verify", "--scenario", path], capsys)
    assert rc == EXIT_ASSUMPTION and not err
    rep = strict_json(out)
    assert rep.keys() == {"assumptions", "verdict", "reason"}
    assert rep["assumptions"]["all_ok"] and rep["verdict"] == "REFUSED"
    assert rep["reason"] == "pi1 A^k pi1 is not representable in float64 at k=513"


def test_constants_reports_the_stages_before_a_constants_error(tmp_path, monkeypatch, capsys):
    path = _digest_scenario("two_type_mirror+far_age", tmp_path, monkeypatch)
    analyzed = strict_json(run_cli(["analyze", "--scenario", path], capsys)[1])
    rc, out, err = run_cli(["constants", "--scenario", path], capsys)
    assert rc == EXIT_ASSUMPTION and not err
    rep = strict_json(out)
    assert rep.keys() == {"assumptions", "spectral", "verdict", "reason"}
    assert rep["assumptions"] == analyzed["assumptions"] and rep["spectral"] == analyzed["spectral"]
    assert rep["verdict"] == "REFUSED"
    assert rep["reason"] == "pi1 A^k pi1 is not representable in float64 at k=513"


R_T_OUTSIDE_FLOAT64 = "error: normalization r_t at t = 2100 lies outside float64 range (rho = 2.0)\n"


@pytest.mark.parametrize("command, code, err_text", [
    ("analyze", EXIT_OK, ""),
    ("constants", EXIT_OK, ""),
    ("simulate", EXIT_ASSUMPTION, R_T_OUTSIDE_FLOAT64),
])
def test_large_n_refusals_name_their_cause(command, code, err_text, tmp_path, capsys):
    # single_type_binary at n = 2100: r_n = 2^1050 leaves float64, and no
    # command warns on the way.  err_text is the cause as stderr once read;
    # a refusal now gives it as its reason, on stdout
    d = preset("single_type_binary").to_dict()
    d["run"]["n"] = 2100
    path = write_yaml(tmp_path, "large_n.yaml", d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli([command, "--scenario", path, *out_args(command, tmp_path / "out")], capsys)
    assert (rc, err) == (code, "")
    assert strict_json(out).get("reason") == (err_text.removeprefix("error: ").rstrip() or None)


def test_verify_refuses_an_r_t_outside_float64_with_its_report(tmp_path, capsys):
    # verify reaches r_n = 2^1050 only after the constants, and refuses the
    # run as it refuses any other: the JSON on stdout, nothing on stderr
    d = preset("single_type_binary").to_dict()
    d["run"]["n"] = 2100
    path = write_yaml(tmp_path, "large_n.yaml", d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(["verify", "--scenario", path], capsys)
    assert rc == EXIT_ASSUMPTION and not err
    rep = strict_json(out)
    assert rep.keys() == {"assumptions", "constants", "verdict", "reason"}
    assert rep["verdict"] == "REFUSED" and rep["constants"]["case"] == "i"
    assert rep["reason"] == R_T_OUTSIDE_FLOAT64.removeprefix("error: ").rstrip()


def test_verify_keeps_a_table_past_the_horizon_a_usage_error(tmp_path, capsys):
    d = preset("two_type_mirror").to_dict()
    d["characteristic"] = {"kind": "table", "base": {-30: ["1", "-1"]}}
    del d["run"]["case"]
    path = write_yaml(tmp_path, "deep.yaml", d)
    rc, out, err = run_cli(["verify", "--scenario", path], capsys)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err.startswith("error: table: table reaches age -30 at time 16")


def test_uncertified_tail_model_now_certifies(tmp_path, monkeypatch, capsys):
    # rho / s1^2 = 0.9984 and |a|_M^2 / (lambda2^2 - rho) = 0.5 / 0.01 = 50:
    # the descending tail runs to k ~ -10^4, which a truncated sum refused
    path = _digest_scenario("uncertified_tail", tmp_path, monkeypatch)
    rc, out, err = run_cli(["constants", "--scenario", path], capsys)
    assert rc == EXIT_OK and not err
    const = strict_json(out)["constants"]
    assert abs(const["sigma2"] - 50.0) <= const["sigma2_error"] < 1e-9
    assert abs(const["sigma_star2"] - 50.0) <= const["sigma_star2_error"] < 1e-9


# two-type models whose mean matrix is zero or nilpotent, counted by the row
# [1, 0] at run.n 4
@pytest.mark.parametrize(
    "name, cause",
    [("zero_matrix", "A is the zero matrix"), ("nilpotent", "A is nilpotent")],
    ids=["zero", "nilpotent"],
)
@pytest.mark.parametrize("command", ["analyze", "constants", "simulate"])
def test_a_mean_matrix_without_perron_root_is_an_assumption_failure(
    name, cause, command, tmp_path, monkeypatch, capsys
):
    path = _digest_scenario(name, tmp_path, monkeypatch)
    rc, out, err = run_cli([command, "--scenario", path, *out_args(command, tmp_path / "r")], capsys)
    assert rc == EXIT_ASSUMPTION and not err
    rep = strict_json(out)
    assert rep["verdict"] == "REFUSED" and rep["reason"].startswith(cause)
    blocks = {"analyze": {"assumptions", "scenario"}, "constants": {"assumptions"}, "simulate": set()}
    assert rep.keys() == blocks[command] | {"verdict", "reason"}
    if command == "simulate":  # its --out is the CSV of a batch that never ran
        assert not (tmp_path / "r").exists()
    else:
        assert rep["assumptions"]["all_ok"] is False


# deflation_refused: a four-type mean matrix, each column Bernoulli-rounded as
# the presets build it, whose projections spectral_decompose refuses; each
# model is counted here by its first type
@pytest.mark.parametrize(
    "name, row",
    [("zero_matrix", [1, 0]), ("nilpotent", [1, 0]), ("deflation_refused", [1, 0, 0, 0])],
    ids=["zero", "nilpotent", "deflation-refused"],
)
def test_a_spectral_refusal_leaves_no_spectral_block(name, row, tmp_path, monkeypatch, capsys):
    d = {**_digest_doc(name, monkeypatch), "characteristic": {"kind": "indicator", "row": row}}
    path = write_yaml(tmp_path, "m.yaml", d)
    rc, out, err = run_cli(["analyze", "--scenario", path], capsys)
    rep = strict_json(out)
    assert rc == EXIT_ASSUMPTION and not err
    assert rep["verdict"] == "REFUSED" and "spectral" not in rep


def test_verify_refuses_before_simulating_when_assumptions_fail(capsys):
    rc, out, _ = run_cli(["verify", "--scenario", "cross_feed_deterministic"], capsys)
    assert rc == EXIT_ASSUMPTION
    rep = strict_json(out)
    assert rep["verdict"] == "REFUSED"
    assert rep["assumptions"]["nondegenerate"] is False
    assert "verification" not in rep  # nothing was simulated


@pytest.mark.parametrize(
    "name,reason",
    [
        ("cyclic_three", "standing assumptions fail: not positively regular"),
        ("cross_feed_deterministic", "standing assumptions fail: degenerate"),
    ],
)
def test_assumption_refusal_names_each_failed_assumption(name, reason, capsys):
    rc, out, _ = run_cli(["verify", "--scenario", name], capsys)
    assert rc == EXIT_ASSUMPTION
    rep = strict_json(out)
    assert rep["verdict"] == "REFUSED"
    assert rep["reason"] == reason


def test_verify_stat_fail_exit_code_on_unlucky_seed(capsys, monkeypatch):
    # an unlucky seed lands the correlation gate outside its 99% band: the
    # designed ~1% false alarm, reported as FAIL not error.  The verifier's
    # report is forced to that outcome, so the test does not depend on the stream.
    real_verify = cli.verify_dichotomy

    def corr_false_alarm(*args, **kwargs):
        report = real_verify(*args, **kwargs)
        z_crit = report.thresholds["corr_z_crit"]
        return dataclasses.replace(
            report,
            passed=False,
            corr_covers_zero=False,
            reasons=(f"corr(eps^2, W_hat) z {2 * z_crit:.4g} >= {z_crit:.4g}",),
        )

    monkeypatch.setattr(cli, "verify_dichotomy", corr_false_alarm)
    rc, out, _ = run_cli(["verify", "--scenario", "cross_feed", "--seed", "4242"], capsys)
    assert rc == EXIT_STAT_FAIL
    rep = strict_json(out)
    assert rep["verdict"] == "FAIL"
    assert any("corr" in r for r in rep["verification"]["reasons"])


def _field_names(cls, drop=()) -> set:
    return {f.name for f in dataclasses.fields(cls)} - set(drop)


@pytest.mark.parametrize("name", PRESETS)
def test_each_report_block_is_its_result_objects_fields(name, capsys):
    analyzed = strict_json(run_cli(["analyze", "--scenario", name], capsys)[1])
    assert analyzed["assumptions"].keys() == _field_names(AssumptionReport)
    for cluster in analyzed["spectral"]["clusters"]:
        assert cluster.keys() == _field_names(EigenCluster, {"projection"})
    const = strict_json(run_cli(["constants", "--scenario", name], capsys)[1])
    assert const["constants"].keys() == _field_names(TheoreticalConstants)
    verified = strict_json(run_cli(["verify", "--scenario", name], capsys)[1])
    if verified["verdict"] != "REFUSED":
        want = _field_names(VerificationReport, {"m"}) | {"sample_size"}
        assert verified["verification"].keys() == want


# ---------------------------------------------------------------------------
# the kesten_stigum and table kinds, which no preset uses
# ---------------------------------------------------------------------------

def _kind_scenario(tmp_path, kind) -> str:
    """``single_type_binary`` counted by phi1 of the row [1], or
    ``two_type_mirror`` by a base table at ages -1, 0 and 1, with no
    requested case and a trajectory."""
    if kind == "kesten_stigum":
        d = preset("single_type_binary").to_dict()
        d["characteristic"] = {"kind": "kesten_stigum", "row": ["1"]}
    else:
        d = preset("two_type_mirror").to_dict()
        d["characteristic"] = {"kind": "table", "base": {-1: ["1", "0"], 0: ["1", "-1"], 1: ["0", "1"]}}
        d["run"] = {**d["run"], "trajectory": [10, 12]}
        del d["run"]["case"]
    return write_yaml(tmp_path, f"{kind}.yaml", d)


@pytest.mark.parametrize("kind, command, code", [
    *((kind, c, EXIT_OK) for kind in ("kesten_stigum", "table") for c in cli._COMMANDS),
])
def test_characteristic_kinds_without_a_preset_run_through_the_cli(kind, command, code, tmp_path, capsys):
    """Exit codes at each preset's own seed."""
    argv = [command, "--scenario", _kind_scenario(tmp_path, kind), *out_args(command, tmp_path / "out")]
    rc, _, err = run_cli(argv, capsys)
    assert rc == code, err


def test_kesten_stigum_characteristic_spans_the_window(tmp_path):
    """phi1 built for time n on horizon N has linear rows at ages n - N + 1 .. 0."""
    scn = load_scenario(_kind_scenario(tmp_path, "kesten_stigum"))
    model = build_model(scn.model)
    phi, row = cli.build_characteristic(scn, model, spectral_decompose(model.A))
    assert row is None and not phi.base
    assert sorted(phi.coeff) == list(range(scn.n - scn.N + 1, 1))


def test_verify_reports_the_flatness_bootstrap_it_ran(capsys):
    # jordan_critical is case ii over several times: its flatness gate runs
    _, out, _ = run_cli(["verify", "--scenario", "jordan_critical"], capsys)
    v = strict_json(out)["verification"]
    # both bootstraps are in closed form: no resample count or seed to report
    assert not {"bootstrap_B", "bootstrap_seed"} & set(v["thresholds"])
    assert set(v["flatness"]) == {"rows", "weighted_mean", "passed"} and v["flatness"]["passed"]
    for row in v["flatness"]["rows"]:
        assert row["ci"] == [row["var"] - Z_99 * row["se"], row["var"] + Z_99 * row["se"]]


@pytest.mark.parametrize("trajectory, delta", [([16], 6), ([16], 12), ([14, 15], 30)])
def test_kesten_stigum_reaches_a_verdict_past_n(trajectory, delta, tmp_path, capsys):
    """phi1 spans the window of the last requested time, which the simulator checks."""
    d = preset("single_type_binary").to_dict()
    d["characteristic"] = {"kind": "kesten_stigum", "row": ["1"]}
    d["run"].update(trajectory=trajectory, delta=delta)
    path = write_yaml(tmp_path, "late_phi1.yaml", d)
    scn = load_scenario(path)
    model = build_model(scn.model)
    phi, _ = cli.build_characteristic(scn, model, spectral_decompose(model.A))
    assert sorted(phi.coeff) == list(range(trajectory[-1] - scn.N + 1, 1))
    rc, out, err = run_cli(["verify", "--scenario", path], capsys)
    assert rc == EXIT_OK, err
    assert strict_json(out)["verdict"] == "PASS"


# each kind on asym_leak: (characteristic, base, coeff, noise as (age, type) ->
# (probs, values), label); kesten_stigum's coeff spans ages n - N + 1 .. 0
BUILT_KINDS = [
    ({"kind": "indicator", "row": ["1/2", -1]}, {0: [0.5, -1]}, {}, {}, "indicator"),
    ({"kind": "table", "base": {-1: [0.25, 0], 2: ["0", "0"]}}, {-1: [0.25, 0]}, {}, {}, "table"),
    ({"kind": "kesten_stigum", "row": ["1", "0"]}, {}, range(-5, 1), {}, "phi1"),
    (
        {"kind": "custom", "base": {0: ["1", "-1"]}, "coeff": {1: ["1/4", 0]}, "noise": [
            {"age": 0, "type": 2, "probs": ["1/4", 0.75], "values": [0, "1/2"]},
            {"age": 3, "type": 1, "probs": [1], "values": [2]}]},
        {0: [1, -1]}, {1: [0.25, 0]}, {(0, 1): ((0.25, 0.75), (0, 0.5)), (3, 0): ((1.0,), (2,))}, "custom",
    ),
]


@pytest.mark.parametrize("spec, base, coeff, noise, label", BUILT_KINDS, ids=[k[0]["kind"] for k in BUILT_KINDS])
def test_build_characteristic_builds_each_kind_from_its_parsed_tables(spec, base, coeff, noise, label):
    scn = scenario_from_dict({**preset("asym_leak").to_dict(), "characteristic": spec})
    model = build_model(scn.model)
    phi, row = cli.build_characteristic(scn, model, spectral_decompose(model.A))
    assert {k: r.tolist() for k, r in phi.base.items()} == base
    if spec["kind"] == "kesten_stigum":
        assert sorted(phi.coeff) == list(coeff)
    else:
        assert {k: r.tolist() for k, r in phi.coeff.items()} == coeff
    assert {key: (law.probs, law.values) for key, law in phi.noise.items()} == noise
    assert phi.label == label and phi.J == model.J
    # only an indicator hands back its row, as floats
    if spec["kind"] == "indicator":
        assert row.dtype == float and row.tolist() == [0.5, -1.0]
    else:
        assert row is None


def test_table_characteristic_keeps_its_base_rows(tmp_path):
    scn = load_scenario(_kind_scenario(tmp_path, "table"))
    model = build_model(scn.model)
    phi, row = cli.build_characteristic(scn, model, spectral_decompose(model.A))
    assert row is None and not phi.coeff and not phi.noise
    assert {k: r.tolist() for k, r in phi.base.items()} == {-1: [1, 0], 0: [1, -1], 1: [0, 1]}
    assert scn.times == (10, 12, 16)


# ---------------------------------------------------------------------------
# one refusal form
# ---------------------------------------------------------------------------

ZERO_CAUSE = "A is the zero matrix (spectral radius 0): it has no Perron root"
NILPOTENT_CAUSE = "A is nilpotent (spectral radius 0): its critical part A pi2 is singular"
DEFLATION_CAUSE = ("projection residual 2.748e-07 exceeds 100*tol = 1.000e-07; "
                   "the Jordan structure of A is too ill-conditioned")
FAR_AGE_CAUSE = "pi1 A^k pi1 is not representable in float64 at k=513"
R_T_CAUSE = "normalization r_t at t = 2100 lies outside float64 range (rho = 2.0)"
ONE_SURVIVOR = "only 1 usable survivors; need 50"

# every (scenario, command) pair that exits 2 in scripts/cli_digest.py, by the
# digest's scenario names, with its cause, and _wild_scenario's abort rate.
# analyze and constants on cross_feed_deterministic and cyclic_three also exit
# 2, with their whole report: nothing stopped early
REFUSALS = [
    ("cross_feed_deterministic", "verify", "standing assumptions fail: degenerate"),
    ("cyclic_three", "verify", "standing assumptions fail: not positively regular"),
    ("asym_leak_custom@1", "verify", ONE_SURVIVOR),
    ("two_type_mirror@1", "verify", ONE_SURVIVOR),
    ("extinct@11", "verify", "only 0 usable survivors; need 1"),
    ("zero_matrix", "analyze", ZERO_CAUSE),
    ("zero_matrix", "constants", ZERO_CAUSE),
    ("zero_matrix", "verify",
     "standing assumptions fail: not supercritical, not positively regular, degenerate"),
    ("zero_matrix", "simulate", ZERO_CAUSE),
    ("nilpotent", "analyze", NILPOTENT_CAUSE),
    ("nilpotent", "constants", NILPOTENT_CAUSE),
    ("nilpotent", "verify", "standing assumptions fail: not supercritical, not positively regular"),
    ("nilpotent", "simulate", NILPOTENT_CAUSE),
    ("deflation_refused", "analyze", DEFLATION_CAUSE),
    ("deflation_refused", "constants", DEFLATION_CAUSE),
    ("deflation_refused", "verify", "standing assumptions fail: not positively regular"),
    ("deflation_refused", "simulate", DEFLATION_CAUSE),
    ("single_type_binary@n2100", "verify", R_T_CAUSE),
    ("single_type_binary@n2100", "simulate", R_T_CAUSE),
    ("single_type_binary@n1000", "verify", "abort rate 100.0% exceeds 10%; results unusable"),
    ("single_type_binary@n1000", "simulate", "abort rate 100.0% exceeds 10%"),
    ("two_type_mirror+far_age", "constants", FAR_AGE_CAUSE),
    ("two_type_mirror+far_age", "verify", FAR_AGE_CAUSE),
    ("two_type_mirror+far_age", "simulate", FAR_AGE_CAUSE),
    ("cross_feed+case_ii", "verify",
     "requested case 'ii' but the model/characteristic pair is case 'i' (no polynomial index present)"),
    ("wild", "simulate", "abort rate 51.7% exceeds 10%"),
]


@pytest.mark.parametrize("name, command, reason", REFUSALS, ids=[f"{n}-{c}" for n, c, _ in REFUSALS])
def test_every_refusal_is_its_report_so_far_with_its_reason(
    name, command, reason, tmp_path, monkeypatch, capsys
):
    scenario = _wild_scenario(tmp_path) if name == "wild" else _digest_scenario(name, tmp_path, monkeypatch)
    target = tmp_path / "r.csv"
    rc, out, err = run_cli([command, "--scenario", scenario, *out_args(command, target)], capsys)
    assert (rc, err) == (EXIT_ASSUMPTION, "")
    rep = strict_json(out)  # one JSON object, with no verdict line after it
    assert (rep["verdict"], rep["reason"]) == ("REFUSED", reason)
    # simulate's --out is the CSV, written only by a batch that ran
    assert target.exists() == ("csv" in rep)
    assert "csv" not in rep or target.read_text().startswith("index,")


# (command, cause): a schema error (ids: the command alone), simulate's --out
# naming a directory or the empty path, --scenario naming a directory, and a
# scenario file PyYAML cannot read; every command loads the scenario first
USAGE_ERRORS = [
    *((c, "schema") for c in cli._COMMANDS),
    ("simulate", "out_dir"),
    ("simulate", "empty_out"),
    ("verify", "scenario_dir"),
    ("analyze", "deep"),
    ("analyze", "unclosed"),
    ("analyze", "long_int"),
    ("analyze", "bad_date"),
]
# each unreadable file's text and how its message goes on: nested deeper than
# the parser recurses, a flow sequence left open, an integer past Python's
# digit limit, a month 13
BAD_YAML = {
    "deep": ("[" * 5000 + "]" * 5000, "maximum recursion depth exceeded"),
    "unclosed": ("model: [unclosed\n", "while parsing a flow sequence"),
    "long_int": ("run: {replicates: " + "1" * 5001 + "}\n", "Exceeds the limit"),
    "bad_date": ("run: {seed: 2024-13-01}\n", "month must be in 1..12)\n"),
}


@pytest.mark.parametrize("command, cause", USAGE_ERRORS,
                         ids=[c if cause == "schema" else f"{c}-{cause}" for c, cause in USAGE_ERRORS])
def test_a_usage_error_prints_no_report(command, cause, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a scenario's relative output.dir would go
    target = tmp_path / "r"
    argv = [command, *out_args(command, "" if cause == "empty_out" else target)]
    if cause == "schema":
        d = preset("cross_feed").to_dict()
        d["run"]["replicates"] = 0
        argv += ["--scenario", write_yaml(tmp_path, "bad.yaml", d)]
        want = "error: run.replicates: must be >= 1, got 0\n"
    elif cause in BAD_YAML:
        text, cause_text = BAD_YAML[cause]
        (tmp_path / "bad.yaml").write_text(text)
        argv += ["--scenario", str(tmp_path / "bad.yaml")]
        want = f"error: scenario: invalid YAML ({cause_text}"
    elif cause in ("out_dir", "scenario_dir"):
        target.mkdir()
        argv += ["--scenario", str(target) if cause == "scenario_dir" else "cross_feed_deterministic"]
        want = f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{target}'\n"
    else:
        argv += ["--scenario", "cross_feed_deterministic"]
        want = f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''\n"
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (EXIT_USAGE, "")
    # only an unreadable file's message goes on with PyYAML's or Python's own text
    assert err.startswith(want) if cause in BAD_YAML else err == want, err
    # nothing written, no output.dir made, and the directory made on purpose left empty
    left = {"out_dir": ["r"], "scenario_dir": ["r"], "empty_out": []}.get(cause, ["bad.yaml"])
    assert sorted(p.name for p in tmp_path.rglob("*")) == left


# ---------------------------------------------------------------------------
# cross-command sanity
# ---------------------------------------------------------------------------

def test_every_preset_analyzes_without_crashing(capsys):
    for name in PRESETS:
        rc, out, _ = run_cli(["analyze", "--scenario", name], capsys)
        assert rc in (EXIT_OK, EXIT_ASSUMPTION), name
        strict_json(out)  # report must always be well-formed JSON


_IMPORT_PROBE = """
import sys
from cmjsim.cli import main
code = main(["verify", "--scenario", "two_type_mirror", "--workers", "1"])
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))
print(code, heavy, file=sys.stderr)
sys.exit(1 if heavy else 0)
"""


def test_preset_verify_imports_neither_scipy_nor_yaml():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{EXIT_OK} []"


_LAZY_PROBE = """
import sys
from cmjsim.cli import main
code = main(["verify", "--scenario", "two_type_mirror", "--workers", "1"])
loaded = [m for m in ("concurrent.futures.process", "numpy.ma") if m in sys.modules]
print(code, loaded, file=sys.stderr)
sys.exit(1 if loaded else 0)
"""


def test_preset_verify_imports_neither_the_pool_nor_numpy_ma():
    # a preset-sized batch runs in-process, and lln_check takes its median by sorting
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{EXIT_OK} []"


_CASE_II_PROBE = """
import sys
from cmjsim.cli import main
code = main(["verify", "--scenario", "jordan_critical"])
print(code, "numpy.ma" in sys.modules, file=sys.stderr)
"""


def test_case_ii_verify_does_not_import_numpy_ma():
    # flatness_check takes its percentiles by sorting
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CASE_II_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{EXIT_STAT_FAIL} False"
