"""Scenario schema: canonicalization, validation paths, round trips, presets."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from cmjsim import load_scenario, preset, preset_names, save_scenario
from cmjsim.scenario import (
    Scenario, ScenarioError, check_characteristic, loads_scenario, scenario_from_dict
)

MINIMAL = """
schema: 1
model:
  types: 1
  initial_type: 1
  offspring:
    1:
      - {p: "1/2", counts: [1]}
      - {p: "1/2", counts: [3]}
characteristic:
  kind: indicator
  row: [1]
run:
  n: 8
"""


def test_minimal_document_gets_defaults():
    scn = loads_scenario(MINIMAL)
    assert scn.n == 8
    assert scn.N == 14  # default delta 6
    assert scn.run["replicates"] == 200
    assert scn.run["seed"] == 12345
    assert scn.run["workers"] == 1
    assert scn.run["eps_tail"] == 1e-14
    assert scn.run["w_min"] == 1e-3
    assert scn.run["case"] is None
    assert scn.times == (8,)
    assert scn.output == {"dir": "out"}


def test_rational_strings_are_canonicalized():
    text = MINIMAL.replace('"1/2"', '"2/4"', 1)
    scn = loads_scenario(text)
    ps = [o["p"] for o in scn.model["offspring"][1]]
    assert ps[0] == str(Fraction(1, 2))


def test_float_and_int_probabilities_survive():
    text = MINIMAL.replace('{p: "1/2", counts: [1]}', "{p: 0.5, counts: [1]}")
    scn = loads_scenario(text)
    ps = [o["p"] for o in scn.model["offspring"][1]]
    assert ps[0] == 0.5 and isinstance(ps[0], float)


def test_trajectory_merges_with_terminal_time():
    text = MINIMAL + "  trajectory: [4, 6, 8, 6]\n"
    scn = loads_scenario(text)
    assert scn.times == (4, 6, 8)
    assert scn.run["trajectory"] == [4, 6, 8]


def test_trajectory_time_past_the_horizon_names_its_key():
    text = MINIMAL.replace("  n: 8\n", "  n: 10\n  delta: 2\n  trajectory: [4, 30]\n")
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text)
    assert str(err.value) == "run.trajectory[1]: must be <= n + delta = 12, got 30"
    assert loads_scenario(text.replace("30", "12")).times == (4, 10, 12)


def test_round_trip_through_yaml(tmp_path):
    for name in preset_names():
        scn = preset(name)
        path = tmp_path / f"{name}.yaml"
        save_scenario(scn, path)
        again = load_scenario(path)
        assert again.to_dict() == scn.to_dict(), name


def test_unknown_preset_name():
    with pytest.raises(KeyError):
        preset("definitely_not_a_preset")


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("schema: 1", "scenario.schema"),  # replaced by version 99 below
        ("run:\n  n: 8", "run.n"),
        ("kind: indicator", "characteristic.kind"),
        ("row: [1]", "characteristic.row"),
    ],
)
def test_validation_failures_name_their_key_path(mutation, fragment):
    if fragment == "scenario.schema":
        text = MINIMAL.replace("schema: 1", "schema: 99")
    elif fragment == "run.n":
        text = MINIMAL.replace("n: 8", "n: 0")
    elif fragment == "characteristic.kind":
        text = MINIMAL.replace("kind: indicator", "kind: banana")
    else:
        text = MINIMAL.replace("row: [1]", "row: [1, 2]")  # wrong length for 1 type
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text)
    assert fragment in str(err.value)


def test_unknown_keys_are_rejected():
    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL + "extra_block: {}\n")
    assert "scenario" in str(err.value) and "extra_block" in str(err.value)

    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL + "  turbo: yes\n")
    assert "run" in str(err.value)


@pytest.mark.parametrize("section", ["5", "out"])
def test_output_section_must_be_a_mapping(section):
    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL + f"output: {section}\n")
    assert str(err.value) == "output: expected a mapping"


def test_run_value_bounds():
    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL + "  replicates: 0\n")
    assert "run.replicates" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL + "  w_min: 2.0\n")
    assert "run.w_min" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL + "  case: iii\n")
    assert "run.case" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL + "  trajectory: []\n")
    assert "run.trajectory" in str(err.value)


CUSTOM = {
    "schema": 1,
    "model": {
        "types": 2,
        "initial_type": 1,
        "offspring": {1: [{"p": 1, "counts": [1, 1]}], 2: [{"p": 1, "counts": [0, 2]}]},
    },
    "characteristic": {"kind": "custom", "base": {0: [1, 0]}, "coeff": {1: [0, 1]}},
    "run": {"n": 5},
}


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("run", "delta", -1, "run.delta: must be >= 0, got -1"),
        ("run", "replicates", 0, "run.replicates: must be >= 1, got 0"),
        ("run", "seed", -1, "run.seed: must be >= 0, got -1"),
        ("run", "workers", 0, "run.workers: must be >= 1, got 0"),
        ("run", "workers", True, "run.workers: expected an integer, got True"),
        ("run", "seed", 1.5, "run.seed: expected an integer, got 1.5"),
        ("characteristic", "base", [[1, 0]], "characteristic.base: expected a mapping of age -> row"),
        ("characteristic", "coeff", [[0, 1]], "characteristic.coeff: expected a mapping of age -> row"),
        ("characteristic", "base", {"0": [1, 0]}, "characteristic.base: ages must be integers, got '0'"),
        ("characteristic", "coeff", {1.5: [0, 1]}, "characteristic.coeff: ages must be integers, got 1.5"),
        ("characteristic", "coeff", {2: [1]}, "characteristic.coeff.2: expected 2 entries, got 1"),
        ("characteristic", "base", {-1: [1, 0, 0]}, "characteristic.base.-1: expected 2 entries, got 3"),
        ("characteristic", "noise", {"age": 0}, "characteristic.noise: expected a list of noise cells"),
        (
            "characteristic", "noise", [5],
            "characteristic.noise[0]: expected a mapping with keys age, type, probs, values",
        ),
        ("run", "w_min", "0.1", "run.w_min: expected a number, got '0.1'"),
        ("model", "offspring", {1: [5]}, "model.offspring.1.0: expected a mapping with keys p, counts"),
    ],
)
def test_run_and_table_messages_are_exact(section, key, value, message):
    doc = {**CUSTOM, section: {**CUSTOM[section], key: value}}
    assert scenario_from_dict(CUSTOM).characteristic == {
        "kind": "custom", "base": {0: [1, 0]}, "coeff": {1: [0, 1]}, "noise": []
    }
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("model", [1], "model: expected a mapping"),
        (
            "characteristic", {"kind": "indicator", "row": [[1]]},
            "characteristic.row[0]: expected a number, got list",
        ),
        ("characteristic", {"kind": "indicator", "row": "1"}, "characteristic.row: expected a list"),
        ("output", {"dir": ""}, "output.dir: expected a nonempty string"),
    ],
)
def test_section_shape_messages_are_exact(section, value, message):
    doc = {**loads_scenario(MINIMAL).to_dict(), section: value}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message


def test_offspring_counts_run_up_to_int64_max():
    top = MINIMAL.replace("counts: [3]", f"counts: [{2**63 - 1}]")
    assert loads_scenario(top).model["offspring"][1][1]["counts"] == [2**63 - 1]
    with pytest.raises(ScenarioError) as err:
        loads_scenario(MINIMAL.replace("counts: [3]", f"counts: [{2**63}]"))
    assert "model.offspring.1.1.counts[0]" in str(err.value)


def test_invalid_yaml_is_a_scenario_error():
    with pytest.raises(ScenarioError) as err:
        loads_scenario("schema: [unclosed")
    assert "invalid YAML" in str(err.value)


def test_top_level_must_be_a_mapping():
    with pytest.raises(ScenarioError):
        scenario_from_dict([1, 2, 3])


def test_custom_characteristic_noise_cells():
    text = """
schema: 1
model:
  types: 2
  initial_type: 1
  offspring:
    1: [{p: 1, counts: [1, 1]}]
    2: [{p: 1, counts: [0, 2]}]
characteristic:
  kind: custom
  base: {0: [1, 0]}
  coeff: {1: [0, 1]}
  noise:
    - {age: 0, type: 2, probs: ["1/4", "3/4"], values: [0, 2]}
run:
  n: 5
"""
    scn = loads_scenario(text)
    cell = scn.characteristic["noise"][0]
    assert cell["age"] == 0 and cell["type"] == 2
    assert cell["probs"] == [str(Fraction(1, 4)), str(Fraction(3, 4))]

    bad = text.replace("type: 2", "type: 3")
    with pytest.raises(ScenarioError) as err:
        loads_scenario(bad)
    assert "noise[0].type" in str(err.value)

    mismatched = text.replace("values: [0, 2]", "values: [0, 2, 4]")
    with pytest.raises(ScenarioError) as err:
        loads_scenario(mismatched)
    assert "length must match" in str(err.value)


def test_check_characteristic_returns_exact_numbers():
    """A Fraction for a rational or an int, a float for a float, in every
    table the characteristic parses."""
    exact = [Fraction(1, 2), Fraction(2), 0.25]
    row = check_characteristic({"kind": "indicator", "row": ["1/2", 2, 0.25]}, 3)[1][0]
    assert row == exact and [type(v) for v in row] == [Fraction, Fraction, float]
    raw = {"kind": "custom", "base": {0: ["1/2", 2, 0.25]}, "coeff": {-1: ["1/2", 2, 0.25]},
           "noise": [{"age": 1, "type": 3, "probs": ["1/2", 0.5], "values": ["1/2", 2]}]}
    canon, (row, base, coeff, noise) = check_characteristic(raw, 3)
    assert row is None and base == {0: exact} and coeff == {-1: exact}
    assert [type(v) for v in base[0]] == [type(v) for v in coeff[-1]] == [Fraction, Fraction, float]
    i, probs, values = noise[(1, 2)]
    assert (i, probs, values) == (0, [Fraction(1, 2), 0.5], [Fraction(1, 2), Fraction(2)])
    assert [type(v) for v in probs + values] == [Fraction, float, Fraction, Fraction]
    assert canon == {"kind": "custom", "base": {0: ["1/2", 2, 0.25]}, "coeff": {-1: ["1/2", 2, 0.25]},
                     "noise": [{"age": 1, "type": 3, "probs": ["1/2", 0.5], "values": ["1/2", 2]}]}


def test_a_noise_cell_given_twice_is_refused_at_the_later_one():
    """Two cells at one (age, type) would leave the run only the last."""
    d = preset("asym_leak").to_dict()
    d["characteristic"] = {"kind": "custom", "base": {0: ["1", "-1"]}, "noise": [
        {"age": 0, "type": 1, "probs": ["1/2", "1/2"], "values": [0, 1]},
        {"age": 0, "type": 2, "probs": [1], "values": [3]},
        {"age": 0, "type": 1, "probs": [1], "values": [5]},
    ]}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert str(err.value) == "characteristic.noise[2]: age 0, type 1 is given twice"
    d["characteristic"]["noise"][2]["age"] = 1  # the same type at another age is a cell of its own
    assert len(scenario_from_dict(d).characteristic["noise"]) == 3


def test_scenario_frozen_and_dict_stable():
    scn = loads_scenario(MINIMAL)
    d1 = scn.to_dict()
    d2 = scn.to_dict()
    assert d1 == d2
    assert isinstance(scn, Scenario)
    with pytest.raises(AttributeError):
        scn.schema = 2


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", preset_names())
def test_scenario_files_are_the_presets(name, tmp_path):
    # scenarios/<name>.yaml is save_scenario(preset(name), path), byte for byte
    path = tmp_path / f"{name}.yaml"
    save_scenario(preset(name), path)
    assert path.read_bytes() == (SCENARIOS / f"{name}.yaml").read_bytes()


def test_every_scenario_file_is_a_preset():
    assert sorted(p.name for p in SCENARIOS.iterdir()) == sorted(f"{name}.yaml" for name in preset_names())
