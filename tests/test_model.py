"""Model construction, validation paths, and exact moment bookkeeping."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from cmjsim import PRESETS, build_model, preset, validate_assumptions
from cmjsim.model import is_primitive, perron_root
from cmjsim.scenario import ScenarioError, check_model, scenario_from_dict

from oracles import exact_mean_matrix, exact_offspring_cov


def doubling_data():
    return {
        "types": 1,
        "initial_type": 1,
        "offspring": {"1": [{"p": "1/2", "counts": [1]}, {"p": "1/2", "counts": [3]}]},
    }


def test_build_model_parses_exact_fractions():
    model = build_model(doubling_data())
    assert model.J == 1
    assert model.laws[0].probs_exact == (Fraction(1, 2), Fraction(1, 2))
    assert model.A[0, 0] == 2.0
    assert model.z0().tolist() == [1]


def test_string_and_float_probabilities_coexist():
    model = build_model(
        {
            "types": 1,
            "initial_type": 1,
            "offspring": {"1": [{"p": 0.25, "counts": [0]}, {"p": "3/4", "counts": [4]}]},
        }
    )
    total = sum(model.laws[0].probs_exact)
    assert total == 1  # 0.25 is exactly representable, so the sum is exact
    assert model.A[0, 0] == 3.0


KEY_PATH_MUTATIONS = [
    (lambda d: d.pop("types"), "model.types"),
    (lambda d: d.__setitem__("types", 0), "model.types"),
    (lambda d: d.pop("offspring"), "model.offspring"),
    (lambda d: d["offspring"].pop("1"), "model.offspring.1"),
    (lambda d: d["offspring"]["1"][0].pop("p"), "model.offspring.1.0.p"),
    (lambda d: d["offspring"]["1"][0].pop("counts"), "model.offspring.1.0.counts"),
    (lambda d: d["offspring"]["1"][0].__setitem__("counts", [-1]), "counts"),
    (lambda d: d["offspring"]["1"][0].__setitem__("p", "2/3"), "sum"),
    (lambda d: d.__setitem__("initial_type", 5), "model.initial_type"),
]


@pytest.mark.parametrize("mutate, fragment", KEY_PATH_MUTATIONS)
def test_build_model_errors_name_the_key_path(mutate, fragment):
    data = doubling_data()
    mutate(data)
    with pytest.raises(ValueError) as err:
        build_model(data)
    assert fragment in str(err.value)


MALFORMED = [
    pytest.param(mutate, id=f"{fragment}-{i}") for i, (mutate, fragment) in enumerate(KEY_PATH_MUTATIONS)
] + [
    pytest.param(lambda d: d.__setitem__("colour", "red"), id="unknown_model_key"),
    pytest.param(lambda d: d["offspring"]["1"][0].__setitem__("weight", 1), id="unknown_outcome_key"),
    pytest.param(lambda d: d["offspring"]["1"][0].__setitem__("p", "-1/2"), id="negative_p"),
    pytest.param(lambda d: d["offspring"]["1"][0].__setitem__("p", True), id="boolean_p"),
    pytest.param(lambda d: d["offspring"]["1"][0].__setitem__("p", "one half"), id="unparseable_p"),
    pytest.param(lambda d: d.pop("initial_type"), id="no_initial_type"),
    pytest.param(lambda d: d["offspring"]["1"][0].__setitem__("counts", 1), id="bare_int_counts"),
    pytest.param(lambda d: d["offspring"]["1"][0].__setitem__("counts", [1.5]), id="float_count"),
    pytest.param(lambda d: d["offspring"].__setitem__("1", []), id="no_outcomes"),
    pytest.param(lambda d: d["offspring"].__setitem__("2", d["offspring"]["1"]), id="label_out_of_range"),
    pytest.param(lambda d: d["offspring"].__setitem__(1, d["offspring"]["1"]), id="label_given_twice"),
    pytest.param(lambda d: d.__setitem__("offspring", [1, 2]), id="offspring_not_a_mapping"),
]


@pytest.mark.parametrize("mutate", MALFORMED)
def test_scenario_files_and_build_model_share_one_validator(mutate):
    data = doubling_data()
    mutate(data)
    document = {
        "schema": 1,
        "model": data,
        "characteristic": {"kind": "indicator", "row": [1]},
        "run": {"n": 8},
    }
    with pytest.raises(ScenarioError) as via_file:
        scenario_from_dict(document)
    with pytest.raises(ScenarioError) as via_build:
        build_model(data)
    assert str(via_build.value) == str(via_file.value)
    assert str(via_build.value).startswith("model")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_int_and_digit_string_type_labels_build_equal_models(name):
    data = preset(name).to_dict()["model"]
    labelled = {**data, "offspring": {str(j): law for j, law in data["offspring"].items()}}
    assert check_model(labelled)[0] == data
    a, b = build_model(data), build_model(labelled)
    assert np.array_equal(a.A, b.A)
    assert all(np.array_equal(x, y) for x, y in zip(a.covs, b.covs))
    assert a.laws == b.laws


def test_two_type_law_requires_full_count_vectors():
    with pytest.raises(ValueError) as err:
        build_model(
            {
                "types": 2,
                "initial_type": 1,
                "offspring": {
                    "1": [{"p": 1, "counts": [1]}],
                    "2": [{"p": 1, "counts": [0, 1]}],
                },
            }
        )
    assert "expected length 2" in str(err.value)


@pytest.mark.parametrize(
    "name", ["single_type_binary", "two_type_mirror", "jordan_critical", "asym_leak",
             "three_scale_symmetric", "cross_feed", "cyclic_three"]
)
def test_mean_matrix_and_covariances_match_exact_recomputation(name):
    from conftest import bundle

    model = bundle(name).model
    A_exact = exact_mean_matrix(model)
    for i in range(model.J):
        for j in range(model.J):
            assert model.A[i, j] == pytest.approx(float(A_exact[i][j]), abs=1e-12)
    for j in range(model.J):
        C_exact = exact_offspring_cov(model, j)
        for a in range(model.J):
            for b in range(model.J):
                assert model.covs[j][a, b] == pytest.approx(float(C_exact[a][b]), abs=1e-12)


def test_empirical_litter_moments_within_four_se(mirror):
    # Sample litters straight from the stored law and compare with A and C.
    model = mirror.model
    rng = np.random.default_rng(1_234)
    R = 100_000
    for j in range(model.J):
        law = model.laws[j]
        outcome_mat = np.array(law.counts, dtype=float)
        counts = rng.multinomial(R, law.probs)
        emp_mean = counts @ outcome_mat / R
        for i in range(model.J):
            se = np.sqrt(model.covs[j][i, i] / R)
            assert abs(emp_mean[i] - model.A[i, j]) < 4 * se + 1e-12


def test_perron_root_matches_numpy_eigenvalues():
    A = np.array([[3.0, 1.0], [1.0, 3.0]])
    assert perron_root(A) == pytest.approx(4.0, rel=1e-12)
    assert perron_root(np.array([[2.0]])) == pytest.approx(2.0)


def test_is_primitive_distinguishes_cyclic_from_mixing():
    assert is_primitive(np.array([[3.0, 1.0], [1.0, 3.0]]))
    cyclic = np.array([[0.0, 0.0, 8.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert not is_primitive(cyclic)
    # Reducible: type 2 never reaches type 1.
    assert not is_primitive(np.array([[2.0, 1.0], [0.0, 1.0]]))


def test_validate_assumptions_flags(single_type, cyclic, degenerate):
    ok = validate_assumptions(single_type.model)
    assert ok.all_ok and ok.supercritical and ok.positively_regular
    assert ok.rho == pytest.approx(2.0)

    rep = validate_assumptions(cyclic.model)
    assert rep.supercritical and not rep.positively_regular and not rep.all_ok

    rep = validate_assumptions(degenerate.model)
    assert rep.supercritical and rep.positively_regular
    assert not rep.nondegenerate and not rep.all_ok


def test_validate_assumptions_subcritical():
    model = build_model(
        {
            "types": 1,
            "initial_type": 1,
            "offspring": {"1": [{"p": "1/2", "counts": [0]}, {"p": "1/2", "counts": [1]}]},
        }
    )
    rep = validate_assumptions(model)
    assert not rep.supercritical and not rep.all_ok
    assert rep.rho == pytest.approx(0.5)
