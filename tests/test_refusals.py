"""Refusals of outside input to the library: each bad call raises its own
exception type with a message that names the cause.  Bad scenario documents
are refused in ``test_scenario.py``."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cmjsim import build_model, compute_constants, make_phi1, preset, run_batch, spectral_decompose, star_transform
from cmjsim.characteristics import Characteristic, NoiseLaw, make_indicator_characteristic
from cmjsim.cli import _to_jsonable, build_characteristic
from cmjsim.model import OffspringLaw
from cmjsim.scenario import ScenarioError
from cmjsim.simulator import normalization
from cmjsim.stats import fisher_corr_z, ks_statistic, lln_check

from conftest import bundle
from test_certificates import UNCERTIFIED_TAIL


def _phi1_without_window():
    model = build_model(UNCERTIFIED_TAIL)
    make_phi1(spectral_decompose(model.A), np.array([1.0, -1.0]), model=model)


def _huge_base_row():
    model = build_model(preset("asym_leak").model)
    compute_constants(Characteristic(J=2, base={0: [1e200, 0.0]}), spectral_decompose(model.A), model)


def _lln_limit_outside_float64():
    # rho = 4, so the weight rho^{-k} of a base row at age -600 is 2^1200
    b = bundle("asym_leak")
    batch = run_batch(b.model, make_indicator_characteristic([1.0, 0.0]), n=4, N=6, R=1, master_seed=1)
    lln_check(batch, Characteristic(J=2, base={-600: [1.0, 0.0]}), b.model, b.S)


def _star_row_outside_float64():
    # single_type_binary's mean is 2, so the star row of the age-0 indicator is R(k) = 2^(k-1)
    b = bundle("single_type_binary")
    star_transform(b.characteristic, b.model, 2100)


def _weird_kind():
    scn = preset("asym_leak")
    weird = dataclasses.replace(scn, characteristic={"kind": "weird"})
    build_characteristic(weird, build_model(scn.model), None)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: Characteristic(J=2, noise={(0, 5): NoiseLaw((1.0,), (0j,))}),
            ValueError, "noise[(0, 5)]: type index out of range",
        ),
        (_phi1_without_window, ArithmeticError, "phi1 tail does not fall to mass 1e-14 within 10000 rows"),
        (
            lambda: OffspringLaw(probs=(0.5, 0.5), counts=((1,),), probs_exact=(0.5, 0.5)),
            ValueError, "offspring law: probs and counts length mismatch",
        ),
        (lambda: ks_statistic([]), ValueError, "empty sample"),
        (lambda: fisher_corr_z([1, 2, 3], [3, 1, 2]), ValueError, "correlation test needs at least 4 values, got 3"),
        (  # a constant x would otherwise read as no correlation
            lambda: fisher_corr_z([1, 1, 1, 1], [1, 2, 3]),
            ValueError, "correlation test needs samples of equal length, got 4 and 3",
        ),
        (
            lambda: fisher_corr_z([1, 2, 3, 4, 5], [2, 1, 4, 3]),
            ValueError, "correlation test needs samples of equal length, got 5 and 4",
        ),
        (
            lambda: spectral_decompose(build_model(preset("asym_leak").model).A).step(3, -1),
            ValueError, "the sub-critical part of A need not be invertible",
        ),
        pytest.param(
            _huge_base_row, ArithmeticError, "sigma2 lies outside float64 range",
            marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
        ),
        (
            _weird_kind, ScenarioError,
            "characteristic.kind: must be one of ('indicator', 'table', 'kesten_stigum', 'custom'), got 'weird'",
        ),
        (lambda: _to_jsonable(object()), TypeError, "no JSON form for object"),
        (
            lambda: normalization(4, "ii", None, 4.0),
            ValueError, "case ii normalization requested but no polynomial index is present",
        ),
        (
            lambda: normalization(0, "ii", 0, 4.0),
            ValueError, "case ii normalization r_t vanishes at t = 0; request times t >= 1",
        ),
        (
            lambda: normalization(2100, "i", None, 2.0),
            ArithmeticError, "normalization r_t at t = 2100 lies outside float64 range (rho = 2.0)",
        ),
        (  # 2^1020 fits, times 2040^1.5 it does not
            lambda: normalization(2040, "ii", 1, 2.0),
            ArithmeticError, "normalization r_t at t = 2040 lies outside float64 range (rho = 2.0)",
        ),
        (
            lambda: normalization(2200, "i", None, 0.5),
            ArithmeticError, "normalization r_t at t = 2200 lies outside float64 range (rho = 0.5)",
        ),
        (_star_row_outside_float64, ArithmeticError, "star transform row at age 1025 lies outside float64 range"),
        (_lln_limit_outside_float64, ArithmeticError, "LLN limit constant lies outside float64 range"),
    ],
)
def test_library_refusals_are_typed_and_named(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
