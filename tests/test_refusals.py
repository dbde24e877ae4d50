"""Refusals of outside input to the library: each bad call raises its own
exception type with a message that names the cause.  Bad scenario documents
are refused in ``test_scenario.py``."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cmjsim import build_model, compute_constants, make_phi1, preset, spectral_decompose
from cmjsim.characteristics import Characteristic, NoiseLaw
from cmjsim.cli import _to_jsonable, build_characteristic
from cmjsim.model import OffspringLaw
from cmjsim.scenario import ScenarioError
from cmjsim.simulator import normalization
from cmjsim.stats import fisher_corr_z, ks_statistic

from test_certificates import UNCERTIFIED_TAIL


def _phi1_without_window():
    model = build_model(UNCERTIFIED_TAIL)
    make_phi1(spectral_decompose(model.A), np.array([1.0, -1.0]), model=model)


def _huge_base_row():
    model = build_model(preset("asym_leak").model)
    compute_constants(Characteristic(J=2, base={0: [1e200, 0.0]}), spectral_decompose(model.A), model)


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
        (lambda: fisher_corr_z([1, 2, 3], [3, 1, 2]), ValueError, "correlation test needs at least 4 points"),
        (
            lambda: spectral_decompose(build_model(preset("asym_leak").model).A).step(3, -1),
            ValueError, "the sub-critical part of A need not be invertible",
        ),
        pytest.param(
            _huge_base_row, ArithmeticError, "sigma2 lies outside float64 range",
            marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
        ),
        (_weird_kind, ScenarioError, "characteristic.kind: unsupported kind 'weird'"),
        (lambda: _to_jsonable(object()), TypeError, "no JSON form for object"),
        (
            lambda: normalization(4, "ii", None, 4.0),
            ValueError, "case ii normalization requested but no polynomial index is present",
        ),
    ],
)
def test_library_refusals_are_typed_and_named(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
