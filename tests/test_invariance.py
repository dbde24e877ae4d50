"""Exact identities of the limit constants, checked on drawn inputs.

Relabelling the types gives the same process, so every constant agrees up
to the permutation.  sigma^2 is a quadratic form in the characteristic, so
sigma^2(c phi) = |c|^2 sigma^2(phi) and the parallelogram law holds.  A float
constant with an error certificate is compared within the sum of the
certificates of the values compared; the sigma_l ladder, which has none,
within 1e-12 of its largest entry or of L_STAR_TOL, below which an entry is
rounding dust that decides nothing.

Inputs are the primitive presets with their own rows, rows of integers in
[-1000, 1000] (exact, so their sums and differences are exact too) and those
rows made Perron-orthogonal, which reach the direct sigma*^2 route.
"""

from __future__ import annotations

import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmjsim import build_model, compute_constants, compute_sigma2, make_indicator_characteristic, spectral_decompose
from cmjsim.cli import build_characteristic
from cmjsim.constants import L_STAR_TOL
from cmjsim.presets import PRESETS

from conftest import bundle

PRIMITIVE = tuple(name for name in PRESETS if bundle(name).assumptions.positively_regular)
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _int_row(J: int):
    return st.lists(st.integers(-1000, 1000), min_size=J, max_size=J).map(lambda xs: np.array(xs, dtype=float))


@st.composite
def _preset_row(draw):
    """(bundle, row): a primitive preset with its own row, an integer row,
    or an integer row minus its Perron part."""
    b = bundle(draw(st.sampled_from(PRIMITIVE)))
    kind = draw(st.sampled_from(("own", "integer", "orthogonal")))
    if kind == "own":
        return b, build_characteristic(b.scn, b.model, b.S)[1]
    row = draw(_int_row(b.model.J))
    if kind == "orthogonal":
        u, v = b.S.u, b.S.v
        row = row - (row @ u) / (v @ u) * v
    return b, row


def _relabel(model: dict, perm) -> dict:
    """The model mapping with type j + 1 renamed perm[j] + 1."""
    def move(xs):
        out = [0] * len(xs)
        for j, x in enumerate(xs):
            out[perm[j]] = x
        return out

    return {
        "types": model["types"],
        "initial_type": perm[model["initial_type"] - 1] + 1,
        "offspring": {
            perm[j - 1] + 1: [{"p": o["p"], "counts": move(o["counts"])} for o in laws]
            for j, laws in model["offspring"].items()
        },
    }


def _within(a: float, b: float, bound: float) -> bool:
    return abs(a - b) <= bound


@SETTINGS
@given(_preset_row(), st.data())
def test_relabelling_the_types_permutes_every_constant(case, data):
    b, row = case
    perm = data.draw(st.permutations(range(b.model.J)))
    model = build_model(_relabel(b.scn.model, perm))
    S = spectral_decompose(model.A)
    moved_row = np.empty_like(row)
    moved_row[perm] = row
    base = compute_constants(row, b.S, b.model)
    moved = compute_constants(moved_row, S, model)

    assert _within(moved.sigma2, base.sigma2, moved.sigma2_error + base.sigma2_error)
    assert (moved.sigma_star2 is None) == (base.sigma_star2 is None)
    if base.sigma_star2 is not None:
        assert _within(moved.sigma_star2, base.sigma_star2, moved.sigma_star2_error + base.sigma_star2_error)
    scale = max(*base.sigma_l, L_STAR_TOL)
    assert all(_within(x, y, 1e-12 * scale) for x, y in zip(moved.sigma_l, base.sigma_l))
    assert (moved.l_star, moved.case) == (base.l_star, base.case)
    for got, want in ((moved.x1, base.x1), (moved.x2, base.x2)):
        np.testing.assert_allclose(got[perm], want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


@SETTINGS
@given(_preset_row(), st.floats(-3.0, 3.0), st.floats(0.0, 2 * np.pi))
def test_sigma2_scales_by_the_squared_modulus_of_the_factor(case, exponent, angle):
    b, row = case
    c = 10.0**exponent * cmath.exp(1j * angle)
    phi = make_indicator_characteristic(row)
    value, error = compute_sigma2(phi, b.S, b.model)[:2]
    scaled, scaled_error = compute_sigma2(phi.scaled(c), b.S, b.model)[:2]
    assert _within(scaled, abs(c) ** 2 * value, scaled_error + abs(c) ** 2 * error)


@SETTINGS
@given(st.sampled_from(PRIMITIVE).map(bundle), st.data())
def test_sigma2_obeys_the_parallelogram_law(b, data):
    phi, psi = (data.draw(_int_row(b.model.J)) for _ in range(2))
    s = {key: compute_sigma2(make_indicator_characteristic(row), b.S, b.model)[:2]
         for key, row in (("sum", phi + psi), ("difference", phi - psi), ("phi", phi), ("psi", psi))}
    lhs = s["sum"][0] + s["difference"][0]
    rhs = 2 * s["phi"][0] + 2 * s["psi"][0]
    assert _within(lhs, rhs, s["sum"][1] + s["difference"][1] + 2 * s["phi"][1] + 2 * s["psi"][1])
