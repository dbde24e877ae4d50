"""Each per-model fixed cost of the constants pipeline is paid once, with the
bits of paying it as often as before.

``spectral.stein_tail`` solves the systems of both tail signs of one M as one
stack and refuses the two tails together, naming the first refused sign;
``spectral._invariant_residuals`` forms the Jordan parts of ``pi2 A`` on
every decomposition.  The references are in ``tests/oracles.py``: the
per-sign Stein solve, and the residual battery with the ``DN_commute`` key,
which never decides a refusal.  They are compared bit for bit over the
presets and the models of ``constants_sweep`` seeds 0 to 2 (200 inputs each,
as ``scripts/constants_digest.py`` takes them).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from cmjsim import build_model, compute_constants, make_indicator_characteristic, preset, preset_names
from cmjsim.model import mixing_covariance
from cmjsim.spectral import spectral_decompose, stein_tail
from conftest import load_repo_module

SWEEP_SEEDS = range(3)
MODELS_PER_SEED = 200


def _sweep_model_data() -> list:
    """The model mappings of ``constants_sweep.inputs`` at the sweep seeds."""
    sweep = load_repo_module("perfbench/constants_sweep.py")
    return [inp["model"] for seed in SWEEP_SEEDS for (inp,) in itertools.islice(sweep.inputs(seed), MODELS_PER_SEED)]


@pytest.fixture(scope="module")
def decomposed() -> list:
    """(model, S) for every preset and sweep model that decomposes."""
    out = []
    for data in [preset(name).model for name in preset_names()] + _sweep_model_data():
        model = build_model(data)
        try:
            out.append((model, spectral_decompose(model.A)))
        except ArithmeticError:  # a refused decomposition has no tails
            pass
    return out


def _fresh(S, cache=None):
    return dataclasses.replace(S, _cache=dict(cache or {}))


def _tail_or_refusal(compute):
    """The bytes of ``(X, E, |X|_2)``, or the refusal's message."""
    try:
        X, E, x_norm = compute()
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (X, E)] + [np.float64(x_norm).tobytes()]


def test_the_sweep_reaches_every_class_of_model(decomposed):
    # a critical part, a sub-critical part, and neither, so both tails and
    # both residual branches are met
    assert len(decomposed) > 500
    labels = [{c.label for c in S.clusters} for _, S in decomposed]
    assert any("critical" in ls for ls in labels) and any("critical" not in ls for ls in labels)
    assert any("sub" in ls for ls in labels) and any("sub" not in ls for ls in labels)


def test_stacked_stein_solve_equals_the_per_sign_one_bit_for_bit(decomposed):
    for model, S in decomposed:
        M = mixing_covariance(model, S.u)
        want = {sign: _tail_or_refusal(lambda: oracles.per_sign_stein_tail(_fresh(S), M, sign)) for sign in (1, -1)}
        refusals = [tail for tail in want.values() if isinstance(tail, str)]
        if refusals:  # both signs refuse, with the first refused message
            want = {1: refusals[0], -1: refusals[0]}
        for order in ((1, -1), (-1, 1)):
            fresh = _fresh(S)
            got = {sign: _tail_or_refusal(lambda: stein_tail(fresh, M, sign)) for sign in order}
            assert got == want, (model.A.tolist(), order)


def test_residuals_equal_the_reference_battery_whose_dn_commute_decides_nothing(decomposed):
    # every key but DN_commute, which D N = N D made redundant and which is gone
    for _, S in decomposed:
        pi12 = np.array([S.pi1, S.pi2])
        A1 = (S.A.astype(complex) @ pi12 + (np.eye(S.J, dtype=complex) - pi12))[0]
        want = oracles.reference_invariant_residuals(
            S.A, S.clusters, S.pi1, S.pi2, S.pi3, A1, S.A1_inv, S.u, S.v, S.rho
        )
        assert want.pop("DN_commute") <= max(want.values())
        assert list(S.residuals.items()) == list(want.items()), S.A.tolist()
        if not any(c.label == "critical" for c in S.clusters):
            assert S.residuals["N_nilpotent"] == 0.0


# a scale s makes the tail step T = s I: its Stein system is singular at 1,
# too ill-conditioned just below 1, and has a non-finite solution at NaN
REFUSALS = {1.0: "is singular", 1.0 - 1e-15: "too ill-conditioned", float("nan"): "non-finite solution"}


@pytest.mark.parametrize("scale", list(REFUSALS), ids=list(REFUSALS.values()))
@pytest.mark.parametrize("bad", [1, -1])
def test_a_refused_sign_refuses_both_signs_of_its_M(bad, scale):
    model = build_model(preset("two_type_mirror").model)
    S = spectral_decompose(model.A)
    M = mixing_covariance(model, S.u)
    J = S.J
    # the step stein_tail scales by 1/sqrt(rho) (sign +1) or by sqrt(rho) (sign -1)
    key = ("step", 3, 1) if bad > 0 else ("step", 1, -1)
    step = scale * np.eye(J, dtype=complex) * (S.sqrt_rho if bad > 0 else 1.0 / S.sqrt_rho)
    with pytest.raises(ArithmeticError) as want:
        oracles.per_sign_stein_tail(_fresh(S, {key: step}), M, bad)
    assert f"sign {bad:+d}" in str(want.value) and REFUSALS[scale] in str(want.value)
    assert not isinstance(_tail_or_refusal(lambda: oracles.per_sign_stein_tail(_fresh(S), M, -bad)), str)
    for order in ((bad, -bad), (-bad, bad)):
        fresh = _fresh(S, {key: step})
        for sign in order * 2:  # a refusal is not kept: a second ask solves again, to the same message
            with pytest.raises(ArithmeticError) as got:
                stein_tail(fresh, M, sign)
            assert type(got.value) is ArithmeticError and str(got.value) == str(want.value), (order, sign)
        assert not any(k[0] == "stein" for k in fresh._cache)


def test_models_that_share_one_S_each_get_their_own_mixing_covariance():
    model = build_model(preset("two_type_mirror").model)
    S = spectral_decompose(model.A)
    other = dataclasses.replace(model, covs=tuple(2.0 * c for c in model.covs))
    # the Stein tails are kept under the bytes of M, so each model's constants
    # on the shared S are those on a fresh S of its own
    phi = make_indicator_characteristic([1.0, -1.0])
    for m in (model, other, model):
        got, want = compute_constants(phi, S, m), compute_constants(phi, _fresh(S), m)
        assert (got.sigma2, got.sigma2_error, got.sigma_star2) == (want.sigma2, want.sigma2_error, want.sigma_star2)
    assert compute_constants(phi, S, other).sigma2 == pytest.approx(2.0 * compute_constants(phi, S, model).sigma2)
