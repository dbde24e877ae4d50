"""Error certificates of the series constants are upper bounds on the real error.

sigma^2 and sigma*^2 are two-sided rho^{-k} series whose tails are summed in
closed form.  Their reported errors must cover (a) the hand-derived closed
forms of the presets and of a model with a slow descending tail, (b) the gap
between the two routes on a seeded population of models, with no slack
beyond the two certificates, and (c) a 50-digit mpmath value built from
mpmath's own eigendecomposition and Stein solve.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cmjsim import build_model, compute_constants, spectral_decompose, validate_assumptions
from cmjsim.cli import build_characteristic
from cmjsim.presets import PRESETS, _bernoulli_column

from conftest import bundle

# rho = 6.24, lambda2 = 2.5: rho / lambda2^2 = 0.9984, and for the row (1, -1)
# sigma^2 = |a|_M^2 / (lambda2^2 - rho) = 0.5 / 0.01
UNCERTIFIED_TAIL = {
    "types": 2,
    "initial_type": 1,
    "offspring": {
        1: [{"p": "37/100", "counts": [5, 2]}, {"p": "1/2", "counts": [4, 2]}, {"p": "13/100", "counts": [4, 1]}],
        2: [{"p": "37/100", "counts": [2, 5]}, {"p": "1/2", "counts": [2, 4]}, {"p": "13/100", "counts": [1, 4]}],
    },
}

CLOSED_FORMS = {
    "single_type_binary": Fraction(1, 2),
    "three_scale_symmetric": Fraction(1, 7),
    "cross_feed": Fraction(1),
    "asym_leak": Fraction(2, 3),
    "two_type_mirror": Fraction(0),
    "cross_feed_deterministic": Fraction(0),
}


def _uncertified_tail():
    model = build_model(UNCERTIFIED_TAIL)
    S = spectral_decompose(model.A)
    return model, S, compute_constants(np.array([1.0, -1.0]), S, model)


def _assert_within(value, exact, error) -> None:
    assert abs(Fraction(value) - Fraction(exact)) <= Fraction(error), (value, exact, error)


# -- (a) hand-derived closed forms ---------------------------------------------


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_forms_lie_within_the_certificates(name):
    c = bundle(name).const
    _assert_within(c.sigma2, CLOSED_FORMS[name], c.sigma2_error)
    if c.sigma_star2 is not None:
        _assert_within(c.sigma_star2, CLOSED_FORMS[name], c.sigma_star2_error)
    assert name == "single_type_binary" or c.sigma_star2 is not None


def test_slow_descending_tail_lies_within_its_certificate():
    _, _, c = _uncertified_tail()
    _assert_within(c.sigma2, 50, c.sigma2_error)
    _assert_within(c.sigma_star2, 50, c.sigma_star2_error)
    assert c.sigma2_error < 1e-9 and c.case == "i"


# -- (b) the two routes on a seeded population -----------------------------------


def _two_point(rng: random.Random, J: int) -> dict:
    offspring = {}
    for j in range(1, J + 1):
        p = Fraction(rng.randint(1, 3), 4)
        offspring[j] = [
            {"p": str(p), "counts": [rng.randint(0, 4) for _ in range(J)]},
            {"p": str(1 - p), "counts": [rng.randint(0, 4) for _ in range(J)]},
        ]
    return {"types": J, "initial_type": 1, "offspring": offspring}


def _symmetric_pair(rng: random.Random) -> dict:
    """rho = 4 and |lambda2| = 2 +- g, g log-uniform in [1e-2, 1]."""
    g = 10.0 ** rng.uniform(-2.0, 0.0)
    lam2 = rng.choice((1, -1)) * (2.0 + rng.choice((1, -1)) * g)
    a = Fraction((4.0 + lam2) / 2.0).limit_denominator(10**4)
    b = 4 - a
    fa, fb = int(a), int(b)
    col1 = _bernoulli_column([fa, fb], [a - fa, b - fb])
    col2 = _bernoulli_column([fb, fa], [b - fb, a - fa])
    return {"types": 2, "initial_type": 1, "offspring": {1: col1, 2: col2}}


def _population(seed: int = 11, count: int = 240):
    """``(model, S, Perron-orthogonal row)`` for two-point models, near-critical
    pairs and the two case-ii mean structures, in turn."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        family = made % 4
        if family == 0:
            data = _two_point(rng, rng.choice((2, 3, 4)))
        elif family == 1:
            data = _symmetric_pair(rng)
        elif family == 2:
            data = copy.deepcopy(PRESETS[rng.choice(("jordan_critical", "two_type_mirror"))]["model"])
        else:
            data = _two_point(rng, rng.choice((2, 3)))
        model = build_model(data)
        if not validate_assumptions(model).all_ok:
            continue
        try:
            S = spectral_decompose(model.A)
        except ArithmeticError:
            continue
        row = np.array([rng.randint(-3, 3) for _ in range(model.J)], dtype=float)
        if not row.any():
            continue
        made += 1
        yield model, S, row - float(row @ S.u) * S.v


def test_the_two_routes_agree_within_their_certificates():
    cases = 0
    for model, S, row in _population():
        c = compute_constants(row, S, model)
        assert c.sigma_star2 is not None
        gap = abs(Fraction(c.sigma2) - Fraction(c.sigma_star2))
        assert gap <= Fraction(c.sigma2_error) + Fraction(c.sigma_star2_error), (model.A, row)
        cases += c.case == "ii"
    assert cases >= 30  # the case-ii rows, whose exact sigma^2 is 0, are in the population


# -- (c) a 50-digit oracle ------------------------------------------------------


def _mp_sigma2(model, a) -> mpmath.mpf:
    """sigma^2 of the age-0 indicator row ``a`` at 50 digits: the projectors
    from ``mp.eig`` (every eigenvalue simple, none on the sqrt(rho) circle),
    and each tail ``w X w^H`` with X from an mp solve of ``X = M + T X T^H``."""
    with mpmath.workdps(50):
        J = model.J
        E, EL, ER = mpmath.eig(mpmath.matrix(model.A.tolist()), left=True, right=True)
        P = [ER[:, i] * EL[i, :] / (EL[i, :] * ER[:, i])[0] for i in range(J)]
        rho = max(abs(e) for e in E)
        root = mpmath.sqrt(rho)
        perron = max(range(J), key=lambda i: abs(E[i]))
        u = ER[:, perron]
        v = EL[perron, :]
        v = v / sum(v)
        u = u / (v * u)[0]
        M = mpmath.matrix(J, J)
        for j in range(J):
            M += u[j] * mpmath.matrix(model.covs[j].tolist())
        a = mpmath.matrix([list(a)])
        zero = mpmath.matrix(J, J)
        upper = [i for i in range(J) if abs(E[i]) > root]
        lower = [i for i in range(J) if abs(E[i]) < root]
        assert len(upper) + len(lower) == J
        tails = (
            (a * sum((P[i] for i in lower), zero) / root, sum((E[i] / root * P[i] for i in lower), zero)),
            (a * sum((P[i] / E[i] for i in upper), zero), sum((root / E[i] * P[i] for i in upper), zero)),
        )
        total = mpmath.mpf(0)
        for w, T in tails:
            K = mpmath.eye(J * J)
            for i, j, k, l in np.ndindex(J, J, J, J):
                K[i + J * j, k + J * l] -= mpmath.conj(T[j, l]) * T[i, k]
            x = mpmath.lu_solve(K, mpmath.matrix([M[i % J, i // J] for i in range(J * J)]))
            X = mpmath.matrix(J, J)
            for i in range(J * J):
                X[i % J, i // J] = x[i]
            total += mpmath.re((w * X * w.H)[0])
        return total


def _simple_spectrum(model) -> bool:
    eigs = np.linalg.eigvals(model.A)
    root = np.sqrt(np.max(np.abs(eigs)))
    gaps = np.abs(eigs[:, None] - eigs[None, :])[~np.eye(len(eigs), dtype=bool)]
    return bool(np.all(gaps > 1e-3) and np.all(np.abs(np.abs(eigs) - root) > 1e-3))


def _oracle_cases():
    for name in ("single_type_binary", "three_scale_symmetric", "cross_feed", "cyclic_three", "asym_leak"):
        b = bundle(name)
        yield name, b.model, build_characteristic(b.scn, b.model, b.S)[1], b.const
    model, S, c = _uncertified_tail()
    yield "uncertified_tail", model, np.array([1.0, -1.0]), c
    population = [case for case in _population(seed=5, count=40) if _simple_spectrum(case[0])]
    for i, (model, S, row) in enumerate(population[:12]):
        yield f"population{i}", model, row, compute_constants(row, S, model)


ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("name, model, row, c", ORACLE_CASES, ids=[case[0] for case in ORACLE_CASES])
def test_fifty_digit_oracle_lies_within_the_reported_error(name, model, row, c):
    assert _simple_spectrum(model)
    exact = _mp_sigma2(model, row)
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(c.sigma2) - exact) <= c.sigma2_error, (name, c.sigma2, exact)
        if c.sigma_star2 is not None:
            assert abs(mpmath.mpf(c.sigma_star2) - exact) <= c.sigma_star2_error, (name, c.sigma_star2, exact)
