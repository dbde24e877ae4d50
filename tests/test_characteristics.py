"""Characteristic tables: exact moments, the star transform, gap characteristic."""

from __future__ import annotations

import itertools
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmjsim import (
    build_model,
    compute_constants,
    make_phi1,
    make_indicator_characteristic,
    spectral_decompose,
    star_transform,
    validate_assumptions,
)
from cmjsim.characteristics import (
    PHI1_MASS,
    Characteristic,
    NoiseLaw,
    assumption_sums,
    expected_process,
)
from cmjsim.cli import build_characteristic
from cmjsim.model import mixing_covariance
from cmjsim.spectral import _EPS, _fro, m_norm2, projected_power, stein_tail, tail_sum

from conftest import load_repo_module
from oracles import (
    exact_mean_matrix,
    exact_moment_tables,
    phi1_remaining_mass,
    reference_mean_table,
    reference_noise_variance,
    reference_variance,
)


def test_noise_law_moments():
    law = NoiseLaw(probs=(0.25, 0.75), values=(0.0, 4.0))
    assert law.mean() == pytest.approx(3.0)
    assert law.variance() == pytest.approx(3.0)  # E X^2 = 12


def test_noise_law_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        NoiseLaw(probs=(0.6, 0.6), values=(0.0, 1.0))
    with pytest.raises(ValueError):
        NoiseLaw(probs=(1.0,), values=(0.0, 1.0))


def test_indicator_characteristic_shape():
    phi = make_indicator_characteristic([2.0, -1.0])
    assert phi.J == 2
    assert phi.moments()[0] == (0,)
    assert phi.is_deterministic and not np.any(phi.base[0].imag)
    assert np.allclose(phi.mean_table()[0], [2.0, -1.0])
    assert 3 not in phi.mean_table()


def test_mean_includes_noise_and_variance_splits(mirror):
    model = mirror.model
    c_row = np.array([1.0, -1.0])
    phi = Characteristic(
        2,
        base={0: np.array([5.0, 0.0])},
        coeff={0: c_row},
        noise={(0, 1): NoiseLaw((0.5, 0.5), (0.0, 2.0))},
    )
    assert np.allclose(phi.mean_table()[0], [5.0, 1.0])  # noise adds its mean to type 2
    var = reference_variance(phi, 0, model)
    # coeff part: c C_j c^T; both columns have C_j = [[1,-1],[-1,1]] -> 4
    assert var[0] == pytest.approx(4.0)
    assert var[1] == pytest.approx(4.0 + 1.0)  # plus Bernoulli(1/2)*2 variance


def test_mean_table_drops_all_zero_rows():
    phi = Characteristic(
        1, base={0: np.array([1.0]), 3: np.array([0.0])}, coeff={1: np.array([2.0])}
    )
    assert sorted(phi.mean_table()) == [0]
    # the all-zero base row at age 3 is canonicalized away entirely
    assert phi.moments()[0] == (0, 1)
    assert min(phi.coeff) == 1
    assert min(phi.base) == 0


def test_mean_table_equals_the_walk_over_every_value_key():
    rng = np.random.default_rng(23)
    for _ in range(300):
        J = int(rng.integers(1, 5))

        def rows():
            keys = rng.choice(np.arange(-6, 7), size=int(rng.integers(0, 6)), replace=False)
            # integer entries: some rows are all zero, some cancel a noise mean
            return {int(k): rng.integers(-1, 2, J) + 1j * rng.integers(-1, 2, J) for k in keys}

        noise = {}
        for _ in range(int(rng.integers(0, 5))):
            v = float(rng.integers(-2, 3))
            law = ((0.5, 0.5), (-v, v)) if rng.random() < 0.5 else ((0.25, 0.75), (v, 1.0 + 0.5j))
            noise[(int(rng.integers(-6, 7)), int(rng.integers(J)))] = NoiseLaw(*law)
        phi = Characteristic(J=J, base=rows(), coeff=rows(), noise=noise)
        got, want = phi.mean_table(), reference_mean_table(phi)
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_moments_equal_the_per_cell_walk():
    rng = np.random.default_rng(29)

    def row(J):
        return rng.integers(-1, 2, J) + 1j * rng.integers(-1, 2, J)

    def law():
        v = float(rng.integers(-2, 3))
        return NoiseLaw(*(((0.25, 0.75), (v, 1.0 + 0.5j)) if rng.random() < 0.5 else ((0.5, 0.5), (-v, v))))

    for _ in range(300):
        J = int(rng.integers(1, 5))
        a = rng.choice(np.arange(-8, 9), size=5, replace=False).tolist()
        # a[2] is coeff-only, a[3] noise-only with a cell per type (three or
        # more when J >= 3), in shuffled type order
        noise = {(a[0], int(rng.integers(J))): law(), (a[4], int(rng.integers(J))): law()}
        noise.update({(a[3], int(j)): law() for j in rng.permutation(J)})
        base, coeff = {a[0]: row(J), a[1]: row(J)}, {a[1]: row(J), a[2]: row(J)}
        phi = Characteristic(J=J, base=base, coeff=coeff, noise=noise)
        ages, mean, noise_var = phi.moments()
        assert ages == tuple(sorted(set(phi.base) | set(phi.coeff) | {k for k, _ in noise}))
        want = reference_mean_table(phi)
        assert mean.tobytes() == np.array([want.get(k, np.zeros(J, dtype=complex)) for k in ages]).tobytes()
        assert noise_var.tobytes() == np.array([reference_noise_variance(phi, k) for k in ages]).tobytes()
        assert not mean.flags.writeable and not noise_var.flags.writeable


def test_moment_table_is_formed_once_and_not_pickled(asym_leak, monkeypatch):
    law = NoiseLaw((0.5, 0.5), (1.0, -1.0))  # built first: a law checks its own variance
    calls = []
    real = NoiseLaw.variance
    monkeypatch.setattr(NoiseLaw, "variance", lambda law: calls.append(law) or real(law))
    row = build_characteristic(asym_leak.scn, asym_leak.model, asym_leak.S)[1]
    phi = Characteristic(2, base={0: row}, coeff={1: [1.0, 2.0]}, noise={(0, 0): law, (2, 1): law})
    compute_constants(phi, asym_leak.S, asym_leak.model)
    assert len(calls) == 2  # one table, one variance per noise cell, for every reader
    assert phi.moments() is phi.moments() and len(calls) == 2
    clone = pickle.loads(pickle.dumps(phi))
    assert "_moments" not in clone.__dict__ and len(pickle.dumps(clone)) == len(pickle.dumps(phi))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(clone.moments()[1:], phi.moments()[1:]))


def test_frozen_rows_are_read_only_copies_and_a_bad_row_names_its_key():
    src = np.array([1.0, 2.0])
    phi = Characteristic(2, base={0: src, 4: [0, 0]}, coeff={2: [3, 4j]})
    src[0] = 9.0
    assert list(phi.base) == [0] and phi.base[0].tolist() == [1, 2]
    assert not phi.base[0].flags.writeable and not phi.coeff[2].flags.writeable
    with pytest.raises(ValueError, match=r"coeff\[5\]: expected a row of length 2"):
        Characteristic(2, coeff={0: [1, 2], 5: [1, 2, 3]})


@pytest.mark.parametrize("what, rows", [
    ("base[0]: entry 0", {0: [math.nan, 1]}),
    ("base[3]: entry 1", {0: [1, 2], 3: np.array([1, np.inf])}),
    ("coeff[-2]: entry 1", {-2: [0, complex(0, math.nan)]}),
], ids=["nan", "inf", "complex-nan"])
def test_a_non_finite_row_entry_names_its_key(what, rows):
    table = what.split("[")[0]
    with pytest.raises(ValueError, match=re.escape(f"{what} is not finite")):
        Characteristic(2, **{table: rows})


@pytest.mark.parametrize("probs, values, message", [
    ((1.5, -0.5), (0.0, 1.0), "probs[0] = 1.5 is not a probability in [0, 1]"),
    ((0.5, 0.5, -0.0, math.nan), (0.0, 1.0, 2.0, 3.0), "probs[3] = nan is not a probability in [0, 1]"),
    ((0.5, 0.5), (0.0, math.inf), "values[1] = inf is not finite"),
    ((1.0,), (complex(math.nan, 0.0),), "values[0] = (nan+0j) is not finite"),
], ids=["negative", "nan-prob", "inf-value", "nan-value"])
def test_a_noise_law_refuses_bad_probabilities_and_non_finite_values(probs, values, message):
    # the sum check alone lets both through: (1.5, -0.5) sums to 1, and
    # abs(nan - 1) > 1e-12 is False
    with pytest.raises(ValueError, match=re.escape(f"noise law: {message}")):
        NoiseLaw(probs, values)


def test_a_noise_cell_must_be_a_noise_law():
    with pytest.raises(ValueError, match=re.escape("noise[(0, 1)]: expected a NoiseLaw")):
        Characteristic(2, noise={(0, 1): ((0.5, 0.5), (0.0, 2.0))})


@pytest.mark.parametrize("probs, values", [
    ((0.5, 0.5), (0.0, 1e200)),
    ((1.0, 4e-155), (-1.7e308, 1.7e308)),
], ids=["square", "deviation"])
def test_a_noise_variance_outside_float64_names_its_cell(probs, values):
    # squaring 1e200 raises OverflowError; 1.7e308 minus the mean -1.7e308 is
    # inf, whose square is inf with no error.  The law refuses both, and the
    # scenario reader names the cell (tests/test_cli.py).
    with pytest.raises(ValueError, match=re.escape("noise law: variance is outside float64 range")):
        NoiseLaw(probs, values)


def test_scaling_by_complex_factor(mirror):
    model = mirror.model
    phi = Characteristic(
        2,
        base={0: np.array([1.0, 2.0])},
        coeff={1: np.array([1.0, -1.0])},
        noise={(0, 0): NoiseLaw((0.5, 0.5), (0.0, 2.0))},
    )
    z = 2.0 - 1.0j
    scaled = phi.scaled(z)
    assert np.allclose(scaled.moments()[1], z * phi.moments()[1])
    for k in (0, 1):
        want = abs(z) ** 2 * reference_variance(phi, k, model)
        assert np.allclose(reference_variance(scaled, k, model), want)
    assert np.any(scaled.base[0].imag) and np.any(scaled.coeff[1].imag)


def test_empirical_single_individual_moments(mirror):
    """Sample phi(k) for one individual of each type; compare exact tables."""
    model = mirror.model
    rng = np.random.default_rng(40_127)
    c_row = np.array([1.0, -1.0])
    noise = NoiseLaw((0.25, 0.75), (0.0, 4.0))
    phi = Characteristic(
        2, base={0: np.array([5.0, -2.0])}, coeff={0: c_row}, noise={(0, 1): noise}
    )
    R = 100_000
    for j in range(2):
        law = model.laws[j]
        outcomes = np.array(law.counts, dtype=float)
        idx = rng.choice(len(law.probs), size=R, p=law.probs)
        vals = phi.base[0][j].real + (outcomes[idx] - model.A[:, j]) @ c_row
        if (0, j) in phi.noise:
            vals = vals + rng.choice(noise.values, size=R, p=noise.probs).real
        exact_mean = phi.mean_table()[0][j].real
        exact_var = reference_variance(phi, 0, model)[j]
        se_mean = np.sqrt(exact_var / R)
        assert abs(vals.mean() - exact_mean) < 4 * se_mean
        c = vals - vals.mean()
        se_var = np.sqrt(max(np.mean(c**4) - exact_var**2, 0.0) / R)
        assert abs(c.var() - exact_var) < 4 * se_var + 1e-12


# -- the star transform ------------------------------------------------------


def test_plain_star_rows_are_powers_of_the_mean_matrix(mirror):
    S = mirror.S
    a = np.array([1.0, -1.0])
    star = star_transform(make_indicator_characteristic(a), mirror.model, 12)
    A = S.A
    for k in range(1, 13):
        expect = a @ np.linalg.matrix_power(A, k - 1)
        assert np.allclose(star.coeff[k], expect, atol=1e-9), k
    assert (min(star.coeff), max(star.coeff)) == (1, 12)
    # mean-zero by construction: coeff-only tables have no static part
    assert not star.mean_table()


@pytest.mark.parametrize("name", ["three_scale_symmetric", "cyclic_three"])
def test_star_rows_of_a_multi_age_table_match_exact_rational_powers(name):
    # three_scale_symmetric's A is not exact in float64, and cyclic_three's is
    # not symmetric, so R(k) A^T would fail; each row is
    # sum_{m <= k-1} E phi(m) A^{k-1-m}, formed here in exact rationals
    from conftest import bundle

    b = bundle(name)
    A = exact_mean_matrix(b.model)
    base = {-2: np.array([1.0, 0.0, -1.0]), 0: np.array([0.5, 2.0, 0.0]), 3: np.array([0.0, -1.0, 3.0])}
    star = star_transform(Characteristic(3, base=base), b.model, 12)
    assert sorted(star.coeff) == list(range(-1, 13))
    assert (min(star.coeff), max(star.coeff)) == (-1, 12)
    for k, got in star.coeff.items():
        expect = [Fraction(0)] * 3
        for m in (m for m in base if m <= k - 1):
            term = [Fraction(x) for x in base[m]]
            for _ in range(k - 1 - m):
                term = [sum(term[a] * A[a][i] for a in range(3)) for i in range(3)]
            expect = [e + t for e, t in zip(expect, term)]
        assert got == pytest.approx(np.array(expect, dtype=float), rel=1e-12), k


def test_star_transform_requires_deterministic_input(mirror):
    noisy = Characteristic(
        2, base={0: np.array([1.0, 1.0])}, noise={(0, 0): NoiseLaw((0.5, 0.5), (0.0, 1.0))}
    )
    with pytest.raises(ValueError):
        star_transform(noisy, mirror.model, 40)


# -- the martingale-gap characteristic ---------------------------------------


def test_gap_characteristic_rows_for_doubling(single_type):
    S, model = single_type.S, single_type.model
    phi1 = make_phi1(S, np.array([1.0]), model=model)
    # row at age k is 2^{k-1} for the doubling mean
    for k in sorted(phi1.coeff):
        assert phi1.coeff[k][0] == pytest.approx(2.0 ** (k - 1), rel=1e-12)
    assert max(phi1.coeff) == 0
    assert min(phi1.coeff) < -40  # auto-truncation reaches the 1e-14 threshold
    # the stop rule in the Stein closed form: the remaining mass
    # sum_{j<=k} rho^{-j} |phi1(j)|_M^2 = w_k X w_k^H, with w_k = rho^{-k/2} phi1(k),
    # is above PHI1_MASS at the last kept row and at most PHI1_MASS at the first omitted one
    X = stein_tail(S, mixing_covariance(model, S.u), -1)[0]

    def mass(k):
        return m_norm2(X, np.array([2.0 ** (k - 1) * S.rho ** (-k / 2)], dtype=complex))

    first_omitted = min(phi1.coeff) - 1
    assert 0 < mass(first_omitted) <= PHI1_MASS < mass(first_omitted + 1)


def test_gap_characteristic_hard_window(single_type):
    S = single_type.S
    phi1 = make_phi1(S, np.array([1.0]), model=single_type.model, k_min=-5)
    assert sorted(phi1.coeff) == list(range(-5, 1))
    assert min(phi1.coeff) == -5


def test_gap_characteristic_zero_row_short_circuits(cross_feed):
    S = cross_feed.S
    phi1 = make_phi1(S, np.zeros(2), model=cross_feed.model)
    assert not phi1.coeff
    assert type(phi1) is Characteristic and phi1.label == "phi1"
    # a pi1 for the sub-aligned row is zero up to rounding dust; whatever
    # survives is far below the truncation threshold after one term
    row = build_characteristic(cross_feed.scn, cross_feed.model, S)[1]
    dusty = make_phi1(S, row @ S.pi1, model=cross_feed.model)
    assert all(float(np.linalg.norm(r)) < 1e-12 for r in dusty.coeff.values())


def _sweep_kesten_stigum_inputs() -> list:
    """``(seed, index, input)`` for the ``kesten_stigum`` inputs among the
    first 200 of ``constants_sweep.inputs`` at seeds 0 to 2."""
    sweep = load_repo_module("perfbench/constants_sweep.py")
    return [
        (seed, i, inp)
        for seed in range(3)
        for i, (inp,) in enumerate(itertools.islice(sweep.inputs(seed), 200))
        if inp["family"] == "kesten_stigum"
    ]


def test_the_mass_stopped_phi1_table_misses_exactly_its_remaining_mass():
    # Known defect 17: sigma2 of the untruncated phi1 (one closed tail from
    # w = x1 pi1 A1^{-1}) exceeds sigma2 of make_phi1's table by the mass past
    # the table's last row, which the table's sigma2_error does not cover
    missed = {}
    for seed, i, inp in _sweep_kesten_stigum_inputs():
        model = build_model(inp["model"])
        if not validate_assumptions(model).all_ok:
            continue
        S = spectral_decompose(model.A)
        x1 = np.asarray(inp["row"], dtype=float)
        phi1 = make_phi1(S, x1, model=model)
        table = compute_constants(phi1, S, model)
        w = x1 @ projected_power(S, 1, -1)
        delta = ((S.J + 4) * _EPS + max(S.residuals.values())) * _fro(w)
        full, full_error = tail_sum(S, mixing_covariance(model, S.u), w, -1, delta)
        rest, rest_error = phi1_remaining_mass(S, model, x1, phi1)
        gap = full - table.sigma2
        assert abs(gap - rest) <= full_error + table.sigma2_error + rest_error, (seed, i)
        missed[seed, i] = (len(phi1.coeff), rest, table.sigma2_error)
    assert len(missed) > 100
    # the table of seed 2, input 155 (3 types, rho = 7.84) ends where its next
    # row falls below float64's normal range, long before its mass falls to PHI1_MASS
    rows, rest, sigma2_error = missed[2, 155]
    assert rows == 678 and rest > 1e-7 > 1e4 * sigma2_error


def test_mean_zero_characteristics_have_zero_expected_process(mirror):
    star = star_transform(mirror.characteristic, mirror.model, 40)
    for n in (0, 3, 7):
        assert expected_process(star, mirror.model, n) == 0


@pytest.mark.parametrize(
    "name", ["single_type_binary", "two_type_mirror", "jordan_critical", "three_scale_symmetric"]
)
def test_expected_process_matches_exact_recursion(name):
    from conftest import bundle

    b = bundle(name)
    model = b.model
    row = build_characteristic(b.scn, model, b.S)[1]
    means, _ = exact_moment_tables(model, 8)
    phi = Characteristic(model.J, base={0: row, 2: 0.5 * row})
    for n in (2, 5, 8):
        expect = complex(sum(row[i] * float(means[n][i]) for i in range(model.J)))
        expect += complex(sum(0.5 * row[i] * float(means[n - 2][i]) for i in range(model.J)))
        assert expected_process(phi, model, n) == pytest.approx(expect, rel=1e-12)


def test_assumption_sums_are_finite_and_positive(mirror):
    sums = assumption_sums(mirror.characteristic, mirror.S, mirror.model)
    assert np.isfinite(sums["mean_weighted_sum"]) and sums["mean_weighted_sum"] > 0
    assert sums["variance_weighted_sum"] == 0.0  # indicators carry no randomness


def test_assumption_sums_stay_finite_where_a_row_norm_squared_overflows():
    # a noise variance near 2.5e299 and a mean row of size 1e200 at age 0:
    # each row's squares leave float64, its norm does not
    from conftest import bundle

    b = bundle("asym_leak")
    law = NoiseLaw((0.5, 0.5), (0.0, 1e150))
    phi = Characteristic(2, base={0: [1e200, 1e200j]}, noise={(0, 0): law})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = assumption_sums(phi, b.S, b.model)
    assert sums["variance_weighted_sum"] == law.variance() == pytest.approx(2.5e299, rel=1e-15)
    mean = math.hypot(1e200 + law.mean().real, 1e200)  # theta^0 + rho^0 = 2
    assert sums["mean_weighted_sum"] == pytest.approx(2 * mean, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.integers(-2, 2),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_scaling_composes(row, k, z):
    phi = Characteristic(2, base={k: np.array(row, dtype=float)})
    twice = phi.scaled(z).scaled(z)
    once = phi.scaled(z * z)
    assert np.allclose(twice.moments()[1], once.moments()[1], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3))
def test_row_canonicalization_accepts_lists(row):
    phi = Characteristic(3, base={0: row})
    if not any(row):
        assert 0 not in phi.base  # all-zero rows are dropped
        return
    assert isinstance(phi.base[0], np.ndarray)
    assert phi.base[0].dtype == complex
    assert np.allclose(phi.base[0].real, row)
