"""Limit constants: frozen hand-derived values, dual-route agreement,
certificates, scaling covariance, and cross-checks against the exact
rational moment recursion."""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmjsim import (
    build_model,
    compute_B,
    compute_constants,
    compute_sigma2,
    compute_sigma_star2,
    compute_x1_x2,
    compute_sigma_l,
    find_l_star,
    make_indicator_characteristic,
    make_phi1,
    spectral_decompose,
)
from cmjsim.characteristics import Characteristic, NoiseLaw, assumption_sums
from cmjsim.cli import build_characteristic
from cmjsim.presets import _bernoulli_column, preset_names
from cmjsim.model import mixing_covariance
from cmjsim.spectral import m_norm2, power_scaled

from conftest import bundle
from oracles import eager_b_table, exact_linear_variance, per_cell_sigma2


# -- frozen per-preset constants ----------------------------------------------


def test_one_type_case_one_constants(single_type):
    c = single_type.constants
    assert c.case == "i"
    assert c.l_star is None
    assert c.sigma2 == pytest.approx(0.5, abs=1e-12)
    assert c.sigma2_error < 1e-10
    assert c.sigma_case2 == pytest.approx(0.5, abs=1e-12)
    assert complex(c.x1[0]).real == pytest.approx(1.0, abs=1e-12)
    assert abs(complex(c.x2[0])) < 1e-12
    # the direct route needs a . u = 0; here a u = 1, so it must be skipped
    assert c.sigma_star2 is None
    assert "sigma_star2_skipped" in c.notes


def test_mirror_case_two_constants(mirror):
    c = mirror.constants
    assert c.case == "ii"
    assert c.l_star == 0
    assert c.sigma_l[0] == pytest.approx(2.0, abs=1e-10)
    assert c.sigma_l[1] == pytest.approx(0.0, abs=1e-10)
    assert c.sigma_case2 == pytest.approx(2.0, abs=1e-10)
    # the case-i series vanishes identically along the half-power direction
    assert c.sigma2 == pytest.approx(0.0, abs=1e-10)
    assert c.sigma_star2 == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(c.x2, [1.0, -1.0], atol=1e-10)
    assert np.allclose(c.x1, [0.0, 0.0], atol=1e-10)


def test_jordan_block_ladder(jordan):
    c = jordan.constants
    assert c.case == "ii"
    assert c.l_star == 1
    assert c.sigma_l[0] == pytest.approx(3 / 4, abs=1e-9)
    assert c.sigma_l[1] == pytest.approx(1 / 64, abs=1e-9)
    assert c.sigma_l[2] == pytest.approx(0.0, abs=1e-12)
    assert c.sigma_case2 == pytest.approx(1 / 64, abs=1e-9)
    assert np.allclose(c.x2, [1.0, -1.0, 0.0], atol=1e-9)
    assert np.allclose(c.x1, [0.0, 0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize(
    "name, value",
    [
        ("three_scale_symmetric", 1 / 7),
        ("cross_feed", 1.0),
        ("asym_leak", 2 / 3),
    ],
)
def test_case_one_frozen_variances(name, value):
    c = bundle(name).constants
    assert c.case == "i"
    assert c.sigma2 == pytest.approx(value, rel=1e-9)
    assert c.sigma_star2 == pytest.approx(value, rel=1e-9)
    assert c.sigma_case2 == pytest.approx(value, rel=1e-9)


def test_cyclic_three_dual_route_regression(cyclic):
    # period-3 mean matrix: the variance series has exact zeros interleaved
    # on a stride; both routes must skip past them rather than stop early
    c = cyclic.constants
    assert c.sigma2 == pytest.approx(0.304220582701120, abs=1e-9)
    assert c.sigma_star2 == pytest.approx(c.sigma2, rel=1e-9)


def test_dual_routes_agree_on_all_eligible_presets():
    for name in (
        "two_type_mirror",
        "jordan_critical",
        "cross_feed",
        "asym_leak",
        "three_scale_symmetric",
        "cyclic_three",
    ):
        c = bundle(name).constants
        assert c.sigma_star2 is not None, name
        assert abs(c.sigma_star2 - c.sigma2) <= 1e-6 * max(1.0, abs(c.sigma2)), name


def _bits(x):
    """A value with every array and number as its raw bytes, containers item by item."""
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return [(k, _bits(v)) for k, v in x.items()]
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if isinstance(x, (np.ndarray, np.generic, float, complex)):
        arr = np.asarray(x)
        return arr.dtype.str, arr.shape, arr.tobytes()
    return x


@pytest.mark.parametrize("name", preset_names())
def test_a_row_its_indicator_and_its_age0_table_take_one_road(name):
    # the route to sigma*^2 is decided from the characteristic alone, so each
    # form of one age-0 row gives the same constants, the zero row included
    b = bundle(name)
    for row in (b.row, np.zeros(b.model.J)):
        forms = (row, make_indicator_characteristic(row), Characteristic(J=b.model.J, base={0: row}, label="table"))
        consts = [compute_constants(form, b.S, b.model) for form in forms]
        assert all(_bits(c) == _bits(consts[0]) for c in consts[1:])
    # the zero row's table keeps no row at all, and still takes the direct route
    assert Characteristic(J=b.model.J, base={0: row}).base == {}
    assert all((c.sigma_star2, c.sigma_star2_error) == (0.0, 0.0) for c in consts)


# -- x1 / x2 and the centering table ------------------------------------------


def test_x_rows_are_projections_for_indicators(asym_leak):
    S = asym_leak.S
    a = asym_leak.row
    x1, x2 = compute_x1_x2(make_indicator_characteristic(a).mean_table(), S)
    assert np.allclose(x1, a @ S.pi1, atol=1e-12)
    assert np.allclose(x2, a @ S.pi2, atol=1e-12)


def test_x_rows_shift_with_age(mirror):
    S = mirror.S
    from cmjsim.spectral import projected_power

    r = np.array([1.0, 2.0])
    phi = Characteristic(2, base={2: r})
    x1, x2 = compute_x1_x2(phi.mean_table(), S)
    assert np.allclose(x1, r @ projected_power(S, 1, -2), atol=1e-12)
    assert np.allclose(x2, r @ projected_power(S, 2, -2), atol=1e-12)


def test_centering_rows_single_type(single_type):
    S = single_type.S
    phi = single_type.phi
    # no sub part: B vanishes for k >= 1; B(k) = -2^{k-1} for k <= 0
    for k in (1, 2, 5):
        assert np.allclose(compute_B(phi.mean_table(), S, k), [0.0], atol=1e-14)
    for k in (0, -1, -3):
        assert compute_B(phi.mean_table(), S, k)[0] == pytest.approx(-(2.0 ** (k - 1)), abs=1e-14)


def test_centering_rows_pure_leak(asym_leak):
    S = asym_leak.S
    phi = asym_leak.phi
    a = asym_leak.row
    # a pi1 = 0 here, so the descending branch vanishes and the ascending
    # branch rides the sub eigenvalue 1: B(k) = a for every k >= 1
    for k in (1, 2, 6):
        assert np.allclose(compute_B(phi.mean_table(), S, k), a, atol=1e-10), k
    for k in (0, -2):
        assert np.allclose(compute_B(phi.mean_table(), S, k), [0.0, 0.0], atol=1e-10), k


def test_sigma_l_closed_form_on_mirror(mirror):
    S, model = mirror.S, mirror.model
    x2 = np.array([1.0, -1.0])
    # rho^{-1} * sum_j u_j (x2 C_j x2) = (1/4) * (1*4 + 1*4) = 2
    assert compute_sigma_l(x2, S, model)[0] == pytest.approx(2.0, abs=1e-10)
    assert compute_sigma_l(x2, S, model)[1] == pytest.approx(0.0, abs=1e-12)


def test_l_star_picks_highest_live_rung():
    assert find_l_star((2.0, 0.0, 0.0)) == 0
    assert find_l_star((0.75, 1 / 64, 0.0)) == 1
    assert find_l_star((0.0, 0.0)) is None
    assert find_l_star((1e-15, 1e-13)) is None  # below tolerance


def test_sigma_l_table_length(jordan):
    table = compute_sigma_l(np.asarray(jordan.constants.x2), jordan.S, jordan.model)
    assert len(table) == jordan.model.J + 1
    assert table[2] == pytest.approx(0.0, abs=1e-12)


# -- certificates and truncation ----------------------------------------------


def test_sigma2_error_certificate_honest(asym_leak):
    # the closed-form tails against a plain sum of 601 terms, each row B(k)
    # formed on its own; the terms past |k| = 300 are below 1e-100
    S, model, phi = asym_leak.S, asym_leak.model, asym_leak.phi
    value, err, _ = compute_sigma2(phi, S, model)
    assert 0 < err < 1e-12
    ks = np.arange(-300, 301)
    mt = phi.mean_table()
    rows = power_scaled(np.array([compute_B(mt, S, k) for k in ks]), S.rho, ks / 2)
    terms = m_norm2(mixing_covariance(model, S.u), rows).tolist()
    brute = math.fsum(terms)
    assert abs(value - brute) <= err + len(terms) * np.finfo(float).eps * math.fsum(map(abs, terms))


def test_sigma_star_rejects_radius_aligned_rows(single_type):
    with pytest.raises(ValueError):
        compute_sigma_star2(np.array([1.0]), single_type.S, single_type.model)


def test_sigma_star_matches_hand_sum_on_leak(asym_leak):
    S, model = asym_leak.S, asym_leak.model
    a = asym_leak.row
    val, err = compute_sigma_star2(a, S, model)
    # B(k) = a for k >= 1; |a|_M^2 = sum_j u_j (a C_j a^T) = 4/3 + 2/3 = 2
    # sum_{k>=1} 4^{-k} * 2 = 2/3, descending branch zero
    assert val == pytest.approx(2 / 3, rel=1e-10)
    assert err < 1e-10


# -- scaling covariance --------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0.5, 2.0, -1.0, 3.0, -0.25]))
def test_constants_scale_correctly(factor):
    b = bundle("asym_leak")
    base = b.constants
    scaled = compute_constants(b.phi.scaled(factor), b.S, b.model)
    assert scaled.sigma2 == pytest.approx(factor**2 * base.sigma2, rel=1e-9)
    assert np.allclose(scaled.x1, factor * np.asarray(base.x1), atol=1e-10)
    assert np.allclose(scaled.x2, factor * np.asarray(base.x2), atol=1e-10)
    for l in range(len(base.sigma_l)):
        assert scaled.sigma_l[l] == pytest.approx(factor**2 * base.sigma_l[l], abs=1e-10)


def test_scaled_centering_rows(mirror):
    S = mirror.S
    phi = mirror.phi
    for k in (-2, 0, 1, 3):
        b1 = compute_B(phi.mean_table(), S, k)
        b3 = compute_B(phi.scaled(3.0).mean_table(), S, k)
        assert np.allclose(b3, 3.0 * b1, atol=1e-10)


# -- exact rational recursion cross-checks --------------------------------------


def test_exact_recursion_mirror_variance_is_n_times_4n(mirror):
    for n in range(1, 9):
        var = exact_linear_variance(mirror.model, [1, -1], n)
        assert var == Fraction(n * 4**n)


def test_exact_recursion_cross_feed_geometric(cross_feed):
    for n in range(1, 9):
        var = exact_linear_variance(cross_feed.model, [1, -1], n)
        assert var == Fraction(3**n - 1, 2)


def test_exact_recursion_population_variance_single_type(single_type):
    # Var Z_n = 4^{n-1} + ... for the binary split: Var Z_{n+1} = 4 Var Z_n + 2^n
    model = single_type.model
    expect = Fraction(0)
    for n in range(1, 10):
        expect = 4 * expect + 2 ** (n - 1)
        assert exact_linear_variance(model, [1], n) == expect


def test_case_two_variance_ladder_matches_recursion_asymptotics(jordan):
    # Var[a Z_n] / (n^3 rho^n) should approach sigma_1^2 * v_1 = 1/192;
    # the exact recursion at moderate n shows the drift toward it
    model = jordan.model
    v1 = 1 / 3
    target = jordan.constants.sigma_l[1] * v1
    vals = []
    for n in (10, 14, 18):
        var = exact_linear_variance(model, [1, -1, 0], n)
        vals.append(float(var) / (n**3 * 4.0**n))
    gaps = [abs(v - target) for v in vals]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] / target < 0.5


# -- near-critical gaps and long windows ----------------------------------------


def _symmetric_pair(rho: float, lam2: float):
    """Two-type symmetric model with eigenvalues rho and lam2, its columns
    Bernoulli-rounded as in the presets."""
    a = Fraction((rho + lam2) / 2.0).limit_denominator(10**4)
    b = Fraction(rho).limit_denominator(10**4) - a
    fa, fb = math.floor(a), math.floor(b)
    col1 = _bernoulli_column([fa, fb], [a - fa, b - fb])
    col2 = _bernoulli_column([fb, fa], [b - fb, a - fa])
    model = build_model({"types": 2, "initial_type": 1, "offspring": {1: col1, 2: col2}})
    return model, spectral_decompose(model.A)


def _certified_or_refused(compute):
    """Run ``compute``; it must return constants whose routes agree within
    their certificates plus 1e-9 relative, or raise a bare ArithmeticError
    (so no OverflowError or ZeroDivisionError, both ArithmeticError
    subclasses, and no RecursionError).  Returns the constants or None."""
    try:
        c = compute()
    except ArithmeticError as exc:
        assert type(exc) is ArithmeticError and str(exc), repr(exc)
        return None
    assert np.isfinite(c.sigma2) and np.isfinite(c.sigma2_error)
    if c.sigma_star2 is not None:
        gap = abs(c.sigma2 - c.sigma_star2)
        assert gap <= c.sigma2_error + c.sigma_star2_error + 1e-9 * max(c.sigma2, c.sigma_star2)
    return c


def _perron_orthogonal(S, row=(1.0, 2.0)):
    a = np.asarray(row, dtype=float)
    return a - (a @ S.u) * S.v


@pytest.mark.parametrize("lam2", [2.01, 1.99])
def test_near_critical_pair_certifies(lam2):
    model, S = _symmetric_pair(4.0, lam2)
    c = _certified_or_refused(lambda: compute_constants(_perron_orthogonal(S), S, model))
    assert c is not None and c.case == "i"
    assert c.sigma_star2 is not None


@pytest.mark.parametrize("rho, lam2", [(4.0, 2.0101), (1.5, 1.2309)])
def test_gap_characteristic_with_ratio_near_one(rho, lam2):
    # rho / s1^2 ~ 0.99: the phi1 tail runs to k ~ -3000, where rho^{-k}
    # alone leaves float64 range; at rho = 4 its rows underflow first
    model, S = _symmetric_pair(rho, lam2)
    s1 = min(abs(cl.eigenvalue) for cl in S.clusters if cl.label == "super")
    assert S.rho / s1**2 == pytest.approx(0.99, abs=1e-3)
    x1 = np.array([1.0, -1.0])
    c = _certified_or_refused(lambda: compute_constants(make_phi1(S, x1, model=model), S, model))
    if rho < 2:
        assert c is not None and c.B_window[0] < -2000


def test_variance_sum_keeps_rows_that_underflow_when_squared():
    # the phi1 table of the rho = 1.5 pair runs to k = -3408, its last row
    # in float64's normal range, where |coeff(k)| < 1e-154 squares to zero
    # unless rho^{-k/2} scales it first
    model, S = _symmetric_pair(1.5, 1.2309)
    phi = make_phi1(S, np.array([1.0, -1.0]), model=model)
    assert min(phi.coeff) == -3408
    direct = 0.0
    for k, c in phi.coeff.items():
        scaled = c * math.exp(-0.5 * k * math.log(S.rho))
        direct += float(np.linalg.norm([np.real(scaled @ cov @ scaled.conj()) for cov in model.covs]))
    got = assumption_sums(phi, S, model)["variance_weighted_sum"]
    assert got == pytest.approx(direct, rel=1e-12)
    assert got == pytest.approx(32.59247, abs=1e-5)


def _per_key_mean_sum(phi, S):
    """``mean_weighted_sum`` as a loop of one ``np.linalg.norm`` per key."""
    ks = np.array(phi.moments()[0])
    mt = phi.mean_table()  # zero rows at coeff-only ages, as the table keeps them
    mean = np.array([np.linalg.norm(mt.get(k, np.zeros(phi.J))) for k in phi.moments()[0]])
    return float(np.sum(power_scaled(mean, S.rho, ks) + power_scaled(mean, S.theta, ks)))


def _random_tables(S, count=100, seed=7):
    """One-key tables first: the sum is then one weighted norm, so a last-bit
    change in it shows.  Then one table over sixty keys, for the stacking of
    base rows and the scatter of noise means."""
    rng = np.random.default_rng(seed)

    def row():
        return rng.standard_normal(S.J) + 1j * rng.standard_normal(S.J)

    def law():
        return NoiseLaw((0.3, 0.7), (complex(rng.standard_normal()), 2.5j))

    for i in range(count):
        k = int(rng.integers(-5, 6))
        noise = {(k, int(rng.integers(S.J))): law()} if i % 2 else {}
        yield Characteristic(J=S.J, base={k: row()}, noise=noise)
    base = {k: row() * S.theta**k for k in range(60)}
    noise = {(k, int(rng.integers(S.J))): law() for k in range(0, 60, 2)}
    yield Characteristic(J=S.J, base=base, noise=noise)


@pytest.mark.parametrize("name", preset_names())
def test_mean_weighted_sum_equals_per_key_norms_on_presets(name):
    b = bundle(name)
    phi, _ = build_characteristic(b.scenario, b.model, b.S)
    for table in (phi, *_random_tables(b.S)):
        assert assumption_sums(table, b.S, b.model)["mean_weighted_sum"] == _per_key_mean_sum(table, b.S)


def test_mean_weighted_sum_equals_per_key_norms_on_a_long_table():
    model, S = _symmetric_pair(1.5, 1.2309)
    phi = make_phi1(S, np.array([1.0, -1.0]), model=model)
    long_table = Characteristic(
        J=2, base={k: np.array([1.0, -1.0]) * 0.9 ** -k for k in phi.coeff}, coeff=phi.coeff
    )
    for table in (phi, long_table):
        assert assumption_sums(table, S, model)["mean_weighted_sum"] == _per_key_mean_sum(table, S)


def _noisy_tables(J, count=20, seed=31):
    """Base, coeff and noise cells, each age's cells in ascending type order,
    a cell per type at age 2 (three when J = 3) and noise alone at age -3."""
    rng = np.random.default_rng(seed)

    def row():
        return rng.standard_normal(J) + 1j * rng.standard_normal(J)

    def law():
        return NoiseLaw((0.2, 0.5, 0.3), (complex(rng.standard_normal()), 1.5, -2.0j))

    for _ in range(count):
        noise = {(k, j): law() for k in (-3, 0, 2) for j in range(J) if k == 2 or rng.random() < 0.5}
        yield Characteristic(J=J, base={0: row(), 1: row()}, coeff={-1: row(), 0: row()}, noise=noise)


@pytest.mark.parametrize("name", preset_names())
def test_sigma2_noise_term_equals_the_per_cell_sum(name):
    b = bundle(name)
    for phi in _noisy_tables(b.S.J):
        got, want = compute_sigma2(phi, b.S, b.model), per_cell_sigma2(phi, b.S, b.model)
        assert got[0] == want[0] and list(got[2]) == list(want[1])
        # the per-age sum runs in type order whatever the order of the cells
        flipped = dataclasses.replace(phi, noise=dict(reversed(phi.noise.items())))
        assert compute_sigma2(flipped, b.S, b.model)[0] == got[0]


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-2.0, 0.0),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
)
def test_near_critical_gaps_certify_or_refuse(log_gap, side, sign):
    lam2 = sign * (2.0 + side * 10.0**log_gap)
    model, S = _symmetric_pair(4.0, lam2)
    row = _perron_orthogonal(S)
    _certified_or_refused(lambda: compute_constants(row, S, model))
    _certified_or_refused(lambda: compute_constants(make_phi1(S, row, model=model), S, model))


def _tail_outputs(S, model, a, order) -> dict:
    """The raw bytes of each constant in ``order``, computed on ``S`` in turn."""
    phi = make_indicator_characteristic(a)
    out = {}
    for what in order:
        if what == "sigma_star2":
            out[what] = np.array(compute_sigma_star2(a, S, model)).tobytes()
        elif what == "sigma2":
            value, err, table = compute_sigma2(phi, S, model)
            out[what] = (np.array([value, err]).tobytes(), list(table), np.array(list(table.values())).tobytes())
        else:
            phi1 = make_phi1(S, a, model=model)
            out[what] = (list(phi1.coeff), np.array(list(phi1.coeff.values())).tobytes())
    return out


@pytest.mark.parametrize("lam2", [2.03, 1.97, -2.03])
def test_cached_tail_blocks_do_not_depend_on_call_order(lam2):
    model, S = _symmetric_pair(4.0, lam2)
    a = _perron_orthogonal(S)
    whats = ("sigma_star2", "sigma2", "phi1")
    alone = {w: _tail_outputs(dataclasses.replace(S, _cache={}), model, a, [w])[w] for w in whats}
    for order in itertools.permutations(whats):
        fresh = dataclasses.replace(S, _cache={})
        assert _tail_outputs(fresh, model, a, order) == alone, order
        # one cached Stein solve per tail direction, shared by all three
        solves = sorted(key[:2] for key in fresh._cache if key[0] == "stein")
        assert solves == [("stein", -1), ("stein", 1)]


# -- the B(k) table holds the window's rows ------------------------------------


def _assert_same_table(got, want) -> None:
    assert list(got) == list(want)
    for k, row in want.items():
        assert got[k].dtype == row.dtype and got[k].tobytes() == row.tobytes(), k


@pytest.mark.parametrize("name", preset_names())
def test_b_table_equals_the_eager_build_on_presets(name):
    b = bundle(name)
    phi, _ = build_characteristic(b.scenario, b.model, b.S)
    c = compute_constants(phi, b.S, b.model)
    _assert_same_table(c.B_table, eager_b_table(phi, b.S, b.model))
    assert c.B_window == (min(c.B_table), max(c.B_table))


@pytest.mark.parametrize("rho, lam2", [(4.0, 2.03), (1.5, 1.2309)])
def test_b_table_equals_the_eager_build_near_criticality(rho, lam2):
    model, S = _symmetric_pair(rho, lam2)
    phi = make_indicator_characteristic(_perron_orthogonal(S))
    c = compute_constants(phi, S, model)
    _assert_same_table(c.B_table, eager_b_table(phi, S, model))
    # an age-0 indicator: B changes form between k = 0 and k = 1 only
    assert c.B_window == (0, 1)
