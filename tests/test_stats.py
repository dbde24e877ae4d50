"""Statistical battery: KS machinery, bootstrap, Fisher test, and the
pre-registered verifier on synthetic batches with known ground truth."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from cmjsim import build_model, make_phi1, run_batch, simulator, spectral_decompose, stats, verify_dichotomy
from cmjsim.characteristics import Characteristic, NoiseLaw, make_indicator_characteristic
from cmjsim.presets import PRESETS, _bernoulli_column
from cmjsim.simulator import BLOCK, ReplicateResult
from cmjsim.stats import (
    W_MIN_DEFAULT,
    _median,
    _real_quotient,
    bootstrap_variance_se,
    fisher_corr_z,
    flatness_check,
    ks_pvalue,
    ks_statistic,
    ks_test,
    lln_check,
    normal_cdf,
    studentized,
)

from conftest import bundle
from oracles import (
    batch_from_rows,
    cramer_bootstrap_variance,
    enumerated_bootstrap_variance,
    one_shot_resampled_variances,
    per_point_ks_statistic,
    reference_ks_pvalue,
    reference_studentized,
)


def test_normal_cdf_landmarks():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert normal_cdf(-8.0) < 1e-14


def test_ks_statistic_hand_cases():
    # all zeros: empirical CDF jumps to 1 at 0 where Phi = 0.5
    assert ks_statistic(np.zeros(10)) == pytest.approx(0.5, abs=1e-12)
    # plug-in quantiles at (i - 1/2)/m leave D = 1/(2m)
    m = 40
    qs = [scipy.special.ndtri((i - 0.5) / m) for i in range(1, m + 1)]
    assert ks_statistic(np.array(qs)) == pytest.approx(0.5 / m, abs=1e-9)


def test_ks_statistic_matches_the_per_point_normal_cdf():
    rng = np.random.default_rng(41)
    edges = [0.0, -0.0, 1e-310, -1e-310, 8.0, -8.0, 40.0, -40.0, np.inf, -np.inf]
    xs = np.concatenate([edges, rng.standard_normal(20_000), 10.0 * rng.standard_normal(2_000)])
    # on one point at x >= 0, D = max(Phi(x), 1 - Phi(x)) is Phi(x) itself
    for x in xs[xs >= 0]:
        assert ks_statistic([x]) == normal_cdf(x)
    for m in (1, 2, 7, 100, 5_000, xs.size):
        sample = rng.permutation(xs)[:m]
        assert ks_statistic(sample) == per_point_ks_statistic(sample)


def test_ks_pvalue_against_scipy_tail():
    for t in (0.3, 0.5, 0.8, 1.0, 1.35, 2.0, 3.0):
        for m in (50, 200, 1000):
            D = t / math.sqrt(m)
            mine = ks_pvalue(D, m)
            ref = float(scipy.special.kolmogorov(t))
            assert mine == pytest.approx(ref, abs=1e-9), (t, m)


def test_ks_pvalue_monotone_and_bounded():
    m = 200
    ps = [ks_pvalue(d, m) for d in np.linspace(0.001, 0.3, 40)]
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))
    assert ks_pvalue(0.0, m) == 1.0


def test_ks_test_needs_fifty_points():
    with pytest.raises(ValueError):
        ks_test(np.zeros(49))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "gate",
    [
        lambda: ks_test([math.nan] * 60),
        lambda: fisher_corr_z([math.nan] * 10, range(10)),
        lambda: bootstrap_variance_se([1.0, math.inf, 2.0]),
    ],
    ids=["ks_test", "fisher_corr_z", "bootstrap_variance_se"],
)
def test_gates_refuse_non_finite_values(gate):
    # a NaN correlation used to clamp to r = 0.999999999, a NaN KS sample to
    # D = nan with p = 0, and an infinite value gave a nan standard error
    # after numpy's RuntimeWarning
    with pytest.raises(ValueError, match="needs finite values"):
        gate()


def test_ks_matches_scipy_on_random_samples():
    rng = np.random.default_rng(808)
    for _ in range(10):
        xs = rng.normal(size=150)
        D, p = ks_test(xs)
        assert p == pytest.approx(reference_ks_pvalue(xs), abs=2e-4)


def test_ks_pvalues_calibrated_under_the_null():
    rng = np.random.default_rng(2_024)
    hits = 0
    trials = 400
    for _ in range(trials):
        _, p = ks_test(rng.normal(size=100))
        hits += p < 0.05
    # asymptotic p at m=100 is mildly conservative; allow a generous band
    assert 0.01 <= hits / trials <= 0.09


def test_ks_detects_wrong_distribution():
    rng = np.random.default_rng(7)
    _, p = ks_test(rng.uniform(-1, 1, size=500))
    assert p < 1e-6


def test_bootstrap_variance_se_scale():
    rng = np.random.default_rng(5_150)
    xs = rng.normal(size=500)
    se = bootstrap_variance_se(xs)
    # asymptotically sqrt(2/m) for the unit normal
    assert 0.6 * math.sqrt(2 / 500) < se < 1.6 * math.sqrt(2 / 500)


@pytest.mark.parametrize("sample", [[], [1.0]], ids=["empty", "one"])
def test_bootstrap_variance_se_needs_two_values(sample):
    with pytest.raises(ValueError, match=f"at least 2 values, got {len(sample)}"):
        bootstrap_variance_se(sample)


# -- the closed form against every resample, and against exact moments --------


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_bootstrap_variance_se_equals_the_enumerated_bootstrap(m):
    rng = np.random.default_rng(60 + m)
    samples = [rng.standard_normal(m), 1e6 + rng.standard_t(3, m), rng.integers(-2, 3, m).astype(float)]
    for xs in samples:
        exact = enumerated_bootstrap_variance(xs)
        # the enumeration is Cramer's closed form exactly ...
        assert exact == cramer_bootstrap_variance(xs)
        if exact:
            # ... and the float se is its square root to 1e-15 relative
            assert abs(Fraction(bootstrap_variance_se(xs)) ** 2 - exact) <= Fraction(2e-15) * exact, xs
        else:
            assert bootstrap_variance_se(xs) == 0.0


@pytest.mark.parametrize("m", [50, 1000, 16001])
@pytest.mark.parametrize("kind", ["normal", "two_point", "offset_t3", "offset_two_point"])
def test_bootstrap_variance_se_equals_the_exact_closed_form(kind, m):
    # two-point samples have m4 ~ m2^2, where m4/m - m2^2 (m-3)/(m(m-1))
    # summed in floats loses up to ~1e-10 at these m
    rng = np.random.default_rng(m)
    xs = {
        "normal": rng.standard_normal(m),
        "two_point": rng.choice([-1.0, 1.0], m),
        "offset_t3": 1e6 + rng.standard_t(3, m),
        "offset_two_point": 1e3 + 0.1 * rng.choice([-1.0, 1.0], m),
    }[kind]
    exact = cramer_bootstrap_variance(xs)
    assert abs(Fraction(bootstrap_variance_se(xs)) ** 2 - exact) <= Fraction(1e-13) * exact


def test_bootstrap_variance_se_scales_by_powers_of_two_exactly():
    # d^4 of this sample times 2**400 is ~1e482: squared twice unscaled it
    # overflows while the sample variance (~1e241) does not
    xs = np.random.default_rng(70).standard_normal(1000)
    se = bootstrap_variance_se(xs)
    assert bootstrap_variance_se(xs * 2.0**400) == se * 2.0**800
    assert bootstrap_variance_se(xs * 2.0**-400) == se * 2.0**-800
    assert bootstrap_variance_se(xs * 1e100) == pytest.approx(se * 1e200, rel=1e-14)


@pytest.mark.parametrize("value", [0.1, 5.0, -1e300])
def test_bootstrap_variance_se_of_a_constant_sample_is_zero(value):
    assert bootstrap_variance_se([value] * 7) == 0.0


# -- the closed form as the limit of the one-shot (B, m) Monte Carlo ----------

# around one row per 16,000 values and around 2**15
_SIZES = (50, 51, 999, 1000, 1001, 15999, 16000, 16001, 32767, 32768, 32769, 70001)
_REPLICATES = (2, 7, 400, 500)
# the one-shot oracle holds four (B, m) temporaries, so pairs above 2**20
# resampled items are left out; B = 2 and 7 still reach every m
_ORACLE_ITEMS = 1 << 20


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _within_monte_carlo_spread(se: float, boot: np.ndarray) -> bool:
    """The closed form se**2 is the mean of the Monte Carlo's variance of B
    resampled variances: (B - 1) s_B**2 / se**2 lies inside the two-sided
    1e-6 band of chi-square with B - 1 degrees of freedom."""
    B = boot.shape[0]
    ratio = (B - 1) * float(boot.var(ddof=1)) / se**2
    return scipy.stats.chi2.ppf(1e-6, B - 1) < ratio < scipy.stats.chi2.isf(1e-6, B - 1)


@pytest.mark.parametrize(
    "m,B", [(m, B) for m in _SIZES for B in _REPLICATES if m * B <= _ORACLE_ITEMS]
)
def test_bootstrap_variance_se_equals_one_shot_oracle(m, B):
    xs = np.random.default_rng(m + B).standard_normal(m)
    se = bootstrap_variance_se(xs)
    exact = cramer_bootstrap_variance(xs)
    assert abs(Fraction(se) ** 2 - exact) <= Fraction(1e-13) * exact
    assert _within_monte_carlo_spread(se, one_shot_resampled_variances(xs, _pcg(7 * m + B), B))


@pytest.mark.parametrize("m", [50, 51, 999, 1000, 1001])
@pytest.mark.parametrize("B", _REPLICATES)
def test_flatness_check_equals_one_shot_oracle(m, B):
    ns = (8, 10, 12)
    batch = synth_batch(ns=ns, m=m, seed=m)
    out = flatness_check(batch)
    assert [r["t"] for r in out["rows"]] == list(ns)
    rng = _pcg(41)
    for row, t in zip(out["rows"], ns):
        vals = batch.T[(0, t)][batch.usable(W_MIN_DEFAULT)].real
        var, se = float(vals.var(ddof=1)), bootstrap_variance_se(vals)
        assert row == {"t": t, "var": var, "ci": [var - stats.Z_99 * se, var + stats.Z_99 * se], "se": se}
        assert _within_monte_carlo_spread(se, one_shot_resampled_variances(vals, rng, B))


# -- the sort-based median ----------------------------------------------------


def _same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


def test_sort_median_equals_np_median():
    rng = np.random.default_rng(31)
    cases = [rng.standard_normal(m) for m in (1, 2, 7, 8, 999, 1000)]
    with_nan = rng.standard_normal(9)
    with_nan[3] = np.nan
    even_nan = rng.standard_normal(10)
    even_nan[0] = np.nan
    cases += [with_nan, even_nan, np.array([-0.0, -0.0]), np.array([-0.0]), np.array([np.inf, 1.0])]
    for xs in cases:
        assert _same_float(_median(xs), float(np.median(xs))), xs
    assert math.isnan(_median(with_nan)) and math.isnan(_median(even_nan))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_lln_check_on_presets_equals_np_median(name, monkeypatch):
    run = bundle(name)
    batch = run.batch()
    args = (batch, run.characteristic, run.model, run.S)
    ours = lln_check(*args, w_min=run.scn.run["w_min"])
    monkeypatch.setattr(stats, "_median", lambda xs: float(np.median(xs)))
    ref = lln_check(*args, w_min=run.scn.run["w_min"])
    assert ours.keys() == ref.keys()
    for key in ours:
        if isinstance(ours[key], float):
            assert _same_float(ours[key], ref[key]), (key, ours[key], ref[key])
        else:
            assert ours[key] == ref[key], key


def test_fisher_correlation_gate():
    rng = np.random.default_rng(31_337)
    x = rng.normal(size=300)
    y = rng.normal(size=300)
    r, z, crit = fisher_corr_z(x, y)
    assert abs(r) < 0.15 and z < crit
    r2, z2, _ = fisher_corr_z(x, 0.8 * x + 0.2 * y)
    assert z2 > crit and abs(r2) > 0.9
    # degenerate inputs are treated as uncorrelated rather than crashing
    r3, z3, _ = fisher_corr_z(np.ones(10), y[:10])
    assert (r3, z3) == (0.0, 0.0)


# -- synthetic batches for the verifier ----------------------------------------


def synth_batch(
    *,
    n=10,
    N=14,
    ns=(10,),
    sigma2=0.5,
    m=400,
    seed=0,
    var_factor=1.0,
    mean_shift=0.0,
    corr_with_w=0.0,
    var_trend=0.0,
    w_kind="lognormal",
    aborted=0,
):
    """A batch whose statistics are normal by construction."""
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(sigma2)
    reps = []
    for i in range(m):
        if w_kind == "lognormal":
            w = float(np.exp(rng.normal(0.0, 0.4)))
        else:
            w = 1.0
        T = {}
        for idx_t, t in enumerate(ns):
            g = rng.normal(mean_shift, math.sqrt(var_factor + var_trend * idx_t))
            g *= 1.0 + corr_with_w * (w - 1.0)
            T[(0, t)] = complex(sigma * math.sqrt(w) * g)
        reps.append(
            ReplicateResult(
                index=i,
                survived=True,
                aborted=False,
                z_final=np.array([1], dtype=np.int64),
                w_hat=w,
                zphi={(0, t): T[(0, t)] for t in ns},
                T=T,
            )
        )
    for i in range(aborted):
        reps.append(
            ReplicateResult(
                index=m + i, survived=True, aborted=True, z_final=None,
                w_hat=None, zphi={}, T={},
            )
        )
    return batch_from_rows(reps, n=n, N=N, ns=ns, master_seed=seed)


def test_studentized_unwinds_the_scale(single_type):
    c = single_type.const
    batch = synth_batch(sigma2=c.sigma_case2, m=80, seed=3)
    eps, ws = studentized(batch, c, t=10, w_min=1e-3)
    assert eps.shape == ws.shape == (80,)
    r = batch.replicates[0]
    expect = r.T[(0, 10)] / (math.sqrt(c.sigma_case2) * math.sqrt(r.w_hat))
    assert eps[0] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("preset_fixture, cap", [("single_type", 2_000), ("cyclic", 350_000)])
def test_columnar_studentized_equals_row_reference(request, monkeypatch, preset_fixture, cap):
    """The columnar studentization equals the row-by-row one bit for bit on
    a simulated batch with aborted rows and rows cut by the W_hat floor
    (cyclic_three's T is complex)."""
    b = request.getfixturevalue(preset_fixture)
    monkeypatch.setattr(simulator, "OVERFLOW_CAP", cap)
    batch = run_batch(
        b.model, b.characteristic, n=8, N=10, R=BLOCK + 40, master_seed=5_309, S=b.S,
        constants=b.const, ns=[6, 8],
    )
    w_min = float(np.nanquantile(batch.w_hat, 0.2))
    assert batch.aborted.any() and not batch.aborted.all()
    assert (batch.usable() & ~batch.usable(w_min)).any()
    for t in (6, 8):
        eps, ws = studentized(batch, b.const, t=t, w_min=w_min)
        ref_eps, ref_ws = reference_studentized(batch, b.const, phi_index=0, t=t, w_min=w_min)
        assert eps.size and eps.tobytes() == ref_eps.tobytes()
        assert ws.tobytes() == ref_ws.tobytes()


def test_verifier_passes_well_specified_batches(single_type):
    c, S = single_type.const, single_type.S
    passes = 0
    for seed in range(20):
        batch = synth_batch(sigma2=c.sigma_case2, m=400, seed=100 + seed)
        rep = verify_dichotomy(batch, c, S)
        passes += rep.passed
        assert rep.case == "i" and rep.m == 400
    assert passes >= 18  # pre-registered gates each have ~1% size


def test_verifier_rejects_wrong_variance(single_type):
    c, S = single_type.const, single_type.S
    batch = synth_batch(sigma2=c.sigma_case2, m=600, seed=9, var_factor=2.0)
    rep = verify_dichotomy(batch, c, S)
    assert not rep.passed
    assert any("var" in r or "KS" in r for r in rep.reasons)


def test_verifier_rejects_mean_shift(single_type):
    c, S = single_type.const, single_type.S
    batch = synth_batch(sigma2=c.sigma_case2, m=600, seed=10, mean_shift=0.3)
    rep = verify_dichotomy(batch, c, S)
    assert not rep.passed
    assert any("mean" in r for r in rep.reasons)


def test_verifier_rejects_w_dependence(single_type):
    c, S = single_type.const, single_type.S
    batch = synth_batch(sigma2=c.sigma_case2, m=800, seed=11, corr_with_w=0.9)
    rep = verify_dichotomy(batch, c, S)
    assert not rep.passed
    assert any("corr" in r for r in rep.reasons)


def test_verifier_needs_enough_survivors(single_type):
    c, S = single_type.const, single_type.S
    batch = synth_batch(sigma2=c.sigma_case2, m=30, seed=12)
    with pytest.raises(ValueError, match="usable survivors; need 50"):
        verify_dichotomy(batch, c, S)


def test_verifier_validates_requested_case(single_type, mirror):
    c, S = single_type.const, single_type.S
    batch = synth_batch(sigma2=c.sigma_case2, m=100, seed=13)
    with pytest.raises(ValueError):
        verify_dichotomy(batch, c, S, requested_case="ii")
    with pytest.raises(ValueError):
        verify_dichotomy(batch, mirror.const, mirror.S, requested_case="i")


def test_verifier_refuses_high_abort_rate(single_type):
    c, S = single_type.const, single_type.S
    batch = synth_batch(sigma2=c.sigma_case2, m=100, seed=14, aborted=20)
    with pytest.raises(RuntimeError):
        verify_dichotomy(batch, c, S)


def test_flatness_check_flags_trends():
    ns = (8, 10, 12, 14)
    flat = flatness_check(synth_batch(ns=ns, m=400, seed=15))
    assert flat["passed"]
    trending = flatness_check(synth_batch(ns=ns, m=400, seed=16, var_trend=0.6))
    assert not trending["passed"]


def test_verifier_fails_a_case_ii_batch_whose_variances_are_not_flat(mirror):
    c, S = mirror.const, mirror.S
    # right at the checked time n = 8, growing after it
    batch = synth_batch(n=8, ns=(8, 10, 12, 14), sigma2=c.sigma_case2, m=400, seed=16, var_trend=0.6)
    rep = verify_dichotomy(batch, c, S)
    assert rep.case == "ii" and not rep.passed and not rep.flatness["passed"]
    assert rep.reasons == ("per-time variances not flat under the case normalization",)


def test_verifier_records_the_flatness_bootstrap_it_ran(mirror):
    c, S = mirror.const, mirror.S
    batch = synth_batch(n=8, ns=(8, 10, 12), sigma2=c.sigma_case2, m=400, seed=17)
    flat = verify_dichotomy(batch, c, S).flatness
    # the closed form has no resample count or seed to record
    assert list(flat) == ["rows", "weighted_mean", "passed"]
    assert flat == flatness_check(batch, w_min=W_MIN_DEFAULT)


def test_resampling_defaults_are_the_bootstraps_verify_runs(jordan):
    # a caller gets the standard errors verify computes: they take no B or seed
    c, S, run = jordan.const, jordan.S, jordan.scn.run
    n = run["n"]
    batch = run_batch(jordan.model, jordan.characteristic, n, n + run["delta"], run["replicates"], run["seed"],
                      S=S, constants=c, ns=run["trajectory"])
    report = verify_dichotomy(batch, c, S)
    eps, _ = studentized(batch, c, t=n, w_min=W_MIN_DEFAULT)
    assert report.details["is_real"]
    assert bootstrap_variance_se(eps.real) == report.var_se
    assert flatness_check(batch, w_min=W_MIN_DEFAULT) == report.flatness


def test_flatness_check_skips_a_time_with_fewer_than_ten_values():
    batch = synth_batch(ns=(8, 10, 12), m=400, seed=19)
    held = dataclasses.replace(batch, T={key: col for key, col in batch.T.items() if key != (0, 10)})
    out = flatness_check(held)
    assert [r["t"] for r in out["rows"]] == [8, 12]


def test_flatness_check_without_a_time_left_fails_with_no_mean():
    out = flatness_check(synth_batch(ns=(8, 10), m=9, seed=20))
    assert out["rows"] == [] and out["passed"] is False and out["weighted_mean"] is None


def test_studentized_at_a_time_the_batch_does_not_hold_is_empty(single_type):
    batch = synth_batch(ns=(10,), m=80, seed=21)
    eps, ws = studentized(batch, single_type.const, t=12, w_min=1e-3)
    assert eps.shape == ws.shape == (0,)


def test_degenerate_scale_uses_decay_branch(degenerate):
    c = degenerate.const
    assert c.case == "degenerate"
    ns = (4, 8, 12)  # 2^{-t} drops below the 5%-of-first-value gate by t=12
    reps = []
    for i in range(100):
        T = {(0, t): complex(2.0 ** (-t) * (1 + 0.01 * (i % 7))) for t in ns}
        reps.append(
            ReplicateResult(
                index=i, survived=True, aborted=False,
                z_final=np.array([1, 1], dtype=np.int64), w_hat=1.0,
                zphi=dict(T), T=T,
            )
        )
    batch = batch_from_rows(reps, n=12, N=16, ns=ns)
    rep = verify_dichotomy(batch, c, degenerate.S)
    assert rep.case == "degenerate" and rep.passed and rep.decay["monotone"]

    bad = tuple(
        ReplicateResult(
            index=r.index, survived=True, aborted=False, z_final=r.z_final,
            w_hat=1.0, zphi=r.zphi,
            T={(0, t): complex(2.0**t) for t in ns},
        )
        for r in reps
    )
    batch_bad = batch_from_rows(bad, n=12, N=16, ns=ns)
    rep_bad = verify_dichotomy(batch_bad, c, degenerate.S)
    assert not rep_bad.passed


def test_complex_statistics_gate_on_scaled_real_part(single_type):
    c, S = single_type.const, single_type.S
    rng = np.random.default_rng(17)
    sigma = math.sqrt(c.sigma_case2)
    reps = []
    for i in range(400):
        w = float(np.exp(rng.normal(0.0, 0.3)))
        g = complex(rng.normal(0, math.sqrt(0.5)), rng.normal(0, math.sqrt(0.5)))
        reps.append(
            ReplicateResult(
                index=i, survived=True, aborted=False, z_final=np.array([1], dtype=np.int64),
                w_hat=w, zphi={(0, 10): sigma * math.sqrt(w) * g},
                T={(0, 10): sigma * math.sqrt(w) * g},
            )
        )
    batch = batch_from_rows(reps, n=10, N=14, ns=(10,))
    rep = verify_dichotomy(batch, c, S)
    assert rep.marginals is not None
    assert rep.passed
    assert rep.marginals["ks_p_real"] > 0.01 and rep.marginals["ks_p_imag"] > 0.01


# -- law-of-large-numbers checks on live simulations ---------------------------


def test_lln_ratio_mode(single_type):
    batch = run_batch(
        single_type.model, single_type.characteristic, n=12, N=16, R=80,
        master_seed=61_003, S=single_type.S,
    )
    out = lln_check(batch, single_type.characteristic, single_type.model, single_type.S)
    assert out["mode"] == "ratio"
    assert out["passed"], out


def test_lln_vanishing_mode(cross_feed):
    batch = run_batch(
        cross_feed.model, cross_feed.characteristic, n=14, N=18, R=60,
        master_seed=61_004, S=cross_feed.S,
    )
    out = lln_check(batch, cross_feed.characteristic, cross_feed.model, cross_feed.S)
    assert out["mode"] == "vanishing"
    assert out["passed"], out


def test_lln_check_without_a_usable_row_is_empty(single_type):
    batch = synth_batch(m=60, seed=18, w_kind="one")  # W_hat = 1 in every row
    out = lln_check(batch, single_type.characteristic, single_type.model, single_type.S, w_min=2.0)
    assert out["m"] == 0 and out["mode"] == "empty" and out["passed"] is False


@pytest.mark.parametrize("kind", ["kesten_stigum", "zero_table"])
def test_lln_has_nothing_to_judge_when_every_mean_row_is_zero(single_type, kind):
    n, N = 12, 16
    S, model = single_type.S, single_type.model
    phi = make_phi1(S, [1.0], model=model, k_min=n - N + 1) if kind == "kesten_stigum" else Characteristic(1)
    batch = run_batch(model, phi, n=n, N=N, R=80, master_seed=61_005, S=S)
    out = lln_check(batch, phi, model, S)
    assert out["m"] > 0 and out["limit_constant"] == 0 and out["scale"] == 0
    assert out["mode"] == "zero_mean" and out["passed"] is None
    assert "median_abs" not in out and "median_ratio" not in out


def test_lln_ratio_divides_as_python_complex_division():
    # both branches of the division: |Re b| >= |Im b| and the reverse
    rng = np.random.default_rng(90)
    a = rng.normal(size=400) + 1j * rng.normal(size=400)
    b = rng.normal(size=400) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=400))
    want = np.array([(complex(x) / complex(y)).real for x, y in zip(a, b)])
    assert _real_quotient(a, b).tobytes() == want.tobytes()


def test_lln_check_weighs_a_long_zero_mean_table():
    # test_constants' symmetric pair with eigenvalues 1.5 and 1.2309: its phi1
    # table runs to age -3408, where 1.5^3408 alone leaves float64
    a = Fraction((1.5 + 1.2309) / 2.0).limit_denominator(10**4)
    b = Fraction(1.5).limit_denominator(10**4) - a
    col1 = _bernoulli_column([1, 0], [a - 1, b])
    col2 = _bernoulli_column([0, 1], [b, a - 1])
    model = build_model({"types": 2, "initial_type": 1, "offspring": {1: col1, 2: col2}})
    S = spectral_decompose(model.A)
    phi = make_phi1(S, [1.0, -1.0], model=model)
    assert min(phi.coeff) == -3408
    indicator = make_indicator_characteristic([1.0, -1.0])
    batch = run_batch(model, indicator, n=6, N=8, R=64, master_seed=3, S=S)
    out = lln_check(batch, phi, model, S)
    assert out["limit_constant"] == 0 and out["scale"] == 0
    assert out["mode"] == "zero_mean" and out["passed"] is None


def _loop_weighted_sums(phi, S):
    """(c, scale) summed one age at a time with Python float weights rho^{-k}."""
    c, scale = 0.0 + 0.0j, 0.0
    ages, mean, _ = phi.moments()
    for k, row in zip(ages, mean):
        c += S.rho ** (-k) * complex(row @ S.u.astype(complex))
        scale += S.rho ** (-k) * float(np.abs(row) @ S.u)
    return c, scale


@pytest.mark.parametrize(
    "name", ["single_type_binary", "two_type_mirror", "asym_leak", "three_scale_symmetric"]
)
def test_lln_weighted_sums_equal_the_per_age_loop(name):
    # random multi-age tables: base rows, coeff rows (real or complex) and a noise cell
    b = bundle(name)
    J, rng = b.model.J, np.random.default_rng(sum(map(ord, name)))
    batch = run_batch(b.model, b.characteristic, n=4, N=6, R=16, master_seed=1, S=b.S)
    for _ in range(20):
        ages = rng.choice(np.arange(-40, 41), size=int(rng.integers(1, 12)), replace=False).tolist()
        rows = [rng.normal(size=J) + 1j * rng.normal(size=J) * rng.integers(0, 2) for _ in ages]
        half = len(ages) // 2
        phi = Characteristic(
            J,
            base=dict(zip(ages[:half], rows[:half])),
            coeff=dict(zip(ages[half:], rows[half:])),
            noise={(ages[0], int(rng.integers(J))): NoiseLaw((0.5, 0.5), (complex(rng.normal()), 1j))},
        )
        out = lln_check(batch, phi, b.model, b.S)
        want_c, want_scale = _loop_weighted_sums(phi, b.S)
        assert out["limit_constant"] == want_c and out["scale"] == want_scale
