"""Desk-scale acceptance battery: one test per shipping criterion.

Every test here is self-contained (fresh seeds, pinned a priori) and records a
single PASS/FAIL line plus its runtime against the agreed budget; the lines
are replayed in the terminal summary by the conftest hook.  Statistical gates
run at their pre-registered levels — a seed is never tuned to a gate.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, ACCEPTANCE_ROWS, bundle
from oracles import exact_linear_variance, exact_moment_tables

from cmjsim import (
    compute_constants,
    make_indicator_characteristic,
    make_phi1,
    run_batch,
    spectral_decompose,
    star_transform,
)
from cmjsim.characteristics import Characteristic, expected_process
from cmjsim.cli import build_characteristic
from cmjsim.simulator import BLOCK
from cmjsim.spectral import projected_power
from cmjsim.stats import (
    bootstrap_variance_se,
    fisher_corr_z,
    flatness_check,
    ks_test,
    lln_check,
    studentized,
    verify_dichotomy,
)

SEED = 20_260_814  # pinned once for the whole battery; offsets below


def record(tag: str, label: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < budget
    line = (
        f"[{tag}] {label}: {'PASS' if ok else 'FAIL'} — {detail} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    ACCEPTANCE_LINES.append(line)
    ACCEPTANCE_ROWS.append({
        "tag": tag, "label": label, "passed": ok, "detail": detail,
        "seconds": elapsed, "budget_s": budget,
    })
    assert ok, line


# ---------------------------------------------------------------------------
# 1. spectral projector invariants on a battery of mean matrices
# ---------------------------------------------------------------------------

BATTERY = [
    [[2.0]],                                                        # one type, doubling
    [[3.0, 1.0], [1.0, 3.0]],                                       # mirror pair
    [[2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [1.0, 1.0, 3.0]],            # nilpotent block on the half circle
    [[2.0, 1.0], [1.0, 2.0]],                                       # cross feed
    [[31 / 6, 8 / 3, 7 / 6], [8 / 3, 11 / 3, 8 / 3], [7 / 6, 8 / 3, 31 / 6]],
    [[0.0, 0.0, 8.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]],            # period three
    [[4.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]],
    [[2.0, 1.0], [0.0, 1.0]],                                       # reducible, leaky
    [[2.0, 0.0], [0.0, 2.0]],                                       # repeated root, diagonalizable
    [[0.0, 1.0], [0.0, 1.0]],                                       # radius-one boundary
    [[0.0, 1.0], [1.0, 0.0]],                                       # swap
    [[3.0, 2.0], [1.0, 2.0]],                                       # asymmetric leak
]


def test_a01_spectral_projector_invariants():
    t0 = time.perf_counter()
    worst = 0.0
    for A in BATTERY:
        A = np.asarray(A, dtype=float)
        J = A.shape[0]
        S = spectral_decompose(A)
        eye = np.eye(J)
        worst = max(worst, float(np.abs(S.pi1 + S.pi2 + S.pi3 - eye).max()))
        for pi in (S.pi1, S.pi2, S.pi3):
            worst = max(worst, float(np.abs(pi @ pi - pi).max()))
            worst = max(worst, float(np.abs(pi @ A.astype(complex) - A.astype(complex) @ pi).max()))
        A2 = A.astype(complex) @ S.pi2 + (eye - S.pi2)
        worst = max(worst, S.residuals["A1_inverse"], S.residuals["N_nilpotent"])
        worst = max(worst, float(np.abs(A2 @ S.A2_inv - eye).max()))
    record(
        "A01",
        "projector partition / idempotency / commutation / inverses / nilpotency",
        worst <= 1e-10,
        f"{len(BATTERY)} matrices, worst residual {worst:.2e} <= 1e-10",
        t0,
        budget=1.0,
    )


# ---------------------------------------------------------------------------
# 2. recentering identity: counted star process == counted process - mean
# ---------------------------------------------------------------------------

def test_a02_recentering_identity_pathwise(single_type, mirror):
    t0 = time.perf_counter()
    n, reps_each = 12, 5_000
    worst = 0.0
    for off, b in enumerate((single_type, mirror)):
        model = b.model
        J = model.J
        base = {0: np.arange(1.0, J + 1.0), 1: 0.5 * np.ones(J)}
        phi = Characteristic(J=J, base=base, label="two-age table")
        star = star_transform(phi, model, n)
        ez = complex(expected_process(phi, model, n))
        scale = 1.0 + abs(ez)
        batch = run_batch(model, [phi, star], n, n, reps_each, SEED + 100 + off, ns=[n])
        for r in batch.replicates:
            resid = abs(r.zphi[(1, n)] - (r.zphi[(0, n)] - ez)) / scale
            worst = max(worst, resid)
    record(
        "A02",
        "pathwise recentering through the centered-offspring characteristic",
        worst <= 1e-9,
        f"2 models x {reps_each} replicates at n={n}, worst rel. residual {worst:.2e}",
        t0,
        budget=60.0,
    )


# ---------------------------------------------------------------------------
# 3. martingale-gap identity for the truncated depth-one characteristic
# ---------------------------------------------------------------------------

def test_a03_martingale_gap_identity(single_type, mirror):
    t0 = time.perf_counter()
    n, N, reps_each = 8, 12, 500
    worst = 0.0
    for off, b in enumerate((single_type, mirror)):
        model, S = b.model, b.S
        J = model.J
        phis = [
            make_phi1(S, np.eye(J)[i], model=model, k_min=n - N + 1) for i in range(J)
        ] + [make_indicator_characteristic(np.eye(J)[j]) for j in range(J)]
        pp = projected_power(S, 1, n - N)
        batch = run_batch(model, phis, n, N, reps_each, SEED + 200 + off, ns=[n])
        for r in batch.replicates:
            z_n = np.array([r.zphi[(J + j, n)] for j in range(J)])
            for i in range(J):
                want = complex(pp[i] @ r.z_final - (S.pi1 @ z_n)[i])
                got = r.zphi[(i, n)]
                worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    record(
        "A03",
        "projected gap between horizon and interior martingale estimates",
        worst <= 1e-9,
        f"2 models x {reps_each} replicates, n={n} N={N}, worst rel. residual {worst:.2e}",
        t0,
        budget=30.0,
    )


# ---------------------------------------------------------------------------
# 4. martingale-limit estimator is unbiased for the left-eigenvector weight
# ---------------------------------------------------------------------------

def test_a04_w_hat_mean_matches_left_eigenvector(single_type, mirror):
    t0 = time.perf_counter()
    N, R = 18, 2_000
    details = []
    ok = True
    for off, b in enumerate((single_type, mirror)):
        model, S = b.model, b.S
        i0 = int(np.argmax(model.z0))
        target = float(S.v[i0].real)
        batch = run_batch(model, b.characteristic, 4, N, R, SEED + 300 + off, S=S)
        ws = np.array([r.w_hat for r in batch.replicates], dtype=float)
        se = float(ws.std(ddof=1)) / math.sqrt(R)
        ok = ok and abs(ws.mean() - target) <= 4.0 * se + 1e-12
        details.append(f"{b.args.scenario}: mean {ws.mean():.4f} vs {target:.4f} (4se={4 * se:.4f})")
    record(
        "A04",
        "mean of W_hat equals v at the starting type",
        ok,
        f"R={R}, N={N}; " + "; ".join(details),
        t0,
        budget=120.0,
    )


# ---------------------------------------------------------------------------
# 5. law of large numbers for the counted process
# ---------------------------------------------------------------------------

def test_a05_lln_median_ratio(single_type):
    t0 = time.perf_counter()
    model, S, phi = single_type.model, single_type.S, single_type.characteristic
    n, N, R = 20, 26, 400
    batch = run_batch(model, phi, n, N, R, SEED + 400, S=S, ns=[n])
    # limit constant: sum_k rho^{-k} E phi(k) . u == 1 for the age-0 indicator
    ratios = [
        float((r.zphi[(0, n)] / (S.rho**n * r.w_hat)).real) for r in batch.replicates
    ]
    med = float(np.median(ratios))
    report = lln_check(batch, phi, model, S)
    record(
        "A05",
        "counted process tracks rho^n W_hat times the limit constant",
        0.95 <= med <= 1.05 and report["mode"] == "ratio" and report["passed"],
        f"median ratio {med:.4f} in [0.95, 1.05] at n={n}, N={N}, R={R}",
        t0,
        budget=120.0,
    )


# ---------------------------------------------------------------------------
# 6. fluctuation limit, dominant-noise regime (case i)
# ---------------------------------------------------------------------------

def test_a06_case_i_clt(single_type):
    t0 = time.perf_counter()
    b = single_type
    model, S = b.model, b.S
    const = b.const
    assert const.case == "i"
    assert const.sigma2 == pytest.approx(0.5, abs=1e-12)  # derived, not fitted
    n, N, R = 12, 18, 2_000
    batch = run_batch(model, b.characteristic, n, N, R, SEED + 500, S=S, constants=const, ns=[n])
    eps, ws = studentized(batch, const, t=n, w_min=1e-3)
    eps = np.asarray([e.real for e in eps])
    ws = np.asarray(ws, dtype=float)
    D, p = ks_test(eps)
    tw = eps * math.sqrt(const.sigma2)  # T/sqrt(W_hat), de-studentized
    var_tw = float(tw.var(ddof=1))
    band = 5.0 * bootstrap_variance_se(tw)
    z, _, crit = fisher_corr_z(eps**2, ws)
    composite = verify_dichotomy(batch, const, S, requested_case="i")
    ok = (
        p > 0.01
        and abs(var_tw - const.sigma2) <= band
        and abs(z) < crit
        and composite.passed
    )
    record(
        "A06",
        "normal-mixture limit with estimated-martingale studentization (case i)",
        ok,
        f"ks_p={p:.3f}>0.01, var(T/sqrt(W))={var_tw:.4f} in 0.5+-{band:.4f}, "
        f"|z_corr|={abs(z):.4f}<{crit:.4f}, composite={'PASS' if composite.passed else 'FAIL'}",
        t0,
        budget=180.0,
    )


# ---------------------------------------------------------------------------
# 7. fluctuation limit, dominant-resonance regime (case ii)
# ---------------------------------------------------------------------------

def test_a07_case_ii_clt(mirror):
    t0 = time.perf_counter()
    b = mirror
    model, S = b.model, b.S
    const = b.const
    assert const.case == "ii" and const.l_star == 0
    # sigma_0^2 = 2 is forced by the exact identities Var[aZ_n] = n 4^n and
    # E W_hat = 1/2: the studentized variance sigma_0^2 * v_1 must equal the
    # exact normalized variance 1.  Any other value fails the KS gate below.
    sigma0_sq = const.sigma_l[0]
    exact_norm_var = exact_linear_variance(model, [1, -1], 10) / (10 * Fraction(4) ** 10)
    ok_const = (
        abs(sigma0_sq - 2.0) <= 1e-12
        and exact_norm_var == 1
        and abs(sigma0_sq * float(S.v[0].real) - float(exact_norm_var)) <= 1e-12
    )
    n, N, R = 14, 20, 2_000
    ns = [8, 10, 12, 14]
    batch = run_batch(model, b.characteristic, n, N, R, SEED + 600, S=S, constants=const, ns=ns)
    # direct route, straight from the raw counted values
    a_z = np.asarray([r.zphi[(0, n)].real for r in batch.replicates])
    ws = np.asarray([r.w_hat for r in batch.replicates], dtype=float)
    eps = (a_z - 2.0**n) / (math.sqrt(sigma0_sq * n) * 2.0**n * np.sqrt(ws))
    D, p = ks_test(eps)
    flat = flatness_check(batch)
    composite = verify_dichotomy(batch, const, S, requested_case="ii")
    ok = ok_const and p > 0.01 and flat["passed"] and composite.passed
    flat_vars = ", ".join(f"n={r['t']}:{r['var']:.3f}" for r in flat["rows"])
    record(
        "A07",
        "polynomial-rate limit on the critical circle (case ii)",
        ok,
        f"sigma_0^2={sigma0_sq:.1f} (exact identity), ks_p={p:.3f}>0.01, "
        f"flat profile [{flat_vars}], composite={'PASS' if composite.passed else 'FAIL'}",
        t0,
        budget=300.0,
    )


# ---------------------------------------------------------------------------
# 8. dual-route variance constant
# ---------------------------------------------------------------------------

def test_a08_dual_route_variance_agreement():
    t0 = time.perf_counter()
    names = [
        "two_type_mirror",
        "jordan_critical",
        "cross_feed",
        "asym_leak",
        "three_scale_symmetric",
        "cyclic_three",
    ]
    worst = 0.0
    for name in names:
        bnd = bundle(name)
        _, row = build_characteristic(bnd.scn, bnd.model, bnd.S)
        const = compute_constants(row, bnd.S, bnd.model)  # fresh, not cached
        assert const.sigma_star2 is not None, name
        rel = abs(const.sigma_star2 - const.sigma2) / max(1.0, abs(const.sigma2))
        worst = max(worst, rel)
    record(
        "A08",
        "series route equals general-formula route for the variance constant",
        worst <= 1e-6,
        f"{len(names)} scenarios, worst relative gap {worst:.2e} <= 1e-6",
        t0,
        budget=1.0,
    )


# ---------------------------------------------------------------------------
# 9. variance-constant oracle and growth-exponent identification
# ---------------------------------------------------------------------------

def test_a09_sigma_l_oracle_agreement(mirror, jordan):
    t0 = time.perf_counter()
    details = []
    ok = True

    # (a) Monte Carlo variance of the raw critical component vs the exact
    #     rational recursion, within 3 bootstrap standard errors.
    for off, (b, n, N, R) in enumerate(((mirror, 12, 12, 2_000), (jordan, 10, 10, 2_000))):
        model = b.model
        row = build_characteristic(b.scn, model, b.S)[1]
        batch = run_batch(model, b.characteristic, n, N, R, SEED + 700 + off, ns=[n])
        sample = np.asarray([r.zphi[(0, n)].real for r in batch.replicates])
        v_mc = float(sample.var(ddof=1))
        v_exact = float(exact_linear_variance(model, [int(x) for x in row], n))
        se = bootstrap_variance_se(sample)
        ok = ok and abs(v_mc - v_exact) <= 3.0 * se
        details.append(f"{b.args.scenario}: |mc-exact|/3se={abs(v_mc - v_exact) / (3 * se):.2f}")

    # (b) growth-exponent identification: the slope of log(Var / rho^n) in
    #     log n equals 2 l* + 1, picking out the polynomial index.
    for b, expect_l in ((mirror, 0), (jordan, 1)):
        model, const = b.model, b.const
        a = [int(x) for x in build_characteristic(b.scn, model, b.S)[1]]
        rho = Fraction(4)
        ns_fit = list(range(10, 21, 2))
        means, seconds = exact_moment_tables(model, max(ns_fit))
        ys, xs = [], []
        for n in ns_fit:
            av = [Fraction(x) for x in a]
            first = sum(av[i] * means[n][i] for i in range(model.J))
            second = sum(
                av[i] * seconds[n][i][j] * av[j] for i in range(model.J) for j in range(model.J)
            )
            var = second - first * first
            ys.append(math.log(float(var / rho**n)))
            xs.append(math.log(n))
        slope = float(np.polyfit(xs, ys, 1)[0])
        ok = ok and abs(slope - (2 * expect_l + 1)) < 0.25 and const.l_star == expect_l
        details.append(f"{b.args.scenario}: slope {slope:.3f} ~ {2 * expect_l + 1}, l*={const.l_star}")

    # (c) the identified prefactor: exact Var / (n^{2l*+1} rho^n) approaches
    #     sigma_{l*}^2 * v at the starting type (equality for the mirror).
    mirror_ratio = float(
        exact_linear_variance(mirror.model, [1, -1], 12) / (12 * Fraction(4) ** 12)
    )
    target_m = mirror.const.sigma_l[0] * float(mirror.S.v[0].real)
    ok = ok and abs(mirror_ratio - target_m) <= 1e-12
    jn = 24
    jordan_ratio = float(
        exact_linear_variance(jordan.model, [1, -1, 0], jn) / (jn**3 * Fraction(4) ** jn)
    )
    target_j = jordan.const.sigma_l[1] * float(jordan.S.v[0].real)
    ok = ok and abs(jordan_ratio - target_j) <= 0.5 * target_j
    details.append(
        f"prefactors: mirror {mirror_ratio:.4f}={target_m:.4f}, "
        f"jordan {jordan_ratio:.5f} -> {target_j:.5f}"
    )

    record(
        "A09",
        "variance constants match exact enumeration and identify the rate",
        ok,
        "; ".join(details),
        t0,
        budget=300.0,
    )


# ---------------------------------------------------------------------------
# 10. bitwise determinism across worker counts
# ---------------------------------------------------------------------------

def test_a10_deterministic_csv_across_workers(tmp_path, jordan):
    t0 = time.perf_counter()
    model, S = jordan.model, jordan.S
    # nine blocks: at least two per worker, so four workers run in the pool
    R = 8 * BLOCK + 7
    n_blocks = -(-R // BLOCK)
    assert n_blocks == 9 and n_blocks >= 2 * 4
    blobs = []
    for workers in (1, 4):
        batch = run_batch(
            model, jordan.characteristic, 8, 12, R, SEED + 900, S=S, ns=[6, 8], workers=workers
        )
        path = tmp_path / f"w{workers}.csv"
        batch.to_csv(path, t=8)
        blobs.append(path.read_bytes())
    record(
        "A10",
        "identical scenario and seed give byte-identical CSVs for any worker count",
        blobs[0] == blobs[1],
        f"{len(blobs[0])} bytes, {n_blocks} blocks, workers 1 vs 4",
        t0,
        budget=30.0,
    )
