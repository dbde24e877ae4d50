"""Acceptance statistics for the simulated dichotomy.

The verifier conditions on survival, studentizes the recentered statistic by
the theoretical scale times the square root of the martingale estimate, and
then applies fixed, pre-registered checks:

* Kolmogorov-Smirnov distance against the standard normal with the classical
  asymptotic tail series (at most 100 terms; for tiny arguments the
  alternating partial sums oscillate, so the last two are averaged, which is
  exact in the limit and keeps p monotone);
* first/second-moment bands sized by the sample: |mean| < 3/sqrt(m),
  |var - 1| < 5 bootstrap standard errors, in closed form;
* independence of the squared statistic from the martingale estimate via the
  Fisher z transform of their correlation (99% two-sided).

Degenerate-scale runs switch to a decay check, and polynomial-case runs add
a flatness check of the per-time variances under the case-ii normalization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .constants import TheoreticalConstants
from .scenario import _RUN_DEFAULTS
from .spectral import SpectralData, power_scaled

__all__ = [
    "VerificationReport",
    "normal_cdf",
    "ks_statistic",
    "ks_pvalue",
    "ks_test",
    "bootstrap_variance_se",
    "fisher_corr_z",
    "studentized",
    "verify_dichotomy",
    "lln_check",
    "flatness_check",
]

MIN_SAMPLE = 50
KS_MAX_TERMS = 100
KS_P_MIN = 0.01
W_MIN_DEFAULT = _RUN_DEFAULTS["w_min"]  # a scenario's run.w_min when it names none
ABORT_RATE_MAX = 0.10
Z_99 = 2.5758293035489004  # two-sided 99% normal quantile, Phi^{-1}(0.995)
LLN_BAND = (0.95, 1.05)
LLN_ZERO_TOL = 0.05


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_statistic(sample) -> float:
    xs = np.sort(np.asarray(sample, dtype=float))
    m = xs.shape[0]
    if m == 0:
        raise ValueError("empty sample")
    # normal_cdf bit for bit, with one erf call per point and no other Python
    F = 0.5 * (1.0 + np.array(list(map(math.erf, (xs / math.sqrt(2.0)).tolist()))))
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    return float(max(np.max(grid_hi - F), np.max(F - grid_lo)))


def ks_pvalue(D: float, m: int) -> float:
    """Asymptotic two-sided tail at t = sqrt(m) D, truncated at 100 terms."""
    t = math.sqrt(m) * D
    if t <= 0.0:
        return 1.0
    partial = 0.0
    prev = 0.0
    for i in range(1, KS_MAX_TERMS + 1):
        prev = partial
        partial += (-1.0) ** (i - 1) * math.exp(-2.0 * i * i * t * t)
        if abs(partial - prev) < 1e-16:
            prev = partial
            break
    p = 2.0 * 0.5 * (partial + prev)
    return float(min(1.0, max(0.0, p)))


def ks_test(sample) -> tuple[float, float]:
    sample = np.asarray(sample, dtype=float)
    m = sample.shape[0]
    if m < MIN_SAMPLE:
        raise ValueError(f"KS test needs at least {MIN_SAMPLE} points, got {m}")
    if not np.isfinite(sample).all():
        raise ValueError("KS test needs finite values")
    D = ks_statistic(sample)
    return D, ks_pvalue(D, m)


def bootstrap_variance_se(sample) -> float:
    """Standard error of the sample variance under resampling with
    replacement, the B = infinity limit of its bootstrap (Cramer 1946,
    27.4): sqrt(m4/m - m2^2 (m - 3)/(m (m - 1))), from the sample's central
    moments m2 and m4 (divisor m).  It is summed as
    ``mean((d^2 - m2)^2)/m + 2 m2^2/(m (m - 1))``, the same value with no
    term that cancels, over deviations d scaled by a power of two to below
    1: exact, so d^4 cannot overflow where the sample variance is finite."""
    xs = np.asarray(sample, dtype=float)
    m = xs.shape[0]
    if m < 2:
        raise ValueError(f"bootstrap variance needs at least 2 values, got {m}")
    d = xs - xs[0]  # a constant sample deviates by exactly 0
    d -= d.mean()
    e = math.frexp(float(np.max(np.abs(d))))[1]
    d2 = np.square(np.ldexp(d, -e))
    m2 = float(d2.mean())
    var = float(np.square(d2 - m2).mean()) / m + 2.0 * m2 * m2 / (m * (m - 1))
    with np.errstate(over="ignore"):  # inf only where the sample variance is too
        return float(np.ldexp(math.sqrt(var), 2 * e))


def fisher_corr_z(x, y) -> tuple[float, float, float]:
    """(r, |z|, z_crit) for the 99% two-sided Fisher test of zero correlation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = x.shape[0]
    if m < 4:
        raise ValueError("correlation test needs at least 4 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("correlation test needs finite values")
    z_crit = Z_99 / math.sqrt(m - 3)
    sx = x.std(ddof=0)
    sy = y.std(ddof=0)
    if sx == 0.0 or sy == 0.0:
        return 0.0, 0.0, z_crit
    r = float(np.corrcoef(x, y)[0, 1])
    r = max(-0.999999999, min(0.999999999, r))
    z = abs(math.atanh(r))
    return r, z, z_crit


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one dichotomy verification with all thresholds recorded."""

    case: str
    m: int
    passed: bool
    reasons: tuple[str, ...]
    ks_D: float | None = None
    ks_p: float | None = None
    mean_eps: float | None = None
    var_eps: float | None = None
    var_se: float | None = None
    corr_r: float | None = None
    corr_covers_zero: bool | None = None
    thresholds: dict = field(default_factory=dict)
    marginals: dict | None = None
    flatness: dict | None = None
    decay: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["sample_size"] = out.pop("m")
        return out


def _usable_column(batch, table: dict, t: int, w_min: float):
    """(values, W_hat) of characteristic 0's column at time t over the usable
    rows; both empty when the batch holds no such column."""
    col = table.get((0, t))
    if col is None:
        return np.zeros(0, dtype=complex), np.zeros(0)
    keep = batch.usable(w_min)
    return col[keep], batch.w_hat[keep]


def studentized(batch, constants, *, t: int, w_min: float):
    """(eps, w) over surviving replicates with W_hat above the floor."""
    sigma = math.sqrt(max(constants.sigma_case2, 0.0))
    eps, ws = _usable_column(batch, batch.T, t, w_min)
    if sigma > 0:
        # part by part, as Python's complex / float rounds; numpy's complex
        # division multiplies by a reciprocal (eps is a fresh copy)
        scale = sigma * np.sqrt(ws)
        eps.real /= scale
        eps.imag /= scale
    return eps, ws


def verify_dichotomy(
    batch,
    constants: TheoreticalConstants,
    S: SpectralData,
    *,
    w_min: float = W_MIN_DEFAULT,
    requested_case: str | None = None,
) -> VerificationReport:
    """Run the pre-registered acceptance battery on characteristic 0 of one
    batch at its time ``batch.n``.

    ``requested_case`` (\"i\" or \"ii\") is validated against the constants:
    asking for the polynomial case when no polynomial index exists is an
    input error, not a statistical failure, and raises ValueError; so does a
    batch with too few usable survivors for any gate to run.
    """
    if requested_case is not None and requested_case != constants.case:
        raise ValueError(
            f"requested case {requested_case!r} but the model/characteristic pair "
            f"is case {constants.case!r}"
            + (" (no polynomial index present)" if requested_case == "ii" else "")
        )
    if batch.abort_rate > ABORT_RATE_MAX:
        raise RuntimeError(
            f"abort rate {batch.abort_rate:.1%} exceeds {ABORT_RATE_MAX:.0%}; results unusable"
        )
    t = batch.n
    case = constants.case
    eps_c, ws = studentized(batch, constants, t=t, w_min=w_min)
    m = eps_c.shape[0]

    if case == "degenerate" and batch.usable().any():
        decay = _decay_check(batch)
        passed = decay["passed"]
        reasons = () if passed else ("degenerate scale: |T| did not decay",)
        return VerificationReport(
            case=case, m=m, passed=passed, reasons=reasons,
            thresholds={"w_min": w_min}, decay=decay,
            details={"t": t, "abort_rate": batch.abort_rate},
        )

    need = 1 if case == "degenerate" else MIN_SAMPLE  # the decay check needs one survivor
    if m < need:
        raise ValueError(f"only {m} usable survivors; need {need}")

    is_real = bool(np.max(np.abs(eps_c.imag)) < 1e-9 * max(1.0, float(np.max(np.abs(eps_c)))))
    eps = eps_c.real if is_real else eps_c.real * math.sqrt(2.0)
    ks_D, ks_p = ks_test(eps)
    marginals = None
    if not is_real:
        # informational marginal checks; the gate runs on the real part
        d_im, p_im = ks_test(eps_c.imag * math.sqrt(2.0))
        marginals = {"ks_p_real": ks_p, "ks_p_imag": p_im, "ks_D_real": ks_D, "ks_D_imag": d_im}
    mean_eps = float(eps.mean())
    var_eps = float(eps.var(ddof=1))
    var_se = bootstrap_variance_se(eps)
    corr_r, corr_z, z_crit = fisher_corr_z(np.abs(eps_c) ** 2, ws)
    covers = bool(corr_z < z_crit)

    mean_tol, var_tol = 3.0 / math.sqrt(m), 5.0 * var_se
    mean_dev, var_dev = abs(mean_eps), abs(var_eps - 1.0)
    # (threshold key, threshold, passed, reason) of each gate
    gates = (
        ("ks_p_min", KS_P_MIN, ks_p > KS_P_MIN, f"KS p {ks_p:.4g} <= {KS_P_MIN}"),
        ("mean_tol", mean_tol, mean_dev < mean_tol, f"|mean| {mean_dev:.4g} >= {mean_tol:.4g}"),
        ("var_tol", var_tol, var_dev < var_tol, f"|var-1| {var_dev:.4g} >= {var_tol:.4g}"),
        ("corr_z_crit", z_crit, covers, f"corr(eps^2, W_hat) z {corr_z:.4g} >= {z_crit:.4g}"),
    )
    thresholds = {"w_min": w_min, "min_sample": MIN_SAMPLE, **{key: value for key, value, _, _ in gates}}
    reasons = [reason for _, _, passed, reason in gates if not passed]

    flatness = None
    if case == "ii" and len(batch.ns) > 1:
        flatness = flatness_check(batch, w_min=w_min)
        if not flatness["passed"]:
            reasons.append("per-time variances not flat under the case normalization")

    return VerificationReport(
        case=case,
        m=m,
        passed=not reasons,
        reasons=tuple(reasons),
        ks_D=ks_D,
        ks_p=ks_p,
        mean_eps=mean_eps,
        var_eps=var_eps,
        var_se=var_se,
        corr_r=corr_r,
        corr_covers_zero=covers,
        thresholds=thresholds,
        marginals=marginals,
        flatness=flatness,
        details={"t": t, "abort_rate": batch.abort_rate, "is_real": is_real},
    )


def _decay_check(batch) -> dict:
    """For vanishing scale: mean |T| over the surviving rows, at least one,
    should decrease along the requested times and end small."""
    ts = list(batch.ns)
    means = []
    for t in ts:
        vals, _ = _usable_column(batch, batch.T, t, 0.0)
        means.append(float(np.mean(np.abs(vals))))
    decreasing = all(b <= a * 1.05 + 1e-12 for a, b in zip(means, means[1:]))
    small = means[-1] < max(0.05 * means[0], 1e-6)
    return {
        "times": ts,
        "mean_abs_T": means,
        "monotone": bool(decreasing),
        "passed": bool(decreasing and small),
    }


def lln_check(
    batch,
    phi,
    model,
    S: SpectralData,
    *,
    w_min: float = W_MIN_DEFAULT,
) -> dict:
    """Law-of-large-numbers check at t = ``batch.n``: Z_t^phi / (rho^t W_hat)
    against the limit constant c = sum_k rho^{-k} E phi(k) . u.

    When c vanishes the ratio is meaningless; the check switches to absolute
    smallness of |Z_t^phi| rho^{-t} relative to the characteristic's scale.
    When E phi(k) is zero at every age, c and the scale are exactly 0 and
    there is nothing to judge: the mode is ``zero_mean`` and ``passed`` None.
    A c or scale beyond float64 range raises ArithmeticError.
    """
    t = batch.n
    ages, mean, _ = phi.moments()
    u = S.u.astype(complex)
    # (E phi(k) . u, |E phi(k)| . u) per age, weighed by rho^{-k} also where
    # rho^{-k} alone leaves float64 (a zero row weighs 0), then summed in age order
    rows = np.array([(row @ u, np.abs(row) @ S.u) for row in mean], dtype=complex).reshape(-1, 2)
    c, scale = 0j, 0.0
    for term, size in power_scaled(rows, S.rho, ages).tolist():
        c += term
        scale += size.real
    if not (cmath.isfinite(c) and math.isfinite(scale)):
        raise ArithmeticError("LLN limit constant lies outside float64 range")
    vals, ws = _usable_column(batch, batch.zphi, t, w_min)
    out = {"t": t, "m": int(vals.size), "limit_constant": complex(c), "scale": scale}
    if not vals.size:
        out.update({"mode": "empty", "passed": False})
    elif not mean.any():
        out.update({"mode": "zero_mean", "passed": None})
    elif abs(c) > 1e-9 * max(scale, 1e-300):
        med = _median(_real_quotient(vals, S.rho**t * ws * c))
        out.update(
            {
                "mode": "ratio",
                "median_ratio": med,
                "band": list(LLN_BAND),
                "passed": bool(LLN_BAND[0] <= med <= LLN_BAND[1]),
            }
        )
    else:
        normalized = np.abs(vals) * S.rho ** (-t) / max(scale, 1e-300) / np.maximum(ws, w_min)
        med = _median(normalized)
        out.update(
            {"mode": "vanishing", "median_abs": med, "tol": LLN_ZERO_TOL, "passed": bool(med < LLN_ZERO_TOL)}
        )
    return out


def flatness_check(batch, *, w_min: float = W_MIN_DEFAULT) -> dict:
    """Per requested time with at least 10 values, the 99% CI
    var +- Z_99 se of Var[T_t], with se from ``bootstrap_variance_se``, must
    cover the precision-weighted mean of the variances: under the correct
    normalization the profile is flat in t."""
    rows = []
    for t in batch.ns:
        vals = _usable_column(batch, batch.T, t, w_min)[0].real
        if vals.shape[0] >= 10:
            var, se = float(vals.var(ddof=1)), bootstrap_variance_se(vals)
            rows.append({"t": int(t), "var": var, "ci": [var - Z_99 * se, var + Z_99 * se], "se": se})
    if not rows:
        return {"rows": rows, "weighted_mean": None, "passed": False}
    weights = np.array([1.0 / max(r["se"], 1e-12) ** 2 for r in rows])
    values = np.array([r["var"] for r in rows])
    wmean = float((weights * values).sum() / weights.sum())
    passed = all(r["ci"][0] <= wmean <= r["ci"][1] for r in rows)
    return {"rows": rows, "weighted_mean": wmean, "passed": bool(passed)}


def _median(xs: np.ndarray) -> float:
    """``np.median`` of a 1-d float array, by sorting: the same bits, NaN
    included, without the ``numpy.ma`` import that ``np.median`` pulls in."""
    s = np.sort(xs)
    k = s.shape[0] // 2
    # the mean of the middle one or two, as np.median takes it (a sum from
    # +0.0, so an all -0.0 middle gives +0.0)
    mid = s[k : k + 1] if s.shape[0] % 2 else s[k - 1 : k + 1]
    return float("nan") if np.isnan(s[-1]) else float(mid.mean())


def _real_quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a / b) elementwise, rounded as Python's complex division rounds it
    (numpy's multiplies by a reciprocal)."""
    wide = np.abs(b.real) >= np.abs(b.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(wide, b.imag / b.real, b.real / b.imag)
        num = np.where(wide, a.real + a.imag * q, a.real * q + a.imag)
        den = np.where(wide, b.real + b.imag * q, b.real * q + b.imag)
    return num / den
