"""Limit constants of the counted process, computed exactly from model data.

Everything here reduces to finite linear algebra on the mean matrix plus the
enumerated column covariances:

* ``x1``/``x2`` — the rows that premultiply the supercritical martingale term
  and the critical deterministic term in the recentered process.
* ``sigma_l`` — the critical variance ladder; the largest index with a
  nonvanishing entry (``l_star``) decides the polynomial factor in the
  case-ii normalization ``n^{l*+1/2} rho^{n/2}``.
* ``B(k)`` — the centering row of the compensator characteristic; for a
  finitely supported mean table every branch is an exact finite sum.
* ``sigma2`` — the case-i variance, a two-sided series: a finite window
  summed term by term, and two geometric tails (ratio rho/min|super|^2
  below, max|sub|^2/rho above, over the eigenvalue moduli of A) each
  summed in closed form by one Stein solve (``spectral.stein_tail``).  Its
  error bound adds the Stein residual of each tail, the window sum's
  roundoff, and the formation error of every row, so it bounds the real
  error, roundoff included.
* ``sigma_star2`` — the same quantity reached through the direct row-power
  route: two closed-form tails on its own first rows, kept as an
  independent construction so the two paths can be compared rather than
  collapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .characteristics import Characteristic, assumption_sums, make_indicator_characteristic
from .model import BranchingModel, mixing_covariance
from .spectral import SpectralData, _eye, _fro, m_norm2, power_scaled, projected_power, tail_sum

__all__ = [
    "TheoreticalConstants",
    "compute_x1_x2",
    "compute_sigma_l",
    "find_l_star",
    "compute_B",
    "compute_sigma2",
    "compute_sigma_star2",
    "compute_constants",
]

L_STAR_TOL = 1e-12
EPS_REPORT = 1e-10  # sigma2 at or below this is degenerate; an error above it is noted
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TheoreticalConstants:
    """All limit constants for one (model, characteristic) pair."""

    x1: np.ndarray
    x2: np.ndarray
    sigma_l: tuple[float, ...]
    l_star: int | None
    sigma2: float
    sigma2_error: float
    sigma_star2: float | None
    sigma_star2_error: float | None
    B_table: dict
    B_window: tuple[int, int]
    case: str  # "i", "ii" or "degenerate"
    sigma_case2: float
    notes: dict = field(default_factory=dict)


def compute_x1_x2(mt: dict, S: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """x_i = sum_k E phi(k) pi_i A_i^{-k} over the mean table ``mt = {k: E
    phi(k)}``; for an age-0 indicator row a this is (a pi1, a pi2)."""
    J = S.J
    x1 = np.zeros(J, dtype=complex)
    x2 = np.zeros(J, dtype=complex)
    for k, row in mt.items():
        x1 = x1 + row @ projected_power(S, 1, -k)
        x2 = x2 + row @ projected_power(S, 2, -k)
    return x1, x2


def compute_sigma_l(x2: np.ndarray, S: SpectralData, model: BranchingModel) -> tuple[float, ...]:
    """Critical variance ladder sigma_l^2 for l = 0..J:

        rho^{-(l+1)} / ((2l+1) (l!)^2) * sum_{|lambda|^2 = rho}
            sum_j u_j | x2 N_lambda^l pi_lambda |_{C_j}^2,

    with N_lambda the nilpotent part of the cluster at lambda, from one walk
    up each critical cluster's chain ``x2 pi_lambda, x2 N_lambda pi_lambda,
    ...``.  Entries beyond the nilpotency index are 0 up to rounding dust:
    ``jordan_critical`` (index 2) gets 1.8e-36 and 4.0e-69 there."""
    x2 = np.asarray(x2, dtype=complex).reshape(-1)
    M = mixing_covariance(model, S.u)
    totals = [0.0] * (S.J + 1)
    for cl in S.clusters:
        if cl.label != "critical":
            continue
        row = x2 @ cl.projection
        shifted = S.A - cl.eigenvalue * _eye(S.J)
        for l in range(S.J + 1):
            totals[l] += float(m_norm2(M, row))
            row = row @ shifted @ cl.projection
    return tuple(S.rho ** (-(l + 1)) / ((2 * l + 1) * factorial(l) ** 2) * t for l, t in enumerate(totals))


def find_l_star(sigma_l: tuple[float, ...]) -> int | None:
    """Largest l with sigma_l^2 above L_STAR_TOL, or None when the whole
    ladder vanishes."""
    hits = [l for l, v in enumerate(sigma_l) if v > L_STAR_TOL]
    return max(hits) if hits else None


def compute_B(mt: dict, S: SpectralData, ks) -> tuple[np.ndarray, np.ndarray]:
    """Centering rows ``B(k) = sum_l E phi(k-l-1) A^l P(k,l)`` for each lag k
    of ``ks`` over the mean table ``mt = {k: E phi(k)}``, where the piecewise
    projector P picks -pi1 on l < 0 and pi2 + pi3 on l >= 0 when k <= 0, and
    -(pi1 + pi2) on l < 0 and pi3 on l >= 0 when k > 0.  Negative powers act
    on the corresponding invariant subspace.  Returns ``(rows, size)``, with
    ``size`` each row's ``sum_m |E phi(m)| |P|_F`` over its terms
    ``E phi(m) P``, which scales the roundoff of forming it: one pass over the
    mean table, each age adding its term to every row."""
    rows = np.zeros((len(ks), S.J), dtype=complex)
    size = np.zeros(len(ks))
    for m, phi_row in mt.items():
        phi_size = _fro(phi_row)
        for i, k in enumerate(ks):
            l = k - 1 - m
            if k <= 0:
                P = -projected_power(S, 1, l) if l < 0 else projected_power(S, 2, l) + projected_power(S, 3, l)
            else:
                P = -(projected_power(S, 1, l) + projected_power(S, 2, l)) if l < 0 else projected_power(S, 3, l)
            rows[i] += phi_row @ P
            size[i] += phi_size * _fro(P)
    return rows, size


def compute_sigma2(phi: Characteristic, S: SpectralData, model: BranchingModel) -> tuple[float, float, dict]:
    """Case-i variance sigma^2 = sum_k rho^{-k} u-weighted Var[phi(k) + psi(k)],
    where psi(k) = B(k) . (own column - its mean) recenters the counted
    process.  Returns ``(value, error, table)``: ``table`` maps each k of the
    window below to the unscaled ``B(k)``.

    ``B`` is evaluated directly on the window where its piecewise projector
    changes, ``min(min age, 0) <= k <= max(max age + 1, 1)`` widened to the
    coeff and noise keys, and the window's terms are summed with
    ``math.fsum``.  Beyond it ``B(k+1) = B(k) pi3 A pi3`` and
    ``B(k-1) = B(k) pi1 A1^{-1} pi1``, so each tail is the closed form
    ``spectral.tail_sum`` from its first row.  ``error`` bounds the whole
    error in three parts: each tail's Stein residual term; the window sum's
    roundoff ``n eps sum |term|``; and ``(2 |b| delta + delta^2) |M|_2`` for
    each window row b (``|X|_2`` for each first row), where delta is the
    row's formation roundoff plus the decomposition's largest residual,
    both relative to the size of its terms (``compute_B``)."""
    ages, _, noise_var = phi.moments()
    mt = phi.mean_table()
    M = mixing_covariance(model, S.u)

    keys = {0, 1, *ages, *(k + 1 for k in mt)}
    lo, hi = min(keys), max(keys)
    ks = np.arange(lo - 1, hi + 2)  # the window and the first row of each tail
    B, size = compute_B(mt, S, range(lo - 1, hi + 2))
    coeff = np.zeros((len(ks), S.J), dtype=complex)
    noise = np.zeros(len(ks))
    # |l| <= hi - lo + 1 steps of restricted powers went into each B row;
    # a coeff row is data, rounded once when scaled
    rel = (S.J + 3 + hi - lo) * _EPS + max(S.residuals.values())
    row_delta = rel * size
    with np.errstate(over="ignore", invalid="ignore"):  # a part past float64 range is refused below
        if phi.coeff:
            coeff[[k - lo + 1 for k in phi.coeff]] = np.reshape(list(phi.coeff.values()), (-1, S.J))
            row_delta += 2 * _EPS * np.linalg.norm(coeff, axis=1)
        if phi.noise:
            # u-weighted row sums in type order: a per-cell sum's bits where the cells are in that order
            noise[[k - lo + 1 for k in ages]] = sum(float(S.u[j]) * noise_var[:, j] for j in range(S.J))
            noise = power_scaled(noise, S.rho, ks)
        rows = power_scaled(B + coeff, S.rho, ks / 2)
        delta = power_scaled(row_delta, S.rho, ks / 2)
        up, up_error = tail_sum(S, M, rows[-1], 1, float(delta[-1]))
        down, down_error = tail_sum(S, M, rows[0], -1, float(delta[0]))
        parts = [*(m_norm2(M, rows) + noise)[1:-1].tolist(), up, down]
    if not all(map(math.isfinite, parts)):
        raise ArithmeticError("sigma2 lies outside float64 range")
    norms = np.linalg.norm(rows[1:-1], axis=1)
    m_norm = float(np.linalg.svd(M, compute_uv=False)[0])  # |M|_2
    row_error = float(np.sum((2.0 * norms + delta[1:-1]) * delta[1:-1])) * m_norm
    error = len(parts) * _EPS * math.fsum(map(abs, parts)) + row_error + up_error + down_error
    return math.fsum(parts), error, dict(zip(ks[1:-1].tolist(), B[1:-1]))


def compute_sigma_star2(a: np.ndarray, S: SpectralData, model: BranchingModel) -> tuple[float, float]:
    """Direct-route variance for an age-0 indicator row with a . u = 0:

        sigma*^2 = sum_{k>=1} rho^{-k} |a A^{k-1} pi3|_M^2
                 + sum_{k<=0} rho^{-k} |a A1^{k-1} pi1|_M^2,

    with M = sum_j u_j Cov L^(j) and |w|_M^2 = w M w^H.  Each sum is one
    closed-form tail (``spectral.tail_sum``) from its own first row,
    ``a pi3 / sqrt(rho)`` (k = 1) or ``a pi1 A1^{-1}`` (k = 0), with no mean
    table and no ``B``; the error adds the two tails' bounds, whose
    row-error delta is taken as in ``compute_sigma2``.  Rejects rows whose
    Perron component does not vanish."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    au = complex(a @ S.u.astype(complex))
    # |a| by hypot, as np.linalg.norm squares a row like [1e300] to inf
    scale = max(1.0, float(np.hypot.reduce(np.abs(a))) * float(np.linalg.norm(S.u)))
    if abs(au) > 1e-10 * scale:
        raise ValueError(
            f"sigma_star2 requires a Perron-orthogonal row (|a.u| = {abs(au):.3e})"
        )
    M = mixing_covariance(model, S.u)
    rel = (S.J + 3) * _EPS + max(S.residuals.values())
    (up, up_error), (down, down_error) = (
        tail_sum(S, M, a @ P, sign, rel * _fro(a) * _fro(P))
        for P, sign in ((S.pi3 / S.sqrt_rho, 1), (projected_power(S, 1, -1), -1))
    )
    return up + down, up_error + down_error + 2 * _EPS * (abs(up) + abs(down))


def compute_constants(
    source,
    S: SpectralData,
    model: BranchingModel,
    eps_tail: float = 1e-14,
) -> TheoreticalConstants:
    """Assemble every limit constant for a characteristic, or for a row read
    as its indicator characteristic ``make_indicator_characteristic(row)``.
    A deterministic characteristic whose only row, if any, is at age 0 also
    gets the independent sigma*^2 route, on that row or on zeros.

    ``eps_tail`` is accepted and changes nothing: every series tail is
    summed in closed form, with no truncation target."""
    phi = source if isinstance(source, Characteristic) else make_indicator_characteristic(source)
    x1, x2 = compute_x1_x2(phi.mean_table(), S)
    sigma_l = compute_sigma_l(x2, S, model)
    l_star = find_l_star(sigma_l)
    sigma2, sigma2_err, b_table = compute_sigma2(phi, S, model)

    sigma_star2 = None
    sigma_star2_err = None
    notes: dict = {"assumption_sums": assumption_sums(phi, S, model)}
    if phi.is_deterministic and set(phi.base) <= {0}:
        try:
            sigma_star2, sigma_star2_err = compute_sigma_star2(phi.base.get(0, np.zeros(phi.J)), S, model)
        except ValueError as exc:
            notes["sigma_star2_skipped"] = str(exc)

    if l_star is not None:
        case = "ii"
        sigma_case2 = sigma_l[l_star]
    elif sigma2 > EPS_REPORT:
        case = "i"
        sigma_case2 = sigma2
    else:
        case = "degenerate"
        sigma_case2 = 0.0
    if sigma2_err > EPS_REPORT:
        notes["sigma2_error_above_report"] = sigma2_err

    return TheoreticalConstants(
        x1=x1,
        x2=x2,
        sigma_l=sigma_l,
        l_star=l_star,
        sigma2=float(sigma2),
        sigma2_error=float(sigma2_err),
        sigma_star2=sigma_star2,
        sigma_star2_error=sigma_star2_err,
        B_table=b_table,
        B_window=(min(b_table), max(b_table)),
        case=case,
        sigma_case2=float(sigma_case2),
        notes=notes,
    )
