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
* ``sigma2`` — the case-i variance, a two-sided series with geometric tails
  (ratio rho/s1^2 below, theta^2/rho above); partial sums are monotone
  because every term is a nonnegative weighted variance.  The tails go
  through the one scaled engine ``spectral.scaled_tail``.
* ``sigma_star2`` — the same quantity reached through the direct row-power
  route, kept as an independent implementation so the two paths can be
  compared rather than collapsed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

import numpy as np

from .characteristics import Characteristic, assumption_sums, make_indicator_characteristic
from .model import BranchingModel, mixing_covariance
from .spectral import SpectralData, m_norm2, power_scaled, projected_power, scaled_tail, unscaled

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
    B_table: Mapping
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
    ...``.  Exact finite linear algebra: entries beyond the nilpotency index
    are exactly 0."""
    x2 = np.asarray(x2, dtype=complex).reshape(-1)
    M = mixing_covariance(model, S.u)
    totals = [0.0] * (S.J + 1)
    for cl in S.clusters:
        if cl.label != "critical":
            continue
        row = x2 @ cl.projection
        shifted = S.A - cl.eigenvalue * np.eye(S.J)
        for l in range(S.J + 1):
            totals[l] += float(m_norm2(M, row))
            row = row @ shifted @ cl.projection
    return tuple(S.rho ** (-(l + 1)) / ((2 * l + 1) * factorial(l) ** 2) * t for l, t in enumerate(totals))


def find_l_star(sigma_l: tuple[float, ...]) -> int | None:
    """Largest l with sigma_l^2 above L_STAR_TOL, or None when the whole
    ladder vanishes."""
    hits = [l for l, v in enumerate(sigma_l) if v > L_STAR_TOL]
    return max(hits) if hits else None


def compute_B(mt: dict, S: SpectralData, k: int) -> np.ndarray:
    """Centering row B(k) = sum_l E phi(k-l-1) A^l P(k,l) over the mean table
    ``mt = {k: E phi(k)}``, where the piecewise projector P picks -pi1 on
    l < 0 and pi2 + pi3 on l >= 0 when k <= 0, and -(pi1 + pi2) on l < 0 and
    pi3 on l >= 0 when k > 0.  Negative powers act on the corresponding
    invariant subspace.  For a finite mean table every branch is a finite
    sum."""
    row = np.zeros(S.J, dtype=complex)
    for m, phi_row in mt.items():
        l = k - 1 - m
        if k <= 0:
            if l < 0:
                row = row - phi_row @ projected_power(S, 1, l)
            else:
                row = row + phi_row @ (projected_power(S, 2, l) + projected_power(S, 3, l))
        else:
            if l < 0:
                row = row - phi_row @ (projected_power(S, 1, l) + projected_power(S, 2, l))
            else:
                row = row + phi_row @ projected_power(S, 3, l)
    return row


class _BTable(Mapping):
    """``{k: B(k)}`` over every summed k in ascending order, None where a row
    lies outside float64 range, unscaled and indexed on first read: a caller
    of ``window`` (the first and last summed k) alone pays no tail powers."""

    def __init__(self, S: SpectralData, rows: np.ndarray, tails: list, ks: np.ndarray, keep: np.ndarray):
        self._parts, kept = (S, rows, tails, ks, keep), ks[keep]
        self.window = (int(kept.min()), int(kept.max())) if kept.size else (0, 0)

    @cached_property
    def _table(self) -> dict:
        S, rows, tails, ks, keep = self._parts
        table = list(rows) + [row for scaled, tail_ks in tails for row in unscaled(S, scaled, tail_ks)]
        order = [i for i in np.argsort(ks).tolist() if keep[i]]
        return dict(zip(ks[order].tolist(), [table[i] for i in order]))

    def __getitem__(self, k):
        return self._table[k]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


def compute_sigma2(
    phi: Characteristic,
    S: SpectralData,
    model: BranchingModel,
    eps_tail: float = 1e-14,
    window: tuple[int, int] | None = None,
) -> tuple[float, float, Mapping]:
    """Case-i variance sigma^2 = sum_k rho^{-k} u-weighted Var[phi(k) + psi(k)],
    where psi(k) = B(k) . (own column - its mean) recenters the counted
    process.  Returns ``(value, error, table)`` with ``error`` a certified
    bound on the discarded two-sided tail (geometric on both sides) and
    ``table`` mapping (read-only, built on first read) every summed k to the
    unscaled ``B(k)``, or to None where that row lies outside float64 range.

    ``B`` is evaluated directly on the window where its piecewise projector
    changes, ``min(min age, 0) <= k <= max(max age + 1, 1)`` widened to the
    coeff and noise keys.  Beyond it ``B(k+1) = B(k) pi3 A pi3`` and
    ``B(k-1) = B(k) pi1 A1^{-1} pi1``, so both tails go to ``scaled_tail``.
    A hard ``window`` sums the same rows between fixed ends, without tail
    extension (partial sums are monotone in the window, every term being
    nonnegative)."""
    mt = phi.mean_table()
    ages, _, noise_var = phi.moments()
    M = mixing_covariance(model, S.u)

    keys = set(ages) | {0, 1}
    if mt:
        keys.add(max(mt) + 1)
    lo, hi = min(keys), max(keys)
    ks = np.arange(lo, hi + 1)
    B = np.array([compute_B(mt, S, k) for k in ks]) if mt else np.zeros((len(ks), S.J), dtype=complex)
    coeff = np.zeros((len(ks), S.J), dtype=complex)
    coeff[[k - lo for k in phi.coeff]] = np.reshape(list(phi.coeff.values()), (-1, S.J))
    noise = np.zeros(len(ks))
    # u-weighted row sums in type order: a per-cell sum's bits where the cells are in that order
    noise[[k - lo for k in ages]] = sum(float(S.u[j]) * noise_var[:, j] for j in range(S.J))
    k_parts = [ks]
    t_parts = [m_norm2(M, power_scaled(B + coeff, S.rho, ks / 2)) + power_scaled(noise, S.rho, ks)]
    tails = []

    up, down = (None, None) if window is None else (max(0, window[1] - hi), max(0, lo - window[0]))
    error = 0.0
    for first, sign, count in ((hi + 1, 1, up), (lo - 1, -1, down)):
        w = power_scaled(compute_B(mt, S, first), S.rho, first / 2)
        rows, terms, tail_error = scaled_tail(S, M, w, sign, "sigma2 tail", eps_tail, count)
        ks = first + sign * np.arange(len(terms))
        error += tail_error
        k_parts.append(ks)
        t_parts.append(terms)
        tails.append((rows, ks))
    ks, terms = np.concatenate(k_parts), np.concatenate(t_parts)
    keep = np.full(len(ks), True) if window is None else (ks >= window[0]) & (ks <= window[1])
    value = float(np.sum(terms[keep]))
    if not np.isfinite(value):
        raise ArithmeticError("sigma2 lies outside float64 range")
    return value, error, _BTable(S, B, tails, ks, keep)


def compute_sigma_star2(
    a: np.ndarray,
    S: SpectralData,
    model: BranchingModel,
    eps_tail: float = 1e-14,
) -> tuple[float, float]:
    """Direct-route variance for an age-0 indicator row with a . u = 0:

        sigma*^2 = sum_{k>=1} rho^{-k} |a A^{k-1} pi3|_M^2
                 + sum_{k<=0} rho^{-k} |a A1^{k-1} pi1|_M^2,

    with M = sum_j u_j Cov L^(j) and |w|_M^2 = w M w^H.  The rows start at
    ``a pi3`` (k = 1) and ``a pi1 A1^{-1}`` (k = 0), with no mean table and no
    ``B``.  Rejects rows whose Perron component does not vanish."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    au = complex(a @ S.u.astype(complex))
    scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(S.u)))
    if abs(au) > 1e-10 * scale:
        raise ValueError(
            f"sigma_star2 requires a Perron-orthogonal row (|a.u| = {abs(au):.3e})"
        )
    M = mixing_covariance(model, S.u)
    _, up, err_up = scaled_tail(S, M, a @ S.pi3 / S.sqrt_rho, 1, "sigma_star2 ascending tail", eps_tail)
    _, down, err_down = scaled_tail(
        S, M, a @ projected_power(S, 1, -1), -1, "sigma_star2 descending tail", eps_tail
    )
    return float(np.sum(up) + np.sum(down)), err_up + err_down


def compute_constants(
    source,
    S: SpectralData,
    model: BranchingModel,
    eps_tail: float = 1e-14,
) -> TheoreticalConstants:
    """Assemble every limit constant for a characteristic (or an age-0
    indicator row, which also unlocks the independent sigma*^2 route)."""
    a_row = None
    if isinstance(source, Characteristic):
        phi = source
        if phi.is_deterministic and set(phi.base) == {0}:
            a_row = phi.base[0]  # a pure age-0 indicator unlocks the direct route
    else:
        a_row = np.asarray(source, dtype=complex).reshape(-1)
        phi = make_indicator_characteristic(a_row)

    x1, x2 = compute_x1_x2(phi.mean_table(), S)
    sigma_l = compute_sigma_l(x2, S, model)
    l_star = find_l_star(sigma_l)
    sigma2, sigma2_err, b_table = compute_sigma2(phi, S, model, eps_tail=eps_tail)

    sigma_star2 = None
    sigma_star2_err = None
    notes: dict = {"assumption_sums": assumption_sums(phi, S, model)}
    if a_row is not None:
        try:
            sigma_star2, sigma_star2_err = compute_sigma_star2(a_row, S, model, eps_tail=eps_tail)
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
        B_window=b_table.window,
        case=case,
        sigma_case2=float(sigma_case2),
        notes=notes,
    )
