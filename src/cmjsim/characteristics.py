"""Random characteristics: finite tables, exact moments, the star transform.

A characteristic assigns to an individual of type j at age k the scalar

    value(k, j) = base(k, j) + coeff(k) . (l - A e_j) + noise(k, j)

where ``l`` is the individual's own offspring column, ``coeff(k)`` is a
deterministic 1 x J row, and ``noise(k, j)`` is an independent draw from a
finite table.  The counted process sums each individual's value at its age.
This family is closed under every transform the limit theory needs and keeps
the simulator exact under multinomial aggregation: the value depends on the
individual only through (type, age, own column, private noise).

The star transform of a deterministic characteristic produces the centered
characteristic

    phi*(k) = sum_{l >= 0} phi(k - 1 - l) A^l (L - A),

whose counted process recenters ``Z_n^phi`` at its mean pathwise.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import BranchingModel, mixing_covariance
from .scenario import PROB_TOL
from .spectral import _TINY, SpectralData, _eye, m_norm2, power_scaled, projected_power, stein_tail

PHI1_MASS = 1e-14  # make_phi1 stops where the remaining mass falls to this
_MAX_ROWS = 10_000
_MAX_BLOCK = 256

__all__ = [
    "NoiseLaw",
    "Characteristic",
    "make_indicator_characteristic",
    "star_transform",
    "make_phi1",
    "expected_process",
    "assumption_sums",
]


@dataclass(frozen=True)
class NoiseLaw:
    """Finite law of the independent additive noise at one (age, type) cell."""

    probs: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.values):
            raise ValueError("noise law: probs and values length mismatch")
        for i, p in enumerate(self.probs):
            if not 0.0 <= p <= 1.0:  # False for NaN as well
                raise ValueError(f"noise law: probs[{i}] = {p!r} is not a probability in [0, 1]")
        for i, v in enumerate(self.values):
            if not cmath.isfinite(v):
                raise ValueError(f"noise law: values[{i}] = {v!r} is not finite")
        if abs(sum(self.probs) - 1.0) > PROB_TOL:
            raise ValueError(f"noise law: probabilities sum to {sum(self.probs)!r}, not 1")
        try:  # squaring a finite float may raise; an inf deviation squares to inf
            finite = cmath.isfinite(self.variance())
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("noise law: variance is outside float64 range")

    def mean(self) -> complex:
        return complex(sum(p * v for p, v in zip(self.probs, self.values)))

    def variance(self) -> float:
        m = self.mean()
        return float(sum(p * abs(v - m) ** 2 for p, v in zip(self.probs, self.values)))


def _freeze_rows(rows: Mapping[int, np.ndarray] | None, J: int, what: str) -> dict:
    """The nonzero rows as read-only views of one fresh table, keyed by int."""
    if not rows:
        return {}
    flat = [np.asarray(row, dtype=complex).reshape(-1) for row in rows.values()]
    for k, r in zip(rows, flat):
        if r.shape != (J,):
            raise ValueError(f"{what}[{k}]: expected a row of length {J}")
    table = np.array(flat)
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"{what}[{list(rows)[i]}]: entry {j} is not finite")
    table.flags.writeable = False
    return {int(k): r for k, r, keep in zip(rows, table, np.any(table != 0, axis=1).tolist()) if keep}


@dataclass(frozen=True, eq=False)
class Characteristic:
    """Finite-table random characteristic (see module docstring)."""

    J: int
    base: dict = field(default_factory=dict)
    coeff: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "base", _freeze_rows(self.base, self.J, "base"))
        object.__setattr__(self, "coeff", _freeze_rows(self.coeff, self.J, "coeff"))
        nz = {}
        for key, law in dict(self.noise).items():
            k, j = key
            if not (0 <= j < self.J):
                raise ValueError(f"noise[{key}]: type index out of range")
            if not isinstance(law, NoiseLaw):
                raise ValueError(f"noise[{key}]: expected a NoiseLaw")
            nz[(int(k), int(j))] = law
        object.__setattr__(self, "noise", nz)
        ages = tuple(sorted(set(self.base) | set(self.coeff) | {k for (k, _) in self.noise}))
        mean = np.zeros((len(ages), self.J), dtype=complex)
        for k, row in self.base.items():
            mean[bisect_left(ages, k)] += row
        noise_var = np.zeros((len(ages), self.J))
        for (k, j), law in self.noise.items():
            i = bisect_left(ages, k)
            mean[i, j] += law.mean()
            noise_var[i, j] += law.variance()
        mean.flags.writeable = noise_var.flags.writeable = False
        object.__setattr__(self, "_moments", (ages, mean, noise_var))

    def __reduce__(self):
        # a copy is built by the constructor, so its tables are read-only as well
        return Characteristic, (self.J, self.base, self.coeff, self.noise, self.label)

    # -- window bookkeeping and exact moments -------------------------------
    def moments(self) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
        """``(ages, mean, noise_var)``: every age any table names, ascending;
        E phi(k) per age as read-only rows (the coeff part is centered by
        design); and each noise cell's variance E|X - EX|^2 per age and type.
        Formed when the characteristic is built."""
        return self._moments

    @property
    def is_deterministic(self) -> bool:
        return not self.coeff and not self.noise

    def mean_table(self) -> dict:
        """``{k: E phi(k)}`` over the nonzero rows, in ascending age."""
        ages, mean, _ = self.moments()
        return {ages[i]: mean[i] for i in np.flatnonzero(mean.any(axis=1)).tolist()}

    def scaled(self, factor: complex) -> "Characteristic":
        """The characteristic ``factor * phi`` (all tables scaled)."""
        return Characteristic(
            J=self.J,
            base={k: factor * r for k, r in self.base.items()},
            coeff={k: factor * r for k, r in self.coeff.items()},
            noise={
                key: NoiseLaw(law.probs, tuple(factor * v for v in law.values))
                for key, law in self.noise.items()
            },
            label=self.label,
        )


def make_indicator_characteristic(row) -> Characteristic:
    """phi(k) = row * 1{k = 0}, so that Z_n^phi = row . Z_n."""
    row = np.asarray(row, dtype=complex).reshape(-1)
    return Characteristic(J=row.shape[0], base={0: row}, label="indicator")


def _star_rows(phi: Characteristic, A: np.ndarray, k_max: int) -> dict:
    """The nonzero rows ``R(k) = sum_{l>=0} E phi(k-1-l) A^l`` for ``k <= k_max``,
    in ascending age, from ``R(k+1) = R(k) A + E phi(k)`` and ``R = 0`` up to
    the table's lowest age.  A row outside float64 range raises a bare
    ``ArithmeticError`` that names its age."""
    mt = phi.mean_table()
    rows, row = {}, np.zeros(phi.J, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(min(mt, default=k_max), k_max):
            row = row @ A + mt.get(k, 0)
            if row.any():
                if not np.isfinite(row).all():
                    raise ArithmeticError(f"star transform row at age {k + 1} lies outside float64 range")
                rows[k + 1] = row
    return rows


def star_transform(phi: Characteristic, model: BranchingModel, n_max: int) -> Characteristic:
    """Star transform of a deterministic characteristic: the coeff-only table of
    ``R(k) = sum_{l>=0} Ephi(k-1-l) A^l`` for ages up to ``n_max``.  It has
    mean zero identically and satisfies the pathwise recentering
    ``Z_n^{phi*} = Z_n^phi - E Z_n^phi`` for every ``n <= n_max``."""
    if not phi.is_deterministic:
        raise ValueError("star_transform requires a deterministic characteristic")
    return Characteristic(J=phi.J, coeff=_star_rows(phi, model.A, n_max), label="star")


def make_phi1(
    S: SpectralData,
    x1: np.ndarray,
    model: BranchingModel,
    k_min: int | None = None,
) -> Characteristic:
    """The martingale-gap characteristic, premultiplied by ``x1``.

    ``phi1(k) = x1 A1^{k-1} pi1 (L - A)`` for k <= 0.  Counted over the
    N-truncated window ``[n - N + 1, 0]`` it reproduces
    ``x1 A1^n (What1_N - What1_n)`` exactly on every path (telescoping over
    the generation increments); with the full tail it is the gap to the
    martingale limit itself.

    The rows are ``rho^{k/2} w T^{-k}`` with the descending step
    ``T = rho^{1/2} pi1 A1^{-1} pi1`` from ``w = x1 pi1 A1^{-1}``, formed a
    block ``w T^0 .. w T^{c-1}`` at a time, the block doubling up to 256
    rows.  The table stops at the first row k whose remaining mass
    ``sum_{j<=k} rho^{-j} |phi1(j)|_M^2``, the closed form
    ``w_k X w_k^H`` of ``spectral.stein_tail``, is at most ``PHI1_MASS``; a
    table that does not reach it within 10,000 rows is refused with a bare
    ``ArithmeticError``.  ``k_min`` forces the window ``[k_min, 0]`` instead.
    Either table ends early, at its first row ``rho^{k/2} w T^{-k}`` that is
    not finite or, nonzero, falls below float64's smallest normal number.
    """
    x1 = np.asarray(x1, dtype=complex).reshape(-1)
    J = x1.shape[0]
    w = x1 @ projected_power(S, 1, -1)  # A1^{k-1} at k = 0
    if not np.any(np.abs(w) > 0):
        return Characteristic(J=J, label="phi1")

    X = stein_tail(S, mixing_covariance(model, S.u), -1)[0]
    step = S.step(1, -1) * S.sqrt_rho
    limit = _MAX_ROWS if k_min is None else max(0, 1 - k_min)
    block, blocks, masses = _eye(J, complex)[None], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a mass past float64 range never stops the table
        while sum(map(len, blocks)) <= limit:
            blocks.append(w @ block)
            masses.append(m_norm2(X, blocks[-1]))
            if k_min is None and masses[-1][-1] <= PHI1_MASS:  # the remaining mass only falls
                break
            w = blocks[-1][-1] @ step
            if len(block) < _MAX_BLOCK:
                block = np.concatenate([block, block @ (block[-1] @ step)])
    scaled, mass = np.concatenate(blocks), np.concatenate(masses)
    end = limit if k_min is not None else int(np.argmax(mass <= PHI1_MASS))
    if k_min is None and not (mass[end] <= PHI1_MASS and end <= _MAX_ROWS):
        raise ArithmeticError(f"phi1 tail does not fall to mass {PHI1_MASS} within {_MAX_ROWS} rows")
    rows = power_scaled(scaled[:end], S.rho, np.arange(end) / 2)
    # a row not finite, or nonzero below the least normal number (digits lost), ends the table
    subnormal = scaled[:end].any(axis=1) & (np.abs(rows).max(axis=1, initial=0.0) < _TINY)
    past = subnormal | ~np.isfinite(rows).all(axis=1)
    end = int(np.argmax(np.append(past, True)))
    coeff = {-m: row for m, row in enumerate(rows[:end])}
    return Characteristic(J=J, coeff=coeff, label="phi1")


def expected_process(phi: Characteristic, model: BranchingModel, n: int) -> complex:
    """E Z_n^phi = sum_g E phi(n - g) A^g Z_0 = R(n+1) . Z_0, exact for finite mean tables."""
    row = _star_rows(phi, model.A, n + 1).get(n + 1)
    return 0j if row is None else complex(row @ model.z0())


def assumption_sums(phi: Characteristic, S: SpectralData, model: BranchingModel) -> dict:
    """The standing-assumption sums over the characteristic's window.

    Records ``sum_k |E phi(k)| (rho^{-k} + theta^{-k})`` and
    ``sum_k |Var phi(k)| rho^{-k}``; both are finite for finite tables.  Coeff
    rows are scaled by ``rho^{-k/2}`` before they are squared, so the far
    rows of a long table do not underflow, and ``np.hypot`` forms again each
    row's norm whose square overflows, so every norm float64 holds is finite.
    """
    ages, means, noise_var = phi.moments()
    ks = np.array(ages)
    # each sum is 0.0 where all its rows are 0: no mean row, or no coeff row and no noise cell
    sums = {"mean_weighted_sum": 0.0, "variance_weighted_sum": 0.0}
    if means.any():
        with np.errstate(over="ignore"):
            # |E phi(k)| row by row as np.linalg.norm forms it: vecdot makes the same
            # strided dot call per row, so the sum equals a per-key norm bit for bit
            mean = _row_norms(means, np.sqrt(np.vecdot(means.real, means.real) + np.vecdot(means.imag, means.imag)))
            sums["mean_weighted_sum"] = float(np.sum(power_scaled(mean, S.rho, ks) + power_scaled(mean, S.theta, ks)))
    if not phi.is_deterministic:
        var = power_scaled(noise_var, S.rho, ks) if phi.noise else np.zeros(noise_var.shape)
        if phi.coeff:
            rows = power_scaled(np.array(list(phi.coeff.values())), S.rho, np.array(list(phi.coeff)) / 2)
            var[np.searchsorted(ks, list(phi.coeff))] += np.column_stack([m_norm2(C, rows) for C in model.covs])
        with np.errstate(over="ignore"):
            sums["variance_weighted_sum"] = float(np.sum(_row_norms(var, np.linalg.norm(var, axis=1))))
    return sums


def _row_norms(table: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``norms``, the row norms of ``table``, with each one whose square
    overflowed formed again by ``np.hypot``."""
    inf = np.isinf(norms)
    if inf.any():
        norms[inf] = np.hypot.reduce(np.abs(table[inf]), axis=1)
    return norms
