"""Multitype branching model built from finite-support offspring laws.

A model has J types.  A parent of type j produces one offspring column
``L^(j)`` drawn from a finite list of (probability, count-vector) outcomes;
columns of distinct parents (and distinct types) are independent.  The mean
matrix ``A`` has column j equal to the mean of ``L^(j)``, so the type-count
process satisfies ``E[Z_{n+1} | Z_n] = A Z_n``.

All moments used downstream (means, per-column covariances, variances of
arbitrary linear functionals of a column) are computed by enumerating the
outcome tables in float64 — never by sampling.  The laws keep their exact
probabilities for the test oracles.  This module does not validate input:
``build_model`` takes the outcome tables that ``scenario.check_model`` has
validated and parsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .scenario import check_model

__all__ = [
    "OffspringLaw",
    "BranchingModel",
    "AssumptionReport",
    "build_model",
    "validate_assumptions",
    "perron_root",
    "is_primitive",
    "mixing_covariance",
]

COV_NORM_MIN = 1e-12  # GW3: the total covariance norm must exceed this


@dataclass(frozen=True)
class OffspringLaw:
    """Finite-support law of one parent type's offspring column.

    ``probs_exact`` keeps the numbers exactly as given (Fraction when the
    input was exact) so that test oracles can re-derive every moment in
    rational arithmetic.
    """

    probs: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]
    probs_exact: tuple[object, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.counts):
            raise ValueError("offspring law: probs and counts length mismatch")


@dataclass(frozen=True, eq=False)
class BranchingModel:
    """Immutable model data: laws plus exactly-enumerated moments.

    ``A[i, j]`` is the mean number of type-i children of a type-j parent,
    i.e. column j of ``A`` is the mean of ``L^(j)``.  ``covs[j]`` is the
    covariance matrix of ``L^(j)``.
    Type indices are zero-based throughout the library (scenario files use
    one-based labels, converted at the loading boundary).
    """

    J: int
    laws: tuple[OffspringLaw, ...]
    initial_type: int
    A: np.ndarray
    covs: tuple[np.ndarray, ...]

    @cached_property
    def padded_laws(self) -> tuple[np.ndarray, np.ndarray]:
        """The laws front-padded with zero-probability outcomes to one length
        K: ``(J, 1, K)`` probabilities and the ``(J, K, J)`` outcome table."""
        K = max(len(law.probs) for law in self.laws)
        P = np.zeros((self.J, 1, K))
        M = np.zeros((self.J, K, self.J), dtype=np.int64)
        for j, law in enumerate(self.laws):
            P[j, 0, K - len(law.probs) :] = law.probs
            M[j, K - len(law.probs) :] = law.counts
        P.flags.writeable = M.flags.writeable = False
        return P, M

    def z0(self) -> np.ndarray:
        z = np.zeros(self.J, dtype=np.int64)
        z[self.initial_type] = 1
        return z


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing-assumption checks; failures are reported, not thrown."""

    supercritical: bool
    positively_regular: bool
    nondegenerate: bool
    all_ok: bool
    rho: float
    details: dict


def build_model(data: Mapping) -> BranchingModel:
    """Build a :class:`BranchingModel` from a model mapping in the
    scenario-file schema::

        {"types": J,
         "initial_type": 1,                       # one-based in input
         "offspring": {1: [{"p": "1/2", "counts": [2, 2]}, ...], ...}}

    The input is validated by :func:`cmjsim.scenario.check_model`, which
    raises ``ScenarioError`` (a ``ValueError``) naming the offending key path.
    The laws keep the exact probabilities it parsed; ``A`` and the
    covariances are formed from their float64 values.
    """
    canon, tables = check_model(data)
    J = canon["types"]
    laws = tuple(
        OffspringLaw(probs=tuple(float(p) for p in probs), counts=counts, probs_exact=probs)
        for probs, counts in tables
    )
    A = np.zeros((J, J), dtype=float)
    covs = []
    for j, law in enumerate(laws):
        outs = np.array(law.counts, dtype=float)
        p = np.asarray(law.probs)
        mean = p @ outs
        A[:, j] = mean
        dev = outs - mean
        cov = (dev * p[:, None]).T @ dev
        cov = 0.5 * (cov + cov.T)  # enforce exact symmetry
        covs.append(cov)
    return BranchingModel(
        J=J,
        laws=laws,
        initial_type=canon["initial_type"] - 1,
        A=A,
        covs=tuple(covs),
    )


def perron_root(A: np.ndarray) -> float:
    """Spectral radius of A (for non-negative A this is the Perron root)."""
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


def is_primitive(A: np.ndarray) -> bool:
    """True when ``A^n`` is entrywise strictly positive at Wielandt's bound
    n = (J - 1)^2 + 1, which every primitive J x J matrix meets."""
    return bool(np.linalg.matrix_power(np.asarray(A) > 0, (len(A) - 1) ** 2 + 1).all())


def validate_assumptions(model: BranchingModel) -> AssumptionReport:
    """Check the three standing assumptions; never raises.

    GW1: Perron root rho > 1 (supercritical).
    GW2: positive regularity (primitivity of A).
    GW3: offspring randomness present (sum of covariances non-zero) with all
    entry variances finite — finiteness is automatic for finite supports.
    """
    rho = perron_root(model.A)
    supercritical = bool(rho > 1.0)
    positively_regular = is_primitive(model.A)
    cov_norm = float(np.linalg.norm(mixing_covariance(model, np.ones(model.J))))
    finite = bool(np.all(np.isfinite(np.diagonal(model.covs, axis1=1, axis2=2))))
    nondegenerate = bool(cov_norm > COV_NORM_MIN and finite)
    return AssumptionReport(
        supercritical=supercritical,
        positively_regular=positively_regular,
        nondegenerate=nondegenerate,
        all_ok=supercritical and positively_regular and nondegenerate,
        rho=rho,
        details={
            "rho_margin": rho - 1.0,
            "total_covariance_norm": cov_norm,
            "variances_finite": finite,
        },
    )


def mixing_covariance(model: BranchingModel, weights: np.ndarray) -> np.ndarray:
    """Weighted covariance sum ``M = sum_j weights[j] * Cov[L^(j)]``."""
    M = np.zeros((model.J, model.J))
    for j in range(model.J):
        M = M + float(np.real(weights[j])) * model.covs[j]
    return M
