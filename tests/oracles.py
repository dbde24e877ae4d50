"""Independent oracles used by the test suite.

Everything in this module is deliberately written the *slow, obvious* way:
exact rational first/second moment recursions, per-individual replay of the
multinomial cells that the block-by-block simulator below records, a
reference KS tail from scipy, the one-shot Monte Carlo bootstrap, the
bootstrap variance of a sample variance over every resample and its closed
form in exact rationals, the
replicate-by-replicate studentization that the columnar one must equal,
LAPACK's ordered-Schur spectral projector that the deflation one must equal,
the one-set deflation and norm-probed Jordan index that the stacked
deflation must equal bit for bit,
union-find eigenvalue clustering and per-cluster invariant residuals that the
one-pass and stacked ones must equal, the invariant residuals with their
dropped ``DN_commute`` key and the Stein solve of one tail sign at a time
that the library's must equal bit for bit,
full-operator powers that the projected ones must equal, the
block-by-block simulator with one multinomial call per parent type that the
chunk-stepped one must equal, and the series engine's weights, mean
tables and normal CDF taken one term at a time.
None of it shares code with the package internals, so agreement is evidence
rather than tautology; the exceptions are ``per_cell_sigma2`` and
``eager_b_table``, the per-cell noise sum and the per-lag construction of
the B(k) table that the library's one pass over the mean table must equal,
which reuse the library's restricted powers and tails because only the
noise sum and the order of the build differ,
the terms of T in ``per_block_columns``, because only where T is formed
differs, the tail steps and Frobenius norm of ``per_sign_stein_tail``,
because only the stacking of the two signs' solves differs, and the closed
tail of ``phi1_remaining_mass``, because only the row it starts from is new.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.stats

from cmjsim import BranchingModel
from cmjsim.characteristics import Characteristic
from cmjsim.model import mixing_covariance
from cmjsim.simulator import BLOCK, BatchResult, normalization
from cmjsim.spectral import (
    _EPS,
    DEFAULT_TOL,
    _fro,
    m_norm2,
    power_scaled,
    projected_power,
    stein_tail,
    tail_sum,
)


# ---------------------------------------------------------------------------
# Exact rational moments of the type-count process
# ---------------------------------------------------------------------------


def exact_mean_matrix(model: BranchingModel) -> list[list[Fraction]]:
    """Column j = exact expected litter of one type-j parent."""
    J = model.J
    A = [[Fraction(0) for _ in range(J)] for _ in range(J)]
    for j, law in enumerate(model.laws):
        for p, counts in zip(law.probs_exact, law.counts):
            pf = Fraction(p)
            for i in range(J):
                A[i][j] += pf * counts[i]
    return A


def exact_offspring_cov(model: BranchingModel, j: int) -> list[list[Fraction]]:
    """Exact covariance matrix of a single type-j litter."""
    J = model.J
    A = exact_mean_matrix(model)
    mean = [A[i][j] for i in range(J)]
    C = [[Fraction(0) for _ in range(J)] for _ in range(J)]
    for p, counts in zip(model.laws[j].probs_exact, model.laws[j].counts):
        pf = Fraction(p)
        dev = [counts[i] - mean[i] for i in range(J)]
        for a in range(J):
            for b in range(J):
                C[a][b] += pf * dev[a] * dev[b]
    return C


def _mat_vec(M, x):
    return [sum(M[i][j] * x[j] for j in range(len(x))) for i in range(len(M))]


def _mat_mat(M, X):
    n = len(M)
    return [[sum(M[i][k] * X[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _transpose(M):
    n = len(M)
    return [[M[j][i] for j in range(n)] for i in range(n)]


def exact_moment_tables(model: BranchingModel, n_max: int):
    """Exact E[Z_g] and E[Z_g Z_g^T] for g = 0..n_max, as Fractions.

    The recursion conditions on generation g: the next generation is a sum of
    independent litters, one per current individual, so

        m_{g+1} = A m_g
        S_{g+1} = A S_g A^T + sum_j (m_g)_j C_j
    """
    J = model.J
    A = exact_mean_matrix(model)
    At = _transpose(A)
    covs = [exact_offspring_cov(model, j) for j in range(J)]

    z0 = [Fraction(int(c)) for c in model.z0()]
    means = [z0]
    S0 = [[z0[a] * z0[b] for b in range(J)] for a in range(J)]
    seconds = [S0]
    for _ in range(n_max):
        m = means[-1]
        S = seconds[-1]
        new_m = _mat_vec(A, m)
        ASAt = _mat_mat(_mat_mat(A, S), At)
        for j in range(J):
            for a in range(J):
                for b in range(J):
                    ASAt[a][b] += m[j] * covs[j][a][b]
        means.append(new_m)
        seconds.append(ASAt)
    return means, seconds


def exact_linear_variance(model: BranchingModel, a, n: int) -> Fraction:
    """Exact Var[a . Z_n] via the rational moment recursion."""
    means, seconds = exact_moment_tables(model, n)
    av = [Fraction(x) for x in a]
    m = means[n]
    S = seconds[n]
    first = sum(av[i] * m[i] for i in range(model.J))
    second = sum(av[i] * S[i][j] * av[j] for i in range(model.J) for j in range(model.J))
    return second - first * first


# ---------------------------------------------------------------------------
# Per-individual replay of a recorded replicate
# ---------------------------------------------------------------------------


def replay_states(model: BranchingModel, cells: dict, N: int) -> np.ndarray:
    """Rebuild the generation counts implied by the recorded offspring draws."""
    J = model.J
    states = np.zeros((N + 1, J), dtype=np.int64)
    states[0] = model.z0()
    for g in range(N):
        nxt = np.zeros(J, dtype=np.int64)
        for j in range(J):
            nj = cells["offspring"].get((g, j))
            if nj is None:
                if states[g, j] != 0:
                    raise AssertionError(f"missing draw for generation {g} type {j}")
                continue
            if int(nj.sum()) != int(states[g, j]):
                raise AssertionError(f"draw at ({g},{j}) covers {nj.sum()} != {states[g, j]}")
            for o, m in enumerate(nj):
                cnt = np.asarray(model.laws[j].counts[o], dtype=np.int64)
                nxt += int(m) * cnt
        states[g + 1] = nxt
    return states


def naive_process_value(
    model: BranchingModel,
    phi: Characteristic,
    cells: dict,
    states: np.ndarray,
    t: int,
    N: int,
    phi_index: int = 0,
) -> complex:
    """Recompute one counted-process value by looping over individuals.

    Every multinomial cell is expanded into its individual contributions and
    summed with math.fsum; no vectorized shortcut from the package is reused.
    """
    J = model.J
    re_parts: list[float] = []
    im_parts: list[float] = []

    def add(value: complex) -> None:
        re_parts.append(value.real)
        im_parts.append(value.imag)

    for k, row in phi.base.items():
        g = t - k
        if not (0 <= g <= N):
            continue
        for i in range(J):
            for _ in range(int(states[g, i])):
                add(complex(row[i]))

    A = np.asarray(model.A, dtype=float)
    for k, c_row in phi.coeff.items():
        g = t - k
        if not (0 <= g <= N - 1):
            continue
        for j in range(J):
            nj = cells["offspring"].get((g, j))
            if nj is None:
                continue
            for o, m in enumerate(nj):
                litter = np.asarray(model.laws[j].counts[o], dtype=float)
                per_individual = complex(np.asarray(c_row) @ (litter - A[:, j]))
                for _ in range(int(m)):
                    add(per_individual)

    for (p, tt, k, j), counts in cells.get("noise", {}).items():
        if p != phi_index or tt != t:
            continue
        law = phi.noise[(k, j)]
        for m, v in zip(counts, law.values):
            for _ in range(int(m)):
                add(complex(v))

    return complex(math.fsum(re_parts), math.fsum(im_parts))


# ---------------------------------------------------------------------------
# Reference statistics
# ---------------------------------------------------------------------------


def reference_ks_pvalue(sample: np.ndarray) -> float:
    """Asymptotic one-sample KS p-value against N(0,1), straight from scipy."""
    res = scipy.stats.kstest(np.asarray(sample, dtype=float), "norm", mode="asymp")
    return float(res.pvalue)


def per_point_ks_statistic(sample) -> float:
    """One-sample KS distance to N(0,1), with the CDF taken one point at a
    time through ``math.erf``."""
    xs = sorted(float(x) for x in sample)
    m = len(xs)
    F = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in xs])
    return float(max(np.max(np.arange(1, m + 1) / m - F), np.max(F - np.arange(0, m) / m)))


def one_shot_resampled_variances(xs: np.ndarray, rng: np.random.Generator, B: int) -> np.ndarray:
    """Sample variances (ddof=1) of B resamples of ``xs``, drawn as one
    ``(B, m)`` index matrix: the Monte Carlo bootstrap whose B = infinity
    limit ``cmjsim.stats.bootstrap_variance_se`` computes in closed form."""
    m = xs.shape[0]
    return xs[rng.integers(0, m, size=(B, m))].var(axis=1, ddof=1)


def enumerated_bootstrap_variance(sample) -> Fraction:
    """Var* of the sample variance (ddof=1) over all m**m equally likely
    resamples with replacement of ``sample``, in exact rationals.  Each
    multiset of indices is taken once, weighted by the number of ordered
    resamples that draw it; the weights add up to m**m."""
    xs = [Fraction(x) for x in sample]
    m = len(xs)
    n = total = total2 = 0
    for idx in itertools.combinations_with_replacement(range(m), m):
        count = math.factorial(m)
        for k in set(idx):
            count //= math.factorial(idx.count(k))
        r = [xs[i] for i in idx]
        mean = sum(r, Fraction(0)) / m
        s2 = sum((x - mean) ** 2 for x in r) / (m - 1)
        n, total, total2 = n + count, total + count * s2, total2 + count * s2 * s2
    assert n == m**m
    return Fraction(total2, n) - Fraction(total, n) ** 2


def cramer_bootstrap_variance(sample) -> Fraction:
    """m4/m - m2^2 (m - 3)/(m (m - 1)) in exact rationals, with m2 and m4 the
    central moments (divisor m) of ``sample``: the variance of a sample
    variance (ddof=1) of m draws from a law with those moments."""
    xs = [Fraction(x) for x in sample]
    m = len(xs)
    mu = sum(xs, Fraction(0)) / m
    m2 = sum((x - mu) ** 2 for x in xs) / m
    m4 = sum((x - mu) ** 4 for x in xs) / m
    return m4 / m - m2 * m2 * (m - 3) / (m * (m - 1))


def reference_studentized(batch, constants, *, phi_index: int, t: int, w_min: float):
    """(eps, w) row by row: each usable replicate's T divided by
    sigma sqrt(W_hat) with Python's complex / float."""
    sigma = math.sqrt(max(constants.sigma_case2, 0.0))
    eps = []
    ws = []
    for r in batch.replicates:
        if r.aborted or not r.survived:
            continue
        if w_min > 0.0 and (r.w_hat is None or r.w_hat <= w_min):
            continue
        tv = r.T.get((phi_index, t))
        if tv is None or r.w_hat is None:
            continue
        ws.append(r.w_hat)
        eps.append(tv / (sigma * math.sqrt(r.w_hat)) if sigma > 0 else tv)
    return np.asarray(eps, dtype=complex), np.asarray(ws, dtype=float)


# ---------------------------------------------------------------------------
# Reference spectral projector
# ---------------------------------------------------------------------------


def schur_cluster_projection(A: np.ndarray, eigs: np.ndarray, idxs) -> np.ndarray:
    """Spectral projection onto ``eigs[idxs]`` from LAPACK's ordered complex
    Schur form and Bartels-Stewart, a drop-in for one
    set of ``cmjsim.spectral._cluster_projections`` at ``DEFAULT_TOL``.

    The sort keeps a Schur diagonal value within half the clustering radius
    of a member: LAPACK reorders without re-computing the eigenvalues, so its
    diagonal sits within rounding error of ``eigs``.
    """
    n = A.shape[0]
    members = eigs[idxs]
    if len(members) == n:
        return np.eye(n, dtype=complex)
    radius = max(DEFAULT_TOL, 64.0 * np.sqrt(np.finfo(float).eps) * float(np.linalg.norm(A, 2)))

    def inside(x):
        return bool(np.min(np.abs(x - members)) <= 0.5 * radius)

    T, Q, sdim = scipy.linalg.schur(A.astype(complex), output="complex", sort=inside)
    if sdim != len(members):
        raise ArithmeticError(f"sorted {sdim} values into a cluster of size {len(members)}")
    s = sdim
    Y = scipy.linalg.solve_sylvester(T[:s, :s], -T[s:, s:], T[:s, s:])
    P = np.zeros((n, n), dtype=complex)
    P[:s, :s] = np.eye(s)
    P[:s, s:] = Y
    return Q @ P @ Q.conj().T


def deflation_cluster_projection(A: np.ndarray, eigs: np.ndarray, idxs: list[int]) -> np.ndarray:
    """Spectral projection onto the generalized eigenspace of ``eigs[idxs]``
    by deflation, one set at a time: the body of the library's projector
    before it stacked the sets of one size, which the stacked pass must
    equal bit for bit, refusals and their messages included.

    With ``T = A`` and ``Q = I``, each of the s members in turn takes
    the eigenvalue ``lam`` of the trailing block ``T[i:, i:]`` nearest the
    members, the null vector of ``T[i:, i:] - lam I`` (its last right-singular
    vector) and a Householder reflection ``H`` that maps it onto ``e_i``;
    ``T <- H T H`` and ``Q <- Q H`` leave column i upper triangular.  The
    leading ``s x s`` block then carries the cluster, and the splitting
    ``T11 Y - Y T22 = T12`` is one solve of the ``s (J - s)`` Kronecker system,
    giving ``pi = Q [[I, Y], [0, 0]] Q*``.
    """
    n = A.shape[0]
    s = len(idxs)
    if s == n:
        return np.eye(n, dtype=complex)
    members = eigs[idxs]
    others = np.delete(eigs, idxs)
    T = A.astype(complex)
    Q = np.eye(n, dtype=complex)
    vals = eigs
    for i in range(s):
        if i:
            vals = np.linalg.eigvals(T[i:, i:])
        near = np.min(np.abs(vals[:, None] - members), axis=1)
        lam = vals[np.argmin(near)]
        if near.min() >= np.min(np.abs(lam - others)):
            raise ArithmeticError(
                f"eigenvalue clustering is inconsistent: after {i} of {s} deflations "
                f"the nearest remaining value {lam:.6g} lies nearer an eigenvalue "
                f"outside the cluster; the Jordan structure is too ill-conditioned "
                f"for the requested tolerance"
            )
        x = np.linalg.svd(T[i:, i:] - lam * np.eye(n - i))[2][-1].conj()
        # H = I - 2 w w* / |w|^2 with w = x + phase(x_0) e_0: no cancellation
        w = x.copy()
        w[0] += x[0] / abs(x[0]) if x[0] != 0 else 1.0
        H = np.eye(n - i) - np.outer(w, w.conj()) * (2.0 / np.vdot(w, w).real)
        T[:, i:] = T[:, i:] @ H
        T[i:, :] = H @ T[i:, :]
        Q[:, i:] = Q[:, i:] @ H
    T11, T12, T22 = T[:s, :s], T[:s, s:], T[s:, s:]
    # kron(I, T11) - kron(T22^T, I), which acts on Y stacked column by column
    K = np.eye(n - s)[:, None, :, None] * T11[None, :, None, :]
    K = (K - T22.T[:, None, :, None] * np.eye(s)[None, :, None, :]).reshape(s * (n - s), -1)
    Y = np.linalg.solve(K, T12.reshape(-1, order="F")).reshape(s, n - s, order="F")
    P = np.zeros((n, n), dtype=complex)
    P[:s, :s] = np.eye(s)
    P[:s, s:] = Y
    return Q @ P @ Q.conj().T


def probe_nilpotent_index(A: np.ndarray, lam: complex, proj: np.ndarray, norm_A: float) -> int:
    """Smallest m with (A - lambda I)^m pi = 0, probed for every cluster with
    ``np.linalg.norm(., 2)``, simple eigenvalues included (norm_A = |A|_2)."""
    n = A.shape[0]
    shifted = A.astype(complex) - lam * np.eye(n)
    scale = max(1.0, norm_A)
    B = proj
    for m in range(1, n + 1):
        B = shifted @ B
        if np.linalg.norm(B, 2) <= max(100.0 * DEFAULT_TOL, 1e-6) * scale**m:
            return m
    return n


def union_find_clusters(eigs: np.ndarray, radius: float) -> list[list[int]]:
    """Single-linkage clusters of ``eigs`` at ``radius``, by union-find over
    every pair, in ``cmjsim.spectral._cluster_values``' order: members
    ascending, clusters by (-|mean|, -Re mean, Im mean), ties by first member."""
    parent = list(range(len(eigs)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in itertools.combinations(range(len(eigs)), 2):
        if abs(eigs[a] - eigs[b]) <= radius:
            parent[find(b)] = find(a)
    groups: dict[int, list[int]] = {}
    for a in range(len(eigs)):
        groups.setdefault(find(a), []).append(a)

    def key(idxs):
        z = np.mean(eigs[idxs])
        return (-abs(z), -z.real, z.imag)

    return sorted(groups.values(), key=key)  # stable: ties keep first-member order


def per_cluster_residuals(S) -> dict:
    """Idempotency, commutation and mutual orthogonality of the cluster
    projections, as the largest entry over each cluster and ordered pair in turn."""
    Ac = S.A.astype(complex)
    out = {"idempotency": 0.0, "commutation": 0.0, "mutual_orthogonality": 0.0}
    for a, ca in enumerate(S.clusters):
        p = ca.projection
        out["idempotency"] = max(out["idempotency"], float(np.max(np.abs(p @ p - p))))
        out["commutation"] = max(out["commutation"], float(np.max(np.abs(p @ Ac - Ac @ p))))
        for b, cb in enumerate(S.clusters):
            if a != b:
                orth = float(np.max(np.abs(p @ cb.projection)))
                out["mutual_orthogonality"] = max(out["mutual_orthogonality"], orth)
    return out


def reference_invariant_residuals(A, clusters, pi1, pi2, pi3, A1, A1_inv, u, v, rho) -> dict:
    """The invariant residuals, each formed on its own: the library's keys and
    ``DN_commute``, which the library dropped since D N = N D."""
    n = A.shape[0]
    eye = np.eye(n)
    Ac = A.astype(complex)
    D = sum((c.eigenvalue * c.projection for c in clusters if c.label == "critical"), np.zeros_like(Ac))
    N = pi2 @ Ac - D

    def nrm(M):
        return float(np.abs(M).max(initial=0.0))

    res = {
        "partition_of_unity": nrm(pi1 + pi2 + pi3 - eye),
        "A1_inverse": nrm(A1 @ A1_inv - eye),
        "eigen_right": nrm(A @ u - rho * u) / max(1.0, rho),
        "eigen_left": nrm(v @ A - rho * v) / max(1.0, rho),
        "DN_commute": nrm(D @ N - N @ D),
        "N_nilpotent": nrm(np.linalg.matrix_power(N, n)),
    }
    P = np.stack([c.projection for c in clusters])
    res["idempotency"] = nrm(P @ P - P)
    res["commutation"] = nrm(P @ Ac - Ac @ P)
    pairs = P[:, None] @ P[None, :]
    res["mutual_orthogonality"] = nrm(pairs[~np.eye(len(P), dtype=bool)])
    return res


def per_sign_stein_tail(S, M: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``spectral.stein_tail`` for one sign alone, uncached: its own
    Kronecker solve and its own refusal, raised at once."""
    T = S.step(3, 1) / S.sqrt_rho if sign > 0 else S.step(1, -1) * S.sqrt_rho
    J = S.J
    eye = np.eye(J, dtype=complex)
    # vec(T X T^H) = (conj(T) kron T) vec(X), vec stacking columns
    K = np.eye(J * J) - (T.conj()[:, None, :, None] * T[None, :, None, :]).reshape(J * J, J * J)
    rhs = np.stack([M.ravel(order="F"), eye.ravel(order="F")], axis=1)
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        raise ArithmeticError(f"the Stein system of the sign {sign:+d} tail is singular") from None
    if not np.all(np.isfinite(sol)):
        raise ArithmeticError(f"the Stein system of the sign {sign:+d} tail has a non-finite solution")
    X, Y = Z = sol.reshape(J, J, 2).transpose(2, 1, 0)  # sol's two columns, each column-major
    R = np.stack([M, eye]) + T @ Z @ T.conj().T - Z  # the residuals of X and Y as one stack
    growth = 1.0 + _fro(T) ** 2
    r_x, r_y = (
        _fro(R_B) + (4 * J + 8) * _EPS * (_fro(B) + growth * _fro(Z_B))
        for R_B, B, Z_B in zip(R, (M, eye), Z)
    )
    if not r_y < 1.0:
        raise ArithmeticError(
            f"the Stein solve of the sign {sign:+d} tail is too ill-conditioned (residual {r_y:.3e})"
        )
    return X, Y * (r_x / (1.0 - r_y)), float(np.linalg.svd(X, compute_uv=False)[0])


def matrix_power_restricted(S, i: int, k: int) -> np.ndarray:
    """``A_i^k`` for any signed integer k, with ``A_i = A pi_i + (I - pi_i)``
    (i in {1, 2}), by powering that full operator: the route the package
    avoids for long powers, and an independent check of its projected ones
    at small k."""
    p = S.pi(i)
    return np.linalg.matrix_power(S.A.astype(complex) @ p + (np.eye(S.J) - p), k)


# ---------------------------------------------------------------------------
# Synthetic batches
# ---------------------------------------------------------------------------


def batch_from_rows(rows, *, n: int, N: int, ns, master_seed: int = 0) -> BatchResult:
    """The columnar batch whose rows are ``rows``, in order: an aborted row
    gets zero counts and NaN values, and a value a row lacks is NaN."""
    J = next(len(r.z_final) for r in rows if not r.aborted)
    nan = complex(math.nan, math.nan)

    def columns(name):
        keys = sorted({key for r in rows for key in getattr(r, name)})
        return {
            key: np.array([getattr(r, name).get(key, nan) for r in rows], dtype=complex)
            for key in keys
        }

    return BatchResult(
        n=n,
        N=N,
        ns=tuple(ns),
        master_seed=master_seed,
        aborted=np.array([r.aborted for r in rows], dtype=bool),
        z_final=np.array(
            [np.zeros(J, dtype=np.int64) if r.aborted else r.z_final for r in rows], dtype=np.int64
        ),
        w_hat=np.array([math.nan if r.w_hat is None else r.w_hat for r in rows], dtype=float),
        zphi=columns("zphi"),
        T=columns("T"),
    )


# ---------------------------------------------------------------------------
# Block-by-block simulation
# ---------------------------------------------------------------------------


def per_block_columns(plan, master_seed: int, R: int, S, constants) -> dict:
    """The batch columns of R replicates simulated one block at a time, with one
    multinomial call per parent type present and generation, and with W_hat
    (given ``S``) and T (given ``S`` and ``constants``) formed block by block:
    the form ``cmjsim.simulator.run_batch``, which forms them once per batch,
    must equal bit for bit.  ``plan`` is ``cmjsim.simulator._plan(...)``,
    which only gathers the inputs, and T's terms are the library's projected
    powers and normalization, so the check covers the columns, not those
    terms.

    "cells" holds the draws, which the batch does not: the ``(R, outcomes)``
    multinomial counts per ``(generation, type)`` ("offspring") and per
    ``(p, t, k, j)`` noise cell ("noise"), zeros where nothing was drawn."""
    blocks = []
    for b in range(-(-R // BLOCK)):
        seed = np.random.SeedSequence(entropy=master_seed, spawn_key=(b,))
        blocks.append(_one_block(plan, np.random.Generator(np.random.PCG64(seed)), S, constants))

    def join(parts):
        if isinstance(parts[0], dict):
            return {key: join([part[key] for part in parts]) for key in parts[0]}
        return np.concatenate(parts)[:R]

    return join(blocks)


def row_cells(cells: dict, i: int) -> dict:
    """Row i of recorded cells, as ``replay_states`` reads them: each table
    keeps the keys whose counts are not all zero."""
    return {
        part: {key: col[i] for key, col in table.items() if col[i].any()}
        for part, table in cells.items()
    }


def _one_block(plan, rng: np.random.Generator, S, constants) -> dict:
    model, N, B = plan.model, plan.N, BLOCK
    states = np.zeros((N + 1, B, model.J), dtype=np.int64)
    states[0] = model.z0()
    aborted = np.zeros(B, dtype=bool)
    draws_by_g = []
    for g in range(N):
        over = states[g].sum(axis=1) > plan.total_limit
        if over.any():
            aborted |= over
            states[g, over] = 0
        draws = {}
        for j, law in enumerate(model.laws):
            c = states[g, :, j]
            if c.any():
                draws[j] = rng.multinomial(c, law.probs)
                states[g + 1] += draws[j] @ np.asarray(law.counts, dtype=np.int64)
        draws_by_g.append(draws)

    X = states.astype(float)
    if any(phi.coeff for phi in plan.phis):
        dev = X[1:] - X[:-1] @ model.A.T
    zphi = {}
    for p, phi in enumerate(plan.phis):
        for t in plan.ns:
            total = np.zeros(B, dtype=complex)
            for k, row in phi.base.items():
                if 0 <= t - k <= N:
                    total += X[t - k] @ row
            for k, row in phi.coeff.items():
                if 0 <= t - k <= N - 1:
                    total += dev[t - k] @ row
            zphi[(p, t)] = total
    noise_draws = {}
    for p, t, k, j, probs, values in plan.noise:
        c = states[t - k, :, j]
        if c.any():
            noise_draws[(p, t, k, j)] = rng.multinomial(c, probs)
            zphi[(p, t)] += noise_draws[(p, t, k, j)] @ values

    w_hat = np.full(B, np.nan)
    T = {}
    zf = X[N]
    if S is not None:
        w_hat = np.real(zf @ S.v) * S.rho ** (-N)
    if S is not None and constants is not None:
        z0 = model.z0().astype(complex)
        for t in plan.ns:
            mart_row = constants.x1 @ projected_power(S, 1, t - N)
            critical = complex(constants.x2 @ (projected_power(S, 2, t) @ z0))
            r_t = normalization(t, constants.case, constants.l_star, S.rho)
            T[(0, t)] = (zphi[(0, t)] - zf @ mart_row - critical) / r_t
    nan = complex(math.nan, math.nan)
    w_hat[aborted] = np.nan
    for col in (*zphi.values(), *T.values()):
        col[aborted] = nan

    cells = {
        "offspring": {
            (g, j): draws.get(j, np.zeros((B, len(law.probs)), dtype=np.int64))
            for g, draws in enumerate(draws_by_g)
            for j, law in enumerate(model.laws)
        },
        "noise": {
            (p, t, k, j): noise_draws.get((p, t, k, j), np.zeros((B, len(probs)), dtype=np.int64))
            for p, t, k, j, probs, _ in plan.noise
        },
    }
    return {"aborted": aborted, "z_final": states[N], "w_hat": w_hat, "zphi": zphi, "T": T, "cells": cells}


# ---------------------------------------------------------------------------
# The series engine, one term at a time
# ---------------------------------------------------------------------------


def per_term_power_scaled(x, base: float, e) -> np.ndarray:
    """``x[i] * base**(-e[i])`` row by row, where ``x`` has the shape of ``e``
    plus a row shape: the weight by Python's float pow while
    ``|e[i] log base| < 700``, else through the logarithm of the row's peak
    modulus, taken no smaller than the least normal number (a zero row stays
    zero)."""
    x = np.asarray(x)
    e = np.asarray(e, dtype=float)
    log_base = math.log(base)
    out = []
    for row, v in zip(x.reshape(e.size, -1), e.ravel().tolist()):
        if abs(v * log_base) < 700.0:
            out.append(row * base**-v)
            continue
        peak = np.max(np.abs(row))
        scale = max(peak, np.finfo(float).tiny)
        out.append(row / scale * np.exp(np.log(scale) - v * log_base) if peak > 0 else np.zeros_like(row))
    return np.array(out).reshape(x.shape)


def reference_mean_table(phi: Characteristic) -> dict:
    """``E phi(k)`` at every age any table names (coeff ages included), nonzero rows
    only, keyed in increasing age."""
    out = {}
    for k in phi.moments()[0]:
        row = np.zeros(phi.J, dtype=complex)
        if k in phi.base:
            row = row + phi.base[k]
        for (kk, j), law in phi.noise.items():
            if kk == k:
                row[j] += complex(sum(p * v for p, v in zip(law.probs, law.values)))
        if np.any(row != 0):
            out[k] = row
    return out


def reference_noise_variance(phi: Characteristic, k: int) -> np.ndarray:
    """The noise cells' ``E|X - EX|^2`` at age ``k`` per type, cell by cell."""
    var = np.zeros(phi.J, dtype=float)
    for (kk, j), law in phi.noise.items():
        if kk == k:
            m = complex(sum(p * v for p, v in zip(law.probs, law.values)))
            var[j] += float(sum(p * abs(v - m) ** 2 for p, v in zip(law.probs, law.values)))
    return var


def reference_variance(phi: Characteristic, k: int, model: BranchingModel) -> np.ndarray:
    """``Var[phi(k)] e_j`` per type, as E|X - EX|^2 (complex convention): the
    coeff row's ``c C_j c^H`` plus the noise cells'."""
    var = np.zeros(phi.J, dtype=float)
    c = phi.coeff.get(k)
    if c is not None:
        for j in range(phi.J):
            var[j] += float(np.real(c @ model.covs[j] @ c.conj()))
    return var + reference_noise_variance(phi, k)


# ---------------------------------------------------------------------------
# The B(k) table, one row at a time
# ---------------------------------------------------------------------------


def per_lag_b_row(mt: dict, S, k: int) -> tuple[np.ndarray, float]:
    """``B(k)`` and the size ``sum_m |E phi(m)| |P|_F`` of its terms, one lag
    at a time: the mean table's terms for this k alone, in ascending age."""
    row = np.zeros(S.J, dtype=complex)
    size = 0.0
    for m, phi_row in mt.items():
        l = k - 1 - m
        if k <= 0:
            P = -projected_power(S, 1, l) if l < 0 else projected_power(S, 2, l) + projected_power(S, 3, l)
        else:
            P = -(projected_power(S, 1, l) + projected_power(S, 2, l)) if l < 0 else projected_power(S, 3, l)
        row = row + phi_row @ P
        size += _fro(phi_row) * _fro(P)
    return row, size


def eager_b_table(phi: Characteristic, S, model: BranchingModel) -> dict:
    """``{k: B(k)}`` over ``compute_sigma2``'s window, one ``per_lag_b_row``
    call per k in ascending order."""
    return per_cell_sigma2(phi, S, model)[1]


def per_cell_sigma2(phi: Characteristic, S, model: BranchingModel):
    """``(value, {k: B(k)})`` as ``compute_sigma2`` forms them, with each
    age's noise term summed cell by cell, in the noise table's order, and
    each row of the window by its own ``per_lag_b_row`` call; the two tails
    are the library's closed forms on the same first rows."""
    mt = phi.mean_table()
    M = mixing_covariance(model, S.u)
    noise_u: dict[int, float] = {}
    for (k, j), law in phi.noise.items():
        noise_u[k] = noise_u.get(k, 0.0) + float(S.u[j]) * law.variance()

    keys = set(phi.moments()[0]) | {0, 1}
    if mt:
        keys.add(max(mt) + 1)
    lo, hi = min(keys), max(keys)
    ks = np.arange(lo - 1, hi + 2)
    B = np.array([per_lag_b_row(mt, S, k)[0] for k in ks])
    coeff = np.zeros((len(ks), S.J), dtype=complex)
    coeff[[k - lo + 1 for k in phi.coeff]] = np.reshape(list(phi.coeff.values()), (-1, S.J))
    noise = np.zeros(len(ks))
    noise[[k - lo + 1 for k in noise_u]] = list(noise_u.values())
    rows = power_scaled(B + coeff, S.rho, ks / 2)
    terms = (m_norm2(M, rows) + power_scaled(noise, S.rho, ks))[1:-1].tolist()
    up = float(m_norm2(stein_tail(S, M, 1)[0], rows[-1]))
    down = float(m_norm2(stein_tail(S, M, -1)[0], rows[0]))
    return math.fsum([*terms, up, down]), dict(zip(ks[1:-1].tolist(), B[1:-1]))


def phi1_remaining_mass(S, model: BranchingModel, x1, phi1: Characteristic) -> tuple[float, float]:
    """``(value, error)`` of the mass ``sum_{j >= end} |w T^j|_M^2`` that the
    untruncated ``make_phi1(S, x1, model)`` table ``phi1`` leaves past its
    last row, age ``1 - end``: the closed form ``tail_sum`` from the row
    ``w T^end``, with ``w = x1 pi1 A1^{-1}`` and ``T = rho^{1/2} pi1 A1^{-1} pi1``,
    stepped one row at a time.  The row's delta follows ``compute_sigma2``:
    ``(J + 3 + end) eps`` plus the largest residual, relative to the largest
    row formed on the way."""
    end = 1 - min(phi1.coeff, default=1)
    w = np.asarray(x1, dtype=complex).reshape(-1) @ projected_power(S, 1, -1)
    step = S.step(1, -1) * S.sqrt_rho
    size = _fro(w)
    for _ in range(end):
        w = w @ step
        size = max(size, _fro(w))
    delta = ((S.J + 3 + end) * _EPS + max(S.residuals.values())) * size
    return tail_sum(S, mixing_covariance(model, S.u), w, -1, delta)
