"""Spectral tri-partition of the mean matrix relative to sqrt(rho).

Eigenvalues of ``A`` are clustered into generalized eigenspaces and classified
against the critical circle of radius ``sqrt(rho)``:

* super-critical:  |lambda| >  sqrt(rho),
* critical:        |lambda| == sqrt(rho) (within ``DEFAULT_TOL``),
* sub-critical:    |lambda| <  sqrt(rho).

Spectral (oblique) projections come from an ordered complex Schur form built
by deflation in plain numpy: one eigenvalue of the cluster at a time, the
null vector of the shifted trailing block is reflected onto the leading
coordinate, so the cluster fills the leading block of ``T = Q* A Q``.  The
invariant-subspace splitting ``T11 Y - Y T22 = T12`` is one small linear
solve, giving

    pi = Q [[I, Y], [0, 0]] Q*.

Each cluster gets its projection, and each of the three classes one
projection of its own (the union of its clusters), so close clusters inside
one class cost the class projections no accuracy.  The labels are known from
the cluster means first, so every set of one size is deflated as one stack,
item for item the bits of deflating it alone.  A cluster's nilpotent index
is probed with powers of ``A - lambda I`` only for multiplicity two or more:
a simple eigenvalue's Jordan block is 1 x 1.  This is better
conditioned than powering ``(A - lambda I)`` and rank-probing its kernel, and
all stated invariants (partition of unity, idempotency, commutation, mutual
orthogonality) are verified on every decomposition; residuals above
``100 * DEFAULT_TOL`` raise.

Numerical-stability rule used throughout the package: powers of ``A``
restricted to an invariant subspace are NEVER formed by powering a full
matrix and projecting afterwards.  Rounding noise leaks out of the subspace
and is then amplified by ``rho^k``, which destroys the (much smaller)
restricted component.  Instead every restricted power iterates with the
re-projected one-step matrix ``pi A pi`` (or ``pi A1^{-1} pi`` for negative
powers), which re-annihilates the leakage at every step.

The limit constants are two-sided series of ``rho^{-k} |R(k)|_M^2``.  Past a
finite window each tail steps its row scaled by ``rho^{-k/2}`` with one fixed
matrix T, ``rho^{-1/2} pi3 A pi3`` (ascending) or ``rho^{1/2} pi1 A1^{-1} pi1``
(descending), of spectral radius below one.  So a whole tail is the closed
form ``w X w^H`` with X solving the Stein equation ``X = M + T X T^H``
(``stein_tail``), and its error bound comes from the residual of the solve
(``tail_sum``).  Neither ``rho^{-k}`` nor an unscaled row is formed, and no
tail is truncated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EigenCluster",
    "SpectralData",
    "spectral_decompose",
    "projected_power",
    "power_scaled",
    "unscaled",
    "m_norm2",
    "stein_tail",
    "tail_sum",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
_TINY = float(np.finfo(float).tiny)
_LOG_RANGE = 700.0  # |log| of a float64 comfortably inside the normal range

SUPER = "super"
CRITICAL = "critical"
SUB = "sub"


@functools.lru_cache(maxsize=64)
def _eye(n: int, dtype=float) -> np.ndarray:
    """The read-only n x n identity of ``dtype``, made once."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """One eigenvalue cluster: representative value, multiplicity, projection."""

    eigenvalue: complex
    multiplicity: int
    projection: np.ndarray
    nilpotent_index: int
    label: str
    margin: float


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Everything the limit theory needs about the mean matrix.

    ``A1_inv``/``A2_inv`` invert ``A pi_i + (I - pi_i)``, which is ``A`` on the
    super/critical invariant subspace and the identity on the complement.
    ``theta`` is a decay rate with ``|pi3 A^n| <= C theta^n`` for some
    unreported constant C.  ``residuals`` checks the invariants, among them
    the nilpotency of the part N of ``pi2 A``, formed from the critical
    clusters.
    """

    A: np.ndarray
    rho: float
    sqrt_rho: float
    u: np.ndarray
    v: np.ndarray
    clusters: tuple[EigenCluster, ...]
    pi1: np.ndarray
    pi2: np.ndarray
    pi3: np.ndarray
    A1_inv: np.ndarray
    A2_inv: np.ndarray
    theta: float
    residuals: dict
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def J(self) -> int:
        return self.A.shape[0]

    def pi(self, i: int) -> np.ndarray:
        return (self.pi1, self.pi2, self.pi3)[i - 1]

    def step(self, i: int, sign: int = 1) -> np.ndarray:
        """Re-projected one-step matrix ``pi_i A pi_i`` (or its inverse step)."""
        key = ("step", i, sign)
        if key not in self._cache:
            p = self.pi(i)
            if sign >= 0:
                self._cache[key] = p @ self.A.astype(complex) @ p
            else:
                inv = self.A1_inv if i == 1 else self.A2_inv
                if i == 3:
                    raise ValueError("the sub-critical part of A need not be invertible")
                self._cache[key] = p @ inv @ p
        return self._cache[key]


def _cluster_values(eigs: np.ndarray, radius: float) -> list[tuple[complex, list[int]]]:
    """Single-linkage clustering of eigenvalues at the given radius, as
    ``(member mean, members ascending)`` pairs: each value joins, and so
    merges, every group within reach."""
    groups: list[list[int]] = []
    for a in range(len(eigs)):
        near = [g for g in groups if any(abs(eigs[b] - eigs[a]) <= radius for b in g)]
        groups = [g for g in groups if g not in near] + [sorted([*itertools.chain(*near), a])]
    # canonical order: by (-|lambda|, -Re, Im) of the member mean, then the first member
    means = [eigs[g[0]] if len(g) == 1 else np.mean(eigs[g]) for g in groups]
    return sorted(zip(means, groups), key=lambda zg: (-abs(zg[0]), -zg[0].real, zg[0].imag, zg[1]))


def _cluster_projections(A: np.ndarray, eigs: np.ndarray, sets: list[list[int]]) -> list[np.ndarray]:
    """Spectral projection onto the generalized eigenspace of ``eigs[idxs]``
    for each ``idxs`` in ``sets`` (one cluster, or every cluster of a class),
    from an ordered Schur form built by deflation.

    With ``T = A`` and ``Q = I``, each of the s members in turn takes
    the eigenvalue ``lam`` of the trailing block ``T[i:, i:]`` nearest the
    members, the null vector of ``T[i:, i:] - lam I`` (its last right-singular
    vector) and a Householder reflection ``H`` that maps it onto ``e_i``;
    ``T <- H T H`` and ``Q <- Q H`` leave column i upper triangular.  The
    leading ``s x s`` block then carries the cluster, and the splitting
    ``T11 Y - Y T22 = T12`` is one solve of the ``s (J - s)`` Kronecker system,
    giving ``pi = Q [[I, Y], [0, 0]] Q*``.  The sets of one size go through
    these steps as one stack of ``(c, J, J)`` arrays: numpy's stacked linear
    algebra gives each item the bits of a call on that item alone, and the
    scalar Householder phase and ``vdot`` stay per item.

    An eigenvalue is accepted when it is nearer the members than the other
    eigenvalues.  A tighter test would refuse genuine Jordan blocks: the
    trailing eigenvalues of a deflated m-fold block spread by about
    ``eps^(1/m)``.  Otherwise the clustering is inconsistent, and the first
    such set in ``sets`` raises ``ArithmeticError``.
    """
    n = A.shape[0]
    out: list = [_eye(n, complex).copy() if len(idxs) == n else None for idxs in sets]
    errors: dict = {}
    for s in sorted({len(idxs) for idxs in sets} - {n}):
        items = [k for k, idxs in enumerate(sets) if len(idxs) == s]
        idx = np.array([sets[k] for k in items])
        members = eigs[idx]
        inside = np.zeros((len(items), n), dtype=bool)  # members' places in eigs
        inside[np.arange(len(items))[:, None], idx] = True
        T = A.astype(complex)[None].repeat(len(items), axis=0)
        Q = _eye(n, complex)[None].repeat(len(items), axis=0)
        vals = eigs[None].repeat(len(items), axis=0)
        for i in range(s):
            if i:
                vals = np.linalg.eigvals(T[:, i:, i:])
            near = np.abs(vals[:, :, None] - members[:, None, :]).min(axis=2)
            lam = vals[np.arange(len(items)), near.argmin(axis=1)]
            others = np.abs(lam[:, None] - eigs)
            others[inside] = np.inf
            bad = near.min(axis=1) >= others.min(axis=1)
            if bad.any():  # those sets leave the stack; an empty stack runs on to no result
                for j in np.flatnonzero(bad).tolist():
                    errors[items[j]] = ArithmeticError(
                        f"eigenvalue clustering is inconsistent: after {i} of {s} deflations "
                        f"the nearest remaining value {lam[j]:.6g} lies nearer an eigenvalue "
                        f"outside the cluster; the Jordan structure is too ill-conditioned "
                        f"for the requested tolerance"
                    )
                items = [k for k, b in zip(items, bad) if not b]
                members, inside, T, Q, lam = (a[~bad] for a in (members, inside, T, Q, lam))
            x = np.linalg.svd(T[:, i:, i:] - lam[:, None, None] * _eye(n - i))[2][:, -1].conj()
            # H = I - 2 w w* / |w|^2 with w = x + phase(x_0) e_0: no cancellation
            w = x.copy()
            scale = []
            for wj, x0 in zip(w, x[:, 0]):
                wj[0] += x0 / abs(x0) if x0 != 0 else 1.0
                scale.append(2.0 / np.vdot(wj, wj).real)
            H = _eye(n - i) - w[:, :, None] * w.conj()[:, None, :] * np.array(scale)[:, None, None]
            T[:, :, i:] = T[:, :, i:] @ H
            T[:, i:, :] = H @ T[:, i:, :]
            Q[:, :, i:] = Q[:, :, i:] @ H
        T11, T12, T22 = T[:, :s, :s], T[:, :s, s:], T[:, s:, s:]
        # kron(I, T11) - kron(T22^T, I), which acts on Y stacked column by column
        K = _eye(n - s)[:, None, :, None] * T11[:, None, :, None, :]
        K = K - T22.transpose(0, 2, 1)[:, :, None, :, None] * _eye(s)[:, None, :]
        m = s * (n - s)
        Y = np.linalg.solve(K.reshape(len(items), m, m), T12.transpose(0, 2, 1).reshape(len(items), m, 1))
        P = np.zeros((len(items), n, n), dtype=complex)
        P[:, :s, :s] = _eye(s)
        P[:, :s, s:] = Y.reshape(len(items), n - s, s).transpose(0, 2, 1)
        for k, proj in zip(items, Q @ P @ Q.conj().transpose(0, 2, 1)):
            out[k] = proj
    if errors:
        raise errors[min(errors)]
    return out


def _nilpotent_index(A: np.ndarray, lam: complex, proj: np.ndarray, norm_A: float) -> int:
    """Smallest m with (A - lambda I)^m pi = 0, the largest Jordan block size
    (norm_A = |A|_2); probed for a cluster of two or more eigenvalues, since a
    simple eigenvalue's block is 1 x 1."""
    n = A.shape[0]
    shifted = A.astype(complex) - lam * _eye(n)
    scale = max(1.0, norm_A)
    B = proj
    for m in range(1, n + 1):
        B = shifted @ B
        if np.linalg.svd(B, compute_uv=False)[0] <= max(100.0 * DEFAULT_TOL, 1e-6) * scale**m:
            return m
    return n


def _perron_vectors(pi_perron: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right/left Perron vectors from the Perron projection.

    Normalization: sum(v) = 1 and <u, v> = 1, so that E[W | Z_0 = e_i] = v_i
    and Z_n / rho^n -> W u.
    """
    ones = np.ones(pi_perron.shape[0])
    w = pi_perron @ ones
    y = pi_perron.conj().T @ ones
    if np.abs(w.imag).max() > 1e-8 or np.abs(y.imag).max() > 1e-8:
        raise ArithmeticError("Perron projection produced non-real eigenvectors")
    w = w.real
    y = y.real
    total = y.sum()
    if abs(total) > DEFAULT_TOL:
        v = y / total
        wv = w @ v
        if abs(wv) > DEFAULT_TOL:
            return w / wv, v
    raise ArithmeticError("degenerate Perron projection; cannot normalize u, v")


def spectral_decompose(A: np.ndarray) -> SpectralData:
    """Full spectral data for a non-negative square matrix, at the tolerance
    ``tol = DEFAULT_TOL``.

    Eigenvalues whose mutual distance is below the clustering radius are
    merged into one generalized eigenspace.  The radius is the larger of
    ``tol`` and ``64 sqrt(eps) |A|``: a defective pair is split by LAPACK at
    the sqrt(eps) scale, so a literal ``tol``-radius would shatter genuine
    Jordan blocks.  Classification margins against sqrt(rho) still use
    ``tol`` itself.
    """
    tol = DEFAULT_TOL
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    if (A < 0).any():
        raise ValueError("A must be entrywise non-negative")
    n = A.shape[0]
    norm_A = float(np.linalg.svd(A, compute_uv=False)[0])
    if norm_A == 0.0:
        raise ArithmeticError("A is the zero matrix (spectral radius 0): it has no Perron root")

    eigs = np.sort_complex(np.linalg.eigvals(A))
    radius = max(tol, 64.0 * _SQRT_EPS * norm_A)
    groups = _cluster_values(eigs, radius)

    rho = float(np.abs(eigs).max())
    sqrt_rho = math.sqrt(rho)

    # every label is known before any projection is formed
    heads = []
    for mean, idxs in groups:
        lam = complex(mean)
        if abs(lam.imag) <= radius:
            lam = complex(lam.real, 0.0)
        dist = abs(abs(lam) - sqrt_rho)
        label = SUPER if abs(lam) > sqrt_rho + tol else CRITICAL if dist <= tol else SUB
        heads.append((lam, idxs, label, dist))
    # A class of several clusters is projected in one piece: close clusters
    # have large projections whose rounding errors do not cancel in a sum.
    classes = [[k for k, h in enumerate(heads) if h[2] == label] for label in (SUPER, CRITICAL, SUB)]
    unions = [[i for k in ks for i in heads[k][1]] for ks in classes if len(ks) > 1]
    projs = _cluster_projections(A, eigs, [h[1] for h in heads] + unions)
    clusters = [
        EigenCluster(
            eigenvalue=lam,
            multiplicity=len(idxs),
            projection=proj,
            nilpotent_index=1 if len(idxs) == 1 else _nilpotent_index(A, lam, proj, norm_A),
            label=label,
            margin=dist,
        )
        for (lam, idxs, label, dist), proj in zip(heads, projs)
    ]
    union_projs = iter(projs[len(heads):])
    pi1, pi2, pi3 = (
        next(union_projs) if len(ks) > 1 else projs[ks[0]] if ks else np.zeros((n, n), dtype=complex)
        for ks in classes
    )

    eye = _eye(n, complex)
    pi12 = np.array([pi1, pi2])
    A12 = A.astype(complex) @ pi12 + (eye - pi12)
    try:
        A1_inv, A2_inv = np.linalg.inv(A12)
    except np.linalg.LinAlgError:
        # only a zero eigenvalue on the sqrt(rho) circle, i.e. rho = 0
        raise ArithmeticError(
            "A is nilpotent (spectral radius 0): its critical part A pi2 is singular"
        ) from None

    # Perron cluster: largest real eigenvalue on the spectral-radius circle.
    perron = None
    for c in clusters:
        if abs(abs(c.eigenvalue) - rho) <= radius and abs(c.eigenvalue.imag) <= radius:
            if perron is None or c.eigenvalue.real > perron.eigenvalue.real:
                perron = c
    if perron is None:
        raise ArithmeticError("no real eigenvalue found on the spectral-radius circle")
    u, v = _perron_vectors(perron.projection)

    sub_moduli = [abs(c.eigenvalue) for c in clusters if c.label == SUB]
    if sub_moduli and max(sub_moduli) > 0:
        s_max = max(sub_moduli)
        theta = min(1.01 * s_max, 0.5 * (s_max + sqrt_rho))
    else:
        theta = 0.5 * sqrt_rho if sqrt_rho > 0 else 0.5

    residuals = _invariant_residuals(A, clusters, pi1, pi2, pi3, A12[0], A1_inv, u, v, rho)
    worst = max(residuals.values())
    if worst > 100.0 * tol:
        raise ArithmeticError(
            f"projection residual {worst:.3e} exceeds 100*tol = {100.0 * tol:.3e}; "
            f"the Jordan structure of A is too ill-conditioned"
        )

    return SpectralData(
        A=A,
        rho=rho,
        sqrt_rho=sqrt_rho,
        u=u,
        v=v,
        clusters=tuple(clusters),
        pi1=pi1,
        pi2=pi2,
        pi3=pi3,
        A1_inv=A1_inv,
        A2_inv=A2_inv,
        theta=theta,
        residuals=residuals,
    )


def _invariant_residuals(A, clusters, pi1, pi2, pi3, A1, A1_inv, u, v, rho) -> dict:
    """The residual battery of ``spectral_decompose``.  N = pi2 A - D is formed
    on every decomposition (with no critical cluster, pi2 = 0 and N = 0
    exactly); D N = N D needs no key, since every projection commutes with A."""
    n = A.shape[0]
    Ac = A.astype(complex)

    def nrm(M):
        return float(np.abs(M).max(initial=0.0))

    D = sum((c.eigenvalue * c.projection for c in clusters if c.label == CRITICAL), np.zeros_like(Ac))
    res = {
        "partition_of_unity": nrm(pi1 + pi2 + pi3 - _eye(n)),
        "A1_inverse": nrm(A1 @ A1_inv - _eye(n)),
        "eigen_right": nrm(A @ u - rho * u) / max(1.0, rho),
        "eigen_left": nrm(v @ A - rho * v) / max(1.0, rho),
        "N_nilpotent": nrm(np.linalg.matrix_power(pi2 @ Ac - D, n)),
    }
    P = np.array([c.projection for c in clusters])
    res["idempotency"] = nrm(P @ P - P)
    res["commutation"] = nrm(P @ Ac - Ac @ P)
    pairs = P[:, None] @ P[None, :]
    res["mutual_orthogonality"] = nrm(pairs[~_eye(len(P), bool)])
    return res


def projected_power(S: SpectralData, i: int, k: int) -> np.ndarray:
    """The restricted power ``pi_i A^k pi_i`` for any integer k (i in {1, 2}).

    Negative powers use the invertibility of A on the super/critical
    subspaces.  For i = 3 only k >= 0 is defined.  Every power up to |k| is
    cached on the SpectralData instance; a power outside float64 range
    raises a bare ``ArithmeticError``.
    """
    sign = 1 if k >= 0 else -1
    powers = S._cache.get(("pp", i, sign))
    if powers is None:
        powers = S._cache["pp", i, sign] = [S.pi(i)]
    if len(powers) <= abs(k):
        step = S.step(i, sign)
        with np.errstate(over="ignore", invalid="ignore"):  # each power is checked before it is kept
            while len(powers) <= abs(k):
                out = step @ powers[-1]
                if not np.isfinite(out).all():
                    raise ArithmeticError(
                        f"pi{i} A^k pi{i} is not representable in float64 at k={sign * len(powers)}"
                    )
                powers.append(out)
    return powers[abs(k)]


def power_scaled(x, base: float, e) -> np.ndarray:
    """``x[i] * base**(-e[i])`` for rows or scalars ``x[i]`` (or one ``x`` and
    one ``e``).

    Where the weight alone would leave float64 range, which happens long
    before the product does (a row of size ``s1^k`` meets ``rho^{-k}`` at
    k = -3000), it is formed through logarithms; inside that range it is
    formed directly, so exact powers stay exact.  A product beyond float64
    range comes back non-finite.
    """
    x = np.asarray(x)
    e = np.asarray(e, dtype=float)
    e_rows = e.reshape(e.shape + (1,) * (x.ndim - e.ndim))
    log_base = math.log(base)
    # Python float pow, term by term: np.power may differ from it in the last bit
    exponents = (-e).ravel().tolist()
    if abs(max(map(abs, exponents), default=0.0) * log_base) < _LOG_RANGE:  # |e log base| grows with |e|
        return x * np.array(list(map(pow, itertools.repeat(base), exponents))).reshape(e_rows.shape)
    far = ~(np.abs(e_rows * log_base) < _LOG_RANGE)
    weight = np.ones(e_rows.shape)
    weight[~far] = list(map(pow, itertools.repeat(base), (-e_rows[~far]).tolist()))
    with np.errstate(all="ignore"):
        peak = np.max(np.abs(x), axis=tuple(range(e.ndim, x.ndim)), keepdims=True)
        # numpy divides a complex by a real through 1 / peak, which overflows
        # where peak is subnormal: divide by the least normal number there
        scale = np.maximum(peak, _TINY)
        via_log = np.where(peak > 0, x / scale * np.exp(np.log(scale) - e_rows * log_base), 0.0)
        return np.where(far, via_log, x * weight)


def unscaled(S: SpectralData, W: np.ndarray, ks) -> list:
    """The rows ``rho^{k/2} W[i]`` behind rows scaled by ``rho^{-k/2}``, with
    None where a row lies outside float64's normal range: it overflows, or a
    nonzero row falls below the smallest normal number, where it has lost
    digits or underflowed to zero."""
    R = power_scaled(W, S.rho, -np.asarray(ks) / 2)
    normal = np.abs(R).max(axis=1, initial=0.0) >= _TINY
    ok = np.all(np.isfinite(R), axis=1) & (normal | ~np.any(W != 0, axis=1))
    rows = list(R)
    for i in np.flatnonzero(~ok).tolist():
        rows[i] = None
    return rows


def m_norm2(M: np.ndarray, w: np.ndarray):
    """``|w|_M^2 = w M w^H`` for a row, or for each row of a stack; with
    ``M = sum_j u_j Cov L^(j)`` this is the u-weighted variance of ``w . L``."""
    return ((w @ M) * w.conj()).sum(axis=-1).real


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the spectral norm (a row's 2-norm)."""
    return math.sqrt(np.vdot(x, x).real)


def stein_tail(S: SpectralData, M: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``(X, E, |X|_2)`` for the series tails ``sum_{j>=0} |w T^j|_M^2 = w X w^H``.

    ``T`` is the scaled tail step, ``rho^{-1/2} pi3 A pi3`` (``sign = +1``)
    or ``rho^{1/2} pi1 A1^{-1} pi1`` (``sign = -1``).  Both have spectral
    radius below one (max|sub|/sqrt(rho) and sqrt(rho)/min|super|), so X is
    the one solution of the Stein equation ``X = M + T X T^H`` and Y that of
    ``Y = I + T Y T^H``: one complex ``(J^2 x J^2)`` Kronecker solve with
    the two right-hand sides.  Both signs are solved at the first call
    (``_stein_solve``) and cached on ``S`` as one entry per M.  The two tails
    of one M are refused together: a refusal of either sign raises for both,
    naming the first refused sign (+1, then -1), and nothing is cached.

    The residual ``R = M + T X T^H - X`` of the computed X makes the exact
    tail differ from ``w X w^H`` by ``w (sum_j T^j R T^jH) w^H``, which is at
    most ``|R|_2 w Y w^H``; Y's own residual ``r_Y < 1`` puts the exact
    ``w Y w^H`` below the computed one over ``1 - r_Y``.  So
    ``E = r_X Y / (1 - r_Y)`` and ``w E w^H`` bounds the error of the tail
    at an exact first row w.  Each ``r`` is the Frobenius norm of the formed
    residual plus a bound on the roundoff of forming it.  A singular or
    non-finite system, or ``r_Y >= 1``, raises a bare ``ArithmeticError``.
    """
    key = ("stein", M.tobytes())
    if key not in S._cache:
        S._cache[key] = _stein_solve(S, M, (1, -1))
    return S._cache[key][sign]


def _stein_solve(S: SpectralData, M: np.ndarray, signs: tuple) -> dict:
    """``stein_tail``'s triple of M for each sign of ``signs``, as one stacked
    Kronecker solve (numpy gives each item the bits of a solve on it alone).
    A singular system or a non-finite solution sends each sign to a solve of
    its own, in order, so the first refused sign raises."""
    J = S.J
    eye = _eye(J, complex)
    T = np.array([S.step(3, 1) / S.sqrt_rho if sign > 0 else S.step(1, -1) * S.sqrt_rho for sign in signs])
    # vec(T X T^H) = (conj(T) kron T) vec(X), vec stacking columns
    K = _eye(J * J) - (T.conj()[:, :, None, :, None] * T[:, None, :, None, :]).reshape(len(T), J * J, J * J)
    rhs = np.array([M.ravel(order="F"), eye.ravel(order="F")]).T
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.isfinite(sol).all():
        if len(signs) > 1:
            return {sign: _stein_solve(S, M, (sign,))[sign] for sign in signs}
        problem = "is singular" if sol is None else "has a non-finite solution"
        raise ArithmeticError(f"the Stein system of the sign {signs[0]:+d} tail {problem}")
    Z = sol.reshape(len(T), J, J, 2).transpose(0, 3, 2, 1)  # each sol's two columns, column-major
    # the residuals of X and Y for each sign, as one stack
    R = np.array([M, eye]) + T[:, None] @ Z @ T.conj().transpose(0, 2, 1)[:, None] - Z
    fro_B = (_fro(M), _fro(eye))
    tails = []
    for sign, T_s, R_s, Z_s in zip(signs, T, R, Z):
        growth = 1.0 + _fro(T_s) ** 2
        r_x, r_y = (
            _fro(R_B) + (4 * J + 8) * _EPS * (f_B + growth * _fro(Z_B))
            for R_B, f_B, Z_B in zip(R_s, fro_B, Z_s)
        )
        if not r_y < 1.0:
            raise ArithmeticError(
                f"the Stein solve of the sign {sign:+d} tail is too ill-conditioned (residual {r_y:.3e})"
            )
        tails.append((Z_s[0], Z_s[1] * (r_x / (1.0 - r_y))))
    x_norms = np.linalg.svd(np.array([X for X, _ in tails]), compute_uv=False)[:, 0]
    return {sign: (X, E, float(x_norm)) for sign, (X, E), x_norm in zip(signs, tails, x_norms)}


def tail_sum(S: SpectralData, M: np.ndarray, w: np.ndarray, sign: int, delta: float) -> tuple[float, float]:
    """``(value, error)`` of the tail ``sum_{j>=0} |w T^j|_M^2 = w X w^H``
    (``stein_tail``) from a first row w formed within ``delta`` (in norm) of
    its exact value: the error is ``|w E w^H|`` plus the row-error term
    ``(2 |w| delta + delta^2) |X|_2``."""
    X, E, x_norm = stein_tail(S, M, sign)
    row_error = (2.0 * _fro(w) * delta + delta * delta) * x_norm
    return float(m_norm2(X, w)), abs(float(m_norm2(E, w))) + row_error
