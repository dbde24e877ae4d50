"""Spectral splitting: projections, restricted powers, labels, and stability.

The invariant battery runs over a dozen hand-picked mean matrices covering
one type, symmetric pairs, a true Jordan block on the half-power circle, a
complex critical triple, reducible/triangular cases, repeated roots, and the
spectral-radius-one boundary.  The projections are also compared with
LAPACK's ordered Schur form (``oracles.schur_cluster_projection``, swapped in
for each set ``spectral._cluster_projections`` is given) on that suite and
on a seeded sweep of random non-negative matrices, and bit for bit with the
one-set deflation (``oracles.deflation_cluster_projection``) that the
stacked pass replaces.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cmjsim import spectral
from cmjsim.spectral import (
    CRITICAL,
    SUB,
    SUPER,
    EigenCluster,
    SpectralData,
    projected_power,
    spectral_decompose,
)
from cmjsim import PRESETS, build_model
from oracles import matrix_power_restricted

SUITE = {
    "one_type_doubling": [[2.0]],
    "symmetric_mirror": [[3.0, 1.0], [1.0, 3.0]],
    "jordan_on_half_circle": [[2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [1.0, 1.0, 3.0]],
    "cross_feed": [[2.0, 1.0], [1.0, 2.0]],
    "three_scale": [
        [31 / 6, 8 / 3, 7 / 6],
        [8 / 3, 11 / 3, 8 / 3],
        [7 / 6, 8 / 3, 31 / 6],
    ],
    "cycle_of_three": [[0.0, 0.0, 8.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
    "loop_plus_complex_critical_cycle": [
        [4.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 2.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
    ],
    "triangular_leaky": [[2.0, 1.0], [0.0, 1.0]],
    "repeated_root_scalar": [[2.0, 0.0], [0.0, 2.0]],
    "radius_one_boundary": [[0.0, 1.0], [0.0, 1.0]],
    "pure_swap": [[0.0, 1.0], [1.0, 0.0]],
    "asymmetric_leak": [[3.0, 2.0], [1.0, 2.0]],
}


@pytest.fixture(scope="module", params=sorted(SUITE))
def decomposed(request):
    A = np.array(SUITE[request.param], dtype=float)
    return request.param, A, spectral_decompose(A)


def test_partition_of_unity(decomposed):
    _, A, S = decomposed
    eye = np.eye(S.J)
    assert np.max(np.abs(S.pi1 + S.pi2 + S.pi3 - eye)) < 1e-10


def test_projections_idempotent_and_disjoint(decomposed):
    _, A, S = decomposed
    for i in (1, 2, 3):
        p = S.pi(i)
        assert np.max(np.abs(p @ p - p)) < 1e-10
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                assert np.max(np.abs(S.pi(i) @ S.pi(j))) < 1e-10


def test_projections_commute_with_mean_matrix(decomposed):
    _, A, S = decomposed
    for i in (1, 2, 3):
        p = S.pi(i)
        assert np.max(np.abs(A @ p - p @ A)) < 1e-10


def test_cluster_projections_sum_and_traces(decomposed):
    _, A, S = decomposed
    total = sum(c.projection for c in S.clusters)
    assert np.max(np.abs(total - np.eye(S.J))) < 1e-10
    assert sum(c.multiplicity for c in S.clusters) == S.J
    for c in S.clusters:
        assert np.trace(c.projection).real == pytest.approx(c.multiplicity, abs=1e-8)
        assert abs(np.trace(c.projection).imag) < 1e-8


def test_invertible_parts_have_true_inverses(decomposed):
    _, A, S = decomposed
    assert S.residuals["A1_inverse"] < 1e-9
    assert np.max(np.abs(S.step(2, -1) @ S.step(2, 1) - S.pi2)) < 1e-9


def test_nilpotent_part_annihilates(decomposed):
    _, A, S = decomposed
    assert S.residuals["N_nilpotent"] < 1e-10


def test_critical_part_splits_into_diagonalizable_plus_nilpotent(decomposed):
    # N is pi2 A - D, so D + N = pi2 A holds when pi2 A pi2 = pi2 A
    _, A, S = decomposed
    assert np.max(np.abs(S.pi2 @ A @ S.pi2 - S.pi2 @ A)) < 1e-9


def test_perron_vectors_conventions(decomposed):
    _, A, S = decomposed
    assert S.rho > 0
    assert np.max(np.abs(A @ S.u - S.rho * S.u)) < 1e-8 * max(1.0, S.rho)
    assert np.max(np.abs(S.v @ A - S.rho * S.v)) < 1e-8 * max(1.0, S.rho)
    assert np.sum(S.v) == pytest.approx(1.0, abs=1e-10)
    assert float(S.u @ S.v) == pytest.approx(1.0, abs=1e-10)
    assert np.all(S.u >= -1e-12) and np.all(S.v >= -1e-12)


def test_labels_respect_half_power_circle(decomposed):
    _, A, S = decomposed
    for c in S.clusters:
        mod = abs(c.eigenvalue)
        assert c.margin >= -1e-12
        if c.label == SUPER:
            assert mod > S.sqrt_rho
        elif c.label == SUB:
            assert mod < S.sqrt_rho
        else:
            assert c.label == CRITICAL
            assert abs(mod - S.sqrt_rho) <= 0.5 * max(
                spectral.DEFAULT_TOL, 64 * np.finfo(float).eps * np.linalg.norm(A)
            ) + 1e-12


def test_residual_certificates_are_small(decomposed):
    _, A, S = decomposed
    assert S.residuals
    assert max(S.residuals.values()) <= 100 * spectral.DEFAULT_TOL


def test_expected_labels_on_landmark_matrices():
    def labels(name):
        S = spectral_decompose(np.array(SUITE[name]))
        return {k: sum(c.label == k for c in S.clusters) for k in (SUPER, CRITICAL, SUB)}

    assert labels("one_type_doubling") == {SUPER: 1, CRITICAL: 0, SUB: 0}
    assert labels("symmetric_mirror") == {SUPER: 1, CRITICAL: 1, SUB: 0}
    assert labels("jordan_on_half_circle") == {SUPER: 1, CRITICAL: 1, SUB: 0}
    assert labels("cross_feed") == {SUPER: 1, CRITICAL: 0, SUB: 1}
    # spectrum {9, 4, 1}: both 9 and 4 exceed sqrt(9) = 3
    assert labels("three_scale") == {SUPER: 2, CRITICAL: 0, SUB: 1}
    # 2 * (cube roots of unity) all sit exactly on the half-power circle of rho=4
    assert labels("loop_plus_complex_critical_cycle") == {SUPER: 1, CRITICAL: 3, SUB: 0}
    assert labels("triangular_leaky") == {SUPER: 1, CRITICAL: 0, SUB: 1}
    assert labels("repeated_root_scalar") == {SUPER: 1, CRITICAL: 0, SUB: 0}
    assert labels("pure_swap") == {SUPER: 0, CRITICAL: 2, SUB: 0}
    assert labels("radius_one_boundary") == {SUPER: 0, CRITICAL: 1, SUB: 1}


def test_jordan_block_frozen_decomposition():
    """Frozen exact decomposition of the half-circle Jordan model."""
    A = np.array(SUITE["jordan_on_half_circle"])
    S = spectral_decompose(A)
    assert S.rho == pytest.approx(4.0, abs=1e-10)
    pi_super = np.array([[0.25, 0.25, 0.25], [0.25, 0.25, 0.25], [0.5, 0.5, 0.5]])
    assert np.max(np.abs(S.pi1 - pi_super)) < 1e-9
    assert np.max(np.abs(S.pi2 - (np.eye(3) - pi_super))) < 1e-9
    assert np.allclose(S.u, [0.75, 0.75, 1.5], atol=1e-9)
    assert np.allclose(S.v, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)
    crit = [c for c in S.clusters if c.label == CRITICAL]
    assert len(crit) == 1 and crit[0].nilpotent_index == 2
    assert crit[0].eigenvalue == pytest.approx(2.0, abs=1e-9)
    N = (A - crit[0].eigenvalue * np.eye(3)) @ crit[0].projection
    N_expected = np.array([[-0.5, -0.5, 0.5], [0.5, 0.5, -0.5], [0.0, 0.0, 0.0]])
    assert np.max(np.abs(N - N_expected)) < 1e-9
    assert np.max(np.abs(N @ N)) < 1e-12


@pytest.mark.parametrize(
    "name", ["symmetric_mirror", "jordan_on_half_circle", "asymmetric_leak", "cycle_of_three"]
)
def test_perron_data_against_sympy_exact(name):
    A = np.array(SUITE[name])
    S = spectral_decompose(A)
    M = sympy.Matrix([[sympy.nsimplify(x, rational=True) for x in row] for row in SUITE[name]])
    eigs = M.eigenvals()
    rho_exact = max(eigs, key=lambda e: abs(complex(sympy.N(e, 30))))
    assert S.rho == pytest.approx(float(sympy.N(rho_exact, 30)), rel=1e-10)

    # Right/left Perron vectors, renormalized to the package conventions.
    u_vecs = (M - rho_exact * sympy.eye(M.rows)).nullspace()
    v_vecs = (M.T - rho_exact * sympy.eye(M.rows)).nullspace()
    assert len(u_vecs) == 1 and len(v_vecs) == 1
    u = sympy.Matrix(u_vecs[0])
    v = sympy.Matrix(v_vecs[0])
    v = v / sum(v)
    u = u / (v.dot(u))
    u_num = np.array([float(sympy.N(x, 30)) for x in u])
    v_num = np.array([float(sympy.N(x, 30)) for x in v])
    assert np.allclose(S.u, u_num, atol=1e-9)
    assert np.allclose(S.v, v_num, atol=1e-9)


def test_restricted_powers_match_brute_force_small_k(decomposed):
    _, A, S = decomposed
    for i in (1, 2):
        if np.max(np.abs(S.pi(i))) < 1e-12:
            continue
        for k in range(0, 11):
            brute = np.linalg.matrix_power(A, k) @ S.pi(i)
            fast = projected_power(S, i, k)
            scale = max(1.0, np.max(np.abs(brute)))
            assert np.max(np.abs(fast - brute)) < 1e-8 * scale


def test_negative_powers_invert_positive_ones(decomposed):
    _, A, S = decomposed
    for i in (1, 2):
        if np.max(np.abs(S.pi(i))) < 1e-12:
            continue
        for k in (1, 3, 7, 10):
            back = projected_power(S, i, -k) @ projected_power(S, i, k)
            assert np.max(np.abs(back - S.pi(i))) < 1e-8


def test_restricted_powers_on_random_vectors():
    A = np.array(SUITE["jordan_on_half_circle"])
    S = spectral_decompose(A)
    rng = np.random.default_rng(515)
    for _ in range(20):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        for k in range(0, 11):
            brute = np.linalg.matrix_power(A, k) @ (S.pi2 @ x)
            fast = projected_power(S, 2, k) @ x
            assert np.max(np.abs(fast - brute)) < 1e-8 * max(1.0, np.max(np.abs(brute)))


def test_full_operator_powers_assemble_from_projected_steps():
    A = np.array(SUITE["symmetric_mirror"])
    S = spectral_decompose(A)
    for k in (-6, -1, 0, 1, 6):
        M1 = matrix_power_restricted(S, 1, k)
        # A1 = A pi1 + (I - pi1); its k-th power acts as A^k on range(pi1).
        assert np.max(np.abs(M1 @ S.pi1 - projected_power(S, 1, k))) < 1e-9
        assert np.max(np.abs(M1 @ (np.eye(2) - S.pi1) - (np.eye(2) - S.pi1))) < 1e-9


def test_subcritical_decay_bound_holds_out_to_eighty(decomposed):
    # theta is the decay rate that assumption_sums weighs by: every
    # sub-critical eigenvalue lies inside it, and it lies inside sqrt(rho).
    _, A, S = decomposed
    if np.max(np.abs(S.pi3)) < 1e-12:
        return
    assert S.theta < S.sqrt_rho + 1e-12
    assert all(abs(c.eigenvalue) <= S.theta for c in S.clusters if c.label == "sub")


def test_rank_deficient_two_point_mean_decomposes():
    # LAPACK returns the null eigenvalue of this matrix as ~2.2e-16, so theta
    # is that small too and theta**40 underflows to zero; neither the
    # decomposition nor the constants may divide by a power of it.
    from cmjsim import build_model, compute_constants

    data = {
        "types": 2,
        "initial_type": 1,
        "offspring": {
            1: [{"p": "1/2", "counts": [3, 1]}, {"p": "1/2", "counts": [3, 2]}],
            2: [{"p": "1/2", "counts": [1, 0]}, {"p": "1/2", "counts": [3, 2]}],
        },
    }
    model = build_model(data)
    assert np.allclose(model.A, [[3, 2], [1.5, 1]])
    S = spectral_decompose(model.A)
    assert S.rho == pytest.approx(4.0)
    a = np.array([1.0, -2.0])
    c = compute_constants(a - (a @ S.u) * S.v, S, model)
    assert np.isfinite(c.sigma2) and np.isfinite(c.sigma2_error)
    assert abs(c.sigma2 - c.sigma_star2) <= c.sigma2_error + c.sigma_star2_error + 1e-9 * c.sigma2


def test_symmetric_matrices_get_real_projections():
    S = spectral_decompose(np.array(SUITE["symmetric_mirror"]))
    for name in ("pi1", "pi2", "pi3"):
        M = getattr(S, name)
        assert np.max(np.abs(np.asarray(M).imag)) < 1e-12


def test_negative_entries_are_rejected():
    with pytest.raises(ValueError):
        spectral_decompose(np.array([[0.0, -1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(bad):
    with pytest.raises(ValueError, match="A must be finite"):
        spectral_decompose(np.array([[2.0, bad], [1.0, 2.0]]))


def _groups(eigs, radius):
    """The clusters of ``spectral._cluster_values``, after checking that each
    comes with its members' mean."""
    pairs = spectral._cluster_values(eigs, radius)
    for mean, idxs in pairs:
        assert mean == np.mean(eigs[idxs])
    return [idxs for _, idxs in pairs]


@pytest.mark.parametrize("eigs", [[0.0, 0.9, 1.8], [0.0, 1.8, 0.9], [1.8, 0.0, 0.9]])
def test_clustering_links_a_chain_into_one_cluster(eigs):
    # |a - b| and |b - c| are within the radius, |a - c| is not; in the last
    # two orders the middle value comes last and joins two clusters
    assert _groups(np.array(eigs, dtype=complex), 1.0) == [[0, 1, 2]]


def test_clustering_keeps_distant_values_apart():
    # canonical order: modulus descending, then real part descending, then imaginary ascending
    eigs = np.array([3.0, 0.0, 2 + 1.5j, 2 - 1.5j, 1.5], dtype=complex)
    assert _groups(eigs, 1.0) == [[0], [3], [2], [4], [1]]


def test_clustering_equals_union_find_on_random_values():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        # half-integer grid: repeated values, exact-radius links and long chains
        eigs = (rng.integers(-6, 7, n) + 1j * rng.integers(-3, 4, n)) * 0.5
        assert _groups(eigs, 1.0) == oracles.union_find_clusters(eigs, 1.0)


def test_stacked_residuals_equal_the_per_cluster_loop(decomposed):
    _, A, S = decomposed
    for key, value in oracles.per_cluster_residuals(S).items():
        assert S.residuals[key] == value, key


def test_defective_radius_root_is_refused():
    # [[2,0],[1,2]] has a genuine Jordan block at the spectral radius, so the
    # right/left radius eigenvectors are orthogonal and no meaningful
    # martingale normalization exists; the decomposition must refuse loudly.
    with pytest.raises(ArithmeticError):
        spectral_decompose(np.array([[2.0, 0.0], [1.0, 2.0]]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda j: st.lists(
            st.lists(st.integers(0, 4), min_size=j, max_size=j), min_size=j, max_size=j
        )
    )
)
def test_random_nonnegative_matrices_satisfy_invariants(rows):
    A = np.array(rows, dtype=float)
    r = max(abs(np.linalg.eigvals(A)))
    assume(r > 1.05)
    try:
        S = spectral_decompose(A)
    except ArithmeticError:
        # defective or near-defective radius root: refusal is the contract
        assume(False)
    eye = np.eye(S.J)
    assert np.max(np.abs(S.pi1 + S.pi2 + S.pi3 - eye)) < 1e-8
    for i in (1, 2, 3):
        p = S.pi(i)
        assert np.max(np.abs(p @ p - p)) < 1e-8
        assert np.max(np.abs(A @ p - p @ A)) < 1e-8
    assert S.residuals["A1_inverse"] < 1e-8
    assert float(S.u @ S.v) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("A", [[[0, 1], [0, 0]], [[0, 2, 1], [0, 0, 3], [0, 0, 0]]])
def test_nilpotent_matrix_is_refused_as_arithmetic_error(A):
    # numpy's singular-matrix error is a ValueError; the refusal must not be
    with pytest.raises(ArithmeticError, match="nilpotent") as info:
        spectral_decompose(np.array(A, dtype=float))
    assert type(info.value) is ArithmeticError


def test_zero_matrix_is_refused_as_arithmetic_error():
    with pytest.raises(ArithmeticError, match="A is the zero matrix") as info:
        spectral_decompose(np.zeros((2, 2)))
    assert type(info.value) is ArithmeticError
    with pytest.raises(ValueError, match="A must be square"):
        spectral_decompose(np.zeros((2, 3)))


# -- agreement with the LAPACK ordered-Schur projector --------------------------


def _oracle_matrices(seed: int, count: int):
    """Non-negative 1-6 type matrices, in turn: small integers, sparse floats
    with three decimals (exact zeros and tiny entries), and upper triangular
    with repeated diagonals (Jordan blocks)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        J = int(rng.integers(1, 7))
        kind = len(out) % 3
        if kind == 0:
            A = rng.integers(0, 5, (J, J)).astype(float)
        elif kind == 1:
            A = np.round(4 * rng.random((J, J)) * (rng.random((J, J)) < 0.5), 3)
        else:
            A = np.triu(rng.integers(0, 3, (J, J)).astype(float), 1)
            A[np.diag_indices(J)] = rng.choice([1.0, 2.0, 3.0], size=J)
        if np.any(A):
            out.append(A)
    return out


def _decompose_or_refusal(A):
    try:
        return spectral_decompose(A)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        return type(exc)


def _against_oracle(A, monkeypatch, projection=oracles.schur_cluster_projection, outcome=_decompose_or_refusal):
    """(library outcome, outcome with each set's projection taken from the
    oracle ``projection``, one set at a time in the order they are given)."""
    ours = outcome(A)
    with monkeypatch.context() as m:
        m.setattr(spectral, "_cluster_projections", lambda A, eigs, sets: [projection(A, eigs, s) for s in sets])
        ref = outcome(A)
    return ours, ref


def _pi_gap(ours, ref):
    return max(float(np.max(np.abs(ours.pi(i) - ref.pi(i)))) for i in (1, 2, 3))


@pytest.mark.parametrize("name", sorted(SUITE))
def test_projectors_match_lapack_oracle_on_suite(name, monkeypatch):
    ours, ref = _against_oracle(np.array(SUITE[name], dtype=float), monkeypatch)
    assert isinstance(ours, SpectralData) and isinstance(ref, SpectralData)
    assert _pi_gap(ours, ref) <= 1e-9
    for a, b in zip(ours.clusters, ref.clusters):
        assert np.max(np.abs(a.projection - b.projection)) <= 1e-9


def test_projectors_match_lapack_oracle_on_seeded_sweep(monkeypatch):
    accepted = 0
    for A in _oracle_matrices(seed=2026, count=500):
        ours, ref = _against_oracle(A, monkeypatch)
        if isinstance(ref, SpectralData):
            assert isinstance(ours, SpectralData), (A.tolist(), ours)
            assert _pi_gap(ours, ref) <= 1e-9, A.tolist()
            accepted += 1
        else:
            assert ours is ref, (A.tolist(), ours, ref)
    assert accepted >= 350


def test_fourfold_jordan_block_decomposes(monkeypatch):
    # the trailing eigenvalues of a deflated m-fold block spread by about
    # eps^(1/m), so a cluster test at half the clustering radius refuses this
    A = np.array(
        [[2, 1, 1, 2, 1], [0, 1, 1, 1, 2], [0, 0, 1, 2, 2], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]],
        dtype=float,
    )
    ours, ref = _against_oracle(A, monkeypatch)
    assert isinstance(ours, SpectralData) and isinstance(ref, SpectralData)
    assert _pi_gap(ours, ref) <= 1e-9
    sub = [c for c in ours.clusters if c.label == SUB]
    assert len(sub) == 1 and sub[0].multiplicity == 4 and sub[0].nilpotent_index == 4


def _outcome(A):
    try:
        return spectral_decompose(A)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _preset_matrices():
    return [build_model(PRESETS[name]["model"]).A for name in PRESETS]


def _bitwise_against_one_set_deflation(A, monkeypatch):
    """Decompose A with the stacked pass and with the one-set deflation per
    set; every projection must carry the same bits, a refusal the same type
    and message.  Returns the stacked result."""
    ours, ref = _against_oracle(A, monkeypatch, oracles.deflation_cluster_projection, _outcome)
    if not isinstance(ref, SpectralData):
        assert ours == ref, A.tolist()
        return ours
    assert isinstance(ours, SpectralData), (A.tolist(), ours)
    assert len(ours.clusters) == len(ref.clusters)
    for a, b in zip(ours.clusters, ref.clusters):
        assert np.array_equal(a.projection, b.projection), A.tolist()
        assert a.nilpotent_index == b.nilpotent_index
    for i in (1, 2, 3):
        assert np.array_equal(ours.pi(i), ref.pi(i)), A.tolist()
    assert np.array_equal(ours.A1_inv, ref.A1_inv) and np.array_equal(ours.A2_inv, ref.A2_inv)
    return ours


def test_stacked_deflation_equals_one_set_deflation_on_suite_and_presets(monkeypatch):
    for A in [np.array(SUITE[name], dtype=float) for name in sorted(SUITE)] + _preset_matrices():
        assert isinstance(_bitwise_against_one_set_deflation(A, monkeypatch), SpectralData)


def test_stacked_deflation_equals_one_set_deflation_on_seeded_sweep(monkeypatch):
    # the oracle sweep's kinds, and integer means of up to five types, whose
    # repeated and conjugate eigenvalues fill classes of several clusters
    rng = np.random.default_rng(31)
    matrices = _oracle_matrices(seed=2031, count=400)
    matrices += [rng.integers(0, 4, (J, J)).astype(float) for J in rng.integers(2, 6, 200)]
    seen = {"jordan": 0, "complex": 0, "union": 0, "simple": 0, "refused": 0}
    for A in matrices:
        S = _bitwise_against_one_set_deflation(A, monkeypatch)
        if not isinstance(S, SpectralData):
            seen["refused"] += 1
            continue
        seen["jordan"] += any(c.nilpotent_index > 1 for c in S.clusters)
        seen["complex"] += any(c.eigenvalue.imag != 0 for c in S.clusters)
        seen["union"] += len(S.clusters) > len({c.label for c in S.clusters})
        norm_A = float(np.linalg.norm(A, 2))
        for c in S.clusters:
            if c.multiplicity == 1:
                # a simple eigenvalue's Jordan block is 1 x 1: the probe agrees
                assert oracles.probe_nilpotent_index(A, c.eigenvalue, c.projection, norm_A) == 1
                seen["simple"] += 1
    assert min(seen.values()) >= 5, seen


def test_first_failing_set_in_the_given_order_raises():
    # eigs = (2, 2, 3, 5): a set holding one of the two 2s is inconsistent at
    # its first deflation; the set of size 2 fails in a later stack than the
    # set of size 1, yet the set given first must raise, with its own message
    A = np.diag([2.0, 2.0, 3.0, 5.0])
    eigs = np.sort_complex(np.linalg.eigvals(A))
    for sets in ([[3], [0, 2], [1]], [[3], [1], [0, 2]], [[0, 2], [2, 3]]):
        with pytest.raises(ArithmeticError) as want:
            [oracles.deflation_cluster_projection(A, eigs, s) for s in sets]
        with pytest.raises(ArithmeticError) as got:
            spectral._cluster_projections(A, eigs, sets)
        assert type(got.value) is ArithmeticError and str(got.value) == str(want.value)
    assert "after 0 of 2 deflations" in str(got.value)


# ---------------------------------------------------------------------------
# The series engine against its one-term-at-a-time references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [4.0, 2.5, 1.37, 0.6])
def test_power_scaled_matches_python_pow_term_by_term(base):
    # rho-sized and theta-sized bases; |e log base| runs from 0 far past 700
    rng = np.random.default_rng(17)
    e = np.arange(-6000, 6001) / 2
    rows = rng.standard_normal((e.size, 3)) + 1j * rng.standard_normal((e.size, 3))
    rows[::7] *= 1e-200
    rows[5] = 0.0
    scalars = rng.standard_normal(e.size) * 10.0 ** rng.integers(-30, 30, e.size)
    far = e.size - 1  # |e log base| beyond 700 for every base
    cases = [(rows, e), (rows[:6000], e[:6000]), (rows[6001:], e[6001:]), (scalars, e),
             (scalars[6001:], e[6001:]), (rows[3], e[3]), (rows[3], e[far]), (rows[5], e[far]),
             (scalars[0], e[0]), (scalars[0], e[far]), (scalars[6000], e[6000])]
    for x, ee in cases:
        with np.errstate(over="ignore"):  # products past float64 range are inf on both sides
            got = spectral.power_scaled(x, base, ee)
            want = oracles.per_term_power_scaled(x, base, ee)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_power_scaled_takes_a_subnormal_complex_row_as_the_real_one():
    # 1.5^1792.5 is beyond float64, the row's peak below its normal range
    x = np.array([[5e-324, -5e-324]])
    e = np.array([-1792.5])
    real = spectral.power_scaled(x, 1.5, e)
    cplx = spectral.power_scaled(x + 0j, 1.5, e)
    assert not cplx.imag.any() and cplx.real.tolist() == real.tolist()
    want = math.exp(math.log(5e-324) + 1792.5 * math.log(1.5))
    assert real.ravel().tolist() == pytest.approx([want, -want], rel=1e-12)
    assert cplx.tobytes() == oracles.per_term_power_scaled(x + 0j, 1.5, e).tobytes()


def test_unscaled_matches_per_term_rows(cross_feed):
    S = cross_feed.S  # rho = 3: its half powers are not exact
    rng = np.random.default_rng(5)
    ks = np.arange(-2500, 2501)
    W = rng.standard_normal((ks.size, S.J)) * 10.0 ** rng.integers(-300, 300, (ks.size, 1)) + 0j
    W[::11] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # rows past float64 range are dropped
        got = spectral.unscaled(S, W, ks)
        want = oracles.per_term_unscaled(S.rho, W, ks)
    dropped = [g is None for g in got]
    assert dropped == [w is None for w in want]
    assert 0 < sum(dropped) < len(dropped)
    for g, w in zip(got, want):
        if g is not None:
            assert g.tobytes() == w.tobytes()


def test_a_power_outside_float64_is_refused_without_a_warning(mirror):
    S = dataclasses.replace(mirror.S, _cache={})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArithmeticError, match=r"pi1 A\^k pi1 is not representable in float64 at k=513"):
            spectral.projected_power(S, 1, 1500)
    assert caught == []


@pytest.mark.parametrize("step, cause", [("identity", "is singular"), ("nan", "has a non-finite solution")])
def test_a_singular_or_non_finite_stein_system_is_refused(mirror, step, cause):
    S, J = mirror.S, mirror.S.J
    # a scaled ascending step T = I makes I - conj(T) kron T zero
    T = np.eye(J) * S.sqrt_rho if step == "identity" else np.full((J, J), np.nan)
    S = dataclasses.replace(S, _cache={("step", 3, 1): T.astype(complex)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=f"the Stein system of the sign \\+1 tail {cause}") as info:
            spectral.stein_tail(S, np.eye(J), 1)
    assert type(info.value) is ArithmeticError
