import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsesense import linalg
from sparsesense.errors import ValidationError
from sparsesense.linalg import (
    TOPK_MARGIN,
    _sign_columns,
    pseudoinverse,
    qr_column_pivot,
    singular_value_threshold,
    soft_threshold,
    svd_topk,
    svd_truncated,
)

# ----------------------------------------------------------------------
# independent oracles


def jacobi_eigh(G, sweeps=50, tol=1e-14):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations."""
    G = G.copy()
    n = G.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(G, -1) ** 2))
        if off < tol * np.linalg.norm(G):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(G[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * G[p, q], G[q, q] - G[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                G = J.T @ G @ J
                V = V @ J
    return np.diag(G), V


def jacobi_singular_values(A):
    eigvals, _ = jacobi_eigh(A.T @ A)
    return np.sort(np.sqrt(np.clip(eigvals, 0.0, None)))[::-1]


def greedy_pivot_oracle(A):
    """At each step orthogonalize the remaining columns against the chosen
    ones from scratch and pick the max-norm residual (lowest index on ties)."""
    m, n = A.shape
    chosen: list[int] = []
    basis: list[np.ndarray] = []
    remaining = list(range(n))
    for _ in range(n):
        best_j, best_norm = None, -1.0
        for j in remaining:
            resid = A[:, j].copy()
            for q in basis:
                resid -= (q @ resid) * q
            norm = np.linalg.norm(resid)
            if norm > best_norm * (1 + 1e-12):
                best_j, best_norm = j, norm
        chosen.append(best_j)
        remaining.remove(best_j)
        resid = A[:, best_j].copy()
        for q in basis:
            resid -= (q @ resid) * q
        if best_norm > 1e-12:
            basis.append(resid / np.linalg.norm(resid))
    return chosen


# ----------------------------------------------------------------------
# svd_truncated


def test_svd_identity():
    f = svd_truncated(np.eye(3), 3)
    np.testing.assert_allclose(f.singular_values, [1, 1, 1])


def test_svd_rank_one_outer_product():
    u = np.array([1.0, 2.0, -2.0]) / 3.0
    v = np.array([3.0, 4.0]) / 5.0
    A = np.outer(u, v)
    f = svd_truncated(A, 1)
    np.testing.assert_allclose(f.singular_values, [1.0], atol=1e-12)
    np.testing.assert_allclose(f.reconstruct(), A, atol=1e-12)


def test_svd_matches_jacobi_gram_oracle():
    A = np.random.default_rng(17).standard_normal((5, 4))
    f = svd_truncated(A, 2)
    oracle = jacobi_singular_values(A)
    np.testing.assert_allclose(f.singular_values, oracle[:2], rtol=1e-10)
    # residual energy equals the tail singular-value energy
    resid = np.linalg.norm(A - f.reconstruct()) ** 2
    np.testing.assert_allclose(resid, np.sum(oracle[2:] ** 2), rtol=1e-8)


def test_svd_factor_orthonormality():
    A = np.random.default_rng(3).standard_normal((6, 5))
    f = svd_truncated(A, 4)
    np.testing.assert_allclose(f.U.T @ f.U, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(f.V.T @ f.V, np.eye(4), atol=1e-10)


def test_svd_truncation_error_monotone():
    A = np.random.default_rng(5).standard_normal((8, 6))
    errors = [np.linalg.norm(A - svd_truncated(A, r).reconstruct())
              for r in range(1, 7)]
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-8 * np.linalg.norm(A)


def test_svd_rank_bounds():
    A = np.eye(3)
    with pytest.raises(ValidationError, match=r"^rank 0 outside \[1, 3\]$"):
        svd_truncated(A, 0)
    with pytest.raises(ValidationError, match=r"^rank 4 outside \[1, 3\]$"):
        svd_truncated(A, 4)
    with pytest.raises(ValidationError):
        svd_truncated(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)


def test_svd_sign_convention_deterministic():
    A = np.random.default_rng(8).standard_normal((5, 5))
    f1 = svd_truncated(A, 3)
    f2 = svd_truncated(A.copy(), 3)
    np.testing.assert_array_equal(f1.U, f2.U)
    for j in range(3):
        assert f1.U[np.argmax(np.abs(f1.U[:, j])), j] > 0


# ----------------------------------------------------------------------
# soft_threshold


@pytest.mark.parametrize("x,tau,want", [(5, 2, 3), (-1, 2, 0), (-5, 2, -3)])
def test_soft_threshold_cases(x, tau, want):
    assert soft_threshold(x, tau) == want


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0, 1e6))
def test_soft_threshold_lipschitz_and_odd(x, y, tau):
    assert abs(soft_threshold(x, tau) - soft_threshold(y, tau)) <= abs(x - y) + 1e-9
    assert soft_threshold(-x, tau) == pytest.approx(-soft_threshold(x, tau))


def test_soft_threshold_into_a_buffer_matches_the_fresh_result():
    x = np.random.default_rng(3).standard_normal((7, 5))
    out = np.full_like(x, np.nan)
    assert soft_threshold(x, 0.4, out=out) is out
    np.testing.assert_array_equal(out, soft_threshold(x, 0.4))


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValidationError):
        soft_threshold(1.0, -0.5)


# ----------------------------------------------------------------------
# singular_value_threshold


def test_svt_diagonal():
    np.testing.assert_allclose(
        singular_value_threshold(np.diag([5.0, 1.0]), 2.0).reconstruct(),
        np.diag([3.0, 0.0]), atol=1e-12)


def test_svt_zero_threshold_is_identity():
    A = np.random.default_rng(2).standard_normal((4, 6))
    np.testing.assert_allclose(singular_value_threshold(A, 0.0).reconstruct(), A, atol=1e-10)


def test_svt_matches_eigh_built_svd_oracle():
    A = np.random.default_rng(23).standard_normal((4, 3))
    tau = 0.5
    # oracle SVD assembled from the Gram eigen-decompositions, not LAPACK's svd
    eigvals, V = np.linalg.eigh(A.T @ A)
    order = np.argsort(eigvals)[::-1]
    sv = np.sqrt(np.clip(eigvals[order], 0, None))
    V = V[:, order]
    U = A @ V / sv
    oracle = (U * np.maximum(sv - tau, 0.0)) @ V.T
    np.testing.assert_allclose(singular_value_threshold(A, tau).reconstruct(), oracle,
                               atol=1e-10)


def test_svt_shifts_singular_values():
    A = np.random.default_rng(4).standard_normal((6, 5))
    tau = 0.8
    out = singular_value_threshold(A, tau).reconstruct()
    sv_in = np.linalg.svd(A, compute_uv=False)
    sv_out = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(sv_out, np.maximum(sv_in - tau, 0.0), atol=1e-10)
    assert sv_out.sum() <= sv_in.sum() + 1e-10


def svt_by_full_svd(A, tau):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def matrix_with_spectrum(m, n, s, seed):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, s.size)))
    V, _ = np.linalg.qr(rng.standard_normal((n, s.size)))
    return (U * s) @ V.T


SPECTRA = {
    "spread": lambda rng, q: np.sort(rng.exponential(1.0, q))[::-1],
    "clustered": lambda rng, q: np.sort(1.0 + 1e-3 * rng.random(q))[::-1],
    "geometric": lambda rng, q: np.geomspace(1.0, 1e-8, q),
    "rank_deficient": lambda rng, q: np.where(np.arange(q) < rng.integers(1, q + 1),
                                              np.sort(rng.random(q))[::-1], 0.0),
}


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 60), n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(sorted(SPECTRA)), pick=st.floats(0.0, 1.0),
       shift=st.floats(0.8, 1.2), log_scale=st.floats(-6.0, 6.0), warm=st.booleans())
def test_topk_svt_matches_full_svd_thresholding(m, n, seed, kind, pick, shift,
                                                log_scale, warm):
    # tau lands near one of A's singular values, so every kept count occurs;
    # the warm start comes from a perturbed copy, as in the solver's loop
    rng = np.random.default_rng(seed)
    q = min(m, n)
    A = matrix_with_spectrum(m, n, SPECTRA[kind](rng, q), seed) * 10.0 ** log_scale
    sv = np.linalg.svd(A, compute_uv=False)
    tau = float(sv[int(pick * (q - 1))] * shift)
    start = None
    if warm:
        start = singular_value_threshold(A * (1 + 1e-3 * rng.standard_normal(A.shape)), tau)
    got = singular_value_threshold(A, tau, start)
    assert got.shape == A.shape
    # relative to sigma_1, the scale of any SVD's backward error
    assert np.linalg.norm(got.reconstruct() - svt_by_full_svd(A, tau)) <= 1e-9 * sv[0]


def count_full_svds(monkeypatch, A):
    """Shapes of the LAPACK SVDs taken of a matrix shaped like A; the
    Rayleigh-Ritz SVDs are of smaller blocks."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(B, **kwargs):
        if B.shape == A.shape:
            calls.append(B.shape)
        return svd(B, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_topk_svt_doubles_the_block_past_the_guess(monkeypatch):
    # 30 values above tau against a first block of TOPK_MARGIN columns: the
    # block doubles to 40 and the iteration converges without a full SVD
    s = np.concatenate([np.linspace(10.0, 5.0, 30), np.linspace(0.05, 0.01, 570)])
    A = matrix_with_spectrum(800, 600, s, seed=1)
    calls = count_full_svds(monkeypatch, A)
    got = singular_value_threshold(A, 2.0)
    assert TOPK_MARGIN < 30 and calls == []
    # blocks of 5, 10, 20 and 40 columns: one sweep each
    assert got.sweeps >= 4 and not got.full_svd
    assert got.singular_values.size == 30
    np.testing.assert_allclose(got.singular_values, s[:30] - 2.0, rtol=1e-12)
    assert np.linalg.norm(got.reconstruct() - svt_by_full_svd(A, 2.0)) <= 1e-9 * s[0]


def test_topk_svt_is_exact_once_the_block_reaches_min_dim(monkeypatch):
    # tau = 0 keeps every value, so the block outgrows min(m, n)
    A = np.random.default_rng(6).standard_normal((40, 12))
    calls = count_full_svds(monkeypatch, A)
    got = singular_value_threshold(A, 0.0)
    assert calls == [(40, 12)] and got.singular_values.size == 12
    assert got.full_svd
    np.testing.assert_allclose(got.reconstruct(), A, atol=1e-12)


def test_topk_svt_keeps_a_value_just_above_tau():
    # the first sweep's Ritz value sits below tau although sigma_1 is above
    # it; stopping on the (empty) kept set alone would return nothing
    s = np.array([1.005, 0.9, 0.86, 0.68, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01, 0.0])
    A = matrix_with_spectrum(15, 18, s, seed=3)
    got = singular_value_threshold(A, 1.0)
    assert got.singular_values.size == 1
    np.testing.assert_allclose(got.singular_values, [0.005], rtol=1e-8)


def test_topk_warm_start_reuses_the_kept_block():
    # the warm block is a good guess: same kept count, same answer
    A = matrix_with_spectrum(90, 70, np.geomspace(100.0, 0.01, 70), seed=2)
    cold = singular_value_threshold(A, 1.0)
    warm = singular_value_threshold(A, 1.0, cold)
    assert warm.singular_values.size == cold.singular_values.size
    np.testing.assert_allclose(warm.reconstruct(), cold.reconstruct(), atol=1e-9 * 100.0)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(10, 90), n=st.integers(10, 90), k=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), log_rtol=st.floats(-10.0, -1.0),
       loosen=st.floats(1.0, 1e6), threshold=st.booleans())
def test_topk_meets_its_rtol_and_a_looser_one_sweeps_no_more(m, n, k, seed, log_rtol,
                                                             loosen, threshold):
    rng = np.random.default_rng(seed)
    A = matrix_with_spectrum(m, n, SPECTRA["spread"](rng, min(m, n)), seed)
    rtol = 10.0 ** log_rtol
    # with a threshold, the values above the k-th of A, found from a cold start
    tau = float(np.linalg.svd(A, compute_uv=False)[k]) if threshold else None
    f = svd_topk(A, 0 if threshold else k, tau, rtol=rtol)
    s1 = np.linalg.norm(A, 2)
    resid = np.linalg.norm(A @ f.V - f.U * f.singular_values, axis=0)
    # plus the roundoff of recomputing A V outside the kernel
    assert np.linalg.norm(resid) <= rtol * f.singular_values[:1].sum() + 1e-13 * s1
    loose = svd_topk(A, 0 if threshold else k, tau, rtol=min(rtol * loosen, 0.5))
    assert loose.sweeps <= f.sweeps
    assert loose.full_svd <= f.full_svd


def test_topk_spectral_norm_and_determinism():
    A = np.random.default_rng(9).standard_normal((70, 50))
    f = svd_topk(A, 1)
    assert f.singular_values.size == 1
    np.testing.assert_allclose(f.singular_values[0], np.linalg.norm(A, 2), rtol=1e-10)
    g = svd_topk(A.copy(), 1)
    np.testing.assert_array_equal(f.U, g.U)
    np.testing.assert_array_equal(f.V, g.V)


# ----------------------------------------------------------------------
# qr_column_pivot


def test_pivot_picks_largest_norm_column_first():
    A = np.diag([3.0, 1.0, 2.0])
    pivots, rdiag = qr_column_pivot(A)
    assert pivots.tolist() == [0, 2, 1]
    assert np.all(np.diff(np.abs(rdiag)) <= 1e-12)


def test_pivot_tie_break_first_occurrence_wins():
    c = np.array([2.0, 1.0, 0.0])
    d = np.array([0.5, 0.0, 1.0])
    A = np.column_stack([c, d, c])
    pivots, _ = qr_column_pivot(A)
    assert pivots[0] == 0
    assert pivots.tolist().index(2) > pivots.tolist().index(1)


def test_pivot_tie_resolves_to_lowest_column_index():
    # columns 0 and 1 tie after column 2; the lowest index goes first
    assert qr_column_pivot(np.diag([1.0, 1.0, 3.0]))[0].tolist() == [2, 0, 1]


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 8), k=st.integers(1, 6), n=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1))
def test_pivot_ties_match_greedy_oracle(m, k, n, seed):
    # every column copies one of k random columns, flipped in sign or scaled
    # by a power of two (both exact), so residual norms tie exactly; past
    # the numerical rank the pivots are set by roundoff and not compared
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, k))
    A = base[:, rng.integers(0, k, n)] * rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], n)
    pivots, rdiag = qr_column_pivot(A)
    rank = int(np.count_nonzero(np.abs(rdiag) > 1e-8 * abs(rdiag[0])))
    assert pivots[:rank].tolist() == greedy_pivot_oracle(A)[:rank]


def test_pivot_matches_greedy_orthogonalization_oracle():
    A = np.random.default_rng(31).standard_normal((4, 6))
    pivots, _ = qr_column_pivot(A)
    assert pivots.tolist()[:4] == greedy_pivot_oracle(A)[:4]


def test_pivot_recovers_scale_ordering_of_permuted_identity():
    rng = np.random.default_rng(12)
    n = 7
    perm = rng.permutation(n)
    # column j carries identity row perm[j], scaled so that the largest
    # scale sits at perm[j] == 0, the next at perm[j] == 1, ...
    A = np.zeros((n, n))
    for j in range(n):
        A[perm[j], j] = n - perm[j]
    pivots, _ = qr_column_pivot(A)
    assert pivots.tolist() == np.argsort(perm).tolist()


def test_pivot_rejects_zero_matrix():
    with pytest.raises(ValidationError, match="^all-zero matrix has no pivot order$"):
        qr_column_pivot(np.zeros((3, 3)))


# ----------------------------------------------------------------------
# pseudoinverse


def test_pinv_diagonal():
    np.testing.assert_allclose(pseudoinverse(np.diag([2.0, 4.0])),
                               np.diag([0.5, 0.25]), atol=1e-12)


def test_pinv_isometry_is_transpose():
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 3)))
    np.testing.assert_allclose(pseudoinverse(Q), Q.T, atol=1e-10)


def test_pinv_left_inverse_of_full_column_rank():
    A = np.random.default_rng(19).standard_normal((5, 3))
    np.testing.assert_allclose(pseudoinverse(A) @ A, np.eye(3), atol=1e-8)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
def test_pinv_penrose_conditions(shape):
    A = np.random.default_rng(sum(shape)).standard_normal(shape)
    P = pseudoinverse(A)
    np.testing.assert_allclose(A @ P @ A, A, atol=1e-8)
    np.testing.assert_allclose(P @ A @ P, P, atol=1e-8)
    np.testing.assert_allclose((A @ P).T, A @ P, atol=1e-8)
    np.testing.assert_allclose((P @ A).T, P @ A, atol=1e-8)


def test_pinv_rejects_zero_matrix():
    with pytest.raises(ValidationError, match="^all-zero matrix has no pseudoinverse$"):
        pseudoinverse(np.zeros((2, 2)))


@pytest.mark.parametrize("n, first, stop, want", [
    (130, 0, 7, "2f8f603d9a922216624316502962b2f000e786d223e95049c9c283b2510462d8"),
    (64, 3, 5, "105914a3fb80adbcd9179d73728dc53da4d3b3bbbf360cd625bde689362f24ab"),
    (1, 0, 1, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
])
def test_sign_columns_golden_bytes(n, first, stop, want):
    # recorded from the one-column-at-a-time generator; svd_topk's start
    # block must not change when the columns are drawn together
    cols = _sign_columns(n, first, stop)
    assert hashlib.sha256(cols.tobytes()).hexdigest() == want
    np.testing.assert_array_equal(cols[:, 1:], _sign_columns(n, first + 1, stop))


def test_sign_columns_come_from_a_read_only_cache_grown_by_column(monkeypatch):
    monkeypatch.setattr(linalg, "_SIGNS", {})
    few = _sign_columns(130, 2, 5)
    assert linalg._SIGNS[130].shape == (130, 5)
    many = _sign_columns(130, 0, 12)
    assert linalg._SIGNS[130].shape == (130, 12)
    assert not linalg._SIGNS[130].flags.writeable
    np.testing.assert_array_equal(many[:, 2:5], few)
    # a hit draws nothing, and hands out a writable contiguous copy
    monkeypatch.setattr(linalg, "substream", None)
    again = _sign_columns(130, 3, 9)
    assert again.flags.writeable and again.flags.c_contiguous
    np.testing.assert_array_equal(again, many[:, 3:9])
