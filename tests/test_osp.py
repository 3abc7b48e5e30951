import tracemalloc

import numpy as np
import pytest

from sparsesense.errors import ValidationError
from sparsesense.matio import write_matrix
from sparsesense.osp import (
    SensorBasis,
    compress,
    compression_ratio,
    fit_basis,
    load_basis,
    reconstruct,
    save_basis,
)


def subspace_data(m, r, n, seed=0):
    """Data lying exactly in an r-dimensional spatial subspace."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return Q @ (np.diag(np.arange(r, 0, -1.0)) @ rng.standard_normal((r, n))), Q


def greedy_volume_oracle(Psi, s):
    """Greedily pick rows of Psi maximizing the volume of the selected
    submatrix M: det(M M^T) up to r = Psi.shape[1] rows, det(M^T M) past
    them."""
    m, r = Psi.shape
    chosen: list[int] = []
    for _ in range(s):
        best_j, best_vol = None, -1.0
        for j in range(m):
            if j in chosen:
                continue
            M = Psi[chosen + [j], :]
            vol = np.linalg.det(M @ M.T if M.shape[0] <= r else M.T @ M)
            if vol > best_vol * (1 + 1e-12):
                best_j, best_vol = j, vol
        chosen.append(best_j)
    return chosen


def test_fit_basis_selects_dominant_rows():
    # energy concentrated on rows 2 and 7 of a 10-row matrix
    L = np.zeros((10, 6))
    L[2] = 5.0 * np.sin(np.arange(6))
    L[7] = 3.0 * np.cos(np.arange(6))
    basis = fit_basis(L, r=2, s=2)
    assert set(basis.sensor_indices.tolist()) == {2, 7}


def test_fit_basis_matches_greedy_volume_oracle():
    X, _ = subspace_data(40, 3, 25, seed=6)
    for s in (3, 5, 6):  # r, r + 2, 2r
        basis = fit_basis(X, r=3, s=s)
        assert basis.sensor_indices.tolist() == greedy_volume_oracle(basis.modes, s)


def test_oversampled_selection_invariant_to_roundoff_perturbations():
    X, _ = subspace_data(400, 4, 200, seed=11)
    want = fit_basis(X, 4, 8).sensor_indices
    rng = np.random.default_rng(12)
    for _ in range(10):
        noisy = X + 1e-13 * rng.standard_normal(X.shape)
        np.testing.assert_array_equal(fit_basis(noisy, 4, 8).sensor_indices, want)


def test_oversampled_fit_memory_is_linear_in_pixels():
    # an m x m intermediate would be 2.9 GB here
    X, _ = subspace_data(19200, 10, 30, seed=13)
    tracemalloc.start()
    try:
        basis = fit_basis(X, 10, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.s == 20
    assert peak < 50e6


def test_fit_basis_constraints():
    X, _ = subspace_data(20, 3, 10)
    with pytest.raises(ValidationError, match="^sensor count 2 must be at least the mode count 3$"):
        fit_basis(X, r=3, s=2)
    with pytest.raises(ValidationError, match=r"^mode count 0 outside \[1, 10\]$"):
        fit_basis(X, r=0, s=1)
    with pytest.raises(ValidationError, match=r"^sensor count 21 exceeds spatial dimension 20$"):
        fit_basis(X, r=2, s=21)


def test_modes_orthonormal_and_sorted_indices():
    X, _ = subspace_data(30, 4, 20, seed=1)
    basis = fit_basis(X, 4, 6)
    np.testing.assert_allclose(basis.modes.T @ basis.modes, np.eye(4), atol=1e-10)
    assert len(set(basis.sensor_indices.tolist())) == 6
    assert np.all(np.diff(np.sort(basis.sensor_indices)) > 0)


def test_compress_gathers_rows():
    X = np.arange(50.0).reshape(10, 5)
    basis = fit_basis(X + np.random.default_rng(0).standard_normal((10, 5)), 2, 3)
    np.testing.assert_array_equal(compress(X, basis), X[basis.sensor_indices, :])
    with pytest.raises(ValidationError):
        compress(X[:5], basis)


@pytest.mark.parametrize("r", [1, 5, 10])
@pytest.mark.parametrize("extra", [0, 2, None])
def test_reconstruct_exact_on_model_subspace(r, extra):
    s = 2 * r if extra is None else r + extra
    X, _ = subspace_data(100, r, 40, seed=r)
    basis = fit_basis(X, r, s)
    Xhat = reconstruct(compress(X, basis), basis)
    assert np.linalg.norm(Xhat - X) <= 1e-8 * np.linalg.norm(X)


def test_reconstruct_zero_and_vector_forms():
    X, _ = subspace_data(30, 3, 15)
    basis = fit_basis(X, 3, 3)
    np.testing.assert_array_equal(reconstruct(np.zeros(3), basis), np.zeros(30))
    one = reconstruct(X[basis.sensor_indices, 0], basis)
    np.testing.assert_allclose(one, X[:, 0], atol=1e-8)
    with pytest.raises(ValidationError):
        reconstruct(np.zeros(4), basis)


def test_reconstruct_matches_normal_equations_oracle():
    X, Q = subspace_data(50, 4, 10, seed=9)
    basis = fit_basis(X, 4, 6)
    x = np.random.default_rng(10).standard_normal(50)  # out-of-subspace state
    y = x[basis.sensor_indices]
    theta = basis.modes[basis.sensor_indices, :]
    a_oracle = np.linalg.solve(theta.T @ theta, theta.T @ y)
    np.testing.assert_allclose(reconstruct(y, basis), basis.modes @ a_oracle,
                               atol=1e-8)


def test_oversampling_reduces_mean_residual():
    X, _ = subspace_data(80, 4, 30, seed=3)
    rng = np.random.default_rng(4)
    tests = rng.standard_normal((80, 200))
    residuals = []
    for s in (5, 8, 16):
        basis = fit_basis(X, 4, s)
        err = tests - reconstruct(tests[basis.sensor_indices, :], basis)
        residuals.append(np.mean(np.linalg.norm(err, axis=0)))
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_selection_invariant_to_time_permutation():
    X, _ = subspace_data(60, 3, 40, seed=8)
    basis1 = fit_basis(X, 3, 3)
    perm = np.random.default_rng(5).permutation(40)
    basis2 = fit_basis(X[:, perm], 3, 3)
    np.testing.assert_array_equal(basis1.sensor_indices, basis2.sensor_indices)


@pytest.mark.parametrize("case", [(19200, 10, 1920.0), (7, 7, 1.0), (100, 4, 25.0)])
def test_compression_ratio(case):
    m, r, want = case
    assert compression_ratio(m, r) == want
    with pytest.raises(ValidationError):
        compression_ratio(0, 1)


def test_storage_accounting(tmp_path):
    # serialized basis + measurements beat the raw matrix when
    # n > m*r / (m - s); here 1000 > 1920*10/1910
    m, n, r = 1920, 1000, 10
    X, _ = subspace_data(m, r, n, seed=2)
    basis = fit_basis(X, r, r)
    save_basis(basis, tmp_path / "basis.ospb")
    write_matrix(compress(X, basis), tmp_path / "y.rbdm")
    write_matrix(X, tmp_path / "x.rbdm")
    compressed = ((tmp_path / "basis.ospb").stat().st_size
                  + (tmp_path / "y.rbdm").stat().st_size)
    assert compressed < (tmp_path / "x.rbdm").stat().st_size


def test_basis_serialization_bit_exact(tmp_path):
    X, _ = subspace_data(25, 3, 12, seed=7)
    basis = fit_basis(X, 3, 5)
    path = tmp_path / "basis.ospb"
    save_basis(basis, path)
    loaded = load_basis(path)
    np.testing.assert_array_equal(loaded.modes, basis.modes)
    np.testing.assert_array_equal(loaded.sensor_indices, basis.sensor_indices)
    np.testing.assert_array_equal(loaded.theta_pinv, basis.theta_pinv)
    save_basis(loaded, tmp_path / "again.ospb")
    assert (tmp_path / "again.ospb").read_bytes() == path.read_bytes()


def test_basis_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ospb"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValidationError):
        load_basis(path)
