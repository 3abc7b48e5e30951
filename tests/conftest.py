import numpy as np
import pytest

from sparsesense.rng import Xoshiro256pp


def _low_rank_plus_sparse(seed, m=200, n=100, rank=5, frac=0.05, scale=10.0):
    """Seeded ground-truth instance: rank-`rank` Gaussian product plus
    sparse +-scale*std spikes on a known support."""
    rng = Xoshiro256pp(seed)
    L0 = rng.normals(m * rank).reshape(m, rank) @ rng.normals(rank * n).reshape(rank, n)
    k = int(frac * m * n)
    support = rng.sample_without_replacement(m * n, k)
    S0 = np.zeros(m * n)
    # one sign per support entry, in order, from the top bit of a draw
    S0[support] = np.where(rng.next_u64s(k) >> 63, scale, -scale) * L0.std()
    return L0, S0.reshape(m, n), support


@pytest.fixture(scope="session")
def low_rank_plus_sparse():
    """The builder itself; session-scoped so hypothesis tests may use it."""
    return _low_rank_plus_sparse
