"""The README's "Library use" block runs, and its comments hold.

The block is executed as written, so a renamed or deleted public name
breaks this test rather than only the docs."""

import re
from pathlib import Path

import numpy as np

from sparsesense.decompose import RpcaConfig
from sparsesense.linalg import qr_column_pivot

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs_as_commented():
    ns = {}
    exec(library_use_block(), ns)
    X, result, basis, Y, Xhat = (ns[k] for k in ("X", "result", "basis", "Y", "Xhat"))
    # ||X - L - S|| <= rpca.tol * ||X||
    assert result.converged
    assert np.linalg.norm(X - result.L - result.S) <= RpcaConfig().tol * np.linalg.norm(X)
    # modes; 5 QR-pivot rows + 3 by leverage
    assert (basis.r, basis.s) == (5, 8)
    pivots, _ = qr_column_pivot(basis.modes.T)
    assert basis.sensor_indices[:5].tolist() == pivots[:5].tolist()
    # 8 rows instead of 500; back to 500 rows
    assert Y.shape == (8, X.shape[1]) and X.shape[0] == 500
    assert Xhat.shape == X.shape
