"""Seedable random projection matrices and their application to data.

Two families are supported:

* ``STANDARD_NORMAL``: dense d x p matrices with i.i.d. N(0, 1) entries.
* ``SPARSE_THREE_POINT``: entries are +1 or -1 each with probability
  1 / (2 sqrt(p)) and 0 otherwise, independently.  Only the nonzero
  triplets (row, col, sign) are stored, so the expected memory is
  d * sqrt(p) values instead of d * p.

Generation is a pure function of (family, d, p, seed): the Philox stream
for ``seed`` is consumed in a fixed, documented order, so a stored seed
regenerates the matrix bit-exactly.  No row normalization or
orthogonalization is applied.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyInput, InvalidDimensions, UnknownProjectionFamily
from .rng import stream


class ProjectionFamily(str, Enum):
    STANDARD_NORMAL = "sn"
    SPARSE_THREE_POINT = "stp"


@dataclass(frozen=True)
class ProjectionMatrix:
    """One d x p random projection matrix.

    For the dense family ``entries`` holds the d x p payload and the
    triplet fields are None; for the sparse family ``entries`` is None and
    (rows, cols, signs) hold the nonzero triplets sorted by (row, col).
    """

    family: ProjectionFamily
    d: int
    p: int
    seed: int
    entries: np.ndarray | None = None
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    signs: np.ndarray | None = None

    @cached_property
    def _sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.signs.astype(np.float64), (self.rows, self.cols)),
            shape=(self.d, self.p))

    def to_dense(self) -> np.ndarray:
        """Materialize the full d x p array (tests and small-scale use)."""
        if self.entries is not None:
            return self.entries.copy()
        return self._sparse.toarray()


def generate(family: ProjectionFamily, d: int, p: int, seed: int) -> ProjectionMatrix:
    """Generate a projection matrix deterministically from ``seed``.

    Stream consumption order is fixed per family.  Standard normal: one
    block of d * p variates filling the matrix row-major.  Sparse
    three-point: (1) the binomial count K of nonzero entries out of d * p
    with success probability 1 / sqrt(p), (2) a uniform size-K subset of
    flat row-major positions, (3) K independent signs.  Conditional on K
    this equals i.i.d. three-point entries, cell by cell.
    """
    if d < 1 or d > p:
        raise InvalidDimensions(f"need 1 <= d <= p, got d={d}, p={p}")
    rng = stream(seed)
    if family is ProjectionFamily.STANDARD_NORMAL:
        entries = rng.standard_normal((d, p))
        return ProjectionMatrix(family=family, d=d, p=p, seed=seed, entries=entries)
    if family is ProjectionFamily.SPARSE_THREE_POINT:
        q = 1.0 / np.sqrt(p)
        count = int(rng.binomial(d * p, q))
        flat = np.sort(rng.choice(d * p, size=count, replace=False))
        signs = (rng.integers(0, 2, size=count, dtype=np.int64) * 2 - 1).astype(np.int8)
        rows, cols = np.divmod(flat, p)
        return ProjectionMatrix(
            family=family, d=d, p=p, seed=seed,
            rows=rows.astype(np.int64), cols=cols.astype(np.int64), signs=signs)
    raise UnknownProjectionFamily(f"unknown projection family {family!r}")


def project(r: ProjectionMatrix, x: np.ndarray) -> np.ndarray:
    """Apply the projection to the rows of ``x``: (n, p) -> (n, d).

    A 1-d input of length p is treated as a single row and returns shape
    (d,).  Sparse matrices use sparse accumulation, costing one add per
    stored triplet per row.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != r.p:
        raise DimensionMismatch(
            f"data has {x.shape[1]} columns, projection expects {r.p}")
    if r.entries is not None:
        out = x @ r.entries.T
    else:
        out = r._sparse.dot(x.T).T
    return out[0] if single else out


def project_many(matrices, x: np.ndarray) -> np.ndarray:
    """Project ``x`` (n, p) through a list of B same-shape matrices at once.

    Returns an array of shape (B, n, d).  All matrices must share d, p and
    family; dense payloads are stacked into a single matmul and sparse
    payloads into a single block sparse product.
    """
    x = np.asarray(x, dtype=np.float64)
    b = len(matrices)
    if b == 0:
        raise EmptyInput("no matrices given")
    d, p = matrices[0].d, matrices[0].p
    if x.ndim != 2 or x.shape[1] != p:
        raise DimensionMismatch(
            f"data of shape {x.shape} against projections with p={p}")
    if matrices[0].entries is not None:
        stacked = np.concatenate([m.entries for m in matrices], axis=0)
        out = stacked @ x.T
    else:
        stacked = sp.vstack([m._sparse for m in matrices], format="csr")
        out = stacked.dot(x.T)
    return np.ascontiguousarray(out.reshape(b, d, x.shape[0]).transpose(0, 2, 1))
