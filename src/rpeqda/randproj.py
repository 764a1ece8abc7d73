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
orthogonalization is applied.  :func:`generate_many` draws a list of
matrices on two threads, one contiguous half of the seeds each; since
every matrix has its own stream, the list equals drawing them one by one.

Projecting n rows through B sparse matrices costs one multiply-add per
stored triplet per row, about n * B * d * sqrt(p) (Li, Hastie & Church,
2006, "Very sparse random projections"), plus one pass over the n x p
input to transpose it.  The triplets are stacked into one CSC matrix per
call and applied to ``_SPARSE_BLOCK_ROWS`` rows at a time, so the extra
memory is one transposed row block, never a copy of the whole input.
Every output still sums its nonzeros in column order, so the result does
not depend on the block size.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyInput, InvalidDimensions, UnknownProjectionFamily
from .linalg import _draw_in_parallel
from .rng import stream

# Rows per sparse product.  Measured at p = 65536, B = 200, d = 10 and 400
# rows (2 cores): 1 row 0.61 s, 4 rows 0.22 s, 8 rows 0.16 s, 16 rows
# 0.13 s, 32 rows 0.20 s, 64 rows 0.30 s; the whole input at once, through
# scipy's contiguous copy of x.T, 0.91 s.
_SPARSE_BLOCK_ROWS = 16


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

    def to_dense(self) -> np.ndarray:
        """Materialize the full d x p array (tests and small-scale use)."""
        if self.entries is not None:
            return self.entries.copy()
        return _stacked_csc([self]).toarray()


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


def generate_many(family: ProjectionFamily, d: int, p: int, seeds) -> list:
    """``[generate(family, d, p, seed) for seed in seeds]``, in seed order.

    The calling thread draws the first half of the seeds and a draw worker
    the second half (see :mod:`rpeqda.linalg`); an error from either half
    reaches the caller, the first half's when both fail.
    """
    seeds = list(seeds)

    def draw(part):
        return [generate(family, d, p, seed) for seed in part]

    if len(seeds) < 2:
        return draw(seeds)
    half = (len(seeds) + 1) // 2
    first, second = _draw_in_parallel(lambda: draw(seeds[:half]),
                                      lambda: draw(seeds[half:]))
    return first + second


def _stacked_csc(matrices) -> sp.csc_matrix:
    """The (B * d) x p CSC matrix of B sparse matrices stacked by rows."""
    d = matrices[0].d
    rows = np.concatenate([m.rows + b * d for b, m in enumerate(matrices)])
    cols = np.concatenate([m.cols for m in matrices])
    signs = np.concatenate([m.signs for m in matrices]).astype(np.float64)
    return sp.csc_matrix((signs, (rows, cols)), shape=(len(matrices) * d, matrices[0].p))


def _sparse_product(matrices, x: np.ndarray) -> np.ndarray:
    """(B * d, n) product of the stacked sparse matrices with x.T, one
    block of ``_SPARSE_BLOCK_ROWS`` rows of x at a time."""
    stacked = _stacked_csc(matrices)
    n = x.shape[0]
    out = np.empty((stacked.shape[0], n))
    for lo in range(0, n, _SPARSE_BLOCK_ROWS):
        hi = min(lo + _SPARSE_BLOCK_ROWS, n)
        out[:, lo:hi] = stacked @ np.ascontiguousarray(x[lo:hi].T)
    return out


def project(r: ProjectionMatrix, x: np.ndarray) -> np.ndarray:
    """Apply the projection to the rows of ``x``: (n, p) -> (n, d).

    A 1-d input of length p is treated as a single row and returns shape
    (d,).  Sparse matrices go through the blocked product of
    :func:`project_many`, so ``project(r, x)`` equals
    ``project_many([r], x)[0]`` bit for bit.
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
        out = _sparse_product([r], x).T
    return out[0] if single else out


def project_many(matrices, x: np.ndarray) -> np.ndarray:
    """Project ``x`` (n, p) through a list of B same-shape matrices at once.

    Returns an array of shape (B, n, d).  All matrices must share d, p and
    family.  Dense payloads are stacked into a single matmul against x.T.
    Sparse triplets are stacked into one CSC matrix and applied to
    contiguous blocks of ``_SPARSE_BLOCK_ROWS`` transposed rows: about
    n * B * d * sqrt(p) multiply-adds plus one O(n * p) transpose, with one
    row block, not a copy of x, as the extra memory.
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
        out = _sparse_product(matrices, x)
    return np.ascontiguousarray(out.reshape(b, d, x.shape[0]).transpose(0, 2, 1))
