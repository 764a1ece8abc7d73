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
matrices, dense ones on two threads, one contiguous half of the seeds each,
straight into one C-ordered (B, d, p) block; since every matrix has its own
stream, the list equals drawing them one by one.

B matrices act on data as one (B * d) x p operator, built only by
:func:`_stacked`; for dense matrices drawn together it is their block
itself, so an ensemble holds its dense matrices once.  Projections are
returned as (B, n, d) views of the (B * d, n) product.  Projecting n rows
through B sparse matrices costs one multiply-add per stored triplet per
row, about n * B * d * sqrt(p) (Li, Hastie & Church, 2006, "Very sparse
random projections"), plus one pass over the n x p input to transpose
it.  The stacked CSC operator is applied
to ``_SPARSE_BLOCK_ROWS`` rows at a time, so the extra memory is one
transposed row block per thread, never a copy of the whole input.  The
cost is split over two threads: the calling thread takes the first half of
the row blocks and the worker of :mod:`rpeqda.linalg` the second, each
writing its own columns of one output.  Every output still sums its
nonzeros in column order, so the result does not depend on the block size
or on the split.  ``scipy.sparse`` is imported where the CSC operator is
built, not with this module, so ``sn`` runs never load it.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InvalidDimensions, UnknownProjectionFamily
from .linalg import _in_halves
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


def _check_dimensions(d: int, p: int) -> None:
    if d < 1 or d > p:
        raise InvalidDimensions(f"need 1 <= d <= p, got d={d}, p={p}")


def generate(family: ProjectionFamily, d: int, p: int, seed: int,
             out: np.ndarray | None = None) -> ProjectionMatrix:
    """Generate a projection matrix deterministically from ``seed``.

    Stream consumption order is fixed per family.  Standard normal: one
    block of d * p variates filling the matrix row-major, drawn straight
    into ``out`` when given (a C-contiguous (d, p) float64 array, which
    becomes ``entries``; the sparse family ignores it).  Sparse
    three-point: (1) the binomial count K of nonzero entries out of d * p
    with success probability 1 / sqrt(p), (2) a uniform size-K subset of
    flat row-major positions, (3) K independent signs.  Conditional on K
    this equals i.i.d. three-point entries, cell by cell.
    """
    _check_dimensions(d, p)
    rng = stream(seed)
    if family is ProjectionFamily.STANDARD_NORMAL:
        entries = rng.standard_normal((d, p), out=out)
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

    Dense matrices are drawn into one C-ordered (B, d, p) block, matrix b
    into ``block[b]``, so the list's ``entries`` are consecutive rows of
    the stacked operator that :func:`_stacked` returns without copying.
    Dense draws are split: the calling thread draws the first half of the
    seeds and the worker the second half (``linalg._in_halves``); an error
    from either half reaches the caller, the first half's when both fail.
    A sparse draw is many small numpy calls that hold the interpreter lock,
    slower on two threads than on one, so it stays on the calling thread.
    """
    seeds = list(seeds)
    _check_dimensions(d, p)
    if family is not ProjectionFamily.STANDARD_NORMAL:
        return [generate(family, d, p, seed) for seed in seeds]
    block = np.empty((len(seeds), d, p))

    def draw(lo, hi):
        return [generate(family, d, p, seeds[b], out=block[b]) for b in range(lo, hi)]

    return [matrix for half in _in_halves(draw, len(seeds)) for matrix in half]


def _shared_block(matrices):
    """The (B, d, p) block of :func:`generate_many` whose consecutive
    entries the B dense matrices are, or None when they are not."""
    block = matrices[0].entries.base
    if not (isinstance(block, np.ndarray) and block.flags.c_contiguous
            and block.shape == (len(matrices),) + matrices[0].entries.shape):
        return None
    start, step = block.ctypes.data, block[0].nbytes
    for b, m in enumerate(matrices):
        if not (m.entries.base is block and m.entries.flags.c_contiguous
                and m.entries.ctypes.data == start + b * step):
            return None
    return block


def _stacked(matrices):
    """The (B * d) x p operator of B matrices stacked by rows: a C-ordered
    array for the dense family, a CSC matrix for the sparse one.  Dense
    matrices drawn together by :func:`generate_many` already are that
    array, which is returned as it is; others are copied into a new one.
    Raises ``DimensionMismatch`` when the matrices differ in family, d or
    p."""
    kinds = {(m.family.value, m.d, m.p) for m in matrices}
    if len(kinds) > 1:
        raise DimensionMismatch(f"matrices differ in (family, d, p): {sorted(kinds)}")
    first = matrices[0]
    if first.family is ProjectionFamily.STANDARD_NORMAL:
        block = _shared_block(matrices)
        if block is not None:
            return block.reshape(-1, first.p)
        return np.concatenate([m.entries for m in matrices], axis=0)
    # scipy.sparse takes 0.3 s to import (2 cores); only stp stacks need it
    import scipy.sparse as sp
    rows = np.concatenate([m.rows + b * first.d for b, m in enumerate(matrices)])
    cols = np.concatenate([m.cols for m in matrices])
    signs = np.concatenate([m.signs for m in matrices]).astype(np.float64)
    return sp.csc_matrix((signs, (rows, cols)), shape=(len(matrices) * first.d, first.p))


def project(r: ProjectionMatrix, x: np.ndarray) -> np.ndarray:
    """Apply the projection to the rows of the 2-d ``x``: (n, p) -> (n, d),
    as ``project_many([r], x)[0]``."""
    return project_many([r], x)[0]


def project_many(matrices, x: np.ndarray) -> np.ndarray:
    """Project ``x`` (n, p) through a list of B matrices at once.

    Returns the (B, n, d) view of the (B * d, n) product, so each
    member's projected rows are read as (n, d) and laid out as (d, n).  The
    matrices must share family, d and p (``DimensionMismatch`` otherwise):
    they act as the one operator of :func:`_stacked`, a dense one in one
    matmul against x.T, a sparse one in blocks of ``_SPARSE_BLOCK_ROWS``
    transposed rows on two threads.
    """
    x = np.asarray(x, dtype=np.float64)
    b = len(matrices)
    if b == 0:
        raise EmptyInput("no matrices given")
    d, p = matrices[0].d, matrices[0].p
    if x.ndim != 2 or x.shape[1] != p:
        raise DimensionMismatch(
            f"data of shape {x.shape} against projections with p={p}")
    stacked, n = _stacked(matrices), x.shape[0]
    if isinstance(stacked, np.ndarray):
        out = stacked @ x.T
    else:
        out = np.empty((b * d, n))

        def blocks(lo, hi):
            for start in range(lo, hi, _SPARSE_BLOCK_ROWS):
                stop = min(start + _SPARSE_BLOCK_ROWS, hi)
                out[:, start:stop] = stacked @ np.ascontiguousarray(x[start:stop].T)

        _in_halves(blocks, n, _SPARSE_BLOCK_ROWS)
    return out.reshape(b, d, n).transpose(0, 2, 1)
