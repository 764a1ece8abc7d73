"""Random projection ensemble QDA.

One classifier = B independent d x p random matrices, each paired with a
QDA model fitted in its projected d-dimensional space.  Scores aggregate
by averaging the per-class log scores over members, which reproduces every
pairwise averaged discriminant simultaneously; classification is argmax of
the averaged scores.

The ensemble is held as one :class:`MemberStack`: the B matrices plus the
stacked projected class means (B, J, d), Cholesky factors (B, J, d, d) and
log-determinants (B, J); with the class priors (J,), member b is the
array-form QDA of :mod:`rpeqda.qda` at index b.  Sample fit, population
fit, scoring and model files all use this one representation.  Fitting
computes every member's class moments at once (``qda.class_moments`` in
sample mode), factors them with one batched Cholesky and redraws only the
members that fail.  Dense (sn) matrices are drawn into one (B·d) x p block
(``randproj.generate_many``), which is the stacked operator every
projection applies, so the fit holds its matrices once.  Scoring takes
the rows in blocks of ``_SCORE_BLOCK_BYTES`` of member arrays: it projects
a block through all matrices at once, then runs ``qda.class_scores_rows``
over tiles of members x rows that stay within ``POPULATION_CHUNK_BYTES``,
so the kernel's (members, J, d, rows) arrays stay cache-sized.

Member b's matrix is generated from the derived seed mix(master_seed, b)
(b = 1..B), so fitting and scoring are independent of processing order.
If a member's projected covariance is singular (possible under sparse
matrices with, say, an all-zero row), that member redraws its matrix from
mix(master_seed, b, attempt) for attempt = 1, 2, ... up to
``max_regen_retries`` before failing loudly.

A known-parameter (population) mode builds each member from exact moments:
projected mean R mu_k and projected covariance R Sigma_k R', with Sigma_k
applied columnwise through a structured handle so the ambient covariance
is never materialized.  Its members are built and scored in chunks; a
chunk holds as many members as fit in ``POPULATION_CHUNK_BYTES``, so the
member arrays alive at once (one chunk per thread) do not grow with B.
Each handle applies Sigma_k to a chunk's m·d matrix rows in one call, taken
from the chunk's stacked operator (``randproj._stacked``: for sn the block
the chunk's matrices were drawn into, for stp made dense).
The calling thread fits and scores the first half of the chunks and the
worker of :mod:`rpeqda.linalg` the second; the worker's splits inside its
half (the draws, the sparse products) run inline, as do the caller's.
The caller adds its members' scores as it goes, then the worker's, kept
as (members, rows, J) per chunk, so the sum runs in member order.

Non-finite input rows are rejected with ``NonFiniteInput`` rather than
scored.  The scan reads ``_FINITE_CHECK_VALUES`` values at a time, the
first half of its steps on the calling thread and the second on the
worker of :mod:`rpeqda.linalg`, and names the first bad row either way.

Every draw of member matrices, first draws and redraws alike, is one
``randproj.generate_many`` call, which splits dense draws over two threads.
The public fit and scoring calls run BLAS on one thread
(``linalg._one_blas_thread``), so their results do not depend on the
caller's ``OPENBLAS_NUM_THREADS``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidParameter,
    MemberDegenerate,
    NonFiniteInput,
    ReducedDimTooLarge,
    TooFewClasses,
)
from .linalg import _in_halves, _one_blas_thread
from .qda import class_moments, class_scores_rows, factor_covariances
# generate stays bound here too: perfbench's tracer self-test reads rpe.generate
from .randproj import (  # noqa: F401
    ProjectionFamily, _stacked, generate, generate_many, project_many)
from .rng import mix

DEFAULT_ENSEMBLE_SIZE = 200
DEFAULT_DIM_CAP = 10

# Member arrays held at a time by one population chunk and by one tile of
# the scoring kernel.  A chunk counts its matrices twice (the dense stacked
# operator and its product with a class covariance, each m·d x p) plus its
# projected class offsets, so population memory does not grow with B:
# 2 MiB holds 7 members at d = 8, p = 2000 with 100 rows and two classes.
# Larger chunks save little time once per-call overhead is spread over a
# chunk, but cost memory.  A kernel tile counts 16·J·d bytes per member and
# row, so such a chunk (179 KB) is one tile.  The kernel over 400 rows at
# B = 200, d = 10 and two classes (one block) took 26 ms in this budget's
# 16-member tiles, 42 ms as one tile and 32-33 ms in tiles of 32 or 64
# rows of every member (medians of 21, one thread, 2-core host).
POPULATION_CHUNK_BYTES = 2 * 1024 * 1024

# Sample-mode scoring projects rows in blocks of about this many bytes,
# counted as 8·B·d·(1 + 2J) per row, so a large batch does not hold its
# member arrays for every row at once.  At B = 200, d = 10 and two classes
# a block is 419 rows, so a 400-row call is one block.  A dense product's
# rounding can depend on how many rows it holds, so the blocks keep the
# size they had when the kernel ran on a whole block.
_SCORE_BLOCK_BYTES = 32 * 1024 * 1024

# Finite checks scan this many values at a time, so they allocate no
# temporary the size of the input.
_FINITE_CHECK_VALUES = 1 << 20


@dataclass(frozen=True)
class RpeConfig:
    """Ensemble hyperparameters.

    ``d = None`` defers to :func:`default_reduced_dim` at fit time.  A
    config with ``B < 1``, ``d < 1`` or ``max_regen_retries < 0`` raises
    ``InvalidParameter``.
    """

    B: int = DEFAULT_ENSEMBLE_SIZE
    d: int | None = None
    family: ProjectionFamily = ProjectionFamily.STANDARD_NORMAL
    master_seed: int = 0
    ridge: float = 0.0
    max_regen_retries: int = 100

    def __post_init__(self):
        if self.B < 1:
            raise InvalidParameter(f"need B >= 1, got B={self.B}")
        if self.d is not None and self.d < 1:
            raise InvalidParameter(f"need d >= 1, got d={self.d}")
        if self.max_regen_retries < 0:
            raise InvalidParameter(
                f"need max_regen_retries >= 0, got {self.max_regen_retries}")


@dataclass(frozen=True)
class MemberStack:
    """Ensemble members as stacked arrays.

    For m members, J classes and reduced dimension d: ``matrices`` holds
    the m ``ProjectionMatrix`` objects (each records the seed it was drawn
    from, a redraw seed when the member redrew), ``means`` (m, J, d) the
    projected class means, ``lower`` (m, J, d, d) the Cholesky factors of
    the projected class covariances and ``log_det`` (m, J) their
    log-determinants.
    """

    matrices: tuple
    means: np.ndarray
    lower: np.ndarray
    log_det: np.ndarray

    def __len__(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class RpeModel:
    """Trained ensemble: config (with d resolved), class priors (J,) and
    the B members."""

    config: RpeConfig
    p: int
    class_labels: tuple
    priors: np.ndarray
    members: MemberStack


def default_reduced_dim(p: int, n_min: int | None = None) -> int:
    """min(n_min - 1, ceil(log p), 10), dropping n_min when unknown; p < 1
    raises ``DimensionTooSmall``."""
    if p < 1:
        raise DimensionTooSmall(f"need p >= 1 features, got p={p}")
    candidates = [math.ceil(math.log(p)), DEFAULT_DIM_CAP]
    if n_min is not None:
        candidates.append(n_min - 1)
    return max(1, min(candidates))


def member_seed(master_seed: int, b: int, attempt: int = 0) -> int:
    """Seed of member b's matrix; attempt > 0 selects redraw seeds."""
    if attempt == 0:
        return mix(master_seed, b)
    return mix(master_seed, b, attempt)


def _require_finite(x: np.ndarray, what: str) -> None:
    """Raise NonFiniteInput naming the first row of the 2-d ``x`` that
    holds a NaN or an infinity.  Each half of the rows returns its own
    first bad row, and the calling thread's half comes first."""
    step = max(1, _FINITE_CHECK_VALUES // max(1, x.shape[1]))

    def first_bad(lo, hi):
        for start in range(lo, hi, step):
            bad = ~np.isfinite(x[start:min(start + step, hi)]).all(axis=1)
            if bad.any():
                return start + int(np.argmax(bad))
        return None

    for row in _in_halves(first_bad, x.shape[0], step):
        if row is not None:
            raise NonFiniteInput(f"{what}: row {row} holds a non-finite value")


def _fit_stack(config: RpeConfig, p: int, members, moments) -> MemberStack:
    """Draw and factor the given members (1-based indices, in order).

    ``moments(matrices)`` returns the projected class means (m, J, d) and
    covariances (m, J, d, d) of a list of m matrices.  Every member's
    covariances are factored in one ``qda.factor_covariances`` call; only the
    members with a class that fails to factor redraw, from
    ``member_seed(master_seed, b, attempt)``, and the first member (in
    member order) still failing after ``max_regen_retries`` redraws raises
    ``MemberDegenerate``.
    """
    matrices = [None] * len(members)
    todo = np.arange(len(members))
    for attempt in range(config.max_regen_retries + 1):
        drawn = generate_many(config.family, config.d, p,
                              [member_seed(config.master_seed, members[i], attempt)
                               for i in todo])
        for i, matrix in zip(todo, drawn):
            matrices[i] = matrix
        drawn_means, covs = moments(drawn)
        drawn_lower, drawn_log_det, ok = factor_covariances(covs, config.ridge)
        if attempt == 0:
            means, lower, log_det = drawn_means, drawn_lower, drawn_log_det
        else:
            means[todo], lower[todo], log_det[todo] = drawn_means, drawn_lower, drawn_log_det
        todo = todo[~ok.all(axis=1)]
        if not todo.size:
            return MemberStack(tuple(matrices), means, lower, log_det)
    b = members[todo[0]]
    raise MemberDegenerate(
        b, f"member {b}: projected covariance still singular "
           f"after {config.max_regen_retries} redraws")


def _tiles(members: int, rows: int, unit: int) -> list:
    """(member slice, row slice) tiles that cover members x rows, each
    holding at most ``POPULATION_CHUNK_BYTES`` at ``unit`` bytes per member
    and row where it can: as many members with all their rows as fit, and
    fewer rows only when one member's rows do not fit."""
    tile_members = min(members, max(1, POPULATION_CHUNK_BYTES // max(1, rows * unit)))
    tile_rows = max(1, min(rows, POPULATION_CHUNK_BYTES // (tile_members * unit)))
    return [(slice(m, m + tile_members), slice(r, r + tile_rows))
            for m in range(0, members, tile_members) for r in range(0, rows, tile_rows)]


def _member_scores(stack: MemberStack, priors, z_rows: np.ndarray) -> np.ndarray:
    """Every member's class scores of ``z_rows``, (m, n, J): one projection
    of all the rows, then ``qda.class_scores_rows`` tile by tile (see
    :func:`_tiles`; its centred and whitened rows take 16·J·d bytes per
    member and row).  The kernel is elementwise, so every tiling gives the
    same bytes."""
    projected = project_many(stack.matrices, z_rows)
    m, n, d = projected.shape
    out = np.empty((m, n, len(priors)))
    for members, rows in _tiles(m, n, 16 * len(priors) * d):
        out[members, rows] = class_scores_rows(
            priors, stack.means[members], stack.lower[members], stack.log_det[members],
            projected[members, rows])
    return out


def _add_members(acc: np.ndarray, member_scores: np.ndarray) -> None:
    """Add (m, n, J) member scores to ``acc`` one member at a time, in
    member order, so the sum does not depend on how members are chunked."""
    for scores in member_scores:
        acc += scores


@_one_blas_thread()
def rpe_fit(data: Dataset, config: RpeConfig) -> RpeModel:
    """Fit the ensemble on labeled data.

    The training rows are projected through every member's matrix at once
    (d x p cost per row and member) and each member's class means and
    covariances are estimated from its projected rows, which equals using
    the projected estimators R mu_hat and R Sigma_hat R' without ever
    forming the p x p covariance.
    """
    labels = data.class_labels
    if len(labels) < 2:
        raise TooFewClasses("need at least 2 classes")
    _require_finite(data.features, "training features")
    class_idx = [data.class_indices(label) for label in labels]
    n_min = min(len(idx) for idx in class_idx)
    d = config.d if config.d is not None else default_reduced_dim(data.p, n_min)
    if d >= n_min:
        raise ReducedDimTooLarge(
            f"reduced dimension {d} needs every class size above it "
            f"(smallest class has {n_min} samples)")
    resolved = replace(config, d=d)

    def moments(matrices):
        projected = project_many(matrices, data.features)
        return class_moments(projected[:, idx] for idx in class_idx)

    members = _fit_stack(resolved, data.p, range(1, config.B + 1), moments)
    priors = np.array([len(idx) / data.n for idx in class_idx])
    return RpeModel(config=resolved, p=data.p, class_labels=tuple(labels),
                    priors=priors, members=members)


@_one_blas_thread()
def rpe_scores_rows(model: RpeModel, z_rows: np.ndarray) -> np.ndarray:
    """Averaged per-class scores for each row of an (m, p) array.

    Member contributions accumulate in member-index order, making the
    floating-point result independent of any parallel schedule.  Rows are
    scored in blocks of at most ``_SCORE_BLOCK_BYTES`` of member arrays.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    if z_rows.ndim != 2 or z_rows.shape[1] != model.p:
        raise DimensionMismatch(
            f"rows of shape {z_rows.shape} against model with p={model.p}")
    _require_finite(z_rows, "rows to score")
    n_classes = len(model.class_labels)
    acc = np.zeros((z_rows.shape[0], n_classes))
    row_bytes = 8 * len(model.members) * model.config.d * (1 + 2 * n_classes)
    step = max(1, _SCORE_BLOCK_BYTES // row_bytes)
    for lo in range(0, z_rows.shape[0], step):
        _add_members(acc[lo:lo + step],
                     _member_scores(model.members, model.priors, z_rows[lo:lo + step]))
    return acc / len(model.members)


def rpe_scores(model: RpeModel, z: np.ndarray) -> np.ndarray:
    """Averaged per-class scores at a single ambient point."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.p,):
        raise DimensionMismatch(
            f"point of shape {z.shape} against model with p={model.p}")
    return rpe_scores_rows(model, z[None, :])[0]


def rpe_classify(model: RpeModel, z: np.ndarray) -> str:
    """Label with the highest averaged score (earliest label wins ties)."""
    return model.class_labels[int(np.argmax(rpe_scores(model, z)))]


def rpe_predict_rows(model: RpeModel, z_rows: np.ndarray) -> list:
    scores = rpe_scores_rows(model, z_rows)
    return [model.class_labels[j] for j in np.argmax(scores, axis=1)]


def _population_moments(populations, p: int, d: int):
    """The ``moments`` of :func:`_fit_stack` under known parameters: each
    class covariance comes from one handle ``matvec`` over the m·d matrix
    columns of the m members."""

    def moments(matrices):
        flat = _stacked(matrices)
        if not isinstance(flat, np.ndarray):
            flat = flat.toarray(order="C")
        m = len(matrices)
        dense = flat.reshape(m, d, p)
        means, covs = [], []
        for _, mean, cov in populations:
            means.append((flat @ np.asarray(mean, dtype=np.float64)).reshape(m, d))
            applied = cov.matvec(flat.T).reshape(p, m, d).transpose(1, 0, 2)
            projected = dense @ applied
            covs.append((projected + projected.transpose(0, 2, 1)) / 2.0)
        return np.stack(means, axis=1), np.stack(covs, axis=1)

    return moments


def _population_chunks(p: int, config: RpeConfig, classes: int, rows: int) -> list:
    """Members 1..B cut into ranges, in member order, each sized so that
    two copies of its matrices (the dense stacked operator and a class
    covariance applied to it) and the projected class offsets of ``rows``
    points take about ``POPULATION_CHUNK_BYTES``."""
    member_bytes = 8 * config.d * (2 * p + classes * rows)
    size = max(1, POPULATION_CHUNK_BYTES // member_bytes)
    return [range(first, min(first + size, config.B + 1))
            for first in range(1, config.B + 1, size)]


@_one_blas_thread()
def population_rpe_scores(populations, p: int, config: RpeConfig,
                          z_rows: np.ndarray) -> np.ndarray:
    """Averaged per-class scores under known parameters for each row of
    an (m, p) array.

    Members are fitted and scored a chunk at a time (see
    :func:`_population_chunks`), the first half of the chunks on the
    calling thread and the second on the worker.  The caller adds its
    members' scores as it goes and then the worker's, which come back as
    one (members, rows, J) array per chunk, so the scores accumulate in
    member-index order whatever the chunk size or the schedule, and the
    first member (in member order) that cannot be fitted raises
    ``MemberDegenerate``.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    if z_rows.ndim != 2 or z_rows.shape[1] != p:
        raise DimensionMismatch(
            f"rows of shape {z_rows.shape} against populations with p={p}")
    _require_finite(z_rows, "rows to score")
    if config.d is None:
        config = replace(config, d=default_reduced_dim(p))
    priors = [prior for prior, _, _ in populations]
    moments = _population_moments(populations, p, config.d)
    chunks = _population_chunks(p, config, len(populations), z_rows.shape[0])
    acc = np.zeros((z_rows.shape[0], len(populations)))

    def half(lo, hi):
        # the caller's half, the one from chunk 0, adds to acc as it goes
        kept = []
        for members in chunks[lo:hi]:
            member_scores = _member_scores(_fit_stack(config, p, members, moments),
                                           priors, z_rows)
            if lo == 0:
                _add_members(acc, member_scores)
            else:
                kept.append(member_scores)
        return kept

    for kept in _in_halves(half, len(chunks)):
        for member_scores in kept:
            _add_members(acc, member_scores)
    acc /= config.B
    return acc
