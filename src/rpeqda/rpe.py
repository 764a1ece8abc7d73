"""Random projection ensemble QDA.

One classifier = B independent d x p random matrices, each paired with a
QDA model fitted in its projected d-dimensional space.  Scores aggregate
by averaging the per-class log scores over members, which reproduces every
pairwise averaged discriminant simultaneously; classification is argmax of
the averaged scores.

Member b's matrix is generated from the derived seed mix(master_seed, b)
(b = 1..B), so fitting and scoring are independent of processing order.
If a member's projected covariance is singular (possible under sparse
matrices with, say, an all-zero row), that member redraws its matrix from
mix(master_seed, b, attempt) for attempt = 1, 2, ... up to
``max_regen_retries`` before failing loudly.

A known-parameter (population) mode constructs each member's projected
model from exact moments: projected mean R mu_k and projected covariance
R Sigma_k R', with Sigma_k applied columnwise through a structured handle
so the ambient covariance is never materialized.  Members are built and
scored in chunks of stacked arrays (one handle ``matvec``, one batched
Cholesky and one batched whitening per class and chunk); a chunk holds as
many members as fit in ``POPULATION_CHUNK_BYTES``, so memory stays bounded
by that budget rather than growing with B.

Non-finite input rows are rejected with ``NonFiniteInput`` rather than
scored.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qda
from .dataset import Dataset
from .errors import (
    DimensionMismatch,
    MemberDegenerate,
    NonFiniteInput,
    ReducedDimTooLarge,
    SingularCovariance,
    TooFewClasses,
)
from .linalg import cholesky_stack, forward_sq_norms
from .randproj import ProjectionFamily, ProjectionMatrix, generate, project, project_many
from .rng import mix

DEFAULT_ENSEMBLE_SIZE = 200
DEFAULT_DIM_CAP = 10

# Population mode holds about this many bytes of stacked member arrays at
# a time (matrices plus projected rows), so its memory does not grow with
# B: 2 MiB holds 14 members at d = 8, p = 2000 with 100 rows and two
# classes.  Larger chunks save little time once per-call overhead is
# spread over a chunk, but cost memory.
POPULATION_CHUNK_BYTES = 2 * 1024 * 1024

# Finite checks scan this many values at a time, so they allocate no
# temporary the size of the input.
_FINITE_CHECK_VALUES = 1 << 20


@dataclass(frozen=True)
class RpeConfig:
    """Ensemble hyperparameters.

    ``d = None`` defers to :func:`default_reduced_dim` at fit time.
    """

    B: int = DEFAULT_ENSEMBLE_SIZE
    d: int | None = None
    family: ProjectionFamily = ProjectionFamily.STANDARD_NORMAL
    master_seed: int = 0
    ridge: float = 0.0
    max_regen_retries: int = 100


@dataclass(frozen=True)
class ProjectionMember:
    """One random matrix and the QDA model fitted through it."""

    matrix: ProjectionMatrix
    model: qda.QdaModel


@dataclass(frozen=True)
class RpeModel:
    """Trained ensemble: config (with d resolved) plus B members."""

    config: RpeConfig
    p: int
    class_labels: tuple
    members: tuple


def default_reduced_dim(p: int, n_min: int | None = None) -> int:
    """min(n_min - 1, ceil(log p), 10), dropping n_min when unknown."""
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
    holds a NaN or an infinity."""
    step = max(1, _FINITE_CHECK_VALUES // max(1, x.shape[1]))
    for lo in range(0, x.shape[0], step):
        bad = ~np.isfinite(x[lo:lo + step]).all(axis=1)
        if bad.any():
            raise NonFiniteInput(
                f"{what}: row {lo + int(np.argmax(bad))} holds a non-finite value")


def _fit_member(matrix, projected_rows, groups_idx, n_total, ridge):
    groups = [(label, projected_rows[idx]) for label, idx in groups_idx]
    return qda.fit_grouped(groups, n_total, ridge)


def rpe_fit(data: Dataset, config: RpeConfig) -> RpeModel:
    """Fit the ensemble on labeled data.

    For each member the training rows are projected once (d x p cost per
    row) and a d-dimensional QDA is fitted on the projected rows, which
    equals using the projected estimators R mu_hat and R Sigma_hat R'
    without ever forming the p x p covariance.
    """
    labels = data.class_labels
    if len(labels) < 2:
        raise TooFewClasses("need at least 2 classes")
    _require_finite(data.features, "training features")
    groups_idx = [(label, data.class_indices(label)) for label in labels]
    n_min = min(len(idx) for _, idx in groups_idx)
    d = config.d if config.d is not None else default_reduced_dim(data.p, n_min)
    if d >= n_min:
        raise ReducedDimTooLarge(
            f"reduced dimension {d} needs every class size above it "
            f"(smallest class has {n_min} samples)")
    resolved = replace(config, d=d)

    matrices = [generate(config.family, d, data.p, member_seed(config.master_seed, b))
                for b in range(1, config.B + 1)]
    projected = project_many(matrices, data.features)

    members = []
    for i, b in enumerate(range(1, config.B + 1)):
        matrix, rows = matrices[i], projected[i]
        attempt = 0
        while True:
            try:
                model = _fit_member(matrix, rows, groups_idx, data.n, config.ridge)
                break
            except SingularCovariance as exc:
                attempt += 1
                if attempt > config.max_regen_retries:
                    raise MemberDegenerate(
                        b, f"member {b}: projected covariance still singular "
                           f"after {config.max_regen_retries} redraws ({exc})") from exc
                matrix = generate(config.family, d, data.p,
                                  member_seed(config.master_seed, b, attempt))
                rows = project(matrix, data.features)
        members.append(ProjectionMember(matrix=matrix, model=model))
    return RpeModel(config=resolved, p=data.p,
                    class_labels=tuple(labels), members=tuple(members))


def rpe_scores_rows(model: RpeModel, z_rows: np.ndarray) -> np.ndarray:
    """Averaged per-class scores for each row of an (m, p) array.

    Member contributions accumulate in member-index order, making the
    floating-point result independent of any parallel schedule.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    if z_rows.ndim != 2 or z_rows.shape[1] != model.p:
        raise DimensionMismatch(
            f"rows of shape {z_rows.shape} against model with p={model.p}")
    _require_finite(z_rows, "rows to score")
    projected = project_many([m.matrix for m in model.members], z_rows)
    acc = np.zeros((z_rows.shape[0], len(model.class_labels)))
    for i, member in enumerate(model.members):
        acc += qda.class_scores_rows(member.model, projected[i])
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


@dataclass(frozen=True)
class MemberStack:
    """Consecutive population-mode members as stacked arrays.

    For m consecutive members and J classes: ``seeds`` holds the seed
    each matrix was drawn from (a redraw seed when the member redrew),
    ``matrices`` is (m, d, p) dense, ``means`` (m, J, d) the projected
    class means, ``lower`` (m, J, d, d) the Cholesky factors of the
    projected class covariances and ``log_det`` (m, J) their
    log-determinants.
    """

    seeds: tuple
    matrices: np.ndarray
    means: np.ndarray
    lower: np.ndarray
    log_det: np.ndarray


def _draw_members(populations, family, d, p, seeds, ridge):
    """Draw one matrix per seed and factor its projected class covariances.

    Returns (matrices, means, lower, log_det, ok), the first four as in
    MemberStack and ``ok`` (m,) marking members whose every class factors.
    """
    matrices = np.stack([generate(family, d, p, seed).to_dense() for seed in seeds])
    m = len(seeds)
    flat = matrices.reshape(m * d, p)
    means, covs = [], []
    for _, mean, cov in populations:
        means.append((flat @ np.asarray(mean, dtype=np.float64)).reshape(m, d))
        applied = cov.matvec(flat.T).reshape(p, m, d).transpose(1, 0, 2)
        projected = matrices @ applied
        covs.append((projected + projected.transpose(0, 2, 1)) / 2.0)
    covs = np.stack(covs, axis=1)
    if ridge > 0.0:
        covs = covs + ridge * np.eye(d)
    lower, log_det, ok = cholesky_stack(covs)
    return matrices, np.stack(means, axis=1), lower, log_det, ok.all(axis=1)


def population_stacks(populations, p: int, config: RpeConfig, rows: int = 0):
    """Yield the population-mode ensemble as MemberStack chunks in member
    order, sized so that each chunk's matrices and the projected class
    offsets of ``rows`` points take about ``POPULATION_CHUNK_BYTES``.

    A member whose projected covariance fails to factor redraws its matrix
    under the same derived-seed policy as the sample fit.
    """
    d = config.d if config.d is not None else default_reduced_dim(p)
    member_bytes = 8 * d * (p + len(populations) * rows)
    chunk = max(1, POPULATION_CHUNK_BYTES // member_bytes)
    for first in range(1, config.B + 1, chunk):
        members = range(first, min(first + chunk, config.B + 1))
        seeds = [member_seed(config.master_seed, b) for b in members]
        *arrays, ok = _draw_members(
            populations, config.family, d, p, seeds, config.ridge)
        for i in np.flatnonzero(~ok):
            b = members[i]
            for attempt in range(1, config.max_regen_retries + 1):
                seeds[i] = member_seed(config.master_seed, b, attempt)
                *redrawn, redrawn_ok = _draw_members(
                    populations, config.family, d, p, seeds[i:i + 1], config.ridge)
                if redrawn_ok[0]:
                    for whole, part in zip(arrays, redrawn):
                        whole[i] = part[0]
                    break
            else:
                raise MemberDegenerate(
                    b, f"member {b}: projected population covariance "
                       f"singular after {config.max_regen_retries} redraws")
        yield MemberStack(tuple(seeds), *arrays)


def population_rpe_scores(populations, p: int, config: RpeConfig,
                          z_rows: np.ndarray) -> np.ndarray:
    """Averaged per-class scores under known parameters for each row of
    ``z_rows`` (a single point may be given as a vector).

    Members are built and scored a chunk at a time (see
    :func:`population_stacks`) and their scores accumulate in member-index
    order whatever the chunk size.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    single = z_rows.ndim == 1
    if single:
        z_rows = z_rows[None, :]
    if z_rows.shape[1] != p:
        raise DimensionMismatch(
            f"rows of shape {z_rows.shape} against populations with p={p}")
    _require_finite(z_rows, "rows to score")
    base = np.array([math.log(prior) for prior, _, _ in populations])
    acc = np.zeros((z_rows.shape[0], len(populations)))
    for stack in population_stacks(populations, p, config, rows=z_rows.shape[0]):
        # (m, d, n) projected rows, centred per class to (m, J, d, n).
        m, d, _ = stack.matrices.shape
        projected = (stack.matrices.reshape(m * d, p) @ z_rows.T).reshape(m, d, -1)
        centered = projected[:, None] - stack.means[..., None]
        scores = ((base - 0.5 * stack.log_det)[..., None]
                  - 0.5 * forward_sq_norms(stack.lower, centered))
        for member_scores in scores:
            acc += member_scores.T
    acc /= config.B
    return acc[0] if single else acc
