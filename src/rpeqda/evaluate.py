"""Experiment harness: replicated misclassification benchmarks, LOOCV, the
low-rank KL lower-bound diagnostic and finite-sample theory checks.

Seeding policy (all derived with the documented mix function, so every
report is bit-reproducible and replicates are independent of execution
order):

* replicate r, class k draws its data from mix(data_seed, r, k), train
  rows first, test rows after, from one stream, straight into its own
  train and test rows;
* dense (sn) replicates run two at a time, r and r + 1 one per thread
  (``linalg._in_parallel``), each on its own train and test arrays, when
  two replicates' matrices and rows fit ``_PAIR_BYTES``; the classes of
  a paired replicate are drawn in turn on its thread.  Other replicates
  run one at a time and draw their two classes on two threads.  Every
  replicate and class has its own stream and its own rows, and results
  are kept in replicate order, so the report does not depend on the
  schedule, and the error raised is the first failing replicate's;
* replicate r's projection master seed is mix(data_seed, r, PROJECTION_TAG);
* LOOCV fold i redraws projections from mix(master_seed, i);
* the s4 rotation uses mix(data_seed, STRUCTURE_TAG) unless a structure
  seed is given explicitly.
"""

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import qda, rpe, schemes
from .dataset import Dataset
from .errors import (DimensionMismatch, EmptyInput, LengthMismatch, ReducedDimTooLarge,
                     TooFewSamplesForClass)
from .linalg import _in_parallel, _one_blas_thread
from .rng import DRAW_TAG, PROJECTION_TAG, STRUCTURE_TAG, mix


@dataclass(frozen=True)
class EvalReport:
    """Aggregated misclassification results of one experiment.

    ``per_replicate`` holds one empirical misclassification value in
    [0, 1] per replicate (or per LOOCV fold); ``mean``/``sd`` are always
    recomputable from it.  ``timing_seconds`` holds each replicate's own
    wall time; paired replicates run at the same time, so their times
    overlap and may sum to more than the run took.  It is informational
    only and is excluded from the canonical serialized form, which must be
    bit-identical across reruns with the same seeds.
    """

    kind: str
    identifier: str
    p: int
    config: dict
    replicates: int
    per_replicate: tuple
    mean: float
    sd: float
    kl: dict | None = None
    timing_seconds: tuple = field(default=(), compare=False)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "kind": self.kind,
            "identifier": self.identifier,
            "p": self.p,
            "config": dict(self.config),
            "replicates": self.replicates,
            "misclassification": {
                "per_replicate": list(self.per_replicate),
                "mean": self.mean,
                "sd": self.sd,
            },
            "kl": dict(self.kl) if self.kl is not None else None,
        }
        if include_timing:
            out["timing"] = {"per_replicate_seconds": list(self.timing_seconds)}
        return out


def misclassification(predictions, truth, priors=None) -> float:
    """Prior-weighted empirical misclassification sum_k pi_k * phat_k.

    ``phat_k`` is the fraction of truth-class-k points predicted wrongly.
    With ``priors=None`` the weights are the test-set class proportions,
    which reduces to the plain error fraction.  Explicit priors are given
    as a mapping from class label to weight.
    """
    if len(predictions) != len(truth):
        raise LengthMismatch(
            f"{len(predictions)} predictions against {len(truth)} truths")
    if len(truth) == 0:
        raise EmptyInput("no labels to score")
    predictions = [str(v) for v in predictions]
    truth = [str(v) for v in truth]
    class_order = tuple(dict.fromkeys(truth))
    total = 0.0
    n = len(truth)
    for label in class_order:
        hits = [p != t for p, t in zip(predictions, truth) if t == label]
        phat = sum(hits) / len(hits)
        weight = priors[label] if priors is not None else len(hits) / n
        total += weight * phat
    return total


def _mean_sd(values):
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, sd


# Two replicates run at once when their dense matrices and rows together
# take at most this many bytes.  A pair keeps a second replicate alive, so
# this caps the memory pairing adds at 64 MiB.  It admits s2 at p = 2048,
# B = 200, d = 10 with 600 rows (43 MB a replicate), where a two-replicate
# run took 0.38 s paired against 0.60 s one at a time, with no rise in
# peak RSS (medians of 10 alternating 20 s benchmark runs, 2-core host).
# One s3 p = 65536 sn replicate holds 1.4 GB, so it stays alone.
_PAIR_BYTES = 128 * 1024 * 1024


def _replicates_in_pairs(config: rpe.RpeConfig, p: int, n_train: int, n_test: int) -> bool:
    """Whether replicates run two at a time, one per thread.  Only dense
    (sn) replicates pair: a sparse draw holds the interpreter lock, so two
    would mostly wait on each other.  A replicate holds its B·d x p matrix
    block and its 2·(n_train + n_test) rows of p values, and a pair must
    fit ``_PAIR_BYTES``."""
    if config.family is not rpe.ProjectionFamily.STANDARD_NORMAL:
        return False
    d = config.d if config.d is not None else rpe.default_reduced_dim(p, n_train)
    return 2 * 8 * p * (config.B * d + 2 * (n_train + n_test)) <= _PAIR_BYTES


@_one_blas_thread()
def run_scheme_experiment(scheme_id, p: int, n_train_per_class: int,
                          n_test_per_class: int, reps: int,
                          config: rpe.RpeConfig, data_seed: int,
                          structure_seed: int | None = None) -> EvalReport:
    """Replicated train/test benchmark on one synthetic scheme.

    ``scheme_id`` may also be a prebuilt :class:`schemes.SchemeSpec`
    (yields the same protocol with custom populations, e.g. the spiked
    scale family), whose dimension must be ``p`` (``DimensionMismatch``
    otherwise).  Each replicate draws fresh data and a fresh projection
    master seed, both derived from ``data_seed``; dense replicates run in
    pairs when :func:`_replicates_in_pairs` allows.
    """
    if isinstance(scheme_id, schemes.SchemeSpec):
        spec = scheme_id
        if spec.p != p:
            raise DimensionMismatch(f"prebuilt {spec.scheme_id} spec has p={spec.p}, not p={p}")
    else:
        if structure_seed is None:
            structure_seed = mix(data_seed, STRUCTURE_TAG)
        spec = schemes.build_scheme(scheme_id, p, structure_seed)
    if config.d is not None and config.d > n_train_per_class - 1:
        raise ReducedDimTooLarge(
            f"d={config.d} exceeds n_train_per_class - 1 = {n_train_per_class - 1}")

    kl = schemes.kl_summary(spec)
    n_train, n_test = n_train_per_class, n_test_per_class
    test_truth = [str(k) for k in (1, 2) for _ in range(n_test)]
    train_labels = tuple(str(k) for k in (1, 2) for _ in range(n_train))

    def replicate(r, train_rows, test_rows):
        start = time.perf_counter()
        # class 1's error, if any, is raised first
        _in_parallel(*[partial(schemes.sample, spec, k, n_train + n_test,
                               mix(data_seed, r, k),
                               out=(train_rows[i * n_train:(i + 1) * n_train],
                                    test_rows[i * n_test:(i + 1) * n_test]))
                       for i, k in enumerate((1, 2))])
        rep_config = replace(config, master_seed=mix(data_seed, r, PROJECTION_TAG))
        model = rpe.rpe_fit(Dataset(train_rows, train_labels), rep_config)
        predictions = rpe.rpe_predict_rows(model, test_rows)
        return misclassification(predictions, test_truth), time.perf_counter() - start

    # every replicate of a group runs on its own thread and refills its own
    # train and test rows, class k straight into its own rows
    group = 2 if _replicates_in_pairs(config, spec.p, n_train, n_test) else 1
    buffers = [(np.empty((2 * n_train, spec.p)), np.empty((2 * n_test, spec.p)))
               for _ in range(min(group, reps))]
    results = []
    for first in range(1, reps + 1, group):
        results += _in_parallel(*[partial(replicate, r, *rows) for r, rows in
                                  zip(range(first, min(first + group, reps + 1)), buffers)])
    deltas = [delta for delta, _ in results]
    timings = [seconds for _, seconds in results]

    mean, sd = _mean_sd(deltas)
    echo = {
        "B": config.B, "d": config.d, "family": config.family.value,
        "ridge": config.ridge, "data_seed": data_seed,
        "structure_seed": structure_seed,
        "n_train_per_class": n_train_per_class,
        "n_test_per_class": n_test_per_class,
    }
    return EvalReport(kind="scheme", identifier=spec.scheme_id, p=spec.p,
                      config=echo, replicates=reps, per_replicate=tuple(deltas),
                      mean=mean, sd=sd, kl=kl, timing_seconds=tuple(timings))


@_one_blas_thread()
def loocv(data: Dataset, config: rpe.RpeConfig, identifier: str = "dataset") -> EvalReport:
    """Leave-one-out cross-validation of the ensemble classifier.

    Every fold refits on n - 1 samples with a fresh derived projection
    master seed (the classifier is a randomized procedure, so each fold
    reruns it in full).  The reported dispersion is the binomial standard
    error sqrt(delta (1 - delta) / n) of the LOOCV proportion.
    """
    counts = data.class_counts()
    n_min = min(counts.values())
    d = config.d if config.d is not None else rpe.default_reduced_dim(data.p, n_min - 1)
    for label, n_k in counts.items():
        if n_k < d + 2:
            raise TooFewSamplesForClass(
                label, f"class {label!r} has {n_k} samples; LOOCV with d={d} "
                       f"needs at least {d + 2}")
    fold_errors = []
    timings = []
    for i in range(data.n):
        start = time.perf_counter()
        fold_config = replace(config, d=d, master_seed=mix(config.master_seed, i))
        model = rpe.rpe_fit(data.without_row(i), fold_config)
        predicted = rpe.rpe_predict_rows(model, data.features[i][None, :])[0]
        fold_errors.append(0.0 if predicted == data.labels[i] else 1.0)
        timings.append(time.perf_counter() - start)
    delta = float(np.mean(fold_errors))
    se = math.sqrt(delta * (1.0 - delta) / data.n)
    echo = {"B": config.B, "d": d, "family": config.family.value,
            "ridge": config.ridge, "master_seed": config.master_seed,
            "n": data.n, "class_counts": dict(sorted(counts.items()))}
    return EvalReport(kind="loocv", identifier=identifier, p=data.p,
                      config=echo, replicates=data.n,
                      per_replicate=tuple(fold_errors), mean=delta, sd=se,
                      kl=None, timing_seconds=tuple(timings))


@dataclass(frozen=True)
class ThetaMatrix:
    """Pairwise KL lower-bound estimates; entry (k, k') is
    0.5 (mu_k - mu_k')' (I + Sigma_k)^{-1} (mu_k - mu_k'), zero diagonal,
    generally asymmetric because the covariance side switches."""

    labels: tuple
    values: np.ndarray

    def log_over_p(self, p: int) -> np.ndarray:
        """log(theta / p) with -inf where theta = 0 (incl. the diagonal)."""
        with np.errstate(divide="ignore"):
            return np.log(self.values / p)


def _helmert_factor(rows: np.ndarray) -> np.ndarray:
    """p x (n-1) factor U with U U' equal to the class sample covariance.

    Applies the (n-1) x n Helmert rows (orthonormal, orthogonal to the
    all-ones vector) to the centered data, dropping the degree of freedom
    consumed by centering so U has the covariance's true rank.
    """
    n = rows.shape[0]
    centered = rows - rows.mean(axis=0)
    i = np.arange(1, n)
    scale = 1.0 / np.sqrt(i * (i + 1.0))
    helmert = np.tril(np.ones((n - 1, n)), k=0) * scale[:, None]
    helmert[np.arange(n - 1), np.arange(1, n)] = -i * scale
    reduced = helmert @ centered
    return reduced.T / math.sqrt(n - 1)


@_one_blas_thread()
def theta_lower_bound(data: Dataset) -> ThetaMatrix:
    """Sample estimate of the pairwise KL lower bound for every ordered
    class pair, via the low-rank identity
    (I + U U')^{-1} v = v - U (I + U' U)^{-1} U' v
    with Sigma_hat_k = U U'; cost O(p n_k^2), no p x p inverse."""
    labels = data.class_labels
    means, factors, grams = {}, {}, {}
    for label in labels:
        rows = data.features[data.class_indices(label)]
        if rows.shape[0] < 2:
            raise TooFewSamplesForClass(
                label, f"class {label!r} needs at least 2 samples")
        means[label] = rows.mean(axis=0)
        u = _helmert_factor(rows)
        factors[label] = u
        grams[label] = np.eye(u.shape[1]) + u.T @ u
    values = np.zeros((len(labels), len(labels)))
    for i, k in enumerate(labels):
        u, gram = factors[k], grams[k]
        for j, k2 in enumerate(labels):
            if i == j:
                continue
            dmu = means[k] - means[k2]
            solved = dmu - u @ np.linalg.solve(gram, u.T @ dmu)
            values[i, j] = 0.5 * float(dmu @ solved)
    return ThetaMatrix(labels=labels, values=values)


@dataclass(frozen=True)
class AlignmentCheck:
    """Monte-Carlo summary of the discriminant/KL alignment.

    For draws Z from the first population: the classical discriminant
    D(Z) between the classes, scaled by 1/p, should track kl_over_p (the
    divergence whose expectation it matches); the ensemble discriminant,
    scaled by 1/d, should be positive.
    """

    p: int
    draws: int
    kl_over_p: float
    mean_abs_deviation: float
    classical_seconds: float
    ensemble_d: int
    ensemble_B: int
    positive_count: int
    scaled_ensemble_mean: float
    ensemble_seconds: float

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "p": self.p, "draws": self.draws, "kl_over_p": self.kl_over_p,
            "mean_abs_deviation": self.mean_abs_deviation,
            "ensemble_d": self.ensemble_d, "ensemble_B": self.ensemble_B,
            "positive_count": self.positive_count,
            "scaled_ensemble_mean": self.scaled_ensemble_mean,
        }
        if include_timing:
            out["timing"] = {"classical_seconds": self.classical_seconds,
                             "ensemble_seconds": self.ensemble_seconds}
        return out


@_one_blas_thread()
def theorem_alignment_check(spec: schemes.SchemeSpec, draws: int, seed: int,
                            d: int, B: int, family=None) -> AlignmentCheck:
    """Check the two known-parameter alignment properties on one spec.

    Classical part: mean over draws Z ~ P_1 of |D(Z)/p - KL/p| where D is
    the first-vs-second discriminant and KL the divergence it estimates
    (the direction with the trace of Sigma_2^{-1} Sigma_1).  Ensemble
    part: the count of draws with positive ensemble discriminant, using B
    members at reduced dimension d.
    """
    pops = spec.populations
    p = spec.p
    kl_over_p = schemes.kl_divergence(pops[1], pops[0]) / p

    start = time.perf_counter()
    z_rows = schemes.sample(spec, 1, draws, mix(seed, DRAW_TAG))
    scores = qda.population_class_scores(
        [(pop.prior, pop.mean, pop.cov) for pop in pops], z_rows)
    disc = scores[:, 0] - scores[:, 1]
    mean_abs_dev = float(np.mean(np.abs(disc / p - kl_over_p)))
    classical_seconds = time.perf_counter() - start

    start = time.perf_counter()
    config = rpe.RpeConfig(
        B=B, d=d,
        family=family if family is not None else rpe.ProjectionFamily.STANDARD_NORMAL,
        master_seed=mix(seed, PROJECTION_TAG))
    ens_scores = rpe.population_rpe_scores(
        [(pop.prior, pop.mean, pop.cov) for pop in pops], p, config, z_rows)
    ens_disc = (ens_scores[:, 0] - ens_scores[:, 1]) / d
    ensemble_seconds = time.perf_counter() - start
    return AlignmentCheck(
        p=p, draws=draws, kl_over_p=kl_over_p,
        mean_abs_deviation=mean_abs_dev, classical_seconds=classical_seconds,
        ensemble_d=d, ensemble_B=B,
        positive_count=int(np.sum(ens_disc > 0.0)),
        scaled_ensemble_mean=float(np.mean(ens_disc)),
        ensemble_seconds=ensemble_seconds)
