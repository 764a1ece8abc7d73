"""Two-class synthetic benchmark populations and exact KL-divergence oracles.

Four block-structured scheme generators plus a spiked-identity scale
family.  Every population's covariance is represented structurally (see
``covariance``), so sampling costs O(p) to O(p * block) per row and the
divergence oracle never inverts a p x p matrix unless it deliberately runs
the dense fallback.

Derived block sizes follow floor-of-exact-real-power arithmetic: exponents
are evaluated in double precision and floored after adding a 1e-9 nudge,
so powers that are exact integers in the reals (e.g. 512^(2/3) = 64) floor
to that integer despite one-ulp libm undershoot.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import (
    ArProcessCovariance,
    BlockDiagonal,
    EquiCorrelation,
    IdentityCovariance,
    InverseArCovariance,
    RotatedSpike,
    ScaledCovariance,
    SpikedIdentity,
    trace_solve_product,
)
from .dataset import Dataset
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidCovariance,
    InvalidParameter,
    UnknownScheme,
)
from .linalg import orthonormal_columns
from .rng import mix, stream

SCHEME_IDS = ("s1", "s2", "s3", "s4", "example2")

_FLOOR_NUDGE = 1e-9


def _floor_power(p: int, exponent: float) -> int:
    return int(math.floor(p ** exponent + _FLOOR_NUDGE))


class Population(NamedTuple):
    """Known parameters of one class: the (prior, mean, covariance handle)
    triple that ``qda.population_class_scores`` and
    ``rpe.population_rpe_scores`` take."""

    prior: float
    mean: np.ndarray
    cov: object


@dataclass(frozen=True)
class SchemeSpec:
    """A fully parameterized two-class experiment at ambient dimension p."""

    scheme_id: str
    p: int
    populations: tuple


def _scheme1(p: int) -> SchemeSpec:
    p11 = _floor_power(p, 2.0 / 3.0)
    p12 = _floor_power(p, 1.0 / 3.0)
    p13 = p - p11 - p12
    p21 = p22 = _floor_power(p, 0.5)
    p23 = p - p21 - p22
    half_width = int(math.floor(p ** 0.6 / 2.0 + _FLOOR_NUDGE))
    if min(p11, p12, p13, p21, p23, half_width) < 1 or 2 * half_width > p:
        raise DimensionTooSmall(f"scheme s1 undefined at p={p}")
    rho = 0.7
    c1, c2 = 1.0, 1.3
    cov1 = BlockDiagonal([
        EquiCorrelation(p11, 0.5),
        EquiCorrelation(p12, 0.5),
        ScaledCovariance(ArProcessCovariance(p13, rho), c1 * (1.5 + 1.0 / p13)),
    ])
    cov2 = BlockDiagonal([
        EquiCorrelation(p21, 0.5),
        EquiCorrelation(p22, 0.5),
        ScaledCovariance(ArProcessCovariance(p23, rho), c2 * (1.5 + 1.0 / p23)),
    ])
    mean1 = np.zeros(p)
    mean2 = np.zeros(p)
    mean2[p - 2 * half_width:p - half_width] = 1.0
    mean2[p - half_width:] = -1.0
    return SchemeSpec("s1", p, (Population(0.5, mean1, cov1),
                                Population(0.5, mean2, cov2)))


def _equi_block_cov(p, n_blocks, block_size, rho):
    blocks = [EquiCorrelation(block_size, rho) for _ in range(n_blocks)]
    remainder = p - n_blocks * block_size
    if remainder > 0:
        blocks.append(IdentityCovariance(remainder))
    return BlockDiagonal(blocks)


def _scheme2(p: int) -> SchemeSpec:
    rho = 0.9
    nb1, bs1 = _floor_power(p, 0.4), _floor_power(p, 0.6)
    nb2, bs2 = _floor_power(p, 0.3), _floor_power(p, 0.7)
    if min(nb1, bs1, nb2, bs2) < 1:
        raise DimensionTooSmall(f"scheme s2 undefined at p={p}")
    cov1 = _equi_block_cov(p, nb1, bs1, rho)
    cov2 = _equi_block_cov(p, nb2, bs2, rho)
    zero = np.zeros(p)
    return SchemeSpec("s2", p, (Population(0.5, zero, cov1),
                                Population(0.5, zero.copy(), cov2)))


def _scheme3(p: int) -> SchemeSpec:
    # Class 1 has a Toeplitz AR-correlation *precision* matrix; class 2 is
    # the same covariance inflated by 1.3 (scale ratio 1/c with c = 1/1.3).
    cov1 = InverseArCovariance(p, 0.9)
    cov2 = ScaledCovariance(cov1, 1.3)
    zero = np.zeros(p)
    return SchemeSpec("s3", p, (Population(0.5, zero, cov1),
                                Population(0.5, zero.copy(), cov2)))


def _scheme4(p: int, structure_seed: int) -> SchemeSpec:
    spike_dim = _floor_power(p, 0.5)
    if spike_dim < 1 or 2 * spike_dim > p:
        raise DimensionTooSmall(f"scheme s4 undefined at p={p}")
    top = p ** 0.6
    lam = top - np.arange(spike_dim)
    if lam[-1] <= 0:
        raise DimensionTooSmall(f"scheme s4 spectrum not positive at p={p}")
    basis = orthonormal_columns(stream(structure_seed).standard_normal(
        (spike_dim, spike_dim)))
    spike1 = RotatedSpike(basis, lam)
    spike2 = RotatedSpike(basis, lam)
    cov1 = BlockDiagonal([spike1, IdentityCovariance(p - spike_dim)])
    cov2 = BlockDiagonal([IdentityCovariance(p - spike_dim), spike2])
    zero = np.zeros(p)
    return SchemeSpec("s4", p, (Population(0.5, zero, cov1),
                                Population(0.5, zero.copy(), cov2)))


def _require_positive_dimension(p) -> None:
    if p < 1:
        raise DimensionTooSmall(f"need p >= 1, got p={p}")


def build_scheme(scheme_id: str, p: int, structure_seed: int = 0) -> SchemeSpec:
    """Construct the populations of one benchmark scheme at dimension p.

    ``structure_seed`` only affects the random orthogonal rotation of the
    s4 spike block; the other schemes are fully deterministic in p.
    """
    _require_positive_dimension(p)
    key = scheme_id.lower()
    if key == "s1":
        return _scheme1(p)
    if key == "s2":
        return _scheme2(p)
    if key == "s3":
        return _scheme3(p)
    if key == "s4":
        return _scheme4(p, structure_seed)
    raise UnknownScheme(f"unknown scheme {scheme_id!r} (expected one of {SCHEME_IDS})")


def build_example2(p: int, c: float, r: int, spike_bound: float = 10.0,
                   seed: int = 0) -> SchemeSpec:
    """Scale-difference pair N(0, Sigma) vs N(0, c Sigma) with a spiked
    identity Sigma = I + P diag(gamma) P'.

    P has r orthonormal columns drawn once from a seeded Gaussian block
    (QR with positive-diagonal convention); gamma is uniform on
    [1, spike_bound).  r = 0 gives Sigma = ``IdentityCovariance(p)``.  A
    non-finite ``c`` or ``spike_bound`` (at any r) raises
    ``InvalidCovariance``.
    """
    _require_positive_dimension(p)
    if not 0 <= r <= p:
        raise DimensionTooSmall(f"need 0 <= r <= p, got r={r}, p={p}")
    if not math.isfinite(c) or c <= 0 or c == 1.0:
        raise InvalidCovariance(f"scale factor must be finite, positive and != 1, got {c}")
    if not math.isfinite(spike_bound):
        raise InvalidCovariance(f"spike bound must be finite, got {spike_bound}")
    if r > 0 and spike_bound <= 1.0:
        raise InvalidCovariance(f"spike bound must exceed 1, got {spike_bound}")
    rng = stream(seed)
    basis = orthonormal_columns(rng.standard_normal((p, r)))
    gamma = rng.uniform(1.0, spike_bound, size=r)
    base = SpikedIdentity(p, basis, gamma) if r else IdentityCovariance(p)
    zero = np.zeros(p)
    return SchemeSpec("example2", p,
                      (Population(0.5, zero, base),
                       Population(0.5, zero.copy(), ScaledCovariance(base, c))))


def _check_blocks(out, n: int, p: int) -> None:
    for block in out:
        if not (isinstance(block, np.ndarray) and block.dtype == np.float64
                and block.ndim == 2 and block.shape[1] == p
                and block.flags.c_contiguous and block.flags.writeable):
            raise InvalidParameter(
                f"out blocks must be writable C-contiguous float64 arrays of "
                f"shape (rows, {p})")
    rows = sum(len(block) for block in out)
    if rows != n:
        raise DimensionMismatch(f"out blocks hold {rows} rows, not n={n}")


def sample(spec: SchemeSpec, class_index: int, n: int, seed: int,
           out=None) -> np.ndarray | None:
    """n i.i.d. rows from class 1 or 2 of the scheme, deterministic in seed.

    Returns a new (n, p) array.  With ``out``, a sequence of writable
    C-contiguous float64 (n_i, p) blocks whose n_i sum to n, the same rows
    are written into the blocks in order instead (the first n_1 rows into
    the first block, and so on) and None is returned; the bytes do not
    depend on the split.  Calls with distinct seeds and blocks may run on
    concurrent threads.
    """
    if class_index not in (1, 2):
        raise InvalidParameter(f"class index must be 1 or 2, got {class_index}")
    pop = spec.populations[class_index - 1]
    if out is None:
        x = np.empty((n, spec.p))
        blocks = [x]
    else:
        x = None
        blocks = list(out)
        _check_blocks(blocks, n, spec.p)
    pop.cov.fill(stream(seed), blocks)
    for block in blocks:
        block += pop.mean
    return x


def sample_dataset(spec: SchemeSpec, n_per_class: int, seed: int) -> Dataset:
    """Balanced labeled sample; class k uses the derived seed mix(seed, k)
    and is drawn straight into its rows of the feature array."""
    features = np.empty((2 * n_per_class, spec.p))
    for i, k in enumerate((1, 2)):
        sample(spec, k, n_per_class, mix(seed, k),
               out=[features[i * n_per_class:(i + 1) * n_per_class]])
    return Dataset(features, tuple(str(k) for k in (1, 2) for _ in range(n_per_class)))


def kl_divergence(a, b) -> float:
    """KL divergence oracle for the ordered pair (a, b) of Gaussian
    ``Population``s, via the closed form

        2 KL = tr(S_a^{-1} S_b) + dmu' S_a^{-1} dmu - p
               + log det(S_a) - log det(S_b),

    with dmu = mu_a - mu_b.  Structured covariances keep every term exact;
    generic pairs use the column-sweep trace limited to p <= 2048.
    """
    cov_a, cov_b = a.cov, b.cov
    p = cov_a.p
    if cov_b.p != p or a.mean.shape != (p,) or b.mean.shape != (p,):
        raise DimensionMismatch("population dimensions differ")
    dmu = a.mean - b.mean
    quad = float(dmu @ cov_a.solve(dmu[:, None])[:, 0]) if dmu.any() else 0.0
    two_kl = (trace_solve_product(cov_a, cov_b) + quad - p
              + cov_a.log_det() - cov_b.log_det())
    kl = 0.5 * two_kl
    if -1e-9 < kl < 0.0:
        return 0.0
    return kl


def kl_summary(spec: SchemeSpec) -> dict:
    """Both directed divergences plus the table conventions min KL / p and
    2 min KL / p (the published tables are ambiguous about the factor 2)."""
    kl12 = kl_divergence(spec.populations[0], spec.populations[1])
    kl21 = kl_divergence(spec.populations[1], spec.populations[0])
    smallest = min(kl12, kl21)
    return {
        "kl_1_2": kl12,
        "kl_2_1": kl21,
        "kl_min": smallest,
        "kl_min_over_p": smallest / spec.p,
        "two_kl_min_over_p": 2.0 * smallest / spec.p,
    }
