import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from rpeqda import linalg, schemes
from rpeqda.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidCovariance,
    InvalidParameter,
    RpeQdaError,
    UnknownScheme,
)
from rpeqda.rng import mix, stream
from rpeqda.schemes import (
    build_example2,
    build_scheme,
    kl_divergence,
    kl_summary,
    sample,
    sample_dataset,
)

from oracles import DenseCovariance, dense, draw


def kl_divergence_dense(a, b) -> float:
    """Dense KL oracle for two populations: materialize both covariances
    and use Cholesky factors; the cross-check for the structured oracle at
    p <= 2048."""
    dense_a, dense_b = dense(a.cov), dense(b.cov)
    lower_a, log_det_a = linalg.cholesky(dense_a)
    _, log_det_b = linalg.cholesky(dense_b)
    half = np.linalg.solve(lower_a, dense_b)
    trace_term = float(np.trace(np.linalg.solve(lower_a, half.T)))
    y = solve_triangular(lower_a, a.mean - b.mean, lower=True)
    return 0.5 * (trace_term + float(y @ y) - dense_a.shape[0] + log_det_a - log_det_b)


class TestBuildScheme:
    def test_s1_sizes_at_512(self):
        spec = build_scheme("s1", 512)
        assert spec.details == {"p11": 64, "p12": 8, "p13": 440,
                                "p21": 22, "p22": 22, "p23": 468, "l": 21}
        mean2 = spec.populations[1].mean
        assert np.sum(mean2 == 1.0) == 21
        assert np.sum(mean2 == -1.0) == 21
        assert np.sum(mean2 == 0.0) == 512 - 42
        # sign layout: zeros, then ones, then minus-ones
        assert np.all(mean2[:470] == 0.0)
        assert np.all(mean2[470:491] == 1.0)
        assert np.all(mean2[491:] == -1.0)

    def test_s2_sizes_at_512(self):
        spec = build_scheme("s2", 512)
        d = spec.details
        assert (d["n_blocks_1"], d["block_size_1"]) == (12, 42)
        assert (d["n_blocks_2"], d["block_size_2"]) == (6, 78)
        assert d["identity_1"] == 512 - 12 * 42
        assert d["identity_2"] == 512 - 6 * 78

    def test_s4_sizes_at_512(self):
        spec = build_scheme("s4", 512, structure_seed=3)
        assert spec.details["l"] == 22
        assert spec.details["lam_top"] == pytest.approx(512 ** 0.6, rel=1e-12)
        assert spec.details["lam_top"] == pytest.approx(42.2243, abs=5e-5)

    def test_s4_structure_seed_changes_rotation_not_kl(self):
        a = build_scheme("s4", 128, structure_seed=1)
        b = build_scheme("s4", 128, structure_seed=2)
        assert not np.allclose(dense(a.populations[0].cov),
                               dense(b.populations[0].cov))
        assert kl_divergence(a.populations[0], a.populations[1]) == pytest.approx(
            kl_divergence(b.populations[0], b.populations[1]), rel=1e-9)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            build_scheme("s1", 4)

    @pytest.mark.parametrize("scheme_id", ["s1", "s2", "s3", "s4"])
    @pytest.mark.parametrize("p", [0, -3])
    def test_nonpositive_dimension_rejected(self, scheme_id, p):
        with pytest.raises(DimensionTooSmall) as err:
            build_scheme(scheme_id, p)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme) as err:
            build_scheme("s9", 512)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_priors_are_half(self):
        for sid in ("s1", "s2", "s3", "s4"):
            spec = build_scheme(sid, 128, 1)
            assert [pop.prior for pop in spec.populations] == [0.5, 0.5]


class TestBuildExample2:
    def test_rank_zero_gives_identity_and_closed_form_kl(self):
        spec = build_example2(100, c=2.0, r=0, seed=1)
        np.testing.assert_array_equal(dense(spec.populations[0].cov), np.eye(100))
        kl12 = kl_divergence(spec.populations[0], spec.populations[1])
        assert kl12 == pytest.approx(100 * (2.0 - math.log(2.0) - 1.0) / 2.0, rel=1e-12)
        assert kl12 == pytest.approx(15.3426, abs=5e-5)

    def test_kl_independent_of_spike(self):
        # scale pairs share the base, so the divergence only sees c and p
        for r in (0, 3, 10):
            spec = build_example2(60, c=2.0, r=r, spike_bound=5.0, seed=4)
            kl12 = kl_divergence(spec.populations[0], spec.populations[1])
            assert kl12 == pytest.approx(60 * (2.0 - math.log(2.0) - 1.0) / 2.0, rel=1e-10)

    def test_c_equal_one_rejected(self):
        with pytest.raises(InvalidCovariance) as err:
            build_example2(50, c=1.0, r=0)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)
        with pytest.raises(InvalidCovariance):
            build_example2(50, c=0.0, r=0)

    def test_spike_bound_at_most_one_rejected(self):
        with pytest.raises(InvalidCovariance):
            build_example2(50, c=2.0, r=2, spike_bound=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, value):
        with pytest.raises(InvalidCovariance, match="finite"):
            build_example2(50, c=value, r=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("r", [0, 2])
    def test_non_finite_spike_bound_rejected(self, value, r):
        # rejected at r = 0 too: the spec records the bound
        with pytest.raises(InvalidCovariance, match="finite"):
            build_example2(50, c=2.0, r=r, spike_bound=value)

    def test_bad_rank_rejected(self):
        with pytest.raises(DimensionTooSmall):
            build_example2(10, c=2.0, r=11)

    @pytest.mark.parametrize("p", [0, -3])
    def test_nonpositive_dimension_rejected(self, p):
        with pytest.raises(DimensionTooSmall) as err:
            build_example2(p, c=2.0, r=0)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_basis_is_orthonormal(self):
        spec = build_example2(40, c=0.5, r=5, spike_bound=3.0, seed=9)
        basis = spec.populations[0].cov.basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(5), atol=1e-10)


class TestSampling:
    def test_sample_deterministic(self):
        spec = build_scheme("s2", 64)
        a = sample(spec, 1, 5, seed=42)
        b = sample(spec, 1, 5, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_sample_dataset_layout(self):
        spec = build_scheme("s3", 32)
        data = sample_dataset(spec, 4, seed=3)
        assert data.n == 8 and data.p == 32
        assert data.labels == ("1",) * 4 + ("2",) * 4
        assert data.class_labels == ("1", "2")

    def test_bad_class_index(self):
        spec = build_scheme("s3", 32)
        with pytest.raises(InvalidParameter) as err:
            sample(spec, 3, 2, seed=0)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("blocks, error", [
        (lambda: [np.empty((3, 32))], DimensionMismatch),              # 3 rows, n = 5
        (lambda: [np.empty((2, 32)), np.empty((2, 32))], DimensionMismatch),
        (lambda: [np.empty((5, 31))], InvalidParameter),                # wrong width
        (lambda: [np.empty((5, 32), dtype=np.float32)], InvalidParameter),
        (lambda: [np.empty((5, 64))[:, ::2]], InvalidParameter),        # strided
        (lambda: [np.empty((32, 5)).T], InvalidParameter),              # Fortran order
        (lambda: [np.empty(160)], InvalidParameter),
        (lambda: [np.empty((5, 32)).tolist()], InvalidParameter),
    ])
    def test_bad_out_blocks_rejected(self, blocks, error):
        spec = build_scheme("s3", 32)
        with pytest.raises(error) as err:
            sample(spec, 1, 5, seed=0, out=blocks())
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_dataset_features_match_class_draws(self):
        spec = build_scheme("s1", 64)
        data = sample_dataset(spec, 6, seed=9)
        for i, k in enumerate((1, 2)):
            np.testing.assert_array_equal(data.features[6 * i:6 * (i + 1)],
                                          sample(spec, k, 6, seed=mix(9, k)))

    @pytest.mark.parametrize("sid,p", [("s1", 64), ("s2", 64), ("s3", 64),
                                       ("s4", 64), ("example2", 64)])
    def test_sampler_law_small_p(self, sid, p):
        # empirical mean/covariance of 2e5 draws vs the dense materialization
        if sid == "example2":
            spec = build_example2(p, c=2.0, r=4, spike_bound=4.0, seed=11)
        else:
            spec = build_scheme(sid, p, structure_seed=11)
        for k in (1, 2):
            pop = spec.populations[k - 1]
            sigma = dense(pop.cov)
            total = 200000
            gen = stream(500 + k)
            sums = np.zeros(p)
            prods = np.zeros((p, p))
            for _ in range(4):
                draws = draw(pop.cov, total // 4, gen)
                sums += draws.sum(axis=0)
                prods += draws.T @ draws
            emp_cov = prods / total
            assert np.max(np.abs(emp_cov - sigma)) <= 0.05 * max(np.max(np.abs(sigma)), 1.0)
            assert np.max(np.abs(sums / total - np.zeros(p))) <= 0.05


class TestKlOracle:
    def test_identical_populations_zero(self):
        cov = DenseCovariance(np.array([[2.0, 0.5], [0.5, 1.0]]))
        pop = schemes.Population(0.5, np.array([1.0, -1.0]), cov)
        assert kl_divergence(pop, pop) == 0.0

    def test_dimension_mismatch(self):
        a = schemes.Population(0.5, np.zeros(1), DenseCovariance(np.array([[1.0]])))
        b = schemes.Population(0.5, np.zeros(2), DenseCovariance(np.eye(2)))
        with pytest.raises(DimensionMismatch) as err:
            kl_divergence(a, b)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_scalar_case_frozen_values(self):
        a = schemes.Population(0.5, np.zeros(1), DenseCovariance(np.array([[1.0]])))
        b = schemes.Population(0.5, np.zeros(1), DenseCovariance(np.array([[4.0]])))
        assert kl_divergence(a, b) == pytest.approx((4 - 1 + math.log(0.25)) / 2, rel=1e-12)
        assert kl_divergence(a, b) == pytest.approx(0.8069, abs=5e-5)
        assert kl_divergence(b, a) == pytest.approx(0.3181, abs=5e-5)

    def test_nonnegative_on_generated_specs(self):
        for sid in ("s1", "s2", "s3", "s4"):
            spec = build_scheme(sid, 128, 5)
            summary = kl_summary(spec)
            assert summary["kl_1_2"] >= -1e-9
            assert summary["kl_2_1"] >= -1e-9

    @pytest.mark.parametrize("sid", ["s1", "s2", "s3", "s4"])
    def test_structured_equals_dense_path_512(self, sid):
        spec = build_scheme(sid, 512, structure_seed=2)
        a, b = spec.populations
        structured = kl_divergence(a, b)
        dense = kl_divergence_dense(a, b)
        assert structured == pytest.approx(dense, rel=1e-6)

    def test_example2_structured_equals_dense(self):
        spec = build_example2(300, c=2.0, r=6, spike_bound=8.0, seed=3)
        a, b = spec.populations
        assert kl_divergence(a, b) == pytest.approx(kl_divergence_dense(a, b), rel=1e-8)
        assert kl_divergence(b, a) == pytest.approx(kl_divergence_dense(b, a), rel=1e-8)

    def test_s4_closed_form_at_128(self):
        # both directed divergences equal (tr(Lam) + tr(1/Lam) - 2l) / 2
        spec = build_scheme("s4", 128, structure_seed=4)
        spike_dim = spec.details["l"]
        lam = 128 ** 0.6 - np.arange(spike_dim)
        closed = 0.5 * (np.sum(lam) + np.sum(1.0 / lam) - 2 * spike_dim)
        a, b = spec.populations
        assert kl_divergence(a, b) == pytest.approx(closed, rel=1e-8)
        assert kl_divergence(b, a) == pytest.approx(closed, rel=1e-8)
        assert kl_divergence_dense(a, b) == pytest.approx(closed, rel=1e-8)

    def test_table_conventions_at_512(self):
        # frozen from the structured oracle; the published tables match
        # s1/s3 under min KL / p and s4 under 2 min KL / p
        values = {sid: kl_summary(build_scheme(sid, 512, 1)) for sid in
                  ("s1", "s2", "s3", "s4")}
        assert values["s1"]["kl_min_over_p"] == pytest.approx(0.03562, abs=1e-4)
        assert values["s2"]["kl_min_over_p"] == pytest.approx(1.05472, abs=1e-4)
        assert values["s3"]["kl_min_over_p"] == pytest.approx(0.01580, abs=1e-4)
        assert values["s4"]["two_kl_min_over_p"] == pytest.approx(1.27863, abs=1e-4)
