import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rpeqda import evaluate, rpe, schemes, serialize
from rpeqda.dataset import Dataset
from rpeqda.errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidCovariance,
    LengthMismatch,
    ReducedDimTooLarge,
    RpeQdaError,
    SingularCovariance,
    TooFewSamplesForClass,
)
from rpeqda.randproj import ProjectionFamily
from rpeqda.rng import PROJECTION_TAG, mix


class TestMisclassification:
    def test_all_correct(self):
        assert evaluate.misclassification(["a", "b"], ["a", "b"]) == 0.0

    def test_all_wrong(self):
        assert evaluate.misclassification(["b", "a"], ["a", "b"]) == 1.0

    def test_prior_weighted_arithmetic(self):
        # phat_1 = 0.1, phat_2 = 0.2, equal priors -> 0.15
        truth = ["1"] * 10 + ["2"] * 10
        predictions = ["1"] * 9 + ["2"] + ["2"] * 8 + ["1"] * 2
        got = evaluate.misclassification(predictions, truth,
                                         priors={"1": 0.5, "2": 0.5})
        assert got == pytest.approx(0.15)

    def test_default_priors_are_test_proportions(self):
        truth = ["1"] * 30 + ["2"] * 10
        predictions = ["1"] * 30 + ["1"] * 10
        assert evaluate.misclassification(predictions, truth) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate.misclassification(["a"], ["a", "b"])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            evaluate.misclassification([], [])


class TestRunSchemeExperiment:
    def test_single_replicate_sd_zero(self):
        config = rpe.RpeConfig(B=10, d=3)
        report = evaluate.run_scheme_experiment("s2", 64, 20, 10, 1, config,
                                                data_seed=5)
        assert report.replicates == 1
        assert report.sd == 0.0
        assert 0.0 <= report.mean <= 1.0

    def test_mean_sd_recomputable(self):
        config = rpe.RpeConfig(B=10, d=3)
        report = evaluate.run_scheme_experiment("s2", 64, 20, 10, 4, config,
                                                data_seed=6)
        vals = np.array(report.per_replicate)
        assert report.mean == pytest.approx(float(vals.mean()), abs=1e-12)
        assert report.sd == pytest.approx(float(vals.std(ddof=1)), abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_determinism_of_report_payload(self):
        config = rpe.RpeConfig(B=8, d=3, family=ProjectionFamily.SPARSE_THREE_POINT)
        a = evaluate.run_scheme_experiment("s3", 64, 15, 10, 3, config, data_seed=7)
        b = evaluate.run_scheme_experiment("s3", 64, 15, 10, 3, config, data_seed=7)
        assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)

    def test_dim_precondition(self):
        config = rpe.RpeConfig(B=2, d=20)
        with pytest.raises(ReducedDimTooLarge):
            evaluate.run_scheme_experiment("s2", 64, 20, 10, 1, config, data_seed=1)

    def test_replicate_memory_is_bounded_by_its_data(self):
        # a replicate holds its 600 rows once, drawn straight into the train
        # and test arrays, plus row-block temporaries: the traced peak
        # measures 1.10x the data bytes, and a copy of one class's draws
        # (0.5x) or any larger copy of the rows breaks the bound
        p = 8192
        config = rpe.RpeConfig(B=20, d=10, family=ProjectionFamily.SPARSE_THREE_POINT)
        tracemalloc.start()
        try:
            evaluate.run_scheme_experiment("s3", p, 100, 200, 1, config, data_seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 600 * p * 8

    @pytest.mark.parametrize("failing", [(1,), (2,), (1, 2)])
    def test_class_draw_errors_stay_typed(self, monkeypatch, failing):
        # the classes are drawn on worker threads; the caller gets the very
        # error a draw raised, and class 1's when both fail, even though
        # class 2 fails first here
        spec = schemes.build_scheme("s2", 64)
        errors = {1: InvalidCovariance("class 1 draw"), 2: DimensionMismatch("class 2 draw")}

        def raiser(k):
            def fill(rng, outs):
                if k == 1:
                    time.sleep(0.05)
                raise errors[k]
            return fill

        for k in failing:
            monkeypatch.setattr(spec.populations[k - 1].cov, "fill", raiser(k))
        config = rpe.RpeConfig(B=4, d=3)
        with pytest.raises(RpeQdaError) as err:
            evaluate.run_scheme_experiment(spec, 64, 20, 10, 1, config, data_seed=8)
        assert err.value is errors[failing[0]]

    def test_concurrent_experiments_match_a_lone_run(self):
        # four experiments at once (eight class draws on two cores) with a
        # short switch interval: each report must equal a run on its own
        config = rpe.RpeConfig(B=6, d=3, family=ProjectionFamily.SPARSE_THREE_POINT)

        def report(seed):
            return evaluate.run_scheme_experiment(
                "s1", 64, 15, 10, 2, config, data_seed=seed).to_dict(include_timing=False)

        want = [report(seed) for seed in range(4)]
        got = [None] * 4

        def work(i):
            got[i] = report(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    @pytest.mark.parametrize("family", list(ProjectionFamily))
    @pytest.mark.parametrize("reps", [1, 2, 3, 5])
    def test_paired_replicates_equal_a_serial_run(self, monkeypatch, family, reps):
        config = rpe.RpeConfig(B=6, d=3, family=family)

        def report():
            return serialize.canonical_json(evaluate.run_scheme_experiment(
                "s1", 64, 15, 10, reps, config, data_seed=21).to_dict(include_timing=False))

        paired = report()
        monkeypatch.setattr(evaluate, "_replicates_in_pairs", lambda *args: False)
        assert report() == paired

    def test_accepts_prebuilt_spec(self):
        spec = schemes.build_example2(64, c=2.0, r=0, seed=1)
        config = rpe.RpeConfig(B=10, d=3)
        report = evaluate.run_scheme_experiment(spec, 64, 20, 10, 2, config,
                                                data_seed=8)
        assert report.identifier == "example2"
        assert report.kl["kl_min_over_p"] > 0


class TestReplicatePairs:
    """Which thread fits each replicate and draws each of its classes, for
    ``run_scheme_experiment("s1", 64, 15, 10, reps, config, data_seed=21)``."""

    DATA_SEED = 21
    # a pair of these replicates holds 2·8·p·(B·d + 2·(n_train + n_test)) bytes
    PAIR_BYTES = 2 * 8 * 64 * (6 * 3 + 2 * (15 + 10))

    @pytest.fixture
    def threads(self, monkeypatch):
        fits, draws = {}, {}
        replicate = {mix(self.DATA_SEED, r, PROJECTION_TAG): r for r in range(1, 6)}
        fit, sample = rpe.rpe_fit, schemes.sample

        def fit_spy(data, config):
            fits[replicate[config.master_seed]] = threading.current_thread().name
            return fit(data, config)

        def sample_spy(spec, k, n, seed, out=None):
            draws[next((r, k) for r in range(1, 6) if mix(self.DATA_SEED, r, k) == seed)] = (
                threading.current_thread().name)
            return sample(spec, k, n, seed, out=out)

        monkeypatch.setattr(rpe, "rpe_fit", fit_spy)
        monkeypatch.setattr(schemes, "sample", sample_spy)
        return fits, draws

    def run(self, reps, family=ProjectionFamily.STANDARD_NORMAL):
        return evaluate.run_scheme_experiment(
            "s1", 64, 15, 10, reps, rpe.RpeConfig(B=6, d=3, family=family),
            data_seed=self.DATA_SEED)

    def test_sn_replicates_run_in_pairs_and_an_odd_last_one_alone(self, threads):
        fits, draws = threads
        self.run(5)
        caller = threading.current_thread().name
        assert [fits[r] == caller for r in range(1, 6)] == [True, False, True, False, True]
        # a paired replicate draws both classes on its own thread; the lone
        # last one splits its draws over both threads
        assert all(draws[r, k] == fits[r] for r in range(1, 5) for k in (1, 2))
        assert draws[5, 1] == caller and draws[5, 2] != caller

    def test_stp_replicates_stay_serial(self, threads):
        fits, _ = threads
        self.run(3, ProjectionFamily.SPARSE_THREE_POINT)
        assert set(fits.values()) == {threading.current_thread().name}

    def test_sn_replicates_over_the_budget_stay_serial(self, monkeypatch, threads):
        fits, _ = threads
        monkeypatch.setattr(evaluate, "_PAIR_BYTES", self.PAIR_BYTES - 1)
        self.run(2)
        assert set(fits.values()) == {threading.current_thread().name}
        monkeypatch.setattr(evaluate, "_PAIR_BYTES", self.PAIR_BYTES)
        self.run(2)
        assert fits[2] != threading.current_thread().name

    def test_pairing_rule_on_the_benchmark_cells(self):
        sn = rpe.RpeConfig(B=200, d=10)
        # s2 at p = 2048 holds 43 MB per replicate, s3 at p = 65536 1.4 GB
        assert evaluate._replicates_in_pairs(sn, 2048, 100, 200)
        assert not evaluate._replicates_in_pairs(sn, 65536, 100, 200)
        assert not evaluate._replicates_in_pairs(
            rpe.RpeConfig(B=200, d=10, family=ProjectionFamily.SPARSE_THREE_POINT),
            2048, 100, 200)
        # d = None resolves as the fit would: ceil(log 4096) = 9
        assert not evaluate._replicates_in_pairs(rpe.RpeConfig(B=200), 4096, 100, 200)

    @pytest.mark.parametrize("failing, raised", [((2, 3), 2), ((1, 2), 1)])
    def test_first_failing_replicate_raises(self, monkeypatch, failing, raised):
        # replicates 1 and 2 run at once, then 3 and 4; replicate 1 fails
        # after replicate 2 has failed, and its error is still the one raised
        errors = {r: InvalidCovariance(f"replicate {r}") for r in failing}
        replicate = {mix(self.DATA_SEED, r, PROJECTION_TAG): r for r in range(1, 5)}
        fit = rpe.rpe_fit

        def flaky(data, config):
            r = replicate[config.master_seed]
            if r == 1:
                time.sleep(0.05)
            if r in errors:
                raise errors[r]
            return fit(data, config)

        monkeypatch.setattr(rpe, "rpe_fit", flaky)
        with pytest.raises(InvalidCovariance) as err:
            self.run(4)
        assert err.value is errors[raised]


class TestLoocv:
    def test_separated_toy_is_perfect(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.standard_normal(10) - 100,
                            rng.standard_normal(10) + 100])[:, None]
        data = Dataset(x, ("a",) * 10 + ("b",) * 10)
        report = evaluate.loocv(data, rpe.RpeConfig(B=5, d=1, master_seed=3))
        assert report.mean == 0.0
        assert report.sd == 0.0
        assert report.replicates == 20
        assert len(report.per_replicate) == 20

    def test_binomial_standard_error_formula(self):
        # 3 errors out of 20 -> se = sqrt(0.15 * 0.85 / 20)
        assert math.sqrt(0.15 * 0.85 / 20) == pytest.approx(0.0798, abs=5e-5)

    def test_too_few_samples(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 3))
        data = Dataset(x, ("a",) * 3 + ("b",) * 3)
        with pytest.raises(TooFewSamplesForClass):
            evaluate.loocv(data, rpe.RpeConfig(B=2, d=2))

    def test_constant_features_fail_loudly(self):
        data = Dataset(np.ones((16, 6)), ("a",) * 8 + ("b",) * 8)
        with pytest.raises(SingularCovariance):
            evaluate.loocv(data, rpe.RpeConfig(B=2, d=2, max_regen_retries=2))

    def test_default_dim_leaves_room_for_folds(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.standard_normal((5, 2)) - 50,
                            rng.standard_normal((5, 2)) + 50])
        data = Dataset(x, ("a",) * 5 + ("b",) * 5)
        report = evaluate.loocv(data, rpe.RpeConfig(B=3))
        # n_min = 5, so the resolved fold-safe default is min(4-1, ...) etc.
        assert report.config["d"] <= 3


class TestThetaLowerBound:
    @staticmethod
    def dense_oracle(data):
        labels = data.class_labels
        out = np.zeros((len(labels), len(labels)))
        stats = {}
        for label in labels:
            rows = data.features[data.class_indices(label)]
            mu = rows.mean(axis=0)
            centered = rows - mu
            cov = centered.T @ centered / (len(rows) - 1)
            stats[label] = (mu, np.linalg.inv(np.eye(data.p) + cov))
        for i, k in enumerate(labels):
            for j, k2 in enumerate(labels):
                if i == j:
                    continue
                dmu = stats[k][0] - stats[k2][0]
                out[i, j] = 0.5 * float(dmu @ stats[k][1] @ dmu)
        return out

    def test_identical_means_zero(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((6, 4))
        x = np.vstack([base, base + 0.0])
        # same rows in both classes: identical means and covariances
        data = Dataset(x, ("a",) * 6 + ("b",) * 6)
        theta = evaluate.theta_lower_bound(data)
        np.testing.assert_allclose(theta.values, 0.0, atol=1e-18)

    def test_small_case_matches_dense_inverse(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((9, 3)) + np.repeat([[0], [3], [-2]], 3, axis=0)
        data = Dataset(x, ("a",) * 3 + ("b",) * 3 + ("c",) * 3)
        theta = evaluate.theta_lower_bound(data)
        oracle = self.dense_oracle(data)
        np.testing.assert_allclose(theta.values, oracle, rtol=1e-10, atol=1e-10)
        assert np.all(theta.values >= 0)

    def test_zero_covariance_reduces_to_half_squared_distance(self):
        x = np.array([[1.0, 2.0]] * 3 + [[4.0, 6.0]] * 3)
        data = Dataset(x, ("a",) * 3 + ("b",) * 3)
        theta = evaluate.theta_lower_bound(data)
        want = 0.5 * (3.0 ** 2 + 4.0 ** 2)
        assert theta.values[0, 1] == pytest.approx(want, rel=1e-12)
        assert theta.values[1, 0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_low_rank_equals_dense_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(5, 120))
        n1, n2 = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        x = np.vstack([rng.standard_normal((n1, p)),
                       rng.standard_normal((n2, p)) + rng.standard_normal(p)])
        data = Dataset(x, ("a",) * n1 + ("b",) * n2)
        theta = evaluate.theta_lower_bound(data)
        oracle = self.dense_oracle(data)
        denom = np.maximum(np.abs(oracle), 1e-12)
        assert np.max(np.abs(theta.values - oracle) / denom) <= 1e-8

    def test_too_few_samples(self):
        data = Dataset(np.zeros((3, 2)), ("a", "a", "b"))
        with pytest.raises(TooFewSamplesForClass):
            evaluate.theta_lower_bound(data)

    def test_log_over_p_handles_zero(self):
        x = np.array([[1.0, 2.0]] * 3 + [[4.0, 6.0]] * 3)
        data = Dataset(x, ("a",) * 3 + ("b",) * 3)
        theta = evaluate.theta_lower_bound(data)
        logs = theta.log_over_p(data.p)
        assert np.isneginf(logs[0, 0]) and np.isneginf(logs[1, 1])
        assert np.isfinite(logs[0, 1])


class TestTheoremAlignment:
    def test_small_scale_smoke(self):
        spec = schemes.build_example2(200, c=2.0, r=0, seed=1)
        check = evaluate.theorem_alignment_check(spec, draws=50, seed=9,
                                                 d=4, B=50)
        expected_kl = (0.5 + math.log(2.0) - 1.0) / 2.0
        assert check.kl_over_p == pytest.approx(expected_kl, rel=1e-12)
        assert check.positive_count is not None
        assert 0 <= check.positive_count <= 50
        assert check.mean_abs_deviation < 0.1

    def test_classical_only(self):
        spec = schemes.build_example2(100, c=2.0, r=0, seed=2)
        check = evaluate.theorem_alignment_check(spec, draws=20, seed=10)
        assert check.positive_count is None
        assert check.ensemble_seconds is None
