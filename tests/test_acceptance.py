"""Acceptance suite: one test per acceptance criterion, each printed as a
pass/fail line with the measured values.

Expensive experiment results are cached at module scope and shared across
criteria; the determinism criterion reruns every computation from scratch
with the same seeds and byte-compares the canonical serialized payloads.

Known-red criteria
------------------
Criteria 2 and 3 pin reference misclassification targets for schemes s1
and s3 (0.06 +- 0.03 and 0.08 +- 0.03 at p = 512).  Under the exact
protocol implemented here (plain n_k - 1 covariance estimators, averaged
discriminants, d = 10, B = 200, 100 train / 200 test per class), the
measured means are ~0.094 (s1) and ~0.243 (s3), stable across seeds and
confirmed by an independent reimplementation of the per-member classifier
(sklearn QDA produces byte-identical aggregated decisions).  The gap is a
finite-sample effect: the inverse-Wishart inflation of estimated
precision matrices, E[(S_hat)^-1] = (m / (m - d - 1)) S^-1 with m = 99 and
d = 10, nearly cancels the weak class's mean discriminant for pure
scale-difference pairs ((d/2) [log 1.3 - (99/88)(1 - 1/1.3)] ~= 0.014).
The reference values are attainable only with ~5x the stated training
data or a de-biased precision estimator, neither of which the contract
specifies, so the tests are left faithful and red rather than adjusted.
"""

import math
import time

import numpy as np
import pytest

from rpeqda import evaluate, linalg, qda, rpe, schemes, serialize
from rpeqda.dataset import Dataset
from rpeqda.randproj import ProjectionFamily
from rpeqda.rng import PROJECTION_TAG, STRUCTURE_TAG, mix

from oracles import DenseCovariance

DATA_SEED = 20240801
THEOREM_SEED = 424242
N_TRAIN = 100
N_TEST = 200
REPS = 50

SN = ProjectionFamily.STANDARD_NORMAL
STP = ProjectionFamily.SPARSE_THREE_POINT

EXPERIMENT_GRID = (
    ("s2", 512, SN), ("s2", 512, STP),
    ("s1", 512, SN), ("s1", 512, STP),
    ("s3", 512, SN),
    ("s4", 512, STP),
    ("s2", 2048, SN),
    ("s4", 2048, STP),
)

_cache = {}


def _note(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def scheme_report(scheme, p, family, fresh=False):
    key = ("scheme", scheme, p, family.value)
    if fresh or key not in _cache:
        config = rpe.RpeConfig(B=200, d=10, family=family)
        report = evaluate.run_scheme_experiment(
            scheme, p, N_TRAIN, N_TEST, REPS, config, data_seed=DATA_SEED)
        payload = report.to_dict(include_timing=False)
        if fresh:
            return payload
        _cache[key] = payload
    return _cache[key]


def kl_payload(fresh=False):
    key = ("kl", 512)
    if fresh or key not in _cache:
        payload = {sid: schemes.kl_summary(schemes.build_scheme(sid, 512, 1))
                   for sid in ("s1", "s3", "s4")}
        if fresh:
            return payload
        _cache[key] = payload
    return _cache[key]


def equivalence_payload(fresh=False):
    key = ("equivalence",)
    if fresh or key not in _cache:
        rng = np.random.default_rng(314159)
        x0 = rng.standard_normal((30, 5))
        x1 = rng.standard_normal((30, 5)) * np.linspace(1.0, 2.0, 5) + 1.0
        data = Dataset(np.vstack([x0, x1]), ("0",) * 30 + ("1",) * 30)
        z_rows = rng.standard_normal((1000, 5)) * 1.5

        classical = qda.fit_grouped([(label, data.features[data.class_indices(label)])
                                     for label in data.class_labels])
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=1, d=5, master_seed=271828))
        ens = rpe.rpe_scores_rows(model, z_rows)
        direct = qda.class_scores_rows(*classical, z_rows)
        sample_diffs = (ens[:, 0] - ens[:, 1]) - (direct[:, 0] - direct[:, 1])

        def spd(seed):
            a = np.random.default_rng(seed).standard_normal((5, 5))
            return a @ a.T + 5 * np.eye(5)

        pops = [(0.5, np.zeros(5), DenseCovariance(spd(1))),
                (0.5, np.ones(5), DenseCovariance(spd(2)))]
        pens = rpe.population_rpe_scores(
            pops, 5, rpe.RpeConfig(B=1, d=5, master_seed=161803), z_rows)
        pdirect = qda.population_class_scores(pops, z_rows)
        pop_diffs = (pens[:, 0] - pens[:, 1]) - (pdirect[:, 0] - pdirect[:, 1])

        payload = {
            "points": len(z_rows),
            "sample_max_gap": float(np.max(np.abs(sample_diffs))),
            "population_max_gap": float(np.max(np.abs(pop_diffs))),
            "sample_gaps": sample_diffs,
            "population_gaps": pop_diffs,
        }
        if fresh:
            return payload
        _cache[key] = payload
    return _cache[key]


def theorem_payload(fresh=False):
    key = ("theorem",)
    if fresh or key not in _cache:
        spec = schemes.build_example2(2000, c=2.0, r=0, seed=1)
        check = evaluate.theorem_alignment_check(
            spec, draws=100, seed=THEOREM_SEED, d=8, B=2000)
        payload = {"summary": check.to_dict(include_timing=False),
                   "classical_seconds": check.classical_seconds,
                   "ensemble_seconds": check.ensemble_seconds}
        if fresh:
            return payload
        _cache[key] = payload
    return _cache[key]


def theta_payload(fresh=False):
    key = ("theta",)
    if fresh or key not in _cache:
        instances = []
        for seed in range(20):
            rng = np.random.default_rng(9000 + seed)
            p = int(rng.integers(4, 257))
            n1 = int(rng.integers(3, 14))
            n2 = int(rng.integers(3, 14))
            x = np.vstack([rng.standard_normal((n1, p)),
                           rng.standard_normal((n2, p)) + rng.standard_normal(p)])
            data = Dataset(x, ("a",) * n1 + ("b",) * n2)
            theta = evaluate.theta_lower_bound(data)
            oracle = _theta_dense_oracle(data)
            denom = np.maximum(np.abs(oracle), 1e-12)
            instances.append({
                "p": p, "n1": n1, "n2": n2,
                "values": theta.values,
                "max_rel_gap": float(np.max(np.abs(theta.values - oracle) / denom)),
            })
        payload = {"instances": instances}
        if fresh:
            return payload
        _cache[key] = payload
    return _cache[key]


# numpy's BLAS on one thread, as in the library, so max_rel_gap (and the
# criterion-12 payload) does not depend on OPENBLAS_NUM_THREADS
@linalg._one_blas_thread()
def _theta_dense_oracle(data):
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
            if i != j:
                dmu = stats[k][0] - stats[k2][0]
                out[i, j] = 0.5 * float(dmu @ stats[k][1] @ dmu)
    return out


def full_payload(fresh=False):
    payload = {}
    for scheme, p, family in EXPERIMENT_GRID:
        payload[f"scheme:{scheme}:{p}:{family.value}"] = scheme_report(
            scheme, p, family, fresh=fresh)
    payload["kl:512"] = kl_payload(fresh=fresh)
    payload["equivalence"] = equivalence_payload(fresh=fresh)
    payload["theorem"] = {"summary": theorem_payload(fresh=fresh)["summary"]}
    payload["theta"] = theta_payload(fresh=fresh)
    return payload


def test_criterion_01_scheme2_table_reproduction():
    start = time.perf_counter()
    sn = scheme_report("s2", 512, SN)
    stp = scheme_report("s2", 512, STP)
    elapsed = time.perf_counter() - start
    means = (sn["misclassification"]["mean"], stp["misclassification"]["mean"])
    ok = means[0] <= 0.02 and means[1] <= 0.02
    _note(1, ok, f"s2 p=512 RPE-SN mean={means[0]:.4f}, RPE-STP mean={means[1]:.4f} "
                 f"(target <= 0.02), {elapsed:.0f}s")
    assert elapsed <= 900.0
    assert means[0] <= 0.02, f"s2 RPE-SN mean {means[0]:.4f} > 0.02"
    assert means[1] <= 0.02, f"s2 RPE-STP mean {means[1]:.4f} > 0.02"


def test_criterion_02_scheme1_table_reproduction():
    sn = scheme_report("s1", 512, SN)["misclassification"]["mean"]
    stp = scheme_report("s1", 512, STP)["misclassification"]["mean"]
    ok = 0.03 <= sn <= 0.09 and 0.03 <= stp <= 0.09
    _note(2, ok, f"s1 p=512 RPE-SN mean={sn:.4f}, RPE-STP mean={stp:.4f} "
                 f"(target 0.06 +- 0.03)")
    assert 0.03 <= sn <= 0.09, f"s1 RPE-SN mean {sn:.4f} outside [0.03, 0.09]"
    assert 0.03 <= stp <= 0.09, f"s1 RPE-STP mean {stp:.4f} outside [0.03, 0.09]"


def test_criterion_03_scheme3_table_reproduction():
    sn = scheme_report("s3", 512, SN)["misclassification"]["mean"]
    ok = 0.05 <= sn <= 0.11
    _note(3, ok, f"s3 p=512 RPE-SN mean={sn:.4f} (target 0.08 +- 0.03)")
    assert 0.05 <= sn <= 0.11, f"s3 RPE-SN mean {sn:.4f} outside [0.05, 0.11]"


def population_mean(scheme, p, family):
    """Mean misclassification of the known-parameter ensemble (B = 200,
    d = 10) on the test rows of the REPS replicates of
    ``run_scheme_experiment``: replicate r draws class k's train then test
    rows from mix(DATA_SEED, r, k) and seeds its projections from
    mix(DATA_SEED, r, PROJECTION_TAG)."""
    spec = schemes.build_scheme(scheme, p, mix(DATA_SEED, STRUCTURE_TAG))
    pops = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
    truth = [k for k in (1, 2) for _ in range(N_TEST)]
    errors = []
    for r in range(1, REPS + 1):
        z_rows = np.vstack([
            schemes.sample(spec, k, N_TRAIN + N_TEST, mix(DATA_SEED, r, k))[N_TRAIN:]
            for k in (1, 2)])
        config = rpe.RpeConfig(B=200, d=10, family=family,
                               master_seed=mix(DATA_SEED, r, PROJECTION_TAG))
        scores = rpe.population_rpe_scores(pops, p, config, z_rows)
        errors.append(evaluate.misclassification(np.argmax(scores, axis=1) + 1, truth))
    return float(np.mean(errors))


# The population-mode twins of criteria 2 and 3: the same cells and bands
# with known class parameters in place of estimated ones.  That they pass
# where the sample-mode criteria do not is consistent with the
# finite-sample explanation of the module docstring.
def test_criterion_02_scheme1_population_mode():
    sn = population_mean("s1", 512, SN)
    stp = population_mean("s1", 512, STP)
    ok = 0.03 <= sn <= 0.09 and 0.03 <= stp <= 0.09
    _note(2, ok, f"s1 p=512 population RPE-SN mean={sn:.4f}, RPE-STP mean={stp:.4f} "
                 f"(target 0.06 +- 0.03)")
    assert 0.03 <= sn <= 0.09, f"s1 population RPE-SN mean {sn:.4f} outside [0.03, 0.09]"
    assert 0.03 <= stp <= 0.09, f"s1 population RPE-STP mean {stp:.4f} outside [0.03, 0.09]"


def test_criterion_03_scheme3_population_mode():
    sn = population_mean("s3", 512, SN)
    ok = 0.05 <= sn <= 0.11
    _note(3, ok, f"s3 p=512 population RPE-SN mean={sn:.4f} (target 0.08 +- 0.03)")
    assert 0.05 <= sn <= 0.11, f"s3 population RPE-SN mean {sn:.4f} outside [0.05, 0.11]"


def test_criterion_04_scheme4_table_reproduction():
    stp = scheme_report("s4", 512, STP)["misclassification"]["mean"]
    ok = stp <= 0.02
    _note(4, ok, f"s4 p=512 RPE-STP mean={stp:.4f} (target <= 0.02)")
    assert stp <= 0.02, f"s4 RPE-STP mean {stp:.4f} > 0.02"


def test_criterion_05_perfect_classification_trend():
    s2_512 = scheme_report("s2", 512, SN)["misclassification"]["mean"]
    s2_2048 = scheme_report("s2", 2048, SN)["misclassification"]["mean"]
    s4_512 = scheme_report("s4", 512, STP)["misclassification"]["mean"]
    s4_2048 = scheme_report("s4", 2048, STP)["misclassification"]["mean"]
    ok = s2_2048 <= s2_512 + 0.02 and s4_2048 <= s4_512 + 0.02
    _note(5, ok, f"s2: {s2_512:.4f} -> {s2_2048:.4f}; s4: {s4_512:.4f} -> "
                 f"{s4_2048:.4f} (each allowed +0.02)")
    assert s2_2048 <= s2_512 + 0.02
    assert s4_2048 <= s4_512 + 0.02


def test_criterion_06_kl_oracle_vs_tables():
    published = {"s1": 0.04, "s3": 0.02, "s4": 1.31}
    summaries = kl_payload()
    gaps = {}
    ok = True
    for sid, target in published.items():
        candidates = (summaries[sid]["kl_min_over_p"],
                      summaries[sid]["two_kl_min_over_p"])
        rel = min(abs(c - target) / target for c in candidates)
        gaps[sid] = (candidates, rel)
        ok = ok and rel <= 0.25
    detail = "; ".join(
        f"{sid}: KL/p={c[0]:.4f}, 2KL/p={c[1]:.4f} vs {published[sid]} "
        f"(best rel gap {rel:.2%})" for sid, (c, rel) in gaps.items())
    _note(6, ok, detail)
    for sid, (candidates, rel) in gaps.items():
        assert rel <= 0.25, f"{sid}: no convention within 25% of {published[sid]}"


def test_criterion_07_exact_equivalence_at_full_dimension():
    payload = equivalence_payload()
    ok = (payload["sample_max_gap"] <= 1e-8
          and payload["population_max_gap"] <= 1e-8)
    _note(7, ok, f"square-projection vs classical max gap over "
                 f"{payload['points']} points: sample={payload['sample_max_gap']:.2e}, "
                 f"population={payload['population_max_gap']:.2e} (target <= 1e-8)")
    assert payload["sample_max_gap"] <= 1e-8
    assert payload["population_max_gap"] <= 1e-8


def test_criterion_08_discriminant_kl_alignment():
    payload = theorem_payload()
    summary = payload["summary"]
    bound = 0.10 * summary["kl_over_p"]
    ok = (summary["mean_abs_deviation"] <= bound
          and payload["classical_seconds"] <= 60.0)
    _note(8, ok, f"mean |D/p - KL/p| = {summary['mean_abs_deviation']:.5f} "
                 f"(target <= {bound:.5f}), classical part "
                 f"{payload['classical_seconds']:.2f}s (target <= 60s)")
    assert summary["mean_abs_deviation"] <= bound
    assert payload["classical_seconds"] <= 60.0


def test_criterion_09_ensemble_discriminant_positivity():
    summary = theorem_payload()["summary"]
    ok = summary["positive_count"] >= 95
    _note(9, ok, f"scaled ensemble discriminant positive on "
                 f"{summary['positive_count']}/100 draws (target >= 95), "
                 f"mean {summary['scaled_ensemble_mean']:.4f}")
    assert summary["positive_count"] >= 95


def test_criterion_10_theta_low_rank_equals_dense():
    payload = theta_payload()
    worst = max(inst["max_rel_gap"] for inst in payload["instances"])
    x = np.array([[1.0, 2.0, 3.0]] * 3 + [[1.0, 2.0, 3.0]] * 3)
    same_means = evaluate.theta_lower_bound(
        Dataset(x, ("a",) * 3 + ("b",) * 3))
    zero_ok = bool(np.all(same_means.values == 0.0))
    ok = worst <= 1e-8 and zero_ok
    _note(10, ok, f"worst relative gap over 20 instances: {worst:.2e} "
                  f"(target <= 1e-8); identical means give theta = 0: {zero_ok}")
    assert worst <= 1e-8
    assert zero_ok


def test_criterion_11_desk_scale_substitute():
    # Full published-scale runs are out of scope; the p = 512 columns plus
    # the p = 2048 trend stand in for them.  Verify the substitutes exist.
    covered_p = {key[2] for key in _cache if key[0] == "scheme"}
    ok = {512, 2048} <= covered_p
    _note(11, ok, f"desk-scale substitute covers p in {sorted(covered_p)} "
                  f"(needs 512 and 2048); paper-scale run intentionally skipped")
    assert ok


def test_criterion_12_bit_identical_reruns(tmp_path):
    first = serialize.canonical_json(full_payload(fresh=False))
    second = serialize.canonical_json(full_payload(fresh=True))
    path_a = tmp_path / "acceptance_run1.json"
    path_b = tmp_path / "acceptance_run2.json"
    path_a.write_text(first + "\n")
    path_b.write_text(second + "\n")
    ok = path_a.read_bytes() == path_b.read_bytes()
    _note(12, ok, f"two full reruns of criteria 1-10 payloads: "
                  f"{len(first)} bytes each, identical: {ok}")
    assert ok, "rerun payload differs from first run"
