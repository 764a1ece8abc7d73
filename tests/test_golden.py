"""Golden values for the seeded streams that model files depend on.

Compact model files store only matrix seeds, and every subseed comes from
``rng.mix``, so a change in ``mix``, in numpy's Philox, ziggurat,
``binomial`` or ``choice`` streams, or in the model-file layout would
silently change predictions.  These hashes pin them, the streams of the
scheme samplers (whole and drawn into split row blocks), the sparse
projection's output and the canonical report of a small experiment per
scheme, so a rewrite of a sampler, of the projection kernel or of the
experiment loop must keep its results.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from rpeqda import evaluate, qda, rpe, schemes, serialize
from rpeqda.dataset import Dataset
from rpeqda.errors import MemberDegenerate, SingularCovariance
from rpeqda.randproj import ProjectionFamily, generate, project, project_many
from rpeqda.rng import mix

SN = ProjectionFamily.STANDARD_NORMAL
STP = ProjectionFamily.SPARSE_THREE_POINT

GENERATE_SHA256 = {
    SN: "0105ec3509cd0ad76c4b707c6997fb0a033a9634b8c0196bfd730b5a0fa2a057",
    STP: "c1f344e9308bc03de7cad2101b466c116baf0c2742016a126ff8afb9d61ade8f",
}
MIX_SHA256 = "1b247a10ebc26cb9641232a0f517ba9d21d116c268218e0ae4967eb32f4b7848"
# schemes.sample() bytes of both classes (5 rows each, seeds 1001 and
# 1002) at odd p, and at p = 1 where InverseArCovariance (s3) samples
# through a special case and example2 is the identity (r = 0) or a rank-1
# spike
SAMPLE_SHA256 = {
    ("s1", 97): "0aec2aaa9989eec46dc96140d43ca9eec15989cdebd5d529f5b721b0ca95a2cd",
    ("s2", 1): "54f0ba939c41cd0f1b613f38396a016e7c93d5e0659fde92cce363f718c60b02",
    ("s2", 65): "f83afc509925e3e098479cb7268ccad77cb6ed2c01b4eaa22b13d094159a7ed5",
    ("s3", 1): "83a95b5d38cb6961e99787e4d82c576c3992c439a02b8ea0f46b7cdf92d4f28d",
    ("s3", 33): "1ca82a46d7a5abecd753b727701d825e028459f8d6207a9c36e12cd6310f644d",
    ("s4", 63): "ccda715d98c6b897249685ee659181f7ee06494e6180ba1bfcbc4b67c1406f9b",
    ("example2-r0", 1): "994fdc2a02eb034d426d5d6b738d0e3d379879bcfb81e277b774ffbafe3f2939",
    ("example2-r0", 31): "085daf0d29211ace7713b3805e8d38b0522a9dcdfdf9a9db54aa5b7c9abd33da",
    ("example2-r1", 1): "a812a1be94232b12920cbc206b960ca12255bed22b7e12b594cee9556ac0b82a",
    ("example2-r3", 31): "7c095761bd14bb05097746b37a61786baebbf21df8eed40c8aca250dd88ca040",
}
# the same at 37 rows: more than one sampler and projection row block, and
# not a multiple of the block size
SAMPLE_37_SHA256 = {
    ("s1", 97): "484c743104a51a1e204b5d84cd07a1a373a3c633a56c8c42267283632690c4ab",
    ("s3", 1): "869e001a28f83d91d4096102062a28d0ebdc30d75fafa73331bb00c47fbb4ef2",
    ("s3", 33): "cde6728846c28917fec955a4ab0db76a8508ad7194c28091bdd5a69d7eeff928",
    ("s2", 65): "d078388e659e8ce17110da23d67c59665f3f135ae8cf17fe3b7018ca801f05bf",
    ("s4", 63): "00f8e8e0b892b764343abf5c7a8dfd56b35385b217d58b95994937e46d366e0e",
    ("example2-r0", 31): "092b4b18b31a56ca1f7dbb54e19577d2a90e9cb72abda0dd5718f82b12ad5344",
    ("example2-r3", 31): "dae4eb2bd4368d1f6b62d57e326c51b9ae8b79d5a8da0502f40ea3b6a015ff00",
}
# project_many() bytes of 37 rows through 20 sparse matrices at p = 4096
PROJECT_MANY_STP_SHA256 = "723babc92c4697124478bd3c716252a06d90b2f502a52313df89dbaee248a17b"
# canonical JSON of run_scheme_experiment(scheme, 64, 15, 10, 3,
# RpeConfig(B=10, d=3, family=stp), data_seed=21), without timing
EXPERIMENT_SHA256 = {
    "s1": "44ab889b7ab61cc8c0ec18b285cefa4e0a9b3c1de5f1f214fe0d929a19753d66",
    "s2": "229e9441a3b5fb89fd2124da68fc51fb06282f57424cc6739b565d1446a11626",
    "s3": "7e677770e35435b4702451d05213879b414ca446774b234d4042ddbd2500088c",
    "s4": "f548b8ebbb8a1c266d636f7819c5559c269f425b572b3e82a384ae98c601354e",
}
# canonical JSON of theorem_alignment_check(build_example2(400, c=2.0,
# r=0, seed=1), draws=40, seed=7, d=8, B=60), without timing: population
# mode through the identity handle and its scaled copy
ALIGNMENT_SHA256 = "7700a62d465aa417f1eff3c9c28600c50e00b3cf050d94b0fd295c4a022aa906"
# the same check (draws=40, seed=7, d=8, B=60) on handles whose fill
# transforms the drawn rows: s3's inverse AR form in place, example2's
# spiked identity (c=2.0, r=3, seed=1) through a BLAS product
ALIGNMENT_FILL_SHA256 = {
    ("s3", 256): "7051c6a606c2982954212414b741f8607d96479332f2143092c9a5b1ce743bc4",
    ("example2-r3", 300): "915f7a001a8f50e1dd7628a10d6f16fb9b32b5f5ffd8e31db36db366f4026c4d",
}
# the same checks with family=stp, each chunk's sparse matrices densified
# as one C-ordered (m·d) x p array.  The earlier layout, a stack of
# F-ordered member arrays, gave the same example2 bytes; for s3 it gave the
# same positive_count and a scaled_ensemble_mean 5.4e-15 relative lower,
# from member scores that differed by at most 3e-16 relative
ALIGNMENT_FILL_STP_SHA256 = {
    ("s3", 256): "c1e429c154d97f8197f29d61ce08ee917fa90e321359c891070cb3bac090c354",
    ("example2-r3", 300): "196a6945e2ae447a47d18246b5478b64ced95353fb216cdff104bde02b9f9395",
}
# float.hex of every kl_summary() value: s1's scaled AR blocks through the
# column sweep, s3's scale pair and example2 (c=2.0, seed=1) in closed form
KL_SUMMARY_HEX = {
    ("s1", 512): ("0x1.86ebbc867a527p+5", "0x1.23c231cca574ap+4", "0x1.23c231cca574ap+4",
                  "0x1.23c231cca574ap-5", "0x1.23c231cca574ap-4"),
    ("s3", 512): ("0x1.344fdba8bcac0p+3", "0x1.02d3968e66c60p+3", "0x1.02d3968e66c60p+3",
                  "0x1.02d3968e66c60p-6", "0x1.02d3968e66c60p-5"),
    ("example2-r0", 300): ("0x1.70392fa658838p+5", "0x1.cf8da0b34ef90p+4",
                           "0x1.cf8da0b34ef90p+4", "0x1.8b90bfbe8e7bcp-4",
                           "0x1.8b90bfbe8e7bcp-3"),
    ("example2-r3", 300): ("0x1.70392fa658838p+5", "0x1.cf8da0b34ef8fp+4",
                           "0x1.cf8da0b34ef8fp+4", "0x1.8b90bfbe8e7bbp-4",
                           "0x1.8b90bfbe8e7bbp-3"),
}
MODEL_SHA256 = {
    "sn-full": "3d2eeec70694653301022ecc54b6027d0dc79da86ad9f9fafd088aabdb8e2391",
    "stp-compact": "1233db6179f668a354c92bfe4f09b815612f314928868a3de95d83344d76baac",
}


def _sha(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _matrix_bytes(matrix):
    if matrix.entries is not None:
        return [matrix.entries.tobytes()]
    return [matrix.rows.tobytes(), matrix.cols.tobytes(), matrix.signs.tobytes()]


@pytest.mark.parametrize("family, d, p", [(SN, 3, 17), (STP, 4, 50)])
def test_generate_streams(family, d, p):
    # first draws of members 1-3 under two master seeds, then member 2's
    # first redraw seed
    seeds = [rpe.member_seed(m, b) for m in (0, 7) for b in (1, 2, 3)]
    seeds.append(rpe.member_seed(7, 2, 1))
    chunks = [c for seed in seeds for c in _matrix_bytes(generate(family, d, p, seed))]
    assert _sha(chunks) == GENERATE_SHA256[family]


def test_mix_outputs():
    words = [(), (1,), (2,), (1, 1), (5, 3), (-1,), (2 ** 64 - 1, 0)]
    values = [mix(seed, *w) for seed in (0, 1, 123456789, -5, 2 ** 63) for w in words]
    assert _sha([np.array(values, dtype=np.uint64).tobytes()]) == MIX_SHA256


def _sample_sha(name, p, n, split=None):
    """Hash of both classes' draws of n rows; with ``split`` (row counts
    summing to n) each class is drawn into blocks of those sizes."""
    if name.startswith("example2"):
        spec = schemes.build_example2(p, c=1.7, r=int(name[-1]), spike_bound=4.0, seed=5)
    else:
        spec = schemes.build_scheme(name, p, 3)
    chunks = []
    for k in (1, 2):
        if split is None:
            chunks.append(np.ascontiguousarray(schemes.sample(spec, k, n, 1000 + k)).tobytes())
        else:
            blocks = [np.full((rows, p), np.nan) for rows in split]
            assert schemes.sample(spec, k, n, 1000 + k, out=blocks) is None
            chunks.extend(block.tobytes() for block in blocks)
    return _sha(chunks)


@pytest.mark.parametrize("name, p", list(SAMPLE_SHA256))
def test_sample_streams(name, p):
    assert _sample_sha(name, p, 5) == SAMPLE_SHA256[name, p]


@pytest.mark.parametrize("name, p", list(SAMPLE_37_SHA256))
def test_sample_streams_over_row_blocks(name, p):
    assert _sample_sha(name, p, 37) == SAMPLE_37_SHA256[name, p]


@pytest.mark.parametrize("name, p", list(SAMPLE_37_SHA256))
def test_sample_into_split_blocks(name, p):
    assert _sample_sha(name, p, 37, split=(13, 24)) == SAMPLE_37_SHA256[name, p]


@pytest.mark.parametrize("scheme", list(EXPERIMENT_SHA256))
def test_scheme_experiment_report(scheme):
    # both classes are drawn concurrently; the report must not depend on
    # the schedule
    config = rpe.RpeConfig(B=10, d=3, family=STP)
    report = evaluate.run_scheme_experiment(scheme, 64, 15, 10, 3, config, data_seed=21)
    text = serialize.canonical_json(report.to_dict(include_timing=False))
    assert _sha([text.encode()]) == EXPERIMENT_SHA256[scheme]


def test_alignment_check_report():
    spec = schemes.build_example2(400, c=2.0, r=0, seed=1)
    check = evaluate.theorem_alignment_check(spec, draws=40, seed=7, d=8, B=60)
    text = serialize.canonical_json(check.to_dict(include_timing=False))
    assert _sha([text.encode()]) == ALIGNMENT_SHA256


def _alignment_sha(name, p, family=None):
    if name.startswith("example2"):
        spec = schemes.build_example2(p, c=2.0, r=int(name[-1]), seed=1)
    else:
        spec = schemes.build_scheme(name, p)
    check = evaluate.theorem_alignment_check(spec, draws=40, seed=7, d=8, B=60, family=family)
    return _sha([serialize.canonical_json(check.to_dict(include_timing=False)).encode()])


@pytest.mark.parametrize("name, p", list(ALIGNMENT_FILL_SHA256))
def test_alignment_check_report_through_fill(name, p):
    assert _alignment_sha(name, p) == ALIGNMENT_FILL_SHA256[name, p]


@pytest.mark.parametrize("name, p", list(ALIGNMENT_FILL_STP_SHA256))
def test_alignment_check_report_through_fill_stp(name, p):
    assert _alignment_sha(name, p, STP) == ALIGNMENT_FILL_STP_SHA256[name, p]


@pytest.mark.parametrize("name, p", list(KL_SUMMARY_HEX))
def test_kl_summary_values(name, p):
    if name.startswith("example2"):
        spec = schemes.build_example2(p, c=2.0, r=int(name[-1]), seed=1)
    else:
        spec = schemes.build_scheme(name, p)
    got = tuple(float.hex(value) for value in schemes.kl_summary(spec).values())
    assert got == KL_SUMMARY_HEX[name, p]


def test_sparse_project_many_bytes():
    x = np.random.default_rng(77).standard_normal((37, 4096))
    matrices = [generate(STP, 10, 4096, rpe.member_seed(9, b)) for b in range(1, 21)]
    assert _sha([project_many(matrices, x).tobytes()]) == PROJECT_MANY_STP_SHA256


def _small_data():
    rng = np.random.default_rng(2024)
    x = np.vstack([rng.standard_normal((12, 30)),
                   rng.standard_normal((9, 30)) * 1.3 + 0.5])
    return Dataset(x, ("u",) * 12 + ("v",) * 9)


@pytest.mark.parametrize("name, family, compact", [
    ("sn-full", SN, False), ("stp-compact", STP, True)])
def test_model_file_bytes(tmp_path, name, family, compact):
    model = rpe.rpe_fit(_small_data(), rpe.RpeConfig(B=4, d=3, family=family,
                                                     master_seed=11))
    path = tmp_path / "model.json"
    serialize.save_model(model, path, compact=compact)
    assert _sha([path.read_bytes()]) == MODEL_SHA256[name]


def oracle_class_scores(model, rows):
    """Class scores of one QDA, class by class, through LAPACK triangular
    solves."""
    priors, means, lower, log_det = model
    out = np.empty((len(rows), len(priors)))
    for j, prior in enumerate(priors):
        y = solve_triangular(lower[j], (rows - means[j]).T, lower=True)
        out[:, j] = math.log(prior) - 0.5 * log_det[j] - 0.5 * np.sum(y * y, axis=0)
    return out


def oracle_sample_fit(data, config):
    """Member-by-member sample-mode ensemble: each member projects the
    training rows, fits a QDA on them and redraws its matrix while a class
    covariance is singular.  Returns (seeds, score function)."""
    groups_idx = [(label, data.class_indices(label)) for label in data.class_labels]
    members = []
    for b in range(1, config.B + 1):
        for attempt in range(config.max_regen_retries + 1):
            matrix = generate(config.family, config.d, data.p,
                              rpe.member_seed(config.master_seed, b, attempt))
            rows = project(matrix, data.features)
            try:
                model = qda.fit_grouped([(label, rows[idx]) for label, idx in groups_idx],
                                        config.ridge)
                break
            except SingularCovariance:
                continue
        else:
            raise AssertionError(f"member {b} exhausted its redraws")
        members.append((matrix, model))

    def scores(z_rows):
        acc = np.zeros((len(z_rows), len(groups_idx)))
        for matrix, model in members:
            acc += oracle_class_scores(model, project(matrix, z_rows))
        return acc / len(members)

    return [matrix.seed for matrix, _ in members], scores


# SHA-256 of the means, factors, log-dets and 40 rows' scores of the p = 6
# case below, recorded before dense matrices were drawn into one block;
# "sn-forced" makes members 2 and 5 fail their first factorization and
# member 5 its second, so both redraw.
REDRAWN_SHA256 = {
    "stp": "0e27443d97ef5b6f8454da30fe2697ceb9bb098430b7bdac3c875cfd90dccf36",
    "sn": "e6584b796ae9f8b3bc32d1badcb8e545e7e8705ce984d5422100c8a36c060273",
    "sn-forced": "8b19505a33bb02e17aceba4a0560eb839c8d1e336c12d7d7b2f5396a00ec6d2f",
}


def _p6_case():
    rng = np.random.default_rng(41)
    x = np.vstack([rng.standard_normal((10, 6)), rng.standard_normal((8, 6)) * 1.5 + 0.4])
    return Dataset(x, ("a",) * 10 + ("b",) * 8), rng.standard_normal((40, 6)) * 1.5


@pytest.mark.parametrize("name", list(REDRAWN_SHA256))
def test_redrawn_stack_bytes(monkeypatch, name):
    data, z_rows = _p6_case()
    family = STP if name == "stp" else SN
    if name == "sn-forced":
        factor, calls = rpe.factor_covariances, []

        def failing(covs, ridge):
            lower, log_det, ok = factor(covs, ridge)
            calls.append(len(covs))
            ok[[[1, 4], [1], []][len(calls) - 1]] = False
            return lower, log_det, ok

        monkeypatch.setattr(rpe, "factor_covariances", failing)
    model = rpe.rpe_fit(data, rpe.RpeConfig(B=12, d=3, family=family, master_seed=5))
    if name == "sn-forced":
        assert calls == [12, 2, 1]
        assert [m.seed for m in model.members.matrices[:5]] == [
            rpe.member_seed(5, 1), rpe.member_seed(5, 2, 1), rpe.member_seed(5, 3),
            rpe.member_seed(5, 4), rpe.member_seed(5, 5, 2)]
    stack = model.members
    arrays = (stack.means, stack.lower, stack.log_det, rpe.rpe_scores_rows(model, z_rows))
    assert _sha([np.ascontiguousarray(a).tobytes() for a in arrays]) == REDRAWN_SHA256[name]


def test_sample_fit_matches_member_oracle():
    # at p = 6 sparse matrices often have an all-zero or repeated row;
    # master seed 5 redraws members 3, 6, 7, 10, 11 once and member 12 twice
    rng = np.random.default_rng(41)
    x = np.vstack([rng.standard_normal((10, 6)), rng.standard_normal((8, 6)) * 1.5 + 0.4])
    data = Dataset(x, ("a",) * 10 + ("b",) * 8)
    config = rpe.RpeConfig(B=12, d=3, family=STP, master_seed=5)
    model = rpe.rpe_fit(data, config)
    seeds, oracle_scores = oracle_sample_fit(data, config)
    assert [m.seed for m in model.members.matrices] == seeds
    redraws = {b: next(a for a in range(3) if rpe.member_seed(5, b, a) == seed)
               for b, seed in enumerate(seeds, start=1)}
    assert {b: a for b, a in redraws.items() if a} == {3: 1, 6: 1, 7: 1, 10: 1, 11: 1, 12: 2}
    z_rows = rng.standard_normal((40, 6)) * 1.5
    np.testing.assert_allclose(rpe.rpe_scores_rows(model, z_rows), oracle_scores(z_rows),
                               rtol=1e-12, atol=0)
    with pytest.raises(MemberDegenerate) as err:
        rpe.rpe_fit(data, rpe.RpeConfig(B=12, d=3, family=STP, master_seed=5,
                                        max_regen_retries=1))
    assert err.value.member == 12
