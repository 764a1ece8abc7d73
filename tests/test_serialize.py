import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpeqda import randproj, rpe, serialize
from rpeqda.dataset import Dataset
from rpeqda.randproj import ProjectionFamily


def fitted_model(family=ProjectionFamily.STANDARD_NORMAL):
    rng = np.random.default_rng(1)
    x = np.vstack([rng.standard_normal((25, 40)),
                   rng.standard_normal((25, 40)) * 1.4 + 0.8])
    data = Dataset(x, ("a",) * 25 + ("b",) * 25)
    return rpe.rpe_fit(data, rpe.RpeConfig(B=6, d=4, family=family,
                                           master_seed=99))


class TestCanonicalJson:
    def test_float_17_digits_round_trip(self):
        values = [0.1, 1.0 / 3.0, 2.0 ** -52, 1e300, -7.25]
        text = serialize.canonical_json(values)
        back = json.loads(text)
        assert back == values

    def test_insertion_order_preserved(self):
        text = serialize.canonical_json({"b": 1, "a": 2})
        assert text == '{"b":1,"a":2}'

    def test_ndarray_and_numpy_scalars(self):
        text = serialize.canonical_json({"v": np.array([1.5, 2.5]),
                                         "n": np.int64(3),
                                         "x": np.float64(0.1)})
        back = json.loads(text)
        assert back["v"] == [1.5, 2.5]
        assert back["n"] == 3
        assert back["x"] == 0.1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            serialize.canonical_json(float("inf"))

    def test_determinism(self):
        payload = {"a": [0.1, 0.2], "b": {"c": 1.0 / 7.0}}
        assert serialize.canonical_json(payload) == serialize.canonical_json(payload)


class TestModelPersistence:
    @pytest.mark.parametrize("family", [ProjectionFamily.STANDARD_NORMAL,
                                        ProjectionFamily.SPARSE_THREE_POINT])
    @pytest.mark.parametrize("compact", [False, True])
    def test_round_trip_predictions_bit_identical(self, tmp_path, family, compact):
        model = fitted_model(family)
        path = tmp_path / "model.json"
        serialize.save_model(model, path, compact=compact)
        loaded = serialize.load_model(path)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((30, 40))
        np.testing.assert_array_equal(rpe.rpe_scores_rows(loaded, z),
                                      rpe.rpe_scores_rows(model, z))
        assert loaded.class_labels == model.class_labels
        assert loaded.config == model.config

    def test_compact_and_full_agree(self, tmp_path):
        model = fitted_model()
        full_path = tmp_path / "full.json"
        compact_path = tmp_path / "compact.json"
        serialize.save_model(model, full_path, compact=False)
        serialize.save_model(model, compact_path, compact=True)
        assert compact_path.stat().st_size < full_path.stat().st_size
        full = serialize.load_model(full_path)
        compact = serialize.load_model(compact_path)
        z = np.random.default_rng(3).standard_normal((12, 40))
        np.testing.assert_array_equal(rpe.rpe_scores_rows(full, z),
                                      rpe.rpe_scores_rows(compact, z))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(list(ProjectionFamily)),
           st.integers(3, 60), st.integers(1, 3))
    def test_compact_reload_scores_bit_identical(self, seed, family, p, d):
        # small p makes sparse members redraw, so compact files must
        # regenerate redraw seeds as well as first draws
        rng = np.random.default_rng(seed)
        x = np.vstack([rng.standard_normal((8, p)), rng.standard_normal((7, p)) * 1.5 + 0.3])
        model = rpe.rpe_fit(Dataset(x, ("a",) * 8 + ("b",) * 7),
                            rpe.RpeConfig(B=4, d=d, family=family, master_seed=seed))

        def reloaded(compact):
            text = serialize.canonical_json(serialize.model_to_dict(model, compact=compact))
            return serialize.model_from_dict(json.loads(text))

        z = rng.standard_normal((2 * randproj._SPARSE_BLOCK_ROWS + 3, p))
        full = rpe.rpe_scores_rows(reloaded(False), z)
        np.testing.assert_array_equal(full, rpe.rpe_scores_rows(model, z))
        np.testing.assert_array_equal(rpe.rpe_scores_rows(reloaded(True), z), full)

    @pytest.mark.parametrize("compact", [False, True])
    def test_loaded_sn_matrices_are_one_block(self, tmp_path, compact):
        path = tmp_path / "model.json"
        serialize.save_model(fitted_model(), path, compact=compact)
        matrices = serialize.load_model(path).members.matrices
        stacked = randproj._stacked(matrices)
        assert all(np.shares_memory(stacked, m.entries) for m in matrices)

    def test_resave_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for family in ProjectionFamily:
            serialize.save_model(fitted_model(family), a)
            serialize.save_model(serialize.load_model(a), b)
            assert a.read_bytes() == b.read_bytes()

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError):
            serialize.load_model(path)
