import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rpeqda import csvio, qda, serialize
from rpeqda.cli import main
from rpeqda.dataset import Dataset
from rpeqda.errors import InconsistentWidth, MissingValue, ParseError
from rpeqda.randproj import ProjectionFamily, generate, project


def write_toy_csv(path, n_per_class=12, p=3, gap=60.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.standard_normal((n_per_class, p)) - gap,
                   rng.standard_normal((n_per_class, p)) + gap])
    data = Dataset(x, ("neg",) * n_per_class + ("pos",) * n_per_class)
    csvio.export_csv(data, path)
    return data


class TestIngest:
    def test_header_file_shape(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\na,1.0,2.0\nb,3.0,4.0\na,5.0,6.0\n")
        data = csvio.ingest_csv(path)
        assert data.n == 3 and data.p == 2
        assert data.class_labels == ("a", "b")

    def test_blank_field_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\na,1.0,2.0\nb,,4.0\n")
        with pytest.raises(MissingValue) as err:
            csvio.ingest_csv(path)
        assert err.value.line == 3

    def test_non_numeric_reports_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1\na,1.0\nb,oops\n")
        with pytest.raises(ParseError) as err:
            csvio.ingest_csv(path)
        assert (err.value.line, err.value.column) == (3, 2)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\na,1.0,2.0\nb,1.0\n")
        with pytest.raises(InconsistentWidth) as err:
            csvio.ingest_csv(path)
        assert err.value.line == 3

    def test_no_header_and_label_col(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,a,2.0\n3.0,b,4.0\n")
        data = csvio.ingest_csv(path, label_col=1, has_header=False)
        assert data.n == 2 and data.p == 2
        np.testing.assert_array_equal(data.features[0], [1.0, 2.0])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        original = Dataset(rng.standard_normal((7, 4)) * 1e-3,
                           tuple("ababcab"))
        path = tmp_path / "d.csv"
        csvio.export_csv(original, path, meta="tool test")
        back = csvio.ingest_csv(path)
        np.testing.assert_array_equal(back.features, original.features)
        assert back.labels == original.labels

    def test_features_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n1.0,2.0\n3.0,4.0\n")
        feats = csvio.ingest_features_csv(path)
        np.testing.assert_array_equal(feats, [[1.0, 2.0], [3.0, 4.0]])

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"label,f1,f2\r\na,1.5,-2\r\nb,3,4e-3\r\n")
        data = csvio.ingest_csv(path)
        np.testing.assert_array_equal(data.features, [[1.5, -2.0], [3.0, 4e-3]])
        assert data.labels == ("a", "b")
        path.write_bytes(b"f1,label\r\n1.0,a\r\n2.0,b\r\n")
        assert csvio.ingest_csv(path, label_col=1).labels == ("a", "b")
        path.write_bytes(path.read_bytes() + b"x,c\r\n")
        with pytest.raises(ParseError) as err:
            csvio.ingest_csv(path, label_col=1)
        assert (err.value.line, err.value.column) == (4, 1)

    def test_comments_and_blank_lines_mid_file(self, tmp_path):
        path = tmp_path / "d.csv"
        body = "# meta\nlabel,f1\na,1.0\n# note\n\n   \nb,2.0\n"
        path.write_text(body)
        data = csvio.ingest_csv(path)
        np.testing.assert_array_equal(data.features, [[1.0], [2.0]])
        assert data.labels == ("a", "b")
        path.write_text(body + "\n# late\nc,oops\n")
        with pytest.raises(ParseError) as err:
            csvio.ingest_csv(path)
        assert (err.value.line, err.value.column) == (10, 2)

    @pytest.mark.parametrize("label_col, text", [
        (1, "1.0,a,2.0\n3.0,b,4.0\n"),
        (2, "1.0,2.0,a\n3.0,4.0,b\n"),
    ])
    def test_label_column_middle_and_last(self, tmp_path, label_col, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        data = csvio.ingest_csv(path, label_col=label_col, has_header=False)
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        assert data.labels == ("a", "b")

    def test_label_column_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,1.0\nb,2.0\n")
        for label_col in (2, -1):
            with pytest.raises(ParseError) as err:
                csvio.ingest_csv(path, label_col=label_col, has_header=False)
            assert err.value.line == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_cell_is_missing(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"label,f1,f2\na,1.0,2.0\nb,3.0,{cell}\n")
        with pytest.raises(MissingValue) as err:
            csvio.ingest_csv(path)
        assert (err.value.line, err.value.column) == (3, 3)

    @pytest.mark.parametrize("line3, line5, expected", [
        ("b,oops,1", "a,1", (ParseError, 3, 2)),
        ("b,nan,1", "a,1,oops", (MissingValue, 3, 2)),
        ("b,nan,1", "a,1", (MissingValue, 3, 2)),
        ("b,1,", "a", (MissingValue, 3, 3)),
        ("b,2,1", "a,1", (InconsistentWidth, 5, None)),
        ("b,1,oops", ",1,2", (ParseError, 3, 3)),
        ("b,1,2", ",1,oops", (MissingValue, 5, 1)),
        ("b,inf,oops", "a,1,2", (MissingValue, 3, 2)),
        ("b,oops,inf", "a,1,2", (ParseError, 3, 2)),
    ])
    def test_first_error_in_file_order_wins(self, tmp_path, line3, line5, expected):
        path = tmp_path / "d.csv"
        path.write_text(f"label,f1,f2\na,1,2\n{line3}\na,3,4\n{line5}\n")
        kind, line, column = expected
        with pytest.raises(kind) as err:
            csvio.ingest_csv(path)
        assert err.value.line == line
        assert getattr(err.value, "column", None) == column

    @pytest.mark.parametrize("cell, kind", [
        ("x", ParseError), ("", MissingValue), (" ", MissingValue), ("-inf", MissingValue),
    ])
    def test_features_only_error_columns(self, tmp_path, cell, kind):
        path = tmp_path / "d.csv"
        path.write_text(f"f1,f2,f3\n1,2,3\n4,5,{cell}\n")
        with pytest.raises(kind) as err:
            csvio.ingest_features_csv(path)
        assert (err.value.line, err.value.column) == (3, 3)

    @pytest.mark.parametrize("cell", ['"1.0"', "1_0", "\u0661", "1.0\u00b2", "0x10"])
    def test_cells_outside_the_grammar_are_parse_errors(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"label,f1\na,1.0\nb,{cell}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            csvio.ingest_csv(path)
        assert (err.value.line, err.value.column) == (3, 2)

    def test_quoted_label_keeps_quotes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('label,f1\n"a",1.0\n b ,\t2.5 \n')
        data = csvio.ingest_csv(path)
        assert data.labels == ('"a"', "b")
        np.testing.assert_array_equal(data.features, [[1.0], [2.5]])

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_characters=",\r\n",
                                          blacklist_categories=("Cs",)),
                   max_size=12)
           | st.floats().map(repr) | st.floats().map(lambda v: f" {v!r}\t"))
    def test_any_cell_is_read_like_float_or_raises_typed(self, cell):
        # Every cell either converts exactly as float() does (within the
        # ASCII, underscore-free grammar) or names its line and column.
        stripped = cell.strip()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(f"label,f1,f2\na,1,2\nb,{cell},3\n")
            try:
                value = float(stripped)
            except ValueError:
                value = None
            if value is not None and stripped.isascii() and "_" not in stripped \
                    and np.isfinite(value):
                data = csvio.ingest_csv(path)
                assert data.features[1, 0] == value
            else:
                with pytest.raises((ParseError, MissingValue)) as err:
                    csvio.ingest_csv(path)
                assert (err.value.line, err.value.column) == (3, 2)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_export_ingest_round_trip_bit_exact(self, values):
        original = Dataset(values, tuple("ab"[i % 2] for i in range(values.shape[0])))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            csvio.export_csv(original, path, meta="round trip")
            back = csvio.ingest_csv(path)
        assert back.features.shape == values.shape
        assert back.features.tobytes() == values.tobytes()
        assert back.labels == original.labels

    def test_export_bytes_match_per_value_formatting(self, tmp_path):
        special = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   0.1, 1.0, -3.0, 2.0 ** 53, 1e16, 123456789.0, 2.2250738585072014e-308]
        rng = np.random.default_rng(11)
        rows = np.vstack([special, rng.standard_normal((5, len(special)))])
        data = Dataset(rows, tuple("xyxyxy"))
        path = tmp_path / "d.csv"
        csvio.export_csv(data, path, meta="bytes")
        expected = ["# bytes", "label," + ",".join(f"f{j + 1}" for j in range(len(special)))]
        for label, row in zip(data.labels, rows):
            expected.append(label + "," + ",".join(format(v, ".17g") for v in row))
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


class TestCommands:
    def test_simulate_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--scheme", "s2", "--p", "64",
                     "--n-per-class", "5", "--data-seed", "3",
                     "--out", str(out)])
        assert code == 0
        data = csvio.ingest_csv(out)
        assert data.n == 10 and data.p == 64
        assert out.read_text().startswith("# rpeqda")
        # the 17-digit export reproduces the sampled values exactly
        from rpeqda import schemes
        expected = schemes.sample_dataset(schemes.build_scheme("s2", 64, 0), 5, 3)
        np.testing.assert_array_equal(data.features, expected.features)
        assert data.labels == expected.labels

    def test_train_predict_self_consistency(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_toy_csv(train_csv)
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", str(train_csv), "--B", "10", "--d", "2",
                     "--seed", "5", "--out", str(model_path)]) == 0
        pred_path = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(train_csv), "--out", str(pred_path)]) == 0
        lines = [l for l in pred_path.read_text().splitlines()
                 if l and not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header == "predicted,score_neg,score_pos"
        predicted = [row.split(",")[0] for row in rows]
        truth = csvio.ingest_csv(train_csv).labels
        assert predicted == list(truth)

    def test_compact_model_predictions_bit_identical(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_toy_csv(train_csv)
        full_model = tmp_path / "full.json"
        compact_model = tmp_path / "compact.json"
        for path, flags in ((full_model, []), (compact_model, ["--compact"])):
            assert main(["train", "--data", str(train_csv), "--B", "8",
                         "--d", "2", "--seed", "7", "--out", str(path)] + flags) == 0
        pred_full = tmp_path / "pf.csv"
        pred_compact = tmp_path / "pc.csv"
        for model_path, pred in ((full_model, pred_full), (compact_model, pred_compact)):
            assert main(["predict", "--model", str(model_path),
                         "--data", str(train_csv), "--out", str(pred)]) == 0
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("#")]
        assert strip(pred_full) == strip(pred_compact)

    def test_cv_command(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_toy_csv(train_csv, n_per_class=8)
        out = tmp_path / "cv.json"
        assert main(["cv", "--data", str(train_csv), "--B", "5", "--d", "1",
                     "--seed", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == serialize.REPORT_SCHEMA
        assert payload["kind"] == "loocv"
        assert payload["misclassification"]["mean"] == 0.0
        assert payload["run_config"]["command"] == "cv"

    def test_kl_diag_csv_and_svg(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_toy_csv(train_csv, n_per_class=6)
        out = tmp_path / "theta.csv"
        svg = tmp_path / "theta.svg"
        assert main(["kl-diag", "--data", str(train_csv), "--out", str(out),
                     "--svg", str(svg)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == ",neg,pos"
        neg_row = lines[1].split(",")
        assert neg_row[0] == "neg" and neg_row[1] == ""
        assert float(neg_row[2]) > 0  # enormous separation: log(theta/p) > 0
        assert svg.read_text().startswith("<svg")

    def test_viz2d_antisymmetric_sign_grid(self, tmp_path):
        # class 2 rows are exact negations of class 1 rows, so the fitted
        # plane discriminant is odd and the bounding box is symmetric
        rng = np.random.default_rng(9)
        block = rng.standard_normal((10, 6)) + 2.0
        data = Dataset(np.vstack([block, -block]), ("a",) * 10 + ("b",) * 10)
        train_csv = tmp_path / "sym.csv"
        csvio.export_csv(data, train_csv)
        out = tmp_path / "viz.csv"
        svg = tmp_path / "viz.svg"
        assert main(["viz2d", "--data", str(train_csv), "--seed", "4",
                     "--grid", "3", "--out", str(out), "--svg", str(svg)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l.startswith("grid")]
        assert len(rows) == 9
        diffs = np.array([float(r[5]) for r in rows]).reshape(3, 3)
        np.testing.assert_allclose(diffs, -diffs[::-1, ::-1], atol=1e-9)
        assert svg.read_text().startswith("<svg")

    def test_viz2d_grid_matches_per_point_scores(self, tmp_path):
        # the grid is scored in one batch; each cell must match scoring its
        # point alone: same predicted class, discriminant within 1e-12
        rng = np.random.default_rng(12)
        x = np.vstack([rng.standard_normal((15, 8)),
                       rng.standard_normal((15, 8)) * 1.8 + 0.6])
        data = Dataset(x, ("a",) * 15 + ("b",) * 15)
        train_csv = tmp_path / "train.csv"
        csvio.export_csv(data, train_csv)
        out = tmp_path / "viz.csv"
        assert main(["viz2d", "--data", str(train_csv), "--seed", "5",
                     "--grid", "25", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if l.startswith("grid")]
        assert len(rows) == 625
        assert len({r[2] for r in rows[:25]}) == 1 and len({r[1] for r in rows[:25]}) == 25
        matrix = generate(ProjectionFamily.STANDARD_NORMAL, 2, 8, 5)
        projected = project(matrix, csvio.ingest_csv(train_csv).features)
        plane = qda.fit_grouped([(label, projected[data.class_indices(label)])
                                 for label in data.class_labels])
        for _, gx, gy, _, pred, diff in rows:
            want = qda.class_scores_rows(*plane, np.array([[float(gx), float(gy)]]))[0]
            assert pred == data.class_labels[int(np.argmax(want))]
            assert float(diff) == pytest.approx(want[0] - want[1], rel=1e-12, abs=0)

    def test_bench_single_rep(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--scheme", "s2", "--p", "64", "--reps", "1",
                     "--n-train", "20", "--n-test", "10", "--B", "10",
                     "--d", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["reports"][0]["p"] == 64
        table = (tmp_path / "bench.json.csv").read_text()
        assert "method,64" in table

    def test_bench_scheme2_single_rep_at_512(self, tmp_path):
        # the strongly separated scheme classifies nearly perfectly even
        # from one replicate
        out = tmp_path / "bench512.json"
        assert main(["bench", "--scheme", "s2", "--p", "512", "--reps", "1",
                     "--B", "200", "--d", "10", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report = payload["reports"][0]
        assert report["misclassification"]["mean"] <= 0.05
        assert report["misclassification"]["sd"] == 0.0

    def test_model_file_embeds_run_config(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_toy_csv(train_csv)
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", str(train_csv), "--B", "4", "--d", "2",
                     "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        assert payload["run_config"]["command"] == "train"
        assert payload["tool"].startswith("rpeqda ")

    def test_missing_file_exits_nonzero(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1

    @pytest.mark.parametrize("corrupt", [
        "schema", "not_json", "not_utf8", "json_list", "missing_key", "member_count",
        "matrix_d", "matrix_p", "factor_upper", "factor_diag", "factor_size", "family",
        "no_members", "one_class", "sparse_triplet", "prior_member", "prior_log",
        "config_d", "config_retries", "member_family", "member_kind", "mean_nan",
        "log_det_inf", "log_det_shift", "prior_inf", "factor_nan", "entries_nan",
    ])
    def test_bad_model_file_exits_nonzero_with_error_line(self, tmp_path, capsys, corrupt):
        train_csv = tmp_path / "train.csv"
        write_toy_csv(train_csv)
        model_path = tmp_path / "model.json"
        family = ["--family", "stp"] if corrupt == "sparse_triplet" else []
        compact = ["--compact"] if corrupt == "member_family" else []
        assert main(["train", "--data", str(train_csv), "--B", "4", "--d", "2",
                     "--seed", "3", "--out", str(model_path)] + family + compact) == 0
        payload = json.loads(model_path.read_text())
        member = payload["members"][1]
        factor = member["model"]["classes"][0]["cov_lower"]
        if corrupt == "schema":
            payload = {"schema": "nope"}
        elif corrupt == "json_list":
            payload = [1, 2]
        elif corrupt == "missing_key":
            del payload["class_labels"]
        elif corrupt == "member_count":
            payload["members"].pop()
        elif corrupt == "matrix_d":
            member["matrix"]["d"] = 3
        elif corrupt == "matrix_p":
            member["matrix"]["entries"] = [row[:-1] for row in member["matrix"]["entries"]]
        elif corrupt == "factor_upper":
            factor[0][1] = 0.5
        elif corrupt == "factor_diag":
            factor[1][1] = -factor[1][1]
        elif corrupt == "factor_size":
            member["model"]["classes"][0]["cov_lower"] = [[1.0]]
        elif corrupt == "family":
            payload["config"]["family"] = "gauss"
        elif corrupt == "sparse_triplet":
            member["matrix"]["cols"][-1] = payload["p"]
        elif corrupt == "no_members":
            payload["config"]["B"], payload["members"] = 0, []
        elif corrupt == "config_d":
            payload["config"]["d"] = 0
        elif corrupt == "config_retries":
            payload["config"]["max_regen_retries"] = -1
        elif corrupt == "prior_member":
            # members must share each class's prior
            member["model"]["classes"][0]["prior"] = 0.25
        elif corrupt == "prior_log":
            # consistent across members, but not the logarithm of the prior
            for m in payload["members"]:
                m["model"]["classes"][0]["log_prior"] -= 0.5
        elif corrupt == "member_family":
            # an sn model whose member 2 regenerates as a sparse matrix
            member["matrix"]["family"] = "stp"
        elif corrupt == "member_kind":
            # an sn member stored as sparse triplets
            del member["matrix"]["entries"]
            member["matrix"].update(rows=[0], cols=[1], signs=[1])
        elif corrupt == "mean_nan":
            member["model"]["classes"][0]["mean"][0] = float("nan")
        elif corrupt == "log_det_inf":
            member["model"]["classes"][1]["log_det"] = float("inf")
        elif corrupt == "log_det_shift":
            # finite, but not the log-determinant of the stored factor
            member["model"]["classes"][0]["log_det"] += 40.0
        elif corrupt == "prior_inf":
            # consistent across members, with a matching log prior
            for m in payload["members"]:
                m["model"]["classes"][0].update(prior=float("inf"), log_prior=float("inf"))
        elif corrupt == "factor_nan":
            # below the diagonal, where the triangular check does not look
            factor[1][0] = float("nan")
        elif corrupt == "entries_nan":
            member["matrix"]["entries"][1][2] = float("nan")
        elif corrupt == "one_class":
            payload["class_labels"] = payload["class_labels"][:1]
            for m in payload["members"]:
                del m["model"]["classes"][1:]
        if corrupt == "not_json":
            model_path.write_text("this is not json\n")
        elif corrupt == "not_utf8":
            model_path.write_bytes(b"\xff\xfe{}")
        else:
            model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--data", str(train_csv),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if corrupt.startswith(("matrix", "factor", "sparse", "member_family", "member_kind",
                               "mean", "log_det", "entries")) or corrupt == "prior_member":
            assert "member 2" in err

    @pytest.mark.parametrize("command", [
        "viz2d --data {data} --grid -1 --out {out}",
        "viz2d --data {data} --ridge -5 --out {out}",
        "bench --scheme s2 --p 64 --reps 0 --out {out}",
        "simulate --scheme s2 --p 64 --n-per-class -1 --out {out}",
        "simulate --scheme s1 --p -3 --out {out}",
        "simulate --scheme example2 --p 64 --c 1 --out {out}",
        "simulate --scheme example2 --p 64 --r 2 --spike-bound 0.5 --out {out}",
        "train --data {data} --ridge -1 --out {out}",
        "train --data {data} --ridge nan --out {out}",
        "train --data {data} --ridge inf --out {out}",
    ])
    def test_bad_arguments_exit_with_error_line(self, tmp_path, capsys, command):
        data = tmp_path / "train.csv"
        write_toy_csv(data)
        argv = command.format(data=data, out=tmp_path / "out").split()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        err = capsys.readouterr().err
        assert code != 0
        assert any("error: " in line for line in err.splitlines())
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", [
        "--c nan", "--c inf", "--spike-bound inf", "--spike-bound nan",
        "--r 2 --spike-bound inf"])
    def test_non_finite_example2_parameter_exits_1(self, tmp_path, capsys, option):
        out = tmp_path / "out"
        argv = f"simulate --scheme example2 --p 10 {option} --out {out}".split()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_bad_reduced_dim_exits_1_with_error_line(self, tmp_path, capsys, command, d):
        data = tmp_path / "train.csv"
        write_toy_csv(data)
        out = tmp_path / "out"
        assert main([command, "--data", str(data), "--d", d, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_parse_error_exits_nonzero_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f1\na,1.0\nb,\n")
        code = main(["train", "--data", str(bad),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "line 3" in capsys.readouterr().err
