"""Command-line surface.

Subcommands: simulate (export scheme samples), bench (replicated scheme
benchmark), train / predict (model files over CSV data), cv (leave-one-out
cross-validation), kl-diag (pairwise separability heatmap data), viz2d
(2-d projected boundary data).  Every artifact embeds the tool version and
the invoking configuration; the process exits nonzero exactly when an
operation reports an error.
"""

import argparse
import sys

import numpy as np

from . import csvio, evaluate, figures, qda, rpe, schemes, serialize
from .errors import RpeQdaError
from .randproj import ProjectionFamily, generate, project


def _family(value: str) -> ProjectionFamily:
    return ProjectionFamily(value)


def _count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {count}")
    return count


def _add_data_flags(parser):
    parser.add_argument("--data", required=True, help="input CSV file")
    parser.add_argument("--label-col", type=int, default=0,
                        help="0-based label column (default 0)")
    parser.add_argument("--no-header", action="store_true",
                        help="input has no header line")


def _add_rpe_flags(parser):
    parser.add_argument("--B", type=_count, default=rpe.DEFAULT_ENSEMBLE_SIZE,
                        help="ensemble size (default 200)")
    parser.add_argument("--d", type=int, default=None,
                        help="reduced dimension (default min(n_min-1, ceil(log p), 10))")
    parser.add_argument("--family", type=_family, default=ProjectionFamily.STANDARD_NORMAL,
                        choices=list(ProjectionFamily), metavar="{sn,stp}",
                        help="projection family: sn (standard normal) or stp (sparse three-point)")
    parser.add_argument("--seed", type=int, default=0, help="projection master seed")
    parser.add_argument("--ridge", type=float, default=0.0,
                        help="optional ridge added to each projected covariance")


def _config_from_args(args) -> rpe.RpeConfig:
    return rpe.RpeConfig(B=args.B, d=args.d, family=args.family,
                         master_seed=args.seed, ridge=args.ridge)


def _run_config(args, command) -> dict:
    skip = {"func"}
    return {"command": command, "tool": serialize.tool_version(),
            **{k: (v.value if isinstance(v, ProjectionFamily) else v)
               for k, v in sorted(vars(args).items()) if k not in skip}}


def _provenance(run_config) -> str:
    """The provenance text of an output file: tool version, then the
    canonical run config."""
    return f"{serialize.tool_version()} {serialize.canonical_json(run_config)}"


def _ingest(args):
    return csvio.ingest_csv(args.data, label_col=args.label_col,
                            has_header=not args.no_header)


def _build_spec(args):
    if args.scheme == "example2":
        return schemes.build_example2(args.p, args.c, args.r,
                                      spike_bound=args.spike_bound,
                                      seed=args.structure_seed)
    return schemes.build_scheme(args.scheme, args.p, args.structure_seed)


def cmd_simulate(args) -> int:
    spec = _build_spec(args)
    data = schemes.sample_dataset(spec, args.n_per_class, args.data_seed)
    csvio.export_csv(data, args.out, meta=_provenance(_run_config(args, "simulate")))
    print(f"wrote {data.n} x {data.p} samples to {args.out}")
    return 0


def cmd_bench(args) -> int:
    config = _config_from_args(args)
    run_config = _run_config(args, "bench")
    p_values = args.p_list or [args.p]
    reports = []
    for p in p_values:
        report = evaluate.run_scheme_experiment(
            args.scheme, p, args.n_train, args.n_test, args.reps, config,
            data_seed=args.data_seed, structure_seed=args.structure_seed)
        reports.append(report)
        print(f"scheme {args.scheme} p={p}: mean={report.mean:.4f} sd={report.sd:.4f}")
    payload = {"schema": serialize.REPORT_SCHEMA, "tool": serialize.tool_version(),
               "run_config": run_config,
               "reports": [r.to_dict() for r in reports]}
    serialize.write_json(payload, args.out)
    # paper layout: one column per p; the method row's cells are "mean (sd)"
    method = f"RPE-{'SN' if config.family is ProjectionFamily.STANDARD_NORMAL else 'STP'}"
    d = config.d if config.d is not None else "auto"
    rows = [f"{method} (B={config.B}; d={d})," + ",".join(
                f"{r.mean:.2f} ({r.sd:.2f})" for r in reports),
            "KL/p," + ",".join(f"{r.kl['kl_min_over_p']:.2f}" for r in reports),
            "2KL/p," + ",".join(f"{r.kl['two_kl_min_over_p']:.2f}" for r in reports)]
    table_path = args.csv or (str(args.out) + ".csv")
    csvio.write_lines(table_path, _provenance(run_config),
                      "method," + ",".join(str(r.p) for r in reports), rows)
    print(f"wrote {args.out} and {table_path}")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    data = _ingest(args)
    model = rpe.rpe_fit(data, config)
    serialize.save_model(model, args.out, compact=args.compact,
                         run_config=_run_config(args, "train"))
    mode = "compact" if args.compact else "full"
    print(f"trained on {data.n} x {data.p}; wrote {mode} model to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = serialize.load_model(args.model)
    if args.no_label:
        features = csvio.ingest_features_csv(args.data, has_header=not args.no_header)
    else:
        features = _ingest(args).features
    scores = rpe.rpe_scores_rows(model, features)
    predicted = [model.class_labels[j] for j in np.argmax(scores, axis=1)]
    csvio.write_lines(args.out, _provenance(_run_config(args, "predict")),
                      "predicted," + ",".join(f"score_{label}" for label in model.class_labels),
                      (label + "," + ",".join(format(v, ".17g") for v in row)
                       for label, row in zip(predicted, scores)))
    print(f"wrote {len(predicted)} predictions to {args.out}")
    return 0


def cmd_cv(args) -> int:
    config = _config_from_args(args)
    data = _ingest(args)
    report = evaluate.loocv(data, config, identifier=args.data)
    payload = serialize.report_to_dict(report, run_config=_run_config(args, "cv"))
    serialize.write_json(payload, args.out)
    print(f"LOOCV misclassification {report.mean:.4f} (se {report.sd:.4f}); "
          f"wrote {args.out}")
    return 0


def cmd_kl_diag(args) -> int:
    data = _ingest(args)
    theta = evaluate.theta_lower_bound(data)
    log_values = theta.log_over_p(data.p)
    run_config = _run_config(args, "kl-diag")
    # the diagonal (log 0) is left empty
    csvio.write_lines(args.out, _provenance(run_config), "," + ",".join(theta.labels),
                      (label + "," + ",".join("" if i == j else format(v, ".17g")
                                              for j, v in enumerate(row))
                       for i, (label, row) in enumerate(zip(theta.labels, log_values))))
    if args.svg:
        display = log_values.copy()
        np.fill_diagonal(display, np.nan)
        figures.svg_heatmap(display, theta.labels, args.svg,
                            title="log(theta / p)",
                            comment=serialize.canonical_json(run_config))
    print(f"wrote pairwise bound table to {args.out}")
    return 0


def cmd_viz2d(args) -> int:
    data = _ingest(args)
    projected = project(generate(args.family, 2, data.p, args.seed), data.features)
    labels = data.class_labels
    model = qda.fit_grouped([(label, projected[data.class_indices(label)])
                             for label in labels], ridge=args.ridge)
    lo = projected.min(axis=0)
    hi = projected.max(axis=0)
    # grid points row by row: x varies fastest
    grid = np.column_stack([np.tile(np.linspace(lo[0], hi[0], args.grid), args.grid),
                            np.repeat(np.linspace(lo[1], hi[1], args.grid), args.grid)])

    def scored(kind, points, truth):
        for (x, y), label, row in zip(points, truth, qda.class_scores_rows(*model, points)):
            yield kind, x, y, label, labels[int(np.argmax(row))], row[0] - row[1]

    rows = [*scored("point", projected, data.labels), *scored("grid", grid, [""] * len(grid))]
    run_config = _run_config(args, "viz2d")
    csvio.write_lines(args.out, _provenance(run_config), "kind,x,y,label,pred,score_diff",
                      (f"{kind},{x:.17g},{y:.17g},{label},{pred},{diff:.17g}"
                       for kind, x, y, label, pred, diff in rows))
    if args.svg:
        figures.svg_scatter(projected, data.labels, labels,
                            [(x, y, pred) for kind, x, y, _, pred, _ in rows if kind == "grid"],
                            args.svg,
                            title=f"2-d projection (boundary {labels[0]} vs {labels[1]})",
                            comment=serialize.canonical_json(run_config))
    print(f"wrote projected points and {args.grid}x{args.grid} grid to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpeqda",
        description="Random projection ensemble QDA: training, prediction, "
                    "synthetic benchmarks and diagnostics.")
    parser.add_argument("--version", action="version",
                        version=serialize.tool_version())
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="export samples from a synthetic scheme")
    sim.add_argument("--scheme", required=True,
                     choices=list(schemes.SCHEME_IDS))
    sim.add_argument("--p", type=_count, required=True)
    sim.add_argument("--n-per-class", type=_count, default=100)
    sim.add_argument("--data-seed", type=int, default=0)
    sim.add_argument("--structure-seed", type=int, default=0)
    sim.add_argument("--c", type=float, default=2.0, help="example2 scale factor")
    sim.add_argument("--r", type=int, default=0, help="example2 spike rank")
    sim.add_argument("--spike-bound", type=float, default=10.0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("bench", help="replicated misclassification benchmark")
    bench.add_argument("--scheme", required=True, choices=["s1", "s2", "s3", "s4"])
    bench.add_argument("--p", type=_count, default=512)
    bench.add_argument("--p-list", type=_count, nargs="+", default=None)
    bench.add_argument("--reps", type=_count, default=50)
    bench.add_argument("--n-train", type=_count, default=100,
                       help="training samples per class")
    bench.add_argument("--n-test", type=_count, default=200,
                       help="test samples per class")
    bench.add_argument("--data-seed", type=int, default=0)
    bench.add_argument("--structure-seed", type=int, default=None)
    _add_rpe_flags(bench)
    bench.add_argument("--out", required=True, help="report JSON path")
    bench.add_argument("--csv", default=None, help="table CSV path (default <out>.csv)")
    bench.set_defaults(func=cmd_bench)

    train = sub.add_parser("train", help="fit a model on a CSV dataset")
    _add_data_flags(train)
    _add_rpe_flags(train)
    train.add_argument("--compact", action="store_true",
                       help="store matrix seeds instead of payloads")
    train.add_argument("--out", required=True, help="model JSON path")
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="classify rows with a saved model")
    predict.add_argument("--model", required=True)
    _add_data_flags(predict)
    predict.add_argument("--no-label", action="store_true",
                         help="input rows are pure features (no label column)")
    predict.add_argument("--out", required=True)
    predict.set_defaults(func=cmd_predict)

    cv = sub.add_parser("cv", help="leave-one-out cross-validation")
    _add_data_flags(cv)
    _add_rpe_flags(cv)
    cv.add_argument("--out", required=True, help="report JSON path")
    cv.set_defaults(func=cmd_cv)

    kl = sub.add_parser("kl-diag", help="pairwise KL lower-bound heatmap data")
    _add_data_flags(kl)
    kl.add_argument("--out", required=True, help="CSV of log(theta/p)")
    kl.add_argument("--svg", default=None, help="optional SVG heatmap path")
    kl.set_defaults(func=cmd_kl_diag)

    viz = sub.add_parser("viz2d", help="2-d projected boundary data")
    _add_data_flags(viz)
    viz.add_argument("--seed", type=int, default=0)
    viz.add_argument("--family", type=_family,
                     default=ProjectionFamily.STANDARD_NORMAL,
                     choices=list(ProjectionFamily), metavar="{sn,stp}")
    viz.add_argument("--ridge", type=float, default=0.0)
    viz.add_argument("--grid", type=_count, default=25, help="grid points per axis")
    viz.add_argument("--out", required=True)
    viz.add_argument("--svg", default=None)
    viz.set_defaults(func=cmd_viz2d)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RpeQdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
