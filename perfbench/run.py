"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run from the repository root, which must hold ``src/rpeqda``; the package
is imported from there and nowhere else.  The workload runs in this
process as a closed loop with one client: set-up, one untimed full-size
warm-up op, then ops back to back.  Set-up is done three times (median
reported), each followed by a third of the ``--seconds`` of timed ops.
Every op's output is checked against the recorded reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports per-layer metrics from the traced
ones, plus the tracing overhead.  The last line of standard output is one
JSON object; a fuller record (environment, per-op timings and exact
counts, spans) goes to ``perfbench/results/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join("perfbench", "results")
WORK = os.path.join("perfbench", "work")

SETUP_REPEATS = 3


def load_package():
    """Import rpeqda from this checkout's ``src``; returns the import time,
    counted from the start of this script."""
    if not os.path.isfile(os.path.join(SRC, "rpeqda", "__init__.py")):
        raise FileNotFoundError(f"no rpeqda package under {SRC}")
    sys.path.insert(0, SRC)
    import rpeqda
    import workloads  # noqa: F401  (imports every rpeqda module it drives)
    if os.path.dirname(os.path.realpath(rpeqda.__file__)) != os.path.realpath(
            os.path.join(SRC, "rpeqda")):
        raise ImportError(f"rpeqda imported from {rpeqda.__file__}, not {SRC}")
    return time.perf_counter() - _START


def fingerprint():
    """Software and hardware the numbers were measured on."""
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                                if k.endswith("_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "machine": platform.machine()}


def tail(values):
    """Value at the highest percentile with at least ten samples above it,
    as (value, percentile); None when there are fewer than eleven."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_workload(name, seed, seconds, trace, size="full", reference=None, import_s=0.0):
    """Run one workload in this process and return its result record.
    ``reference`` replaces the recorded reference outputs (self-test)."""
    import tracing
    import workloads

    wl = workloads.make(name, size)
    expected = reference if reference is not None else workloads.load_reference(name, size)
    run_input, cases = workloads.plan(wl, seed)
    workdir = os.path.join(WORK, f"{name}-{size}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = tracing.Tracer() if trace else None
        setup_times, ops, warm = [], [], None
        elapsed = 0.0
        # The timed phase is split into one block after each set-up, so a
        # run's ops are spread over its whole span: the host's speed drifts
        # over tens of seconds, and the spread samples more of that drift.
        for block in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = wl.setup(run_input, workdir)
            setup_times.append(time.perf_counter() - start)
            if warm is None:
                # One untimed op at full size on the last case of the order,
                # so the first timed op does not pay for first-time
                # allocation and imports.
                warm = _run_op(wl, state, cases[-1], expected, None, -1)
            last = block == SETUP_REPEATS - 1
            share = seconds * (block + 1) / SETUP_REPEATS
            begin = time.perf_counter()
            while (elapsed + time.perf_counter() - begin < share
                   or (last and (not ops or (tracer is not None and len(ops) < 2)))):
                i = len(ops)
                case = cases[i % len(cases)]
                traced = tracer is not None and i % 2 == 0
                ops.append(_run_op(wl, state, case, expected, tracer if traced else None, i))
                ops[-1]["block"] = block
            elapsed += time.perf_counter() - begin
        warmup_s = warm["wall_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The warm-up op is checked like the timed ones and counted with them.
    failed = sum(not op["ok"] for op in ops) + (not warm["ok"])
    attempted = len(ops) + 1
    untraced = [op for op in ops if not op["traced"]]
    record = {
        "workload": name, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "fingerprint": fingerprint(),
        "plan": {"run_input": run_input, "cases": cases},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "setup": {"import_s": import_s, "build_s": setup_times, "warmup_s": warmup_s},
        "warmup": warm, "ops": ops,
    }
    if trace:
        record["metrics"] = _layer_metrics(tracer, ops)
        record["spans"] = tracer.spans
    else:
        record["metrics"] = _end_to_end(ops, elapsed, import_s, setup_times, warmup_s)
    record["ungated"] = _ungated(untraced, failed, attempted)
    return record


def _run_op(wl, state, case, expected, tracer, i):
    op = {"op": i, "case": case, "traced": tracer is not None, "ok": False,
          "error": None, "phases": {}, "counts": {}}
    if tracer is not None:
        tracer.op_id = i
        tracer.install()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        output, op["phases"] = wl.op(state, case)
        op["ok"] = case in expected and wl.check(output, expected[case])
        if not op["ok"]:
            op["error"] = "output differs from reference"
    except Exception:  # a failed op is counted, and the run goes on
        op["error"] = traceback.format_exc(limit=3)
    finally:
        op["wall_s"] = time.perf_counter() - wall
        op["cpu_s"] = time.process_time() - cpu
        if tracer is not None:
            tracer.uninstall()
            op["counts"] = dict(tracer.counts[i])
    return op


def _metric(value, unit, n=None):
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def _end_to_end(ops, elapsed, import_s, setup_times, warmup_s):
    walls = [op["wall_s"] for op in ops]
    return {
        "op_p50_s": _metric(statistics.median(walls), "s", len(ops)),
        "ops_per_s": _metric(len(ops) / elapsed, "1/s", len(ops)),
        "cpu_per_op_s": _metric(statistics.median(op["cpu_s"] for op in ops), "s", len(ops)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
        "setup_s": _metric(import_s + statistics.median(setup_times) + warmup_s, "s",
                           len(setup_times)),
    }


_STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count"}
# Exact counts: (record key, metric name, scale, unit).
_COUNTS = (
    ("randproj.project_many.flop", "randproj.project_many.gflop", 1e-9, "GFLOP"),
    ("randproj.project_many.bytes", "randproj.project_many.mb_moved", 1e-6, "MB"),
    ("rpe.members_fitted", "rpe.members_fitted", 1, "count"),
    ("serialize.model_bytes", "serialize.model_bytes", 1, "B"),
    ("csvio.ingest.bytes", "csvio.ingest.mb", 1e-6, "MB"),
)


def _layer_metrics(tracer, ops):
    """Per-layer metrics: per-op means over the traced ops."""
    import tracing
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n = len(traced)
    totals = [tracer.layer_totals(op["op"]) for op in traced]
    out = {}
    for layer in tracing.LAYERS:
        for stat in tracing.STATS:
            out[f"{layer}.{stat}"] = _metric(
                sum(t[layer][stat] for t in totals) / n, _STAT_UNITS[stat], n)
    for key, metric, scale, unit in _COUNTS:
        out[metric] = _metric(sum(op["counts"].get(key, 0) for op in traced) * scale / n,
                              unit, n)
    members = sum(op["counts"].get("rpe.members_fitted", 0) for op in traced)
    attempts = sum(op["counts"].get("rpe.member_attempts", 0) for op in traced)
    out["rpe.redraw_attempts"] = _metric((attempts - members) / n, "count", n)
    out["rpe.member_fit_yield"] = _metric(members / attempts if attempts else 1.0,
                                          "ratio", n)
    traced_p50 = statistics.median(op["wall_s"] for op in traced)
    untraced_p50 = statistics.median(op["wall_s"] for op in untraced)
    out["trace.traced_op_p50_s"] = _metric(traced_p50, "s", n)
    out["trace.untraced_op_p50_s"] = _metric(untraced_p50, "s", len(untraced))
    out["trace.overhead_s"] = _metric(traced_p50 - untraced_p50, "s", n)
    return out


def _ungated(untraced, failed, attempted):
    """Metrics printed and recorded but not gated: the tail needs at least
    eleven ops, and the cli phases exist on one workload only."""
    out = {"failed_ops": _metric(failed / attempted, "fraction", attempted)}
    walls = [op["wall_s"] for op in untraced]
    found = tail(walls)
    out["op_tail_s"] = (None if found is None else
                        {**_metric(found[0], "s", len(walls)), "percentile": found[1]})
    trains = [op["phases"]["train_s"] for op in untraced if op["phases"].get("train_s")]
    predicts = [t for op in untraced for t in op["phases"].get("predict_s", [])]
    if trains:
        out["train_p50_s"] = _metric(statistics.median(trains), "s", len(trains))
    if predicts:
        out["predict_p50_s"] = _metric(statistics.median(predicts), "s", len(predicts))
    return out


def write_record(record):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{record['workload']}-{record['size']}-seed"
                                 f"{record['seed']}-trace{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return path


def summary_line(record):
    """The last stdout line: gated metrics as value and unit only."""
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["table", "population", "wide", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke runs a seconds-long version (self-test)")
    args = parser.parse_args(argv)
    try:
        import_s = load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          size=args.size, import_s=import_s)
    path = write_record(record)
    for name, m in {**record["metrics"], **record["ungated"]}.items():
        if m is None:
            print(f"{name}: n/a (fewer than 11 ops)")
            continue
        extra = f" at p{m['percentile']:.1f}" if "percentile" in m else ""
        n = f" (n={m['n']})" if "n" in m else ""
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}{n}")
    print(f"failed ops: {record['failed']} of {record['attempted']}; record: {path}")
    print(summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
