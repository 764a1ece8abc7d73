"""The benchmark workloads: one op each, its inputs and its output check.

Every workload has a fixed pool of recorded cases whose reference outputs
live in ``reference/<workload>-<size>.json``.  The run seed picks the order
in which the cases are run (and, for ``cli``, which recorded dataset is
written in set-up), so the same seed always gives the same inputs and
every op can be checked against an output recorded from a known-good
commit.  No case repeats within a run unless the run outlasts its pool.

Sizes: ``full`` is the measured workload; ``smoke`` is a seconds-long
version of the same code path, used for warm-up and the self-test.
"""

import contextlib
import io
import json
import os
import random
from time import perf_counter

import numpy as np

from rpeqda import cli, evaluate, rpe, schemes, serialize
from rpeqda.randproj import ProjectionFamily

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
SCORE_RTOL = 1e-12


def _close(value, expected):
    return abs(value - expected) <= SCORE_RTOL * abs(expected)


class _CasePool:
    """A pool of ``pool`` numbered cases with no per-run input to set up."""

    def run_inputs(self):
        return [None]

    def cases(self, run_input):
        return [str(j) for j in range(self.pool)]


class SchemeTable(_CasePool):
    """One replicated-table cell: ``evaluate.run_scheme_experiment`` at a
    small fixed number of replicates.  The op builds its scheme, KL oracle
    and data itself, so set-up has no inputs to make."""

    def __init__(self, scheme, family, p, n_train, n_test, reps, B, d, pool, seed_base):
        self.scheme, self.p = scheme, p
        self.n_train, self.n_test, self.reps = n_train, n_test, reps
        self.config = rpe.RpeConfig(B=B, d=d, family=family)
        self.pool, self.seed_base = pool, seed_base

    def setup(self, run_input, workdir):
        return None

    def op(self, state, case):
        report = evaluate.run_scheme_experiment(
            self.scheme, self.p, self.n_train, self.n_test, self.reps, self.config,
            data_seed=self.seed_base + int(case))
        return serialize.canonical_json(report.to_dict(include_timing=False)), {}

    def check(self, output, expected):
        return output == expected


class Population(_CasePool):
    """Known-parameter alignment check on the scale-difference pair."""

    def __init__(self, p, draws, d, B, pool, seed_base):
        self.p, self.draws, self.d, self.B = p, draws, d, B
        self.pool, self.seed_base = pool, seed_base

    def setup(self, run_input, workdir):
        return schemes.build_example2(self.p, c=2.0, r=0, seed=1)

    def op(self, spec, case):
        check = evaluate.theorem_alignment_check(
            spec, draws=self.draws, seed=self.seed_base + int(case), d=self.d, B=self.B)
        return {"positive_count": check.positive_count,
                "scaled_ensemble_mean": check.scaled_ensemble_mean,
                "mean_abs_deviation": check.mean_abs_deviation}, {}

    def check(self, output, expected):
        return (output["positive_count"] == expected["positive_count"]
                and _close(output["scaled_ensemble_mean"], expected["scaled_ensemble_mean"])
                and _close(output["mean_abs_deviation"], expected["mean_abs_deviation"]))


class CommandLine:
    """``cli.main`` in process: one op trains a compact stp model from CSV,
    then predicts three unlabeled CSV batches with it.  Set-up writes the
    training CSV with ``simulate`` and the batches with the same grammar
    and precision as ``csvio.export_csv``."""

    def __init__(self, p, n_per_class, batch_rows, B, datasets, masters):
        self.p, self.n_per_class, self.batch_rows, self.B = p, n_per_class, batch_rows, B
        self.datasets, self.masters = datasets, masters

    def run_inputs(self):
        return list(range(self.datasets))

    def cases(self, dataset):
        return [f"{dataset}-{m}" for m in range(self.masters)]

    def setup(self, dataset, workdir):
        train = os.path.join(workdir, "train.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            _cli(["simulate", "--scheme", "s3", "--p", str(self.p),
                  "--n-per-class", str(self.n_per_class),
                  "--data-seed", str(4000 + dataset), "--out", train])
        spec = schemes.build_scheme("s3", self.p)
        rows = schemes.sample_dataset(spec, 3 * self.batch_rows // 2, 4100 + dataset).features
        header = ",".join(f"f{j + 1}" for j in range(self.p)) + "\n"
        batches = []
        for b in range(3):
            path = os.path.join(workdir, f"batch{b}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(header)
                np.savetxt(handle, rows[b * self.batch_rows:(b + 1) * self.batch_rows],
                           fmt="%.17g", delimiter=",")
            batches.append(path)
        return {"train": train, "batches": batches,
                "model": os.path.join(workdir, "model.json"), "workdir": workdir}

    def op(self, state, case):
        master = 4200 + int(case.split("-")[1])
        phases = {"train_s": None, "predict_s": []}
        outputs = []
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            _cli(["train", "--data", state["train"], "--family", "stp", "--B", str(self.B),
                  "--seed", str(master), "--compact", "--out", state["model"]])
            phases["train_s"] = perf_counter() - start
            for b, batch in enumerate(state["batches"]):
                out = os.path.join(state["workdir"], f"pred{b}.csv")
                start = perf_counter()
                _cli(["predict", "--model", state["model"], "--data", batch,
                      "--no-label", "--out", out])
                phases["predict_s"].append(perf_counter() - start)
                outputs.append(_read_predictions(out))
        return outputs, phases

    def check(self, output, expected):
        if len(output) != len(expected):
            return False
        for got, want in zip(output, expected):
            if got["labels"] != want["labels"] or len(got["scores"]) != len(want["scores"]):
                return False
            for row, ref_row in zip(got["scores"], want["scores"]):
                if len(row) != len(ref_row) or not all(map(_close, row, ref_row)):
                    return False
        return True


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rpeqda {argv[0]} exited with {code}")


def _read_predictions(path):
    labels, scores = [], []
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    for line in lines[1:]:
        label, *cells = line.rstrip("\n").split(",")
        labels.append(label)
        scores.append([float(c) for c in cells])
    return {"labels": labels, "scores": scores}


SN = ProjectionFamily.STANDARD_NORMAL
STP = ProjectionFamily.SPARSE_THREE_POINT

# Each pool holds several times the ops of one 20-second run, so cases do
# not repeat within a run even after a large speed-up.
_FACTORIES = {
    "table": {
        "full": lambda: SchemeTable("s2", SN, 2048, 100, 200, reps=2, B=200, d=10,
                                    pool=96, seed_base=1000),
        "smoke": lambda: SchemeTable("s2", SN, 128, 20, 20, reps=1, B=10, d=4,
                                     pool=4, seed_base=1000),
    },
    "population": {
        "full": lambda: Population(2000, draws=100, d=8, B=500, pool=16, seed_base=2000),
        "smoke": lambda: Population(64, draws=10, d=4, B=10, pool=4, seed_base=2000),
    },
    # Only s3 is used: the generic KL trace path of s1, s2 and s4 is capped
    # at p <= 2048.
    "wide": {
        "full": lambda: SchemeTable("s3", STP, 65536, 100, 200, reps=1, B=200, d=10,
                                    pool=24, seed_base=3000),
        "smoke": lambda: SchemeTable("s3", STP, 1024, 20, 20, reps=1, B=10, d=4,
                                     pool=4, seed_base=3000),
    },
    "cli": {
        "full": lambda: CommandLine(16384, n_per_class=100, batch_rows=50, B=200,
                                    datasets=3, masters=8),
        "smoke": lambda: CommandLine(128, n_per_class=20, batch_rows=10, B=10,
                                     datasets=2, masters=2),
    },
}
NAMES = tuple(_FACTORIES)
SIZES = ("full", "smoke")


def make(name, size="full"):
    return _FACTORIES[name][size]()


def plan(workload, seed):
    """The run input set-up makes and the order of the cases, from the seed."""
    rng = random.Random(seed)
    run_input = rng.choice(workload.run_inputs())
    cases = workload.cases(run_input)
    rng.shuffle(cases)
    return run_input, cases


def reference_path(name, size):
    return os.path.join(REFERENCE_DIR, f"{name}-{size}.json")


def load_reference(name, size):
    with open(reference_path(name, size), encoding="utf-8") as handle:
        return json.load(handle)["cases"]

