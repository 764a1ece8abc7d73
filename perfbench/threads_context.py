"""Ungated context run: default BLAS threads against OPENBLAS_NUM_THREADS=1.

    python3 perfbench/threads_context.py [--seed 1] [--seconds 20]

Runs ``table`` and ``population`` once each way, every run in its own
child process; the variable is set only in the second child's
environment.  Prints both sets of end-to-end metrics and their ratio and
writes them to ``perfbench/results/threads-context.json``.  Not part of
the gated set: the gated runs measure the machine default.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table", "population")


def _run(workload, seed, seconds, env):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    single = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = {"seed": args.seed, "seconds": args.seconds,
           "default_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
           "runs": {}}
    for workload in WORKLOADS:
        default = _run(workload, args.seed, args.seconds, dict(os.environ))
        one = _run(workload, args.seed, args.seconds, single)
        out["runs"][workload] = {"default": default, "openblas_1_thread": one}
        for name, m in default["metrics"].items():
            ratio = m["value"] / one["metrics"][name]["value"]
            print(f"{workload} {name}: default {m['value']:.4g} {m['unit']}, "
                  f"1 thread {one['metrics'][name]['value']:.4g} {m['unit']} "
                  f"(ratio {ratio:.2f})")
    os.makedirs(os.path.join(ROOT, "perfbench", "results"), exist_ok=True)
    path = os.path.join(ROOT, "perfbench", "results", "threads-context.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
