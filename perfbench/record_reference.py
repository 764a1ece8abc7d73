"""Record the reference outputs that every benchmark op is checked against.

    python3 perfbench/record_reference.py [--workload NAME ...] [--size full|smoke]

Run from the repository root at a commit whose outputs are known to be
right.  Writes ``perfbench/reference/<workload>-<size>.json`` with the
output of every case in the workload's pool.  Re-recording is only
legitimate when the program's intended output changes; a speed-up must
reproduce the recorded outputs.
"""

import argparse
import json
import os
import shutil
import sys

import run


def record(name, size):
    import workloads
    wl = workloads.make(name, size)
    cases = {}
    for run_input in wl.run_inputs():
        workdir = os.path.join(run.WORK, f"record-{name}-{size}")
        os.makedirs(workdir, exist_ok=True)
        try:
            state = wl.setup(run_input, workdir)
            for key in wl.cases(run_input):
                cases[key], _ = wl.op(state, key)
                print(f"{name}-{size} case {key}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.reference_path(name, size), "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "size": size, "cases": cases}, handle, indent=1)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+",
                        default=["table", "population", "wide", "cli"])
    parser.add_argument("--size", nargs="+", default=["smoke", "full"])
    args = parser.parse_args(argv)
    run.load_package()
    os.chdir(run.ROOT)
    for size in args.size:
        for name in args.workload:
            record(name, size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
