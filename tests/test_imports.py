"""Start-up imports: ``scipy.signal`` and ``scipy.sparse`` load only where
they run, the AR covariances' ``lfilter`` and the sparse stacked operator.
Each test runs a script in a fresh interpreter, so nothing the test
process imported already hides a module-level import."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the script's helpers: the first use of each package comes on two threads
FIRST_USES = textwrap.dedent("""
    import hashlib
    from functools import partial

    import numpy as np

    from rpeqda import linalg, rpe, schemes
    from rpeqda.randproj import ProjectionFamily


    def stp_population_scores():
        # 40 members of p = 2000, d = 8 make five chunks, split over the
        # two threads, each building a sparse stacked operator
        spec = schemes.build_example2(2000, c=2.0, r=0, seed=1)
        pops = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
        config = rpe.RpeConfig(B=40, d=8, family=ProjectionFamily.SPARSE_THREE_POINT,
                               master_seed=5)
        rows = np.random.default_rng(6).standard_normal((4, 2000))
        assert len(rpe._population_chunks(2000, config, len(pops), len(rows))) >= 2
        return rpe.population_rpe_scores(pops, 2000, config, rows)


    def s1_two_class_draw():
        # the two classes of an s1 replicate, drawn at once as the
        # benchmark draws them, both through lfilter
        spec = schemes.build_scheme("s1", 64, 7)
        rows = np.empty((2, 30, 64))
        linalg._in_parallel(*[partial(schemes.sample, spec, k, 30, 100 + k,
                                      out=(rows[k - 1],)) for k in (1, 2)])
        return rows


    def digest(array):
        return hashlib.sha256(array.tobytes()).hexdigest()
""")


def run_fresh(script, cwd):
    """Standard output of ``script`` run by a new interpreter that imports
    rpeqda from this checkout's ``src``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_sn_train_and_predict_leave_signal_and_sparse_unloaded(tmp_path):
    script = textwrap.dedent("""
        import sys

        import numpy as np

        import rpeqda
        import rpeqda.cli
        from rpeqda import csvio
        from rpeqda.dataset import Dataset

        rng = np.random.default_rng(0)
        x = np.vstack([rng.standard_normal((12, 6)) - 3, rng.standard_normal((12, 6)) + 3])
        csvio.export_csv(Dataset(x, ("a",) * 12 + ("b",) * 12), "train.csv")
        assert rpeqda.cli.main(["train", "--data", "train.csv", "--B", "8", "--d", "2",
                                "--family", "sn", "--out", "model.json"]) == 0
        assert rpeqda.cli.main(["predict", "--model", "model.json", "--data", "train.csv",
                                "--out", "pred.csv"]) == 0
        print(sorted(m for m in ("scipy.signal", "scipy.sparse") if m in sys.modules))
    """)
    assert run_fresh(script, tmp_path).splitlines()[-1] == "[]"


def test_s1_simulate_loads_signal_and_stp_fit_loads_sparse(tmp_path):
    script = textwrap.dedent("""
        import sys

        import numpy as np

        import rpeqda.cli
        from rpeqda import rpe
        from rpeqda.dataset import Dataset
        from rpeqda.randproj import ProjectionFamily

        def loaded():
            return [m for m in ("scipy.signal", "scipy.sparse") if m in sys.modules]

        seen = [loaded()]
        x = np.random.default_rng(1).standard_normal((20, 16))
        rpe.rpe_fit(Dataset(x, ("a", "b") * 10),
                    rpe.RpeConfig(B=4, d=2, family=ProjectionFamily.SPARSE_THREE_POINT))
        seen.append(loaded())
        assert rpeqda.cli.main(["simulate", "--scheme", "s1", "--p", "16",
                                "--n-per-class", "5", "--out", "s1.csv"]) == 0
        seen.append(loaded())
        print(seen)
    """)
    # stp first: scipy.signal imports scipy.sparse itself
    assert run_fresh(script, tmp_path).splitlines()[-1] == str(
        [[], ["scipy.sparse"], ["scipy.signal", "scipy.sparse"]])


def test_first_use_on_two_threads_matches_in_process(tmp_path):
    # the lazy imports' first use comes on both threads at once; the import
    # lock makes the second wait, and the bytes are those of a warm process
    script = FIRST_USES + textwrap.dedent("""
        import sys

        assert "scipy.sparse" not in sys.modules
        print(digest(stp_population_scores()))
        assert "scipy.signal" not in sys.modules
        print(digest(s1_two_class_draw()))
    """)
    fresh = run_fresh(script, tmp_path).split()
    warm = {}
    exec(FIRST_USES, warm)
    assert fresh == [warm["digest"](warm["stp_population_scores"]()),
                     warm["digest"](warm["s1_two_class_draw"]())]
