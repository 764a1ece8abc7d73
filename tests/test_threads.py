"""The package's thread policy: BLAS on one thread inside every public
call, with the caller's setting given back, results that do not depend on
``OPENBLAS_NUM_THREADS``, row work split into two halves, one on the
calling thread and one on the worker, and splits inside a split run
inline."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from rpeqda import evaluate, linalg, randproj, rpe, schemes
from rpeqda.dataset import Dataset
from rpeqda.errors import MemberDegenerate, NonFiniteInput

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LIBRARIES = linalg._loaded_openblas()
needs_openblas = pytest.mark.skipif(
    not LIBRARIES, reason="no OpenBLAS with a thread-count interface is loaded")
# the caller's setting the tests start every call from: not 1, so a scope
# that forgets to restore it shows
CALLER_THREADS = 2


def blas_threads():
    return [get() for get, _ in LIBRARIES]


@pytest.fixture
def caller_threads():
    saved = blas_threads()
    for _, put in LIBRARIES:
        put(CALLER_THREADS)
    yield
    for (_, put), count in zip(LIBRARIES, saved):
        put(count)
    assert linalg._blas_depth == 0


def toy_data(seed=1, p=12):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.standard_normal((15, p)), rng.standard_normal((15, p)) * 1.5 + 0.5])
    return Dataset(x, ("a",) * 15 + ("b",) * 15)


def population_call():
    spec = schemes.build_example2(40, c=2.0, r=0, seed=1)
    pops = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
    return rpe.population_rpe_scores(pops, 40, rpe.RpeConfig(B=20, d=3), np.zeros((4, 40)))


CALLS = {
    "rpe_fit": lambda: rpe.rpe_fit(toy_data(), rpe.RpeConfig(B=6, d=3)),
    "rpe_scores_rows": lambda: rpe.rpe_scores_rows(
        MODEL, np.random.default_rng(2).standard_normal((5, 12))),
    "population_rpe_scores": population_call,
    "run_scheme_experiment": lambda: evaluate.run_scheme_experiment(
        "s2", 32, 10, 5, 1, rpe.RpeConfig(B=4, d=3), data_seed=3),
    # two sn replicates at once, one on the worker
    "run_scheme_experiment_pair": lambda: evaluate.run_scheme_experiment(
        "s2", 32, 10, 5, 2, rpe.RpeConfig(B=4, d=3), data_seed=3),
}
MODEL = rpe.rpe_fit(toy_data(), rpe.RpeConfig(B=6, d=3))


@needs_openblas
@pytest.mark.usefixtures("caller_threads")
class TestBlasScope:
    @pytest.mark.parametrize("name", CALLS)
    def test_projections_run_on_one_thread_and_the_setting_comes_back(
            self, monkeypatch, name):
        seen = []

        def spy(matrices, x):
            seen.append(blas_threads())
            return randproj.project_many(matrices, x)

        monkeypatch.setattr(rpe, "project_many", spy)
        CALLS[name]()
        assert seen and all(threads == [1] * len(LIBRARIES) for threads in seen)
        assert blas_threads() == [CALLER_THREADS] * len(LIBRARIES)

    def test_setting_comes_back_after_a_raise(self):
        data = toy_data()
        data.features[3, 4] = np.nan
        with pytest.raises(NonFiniteInput):
            rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=2))
        assert blas_threads() == [CALLER_THREADS] * len(LIBRARIES)
        constant = Dataset(np.ones((20, 8)), ("a",) * 10 + ("b",) * 10)
        with pytest.raises(MemberDegenerate):
            rpe.rpe_fit(constant, rpe.RpeConfig(B=2, d=2, max_regen_retries=1))
        assert blas_threads() == [CALLER_THREADS] * len(LIBRARIES)

    def test_nested_scopes_keep_one_thread_until_the_outermost_leaves(self):
        with linalg._one_blas_thread():
            rpe.rpe_fit(toy_data(), rpe.RpeConfig(B=2, d=2))
            assert blas_threads() == [1] * len(LIBRARIES)
            with linalg._one_blas_thread():
                assert blas_threads() == [1] * len(LIBRARIES)
            assert blas_threads() == [1] * len(LIBRARIES)
        assert blas_threads() == [CALLER_THREADS] * len(LIBRARIES)

    def test_concurrent_fits_share_the_scope(self, monkeypatch):
        # two threads fit at once: while either is inside, BLAS stays on one
        # thread, and the caller's setting is back once both have left
        seen = []
        both_inside = threading.Barrier(2, timeout=30)

        def spy(matrices, x):
            both_inside.wait()
            seen.append(blas_threads())
            both_inside.wait()
            seen.append(blas_threads())
            return randproj.project_many(matrices, x)

        monkeypatch.setattr(rpe, "project_many", spy)
        fits = [threading.Thread(target=lambda: rpe.rpe_fit(
            toy_data(seed), rpe.RpeConfig(B=2, d=2))) for seed in (1, 2)]
        for fit in fits:
            fit.start()
        for fit in fits:
            fit.join(timeout=60)
        assert not any(fit.is_alive() for fit in fits)
        assert len(seen) == 4 and all(threads == [1] * len(LIBRARIES) for threads in seen)
        assert blas_threads() == [CALLER_THREADS] * len(LIBRARIES)

    def test_depth_survives_many_threads_entering_at_once(self):
        # three threads enter and leave nested scopes with a short switch
        # interval, so the depth often falls to 0 while another thread
        # enters; without the lock (the OpenBLAS calls release the GIL) a
        # scope saves another scope's 1 as the caller's count, or restores
        # the caller's count while a scope is still open
        outside = []

        def work():
            for _ in range(20000):
                with linalg._one_blas_thread():
                    with linalg._one_blas_thread():
                        if blas_threads() != [1] * len(LIBRARIES):
                            outside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outside == []
        assert linalg._blas_depth == 0
        assert blas_threads() == [CALLER_THREADS] * len(LIBRARIES)


class TestInHalves:
    @staticmethod
    def run(n, unit):
        """The (lo, hi, on the caller) of every task call, in row order."""
        caller = threading.get_ident()
        return linalg._in_halves(
            lambda lo, hi: (lo, hi, threading.get_ident() == caller), n, unit)

    @pytest.mark.parametrize("n, unit", [(0, 1), (0, 16), (1, 1), (3, 16), (16, 16)])
    def test_fewer_than_two_pieces_run_on_the_caller_alone(self, monkeypatch, n, unit):
        def no_worker(*tasks):
            raise AssertionError("a task went to the worker")

        monkeypatch.setattr(linalg, "_in_parallel", no_worker)
        assert self.run(n, unit) == [(0, n, True)]

    @pytest.mark.parametrize("n, unit, mid", [
        (2, 1, 1), (7, 1, 4), (8, 1, 4), (17, 16, 16), (32, 16, 16), (33, 16, 32),
        (49, 16, 32), (65, 16, 48), (3, 2, 2)])
    def test_first_half_takes_the_larger_share_of_whole_pieces(self, n, unit, mid):
        assert self.run(n, unit) == [(0, mid, True), (mid, n, False)]

    @pytest.mark.parametrize("failing", [("first",), ("second",), ("first", "second")])
    def test_error_of_the_callers_half_comes_first(self, failing):
        errors = {"first": ValueError("first half"), "second": KeyError("second half")}

        def task(lo, hi):
            half = "first" if lo == 0 else "second"
            if half in failing:
                raise errors[half]
            return half

        with pytest.raises((ValueError, KeyError)) as err:
            linalg._in_halves(task, 10)
        assert err.value is errors[failing[0]]

    def test_both_halves_have_finished_when_it_raises(self):
        # the caller's half fails at once while the worker's half is still
        # sleeping; its write must land before the caller sees the error
        written = []

        def task(lo, hi):
            if lo == 0:
                raise ValueError("first half")
            time.sleep(0.3)
            written.append((lo, hi))

        with pytest.raises(ValueError):
            linalg._in_halves(task, 4)
        assert written == [(2, 4)]


class TestNestedSplits:
    def test_split_inside_a_task_runs_inline_on_that_tasks_thread(self):
        # both tasks split again: the worker's nested split would otherwise
        # hand its second half to the one worker, itself, and wait forever
        def task():
            own = threading.get_ident()
            return linalg._in_halves(
                lambda lo, hi: (lo, hi, threading.get_ident() == own), 4)

        results = []
        call = threading.Thread(
            target=lambda: results.append(linalg._in_parallel(task, task)), daemon=True)
        call.start()
        call.join(timeout=30)
        assert not call.is_alive(), "nested split did not finish"
        assert results == [[[(0, 2, True), (2, 4, True)]] * 2]
        # outside any task the split goes to the worker again
        assert TestInHalves.run(4, 1) == [(0, 2, True), (2, 4, False)]

    def test_population_scores_agree_across_threads(self, monkeypatch):
        # three threads score at once with a short switch interval; each
        # call splits its chunks over its own thread and the shared worker,
        # and every result must equal the one-thread-at-a-time result
        spec = schemes.build_example2(40, c=2.0, r=3, spike_bound=4.0, seed=5)
        pops = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
        z_rows = np.random.default_rng(6).standard_normal((6, 40))
        config = rpe.RpeConfig(B=20, d=3, master_seed=3)
        # chunks of 3 members: 7 chunks per call
        monkeypatch.setattr(rpe, "POPULATION_CHUNK_BYTES", 3 * 8 * 3 * (2 * 40 + 2 * 6))
        want = rpe.population_rpe_scores(pops, 40, config, z_rows)
        mismatches, calls = [], []

        def work():
            for _ in range(15):
                got = rpe.population_rpe_scores(pops, 40, config, z_rows)
                calls.append(1)
                if not np.array_equal(got, want):
                    mismatches.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 45 and mismatches == []


# A known-parameter alignment check small enough to run twice in a test.
# Before BLAS ran on one thread inside rpeqda its canonical bytes differed
# between OPENBLAS_NUM_THREADS=1 and =2 (scaled_ensemble_mean ended
# ...2800669 against ...2800673).
ALIGNMENT_SCRIPT = """
from rpeqda import evaluate, schemes, serialize
spec = schemes.build_example2(500, c=2.0, r=0, seed=1)
check = evaluate.theorem_alignment_check(spec, draws=50, seed=424242, d=8, B=100)
print(serialize.canonical_json(check.to_dict(include_timing=False)))
"""


def test_alignment_bytes_do_not_depend_on_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", ALIGNMENT_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert '"positive_count":50' in outputs[0]
