"""Tests of the benchmark's correctness checks.

Run with: python3 -m pytest -q perfbench/selftest.py

Each workload runs once at a size of a few seconds and must pass its checks;
then each check is fed a corrupted copy of an input and must fail.  The file
is not named ``test_*.py``, so the package's own test run does not collect
it.
"""

import copy
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _round(workload, out_dir):
    workload.setup()
    return workload.round(str(out_dir))


@pytest.fixture(scope="module")
def quad(tmp_path_factory):
    wl = workloads.mc_quadratic_n2(7, horizon=1200, replications=8)
    return wl, _round(wl, tmp_path_factory.mktemp("quad"))


@pytest.fixture(scope="module")
def logistic(tmp_path_factory):
    wl = workloads.mc_logistic_n50_fd(7, horizon=200, replications=2)
    return wl, _round(wl, tmp_path_factory.mktemp("logistic"))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = workloads.sweep_monitors(7)
    return wl, _round(wl, tmp_path_factory.mktemp("sweep"))


def test_workloads_pass_their_checks(quad, logistic, sweep):
    for wl, rnd in (quad, logistic, sweep):
        assert wl.check(rnd) == []
        assert rnd.iterations == wl.ops_per_round * wl.horizon


def test_rounds_repeat_byte_identically(quad, tmp_path):
    wl, rnd = quad
    again = wl.round(str(tmp_path))
    assert again.digest == rnd.digest
    assert checks.deterministic([rnd.digest, again.digest]) == []
    assert checks.deterministic(["other", again.digest]) != []


def test_monitor_violation_and_infeasible_iterate_fail(quad):
    wl, rnd = quad
    results = copy.deepcopy(rnd.results)
    results[1].violations["gsl_lower"] = 1
    results[3].final_state.x[0] = 1.0 + 1e-12
    failed = checks.monitors_and_feasibility(results, wl.problem.box)
    assert [op for op, _ in failed] == [1, 3]


def test_replay_catches_a_perturbed_iterate_and_a_wrong_noise_scale(quad):
    wl, rnd = quad
    a, b, lower, upper = workloads.quadratic_data(2)
    seed = wl.config.base_seed
    rng = workloads.OracleStream(seed, 0).rng

    def replay(result, x0=wl.problem.x_ini, sigma=0.1):
        return checks.replay_quadratic(result, x0, a, b, lower, upper, sigma,
                                       seed, 50, rng)

    assert replay(rnd.results[0]) == []
    bad = copy.deepcopy(rnd.results[0])
    bad.norm_d[20] *= 1.0 + 1e-11
    assert replay(bad) != []
    assert replay(rnd.results[0], x0=wl.problem.x_ini + 1e-9) != []
    assert replay(rnd.results[0], sigma=0.1 * (1.0 + 1e-9)) != []


def test_wrong_noise_scale_fails(quad):
    _, rnd = quad
    assert checks.gaussian_noise_scale(rnd.results, 0.1) == []
    assert checks.gaussian_noise_scale(rnd.results, 0.105) != []


def test_xi_above_beta_or_not_decreasing_fails(quad):
    wl, rnd = quad
    marks = (10, 100, 1000, wl.horizon)
    assert checks.xi_below_beta(rnd.results, marks) == []
    high = copy.deepcopy(rnd.results)
    for res in high:
        res.norm_xi *= 2.0
    assert checks.xi_below_beta(high, marks) != []
    flat = copy.deepcopy(rnd.results)
    for res in flat:
        res.norm_xi[100:1000] = 2.0 * res.norm_xi.max()
    assert checks.xi_below_beta(flat, marks) != []


def test_traces_csv_must_match_the_arrays(quad):
    _, rnd = quad
    traces = checks.read_traces(os.path.join(rnd.out_dir, "traces.csv"))
    assert checks.traces_roundtrip(traces, rnd.results) == []
    bad = traces.copy()
    bad[5 * 1200 + 17, 2] = np.nextafter(bad[5 * 1200 + 17, 2], 1.0)
    assert [op for op, _ in checks.traces_roundtrip(bad, rnd.results)] == [5]
    assert checks.traces_roundtrip(traces[:-1], rnd.results) != []


def test_altered_aggregate_value_fails(quad, tmp_path):
    _, rnd = quad
    traces = checks.read_traces(os.path.join(rnd.out_dir, "traces.csv"))
    src = os.path.join(rnd.out_dir, "aggregate.csv")
    assert checks.aggregate_crosscheck(src, traces, rnd.results) == []
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for col in range(1, 12):
        row = lines[300].split(",")
        row[col] = "0.5" if row[col] == "0" else repr(float(row[col]) * (1 + 1e-10))
        altered = tmp_path / f"aggregate{col}.csv"
        altered.write_text("\n".join(lines[:300] + [",".join(row)] + lines[301:]) + "\n")
        assert checks.aggregate_crosscheck(str(altered), traces, rnd.results) != [], col


def test_logistic_final_iterate_no_better_than_start_fails(logistic):
    wl, rnd = logistic
    results = copy.deepcopy(rnd.results)
    box = wl.problem.box
    results[1].final_state.x[:] = np.clip(wl.problem.x_ini, box.lower, box.upper)
    failed = checks.criticality_decreased(results, wl.problem)
    assert [op for op, _ in failed] == [1]


def test_sweep_detects_an_unconverged_quadratic_and_a_nan(sweep):
    wl, rnd = sweep
    results = copy.deepcopy(rnd.results)
    exact_quadratic = [i for i, (config, _) in enumerate(wl.parsed)
                       if config.problem_name == "boxed_quadratic"
                       and config.raw["oracle"]["kind"] == "exact"]
    assert len(exact_quadratic) == 3
    results[exact_quadratic[1]].final_state.x[-1] -= 1e-8
    results[30].gamma[4] = np.nan
    rnd_bad = copy.copy(rnd)
    rnd_bad.results = results
    assert sorted(op for op, _ in wl.check(rnd_bad)) == [exact_quadratic[1], 30]


def test_failed_operations_counts_whole_rounds(quad):
    wl, rnd = quad

    class Checked:
        ops_per_round = wl.ops_per_round

        def __init__(self, failures):
            self.failures = failures

        def check(self, last):
            return self.failures

    same = [rnd, rnd, rnd]
    assert run.failed_operations(Checked([]), same, False) == (0, [])
    assert run.failed_operations(Checked([(2, "x")]), same, False)[0] == 3
    assert run.failed_operations(Checked([(None, "x")]), same, False)[0] == 24
    odd = copy.copy(rnd)
    odd.digest = "other"
    failed, failures = run.failed_operations(Checked([]), [odd, rnd], True)
    assert failed == 16 and len(failures) == 1


def test_without_the_package_the_benchmark_exits_nonzero(tmp_path):
    import subprocess

    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns(
        "results", ".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_monitors",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
