"""The engine against an independent per-iteration reference, and rows
against lone runs.

``_reference`` redoes the iteration one step at a time in 1-d numpy and
Python floats, with no histories and no monitors; ``run`` must give its
bits in every history array, event flag and final state.  ``run_batch``
must give every replication exactly what ``run`` gives it alone: the same
bits, monitor counts and byte-identical output files.
"""

import math

import numpy as np
import pytest

from adagb2 import solver
from adagb2.curvature import CurvatureSpec, make_provider
from adagb2.errors import ConfigurationError, NumericalError
from adagb2.geometry import BoundBox
from adagb2.harness import (ExperimentConfig, ExperimentResult,
                            aggregate_results, write_experiment_outputs)
from adagb2.oracle import Exact, Gaussian, OracleStream, draw
from adagb2.problem import Objective
from adagb2.problem import TestProblem as BoxProblem  # avoid pytest collection
from adagb2.solver import SolverParams, run, run_batch

REPS = 3
ORACLES = {
    "exact": {"kind": "exact"},
    "gaussian": {"kind": "gaussian", "sigma": 0.1},
    "bounded_uniform": {"kind": "bounded_uniform", "radius": 0.2},
    "affine_gaussian": {"kind": "affine_gaussian", "kappa1": 0.01,
                        "kappa2": 0.05},
    "constant_bias": {"kind": "constant_bias", "bias": [0.03, -0.02, 0.01],
                      "inner": {"kind": "gaussian", "sigma": 0.05}},
    "relative_bias": {"kind": "relative_bias", "rho": 0.1,
                      "inner": {"kind": "bounded_uniform", "radius": 0.1}},
    "subsample": {"kind": "subsample", "batch_size": 4},
}
CURVATURES = ("zero", "scalar_bb", "exact_clipped", "diagonal_fd")


def _config(oracle, curvature, step_mode="cauchy", diagnostics=True,
            problem=None):
    if problem is None:
        problem = ("finite_sum_logistic" if oracle == "subsample"
                   else "boxed_rosenbrock")
    return ExperimentConfig.from_dict({
        "problem": {"name": problem, "dim": 3, "seed": 1},
        "oracle": ORACLES[oracle],
        "curvature": {"kind": curvature, "kappa_b": 16.0},
        "solver": {"step_mode": step_mode},
        "run": {"horizon": 60, "replications": REPS, "base_seed": 5,
                "diagnostics": diagnostics},
    })


def _assert_same_result(a, b):
    assert a.horizon == b.horizon
    assert a.event_a is b.event_a
    assert a.violations == b.violations
    assert a.final_state.k == b.final_state.k
    for name in ("norm_d", "norm_xi", "err_norm", "gamma", "f_values",
                 "dir_err", "step_sq", "violation_count"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name  # bits: NaN and -0.0 too
    for x, y in ((a.final_state.x, b.final_state.x),
                 (a.final_state.w, b.final_state.w)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _check_rows_match_lone_runs(config, tmp_path):
    """Each row of a batch against its replication run alone."""
    problem = config.build_problem()
    args = (problem, config.oracle, config.curvature, config.solver,
            config.horizon, config.base_seed)
    alone = [run(*args, replication=r, diagnostics=config.diagnostics)
             for r in range(REPS)]
    batch = run_batch(*args, replications=REPS,
                      diagnostics=config.diagnostics)
    assert len(batch) == REPS
    for a, b in zip(alone, batch):
        _assert_same_result(a, b)
    files = []
    for name, results in (("alone", alone), ("batch", batch)):
        exp = ExperimentResult(config, results, aggregate_results(results))
        write_experiment_outputs(exp, str(tmp_path / name))
        files.append({f: (tmp_path / name / f).read_bytes()
                      for f in ("traces.csv", "aggregate.csv", "summary.json")})
    assert files[0] == files[1]


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("curvature", CURVATURES)
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_batch_matches_serial(oracle, curvature, diagnostics, tmp_path):
    _check_rows_match_lone_runs(_config(oracle, curvature,
                                        diagnostics=diagnostics), tmp_path)


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("oracle", ("gaussian", "subsample"))
@pytest.mark.parametrize("step_mode", ("first_order", "sign_adagrad"))
def test_batch_matches_serial_step_modes(step_mode, oracle, diagnostics,
                                         tmp_path):
    _check_rows_match_lone_runs(
        _config(oracle, "zero", step_mode=step_mode, diagnostics=diagnostics),
        tmp_path)


@pytest.mark.parametrize("curvature", ("scalar_bb", "diagonal_fd"))
@pytest.mark.parametrize("problem", ("boxed_quadratic",
                                     "boxed_nonconvex_quartic",
                                     "finite_sum_logistic"))
def test_batch_matches_serial_other_problems(problem, curvature, tmp_path):
    _check_rows_match_lone_runs(
        _config("gaussian", curvature, problem=problem), tmp_path)


def test_batch_replication_indices():
    config = _config("gaussian", "scalar_bb")
    problem = config.build_problem()
    args = (problem, config.oracle, config.curvature, config.solver,
            config.horizon, config.base_seed)
    tail = run_batch(*args, replications=[1, 2])
    for r, res in zip((1, 2), tail):
        _assert_same_result(run(*args, replication=r), res)
    alone, = run_batch(*args, replications=[2])
    _assert_same_result(run(*args, replication=2), alone)


def test_batch_histories_are_rows_of_one_array():
    config = _config("gaussian", "zero")
    results = run_batch(config.build_problem(), config.oracle,
                        config.curvature, config.solver, config.horizon,
                        config.base_seed, replications=REPS)
    base = results[0].norm_d.base
    assert base is not None and base.shape == (REPS, config.horizon)
    assert all(res.norm_d.base is base for res in results)


def test_batch_rejects_bad_arguments():
    config = _config("gaussian", "scalar_bb")
    args = (config.build_problem(), config.oracle, config.curvature,
            SolverParams(step_mode="sign_adagrad"), 10, 0)
    with pytest.raises(ConfigurationError):
        run_batch(*args, replications=2)
    with pytest.raises(ValueError):
        run_batch(*args, replications=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_batch_raises_on_divergent_objective():
    obj = Objective(f=lambda x: np.exp(x[..., 0]),
                    grad=lambda x: np.exp(np.minimum(x, 700.0)),
                    f_low=0.0)
    prob = BoxProblem("explode", obj, BoundBox.unbounded(1),
                      np.array([800.0]))  # f overflows to inf immediately
    with pytest.raises(NumericalError, match="replication 0"):
        run_batch(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 50,
                  base_seed=0, replications=2)
    with pytest.raises(NumericalError, match="gradient"):
        run_batch(prob, Gaussian(np.inf), CurvatureSpec("zero"),
                  SolverParams(), 50, base_seed=0, replications=2,
                  diagnostics=False)


def _reference(problem, oracle, spec, params, horizon, base_seed,
               replication, diagnostics):
    """One replication, one iteration at a time, in 1-d numpy and floats.

    Each clamp takes its arguments in the order of the kernels, so that a
    signed zero comes out the same.  Returns the rows (norm_d, gamma,
    step_sq, norm_xi, err_norm, f, dir_err) of every iteration, event_a,
    the final x and w, and how often sign_adagrad fell back to s_L.
    """
    obj, lower, upper = problem.objective, problem.box.lower, problem.box.upper
    provider = make_provider(spec, obj)
    stream = OracleStream(base_seed, replication)
    x = np.maximum(np.minimum(problem.x_ini, upper), lower)
    w = np.full(x.shape, params.sigma)
    rows, fallbacks = [], 0
    for k in range(horizon):
        od = draw(obj, x[None], oracle, [stream.rng(k)], with_true=diagnostics)
        g = od.g[0]
        if k > 0:
            provider.observe(x_prev[None], x[None], g_prev[None], g[None])
        x_prev, g_prev = x, g
        y = x - g
        d = np.maximum(np.minimum(y, upper), lower) - x
        w = np.sqrt(w * w + d * d)
        delta = np.abs(d) / w
        s_l = np.maximum(np.maximum(np.minimum(np.minimum(y, x + delta), upper),
                                    x - delta), lower) - x
        qf_sl = float(provider.quad_form(x[None], s_l[None])[0])
        g_sl = float(g @ s_l)
        gamma = min(1.0, -g_sl / qf_sl) if qf_sl > 0.0 else 1.0
        s_q = gamma * s_l
        if params.step_mode == "cauchy":
            s = s_q
        elif params.step_mode == "first_order":
            s = s_l
        else:
            s = np.clip(-np.sign(g) * delta, lower - x, upper - x)
            if float(g @ s) > params.tau * float(g @ s_q):
                s, fallbacks = s_l, fallbacks + 1
        row = [math.sqrt(float(d @ d)), gamma, float(s @ s)] + [math.nan] * 4
        if diagnostics:
            g_true = od.g_true[0]
            xi = np.maximum(np.minimum(x - g_true, upper), lower) - x
            e = g - g_true
            row[3:] = [math.sqrt(float(xi @ xi)), math.sqrt(float(e @ e)),
                       float(obj.f(x)), abs(float((g_true - g) @ s))]
        rows.append(row)
        x = np.maximum(np.minimum(x + s, upper), lower)
    return np.array(rows), rows[0][0] ** 2 >= params.sigma, x, w, fallbacks


def _assert_matches_reference(res, ref):
    rows, event_a, x, w, _ = ref
    names = ("norm_d", "gamma", "step_sq", "norm_xi", "err_norm", "f_values",
             "dir_err")
    for name, column in zip(names, rows.T):
        assert getattr(res, name).tobytes() == column.tobytes(), name
    assert res.event_a is event_a
    assert res.final_state.x.tobytes() == x.tobytes()
    assert res.final_state.w.tobytes() == w.tobytes()
    assert res.total_violations == 0, res.violations


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("step_mode, curvature", [
    *(("cauchy", c) for c in CURVATURES),
    *(("first_order", c) for c in CURVATURES),
    ("sign_adagrad", "zero"),
])
def test_run_matches_reference(step_mode, curvature, diagnostics):
    # 300 steps: past the end of the first block of a one-row run.
    problem = ("boxed_quadratic" if step_mode == "sign_adagrad"
               else "boxed_rosenbrock")
    config = _config("gaussian", curvature, step_mode, diagnostics, problem)
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, 300, config.base_seed)
    ref = _reference(*args, 0, diagnostics)
    _assert_matches_reference(run(*args, diagnostics=diagnostics), ref)
    if step_mode == "sign_adagrad":
        assert ref[-1] > 0  # the fallback to s_L is exercised


def test_short_blocks_match_reference():
    # Logistic n=50 at R=4 records too much per iteration for a full block
    # of 256, and the horizon ends inside a block.
    config = ExperimentConfig.from_dict({
        "problem": {"name": "finite_sum_logistic", "dim": 50, "seed": 3},
        "oracle": {"kind": "subsample", "batch_size": 10},
        "curvature": {"kind": "diagonal_fd", "kappa_b": 16.0},
        "run": {"horizon": 100, "replications": 4, "base_seed": 9},
    })
    length = solver.BLOCK_BYTES // (8 * len(solver._VECTORS) * 4 * 50)
    assert 1 < length < solver.BLOCK and 100 % length != 0
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, 100, config.base_seed)
    for r, res in enumerate(run_batch(*args, replications=4)):
        _assert_matches_reference(res, _reference(*args, r, True))
