"""The replication-batched engine against the serial one.

``run_batch`` must give every replication exactly what ``run`` gives it:
the same bits in every history array, the same monitor counts, event flag
and final state, and byte-identical output files.
"""

import numpy as np
import pytest

from adagb2.curvature import CurvatureSpec
from adagb2.errors import ConfigurationError, NumericalError
from adagb2.geometry import BoundBox
from adagb2.harness import (ExperimentConfig, ExperimentResult,
                            aggregate_results, write_experiment_outputs)
from adagb2.oracle import Exact, Gaussian
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


def _check_batch_matches_serial(config, tmp_path):
    problem = config.build_problem()
    args = (problem, config.oracle, config.curvature, config.solver,
            config.horizon, config.base_seed)
    serial = [run(*args, replication=r, diagnostics=config.diagnostics)
              for r in range(REPS)]
    batch = run_batch(*args, replications=REPS,
                      diagnostics=config.diagnostics)
    assert len(batch) == REPS
    for a, b in zip(serial, batch):
        _assert_same_result(a, b)
    files = []
    for name, results in (("serial", serial), ("batch", batch)):
        exp = ExperimentResult(config, results, aggregate_results(results))
        write_experiment_outputs(exp, str(tmp_path / name))
        files.append({f: (tmp_path / name / f).read_bytes()
                      for f in ("traces.csv", "aggregate.csv", "summary.json")})
    assert files[0] == files[1]


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("curvature", CURVATURES)
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_batch_matches_serial(oracle, curvature, diagnostics, tmp_path):
    _check_batch_matches_serial(_config(oracle, curvature,
                                        diagnostics=diagnostics), tmp_path)


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("oracle", ("gaussian", "subsample"))
@pytest.mark.parametrize("step_mode", ("first_order", "sign_adagrad"))
def test_batch_matches_serial_step_modes(step_mode, oracle, diagnostics,
                                         tmp_path):
    _check_batch_matches_serial(
        _config(oracle, "zero", step_mode=step_mode, diagnostics=diagnostics),
        tmp_path)


@pytest.mark.parametrize("curvature", ("scalar_bb", "diagonal_fd"))
@pytest.mark.parametrize("problem", ("boxed_quadratic",
                                     "boxed_nonconvex_quartic",
                                     "finite_sum_logistic"))
def test_batch_matches_serial_other_problems(problem, curvature, tmp_path):
    _check_batch_matches_serial(
        _config("gaussian", curvature, problem=problem), tmp_path)


def test_batch_replication_indices():
    config = _config("gaussian", "scalar_bb")
    problem = config.build_problem()
    args = (problem, config.oracle, config.curvature, config.solver,
            config.horizon, config.base_seed)
    tail = run_batch(*args, replications=[1, 2])
    for r, res in zip((1, 2), tail):
        _assert_same_result(run(*args, replication=r), res)
    # One replication runs through the serial engine.
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
