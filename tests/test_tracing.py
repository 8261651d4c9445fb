"""The names the benchmark's tracer patches or reads must exist.

``perfbench/tracing.py`` replaces module attributes of ``adagb2`` by name,
outside the benchmark's crash guard, so a renamed attribute would break
every traced benchmark run.  The tracer module is loaded from its file and
used as it is.  ``perfbench/run.py`` and ``perfbench/workloads.py`` read
more names on every run, untraced runs included.
"""

import importlib.util
import sys
from pathlib import Path

import adagb2
from adagb2 import _kernels, analysis, harness, oracle, solver
from adagb2.curvature import CurvatureSpec
from adagb2.oracle import Gaussian
from adagb2.problem import make_test_problem
from adagb2.solver import SolverParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no .pyc
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_attributes():
    names = {
        solver: ("draw", "step", "run", "project_box", "make_provider"),
        _kernels: ("first_order",),
        oracle.OracleStream: ("rng_shared",),
        harness: ("run", "make_test_problem", "aggregate_results",
                  "run_experiment", "write_aggregate_csv", "write_traces_csv",
                  "write_summary_json"),
    }
    return {(owner, attr): getattr(owner, attr)
            for owner, attrs in names.items() for attr in attrs}


def test_tracer_patches_the_solver_and_restores_it(monkeypatch):
    before = _patched_attributes()
    tracer = _load_tracing(monkeypatch).Tracer().install()
    names = ("solver.run", "solver.step", "oracle.draw",
             "kernels.first_order", "geometry.project_box")
    try:
        assert _patched_attributes() != before
        args = (make_test_problem("boxed_quadratic", 3, 0), Gaussian(0.1),
                CurvatureSpec("scalar_bb", 4.0), SolverParams(), 20, 0)
        solver.run(*args)
        alone = [tracer.calls(name) for name in names]
        solver.run_batch(*args, replications=2)
        batch = [tracer.calls(name) - n for name, n in zip(names, alone)]
    finally:
        tracer.uninstall()
    # One call of each per iteration, of run() and of run_batch alike: the
    # starting point and the blocks' Xi are projected past the patched name.
    assert alone == [1, 20, 20, 20, 20]
    assert batch == [0, 20, 20, 20, 20]
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_reads_these_names():
    names = {
        adagb2: ("KERNEL_BACKEND",),
        solver.SolverState: ("initial",),
        oracle.OracleStream: ("rng",),
        harness: ("ExperimentConfig", "fit_rate", "markov_complexity_report",
                  "write_experiment_outputs"),
        harness.ExperimentConfig: ("from_dict", "build_problem"),
        analysis: ("compute_constants",),
    }
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attrs in names.items() for attr in attrs
               if not hasattr(owner, attr)]
    assert missing == []
