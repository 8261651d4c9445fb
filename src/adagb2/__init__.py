"""Stochastic Adagrad-type optimizer for bound-constrained problems.

The solver takes scaled, componentwise trust-region steps whose radii are
driven by the running Adagrad weights, with an optional Cauchy-point
refinement against a bounded curvature model.  The rest of the package is
a verification harness: noise oracles with replayable counter-based
randomness, runtime monitors for the per-iteration decrease inequalities,
complexity-constant computations, and Monte Carlo experiment drivers.
"""

from .analysis import (ConstantsReport, chatzigeorgiou_bound,
                       compute_constants, counterexample_closed_form,
                       counterexample_simulate, lambert_w_minus1,
                       lemma_lambert_check, lemma_magical_check)
from .curvature import CURVATURE_KINDS, CurvatureSpec, make_provider
from .errors import ConfigurationError, NumericalError
from .geometry import BoundBox, project_box, project_box_cap_trust
from .harness import (Aggregate, ExperimentConfig, ExperimentResult,
                      aggregate_results, fit_rate, markov_complexity_report,
                      run_experiment, verify_deterministic_bound,
                      write_experiment_outputs)
from .oracle import (AffineGaussian, BoundedUniform, ConstantBias, Exact,
                     Gaussian, OracleStream, RelativeBias, Subsample)
from .problem import (Objective, PROBLEM_NAMES, TestProblem,
                      check_smoothness, make_test_problem, quadratic_problem)
from .solver import (MONITORS, STEP_MODES, RunResult, SolverParams,
                     SolverState, run, run_batch)

__version__ = "0.1.0"
KERNEL_BACKEND = "pure"  # the only backend (numpy), kept for result metadata

__all__ = [
    "Aggregate", "AffineGaussian", "BoundBox", "BoundedUniform",
    "CURVATURE_KINDS", "ConfigurationError", "ConstantBias",
    "ConstantsReport", "CurvatureSpec", "Exact", "ExperimentConfig",
    "ExperimentResult", "Gaussian", "KERNEL_BACKEND", "MONITORS",
    "NumericalError", "Objective", "OracleStream", "PROBLEM_NAMES",
    "RelativeBias", "RunResult", "STEP_MODES", "SolverParams",
    "SolverState", "Subsample", "TestProblem", "aggregate_results",
    "chatzigeorgiou_bound", "check_smoothness", "compute_constants",
    "counterexample_closed_form", "counterexample_simulate", "fit_rate",
    "lambert_w_minus1", "lemma_lambert_check", "lemma_magical_check",
    "make_provider", "make_test_problem", "markov_complexity_report",
    "project_box", "project_box_cap_trust", "quadratic_problem", "run",
    "run_batch", "run_experiment", "verify_deterministic_bound",
    "write_experiment_outputs",
]
