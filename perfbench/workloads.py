"""The three benchmark workloads, generated from the workload seed.

A workload hands the package only generated config dicts and calls its
public entry points.  ``setup`` parses the configs and builds the problems;
``round`` runs the timed work once and returns a ``Round``; ``check`` runs
the correctness checks on a round.  Every round of one run repeats the same
operations, so their outputs must be byte-identical.

The module looks ``adagb2`` functions up on their modules at call time, so
that the tracer's wrappers are the ones called in a traced run.
"""

import contextlib
import hashlib
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from adagb2 import analysis, harness, solver
from adagb2.oracle import OracleStream

import checks

EPSILON = 0.05  # criticality target of the probability report
DELTA = 0.1
FAMILIES = ("boxed_quadratic", "boxed_rosenbrock", "boxed_nonconvex_quartic",
            "finite_sum_logistic")


def quadratic_data(dim):
    """a, b, lower, upper of ``boxed_quadratic``: 1/2 sum a x^2 - sum b x on [0, 1]^n."""
    return np.linspace(1.0, 4.0, dim), np.ones(dim), np.zeros(dim), np.ones(dim)


@dataclass
class Round:
    experiment_s: float  # parsed config to the last output produced
    busy_s: float  # inside run_experiment, or inside the run() calls
    iterations: int  # replication-iterations completed
    digest: str  # of the output files, or of the histories when none
    output_bytes: int
    results_bytes: int
    results: list
    out_dir: str


def _results_bytes(results):
    total = 0
    for res in results:
        arrays = [v for v in vars(res).values() if isinstance(v, np.ndarray)]
        arrays += [res.final_state.x, res.final_state.w]
        total += sum(a.nbytes for a in arrays)
    return total


def _digest_files(paths):
    h = hashlib.sha256()
    size = 0
    for path in sorted(paths):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.basename(path).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


class MonteCarlo:
    """One ``adagb2 mc`` experiment per round, with the calls the CLI makes.

    An operation is one replication.
    """

    def __init__(self, config, checks_for):
        self.configs = [config]
        self.replications = config["run"]["replications"]
        self.horizon = config["run"]["horizon"]
        self.ops_per_round = self.replications
        self._checks_for = checks_for
        self.config = self.problem = None

    def setup(self):
        self.config = harness.ExperimentConfig.from_dict(self.configs[0])
        self.problem = self.config.build_problem()

    def round(self, out_dir, tracer=None):
        config = self.config
        t0 = perf_counter()
        exp = harness.run_experiment(config)
        t1 = perf_counter()
        with _span(tracer, "analysis.postprocess"):
            slope, intercept, r2 = harness.fit_rate(exp.aggregate, 100,
                                                    config.horizon - 1)
            problem = config.build_problem()
            obj = problem.objective
            x0 = solver.SolverState.initial(problem.x_ini, problem.box,
                                            config.solver).x
            constants = analysis.compute_constants(
                sigma=config.solver.sigma, tau=config.solver.tau,
                kappa_s=config.solver.kappa_s, kappa_b=config.curvature.kappa_b,
                kappa_gg=0.0,
                lipschitz=obj.lipschitz if obj.lipschitz is not None else 0.0,
                gamma0=max(obj.f(x0) - obj.f_low, 1e-12), dim=problem.box.n)
            report = harness.markov_complexity_report(
                exp.results, EPSILON, DELTA, constants.kappa_conv_exact)
        paths = harness.write_experiment_outputs(exp, out_dir)
        analysis_path = os.path.join(out_dir, "analysis.json")
        harness.write_summary_json(analysis_path, {
            "rate_fit": {"slope": slope, "intercept": intercept, "r2": r2},
            "probability_report": report,
        })
        t2 = perf_counter()
        digest, size = _digest_files(paths + [analysis_path])
        return Round(t2 - t0, t1 - t0, self.replications * self.horizon,
                     digest, size, _results_bytes(exp.results), exp.results,
                     out_dir)

    def check(self, rnd):
        traces = checks.read_traces(os.path.join(rnd.out_dir, "traces.csv"))
        return (checks.traces_roundtrip(traces, rnd.results)
                + checks.aggregate_crosscheck(
                    os.path.join(rnd.out_dir, "aggregate.csv"), traces,
                    rnd.results)
                + checks.monitors_and_feasibility(rnd.results, self.problem.box)
                + self._checks_for(self, rnd.results))


def _quadratic_checks(wl, results):
    a, b, lower, upper = quadratic_data(2)
    seed = wl.config.base_seed
    horizon = wl.horizon
    return (checks.replay_quadratic(results[0], wl.problem.x_ini, a, b, lower,
                                    upper, 0.1, seed, min(50, horizon),
                                    OracleStream(seed, 0).rng)
            + checks.gaussian_noise_scale(results, 0.1)
            + checks.xi_below_beta(
                results, [k for k in (10, 100, 1000) if k < horizon] + [horizon]))


def _logistic_checks(wl, results):
    return checks.criticality_decreased(results, wl.problem)


def mc_quadratic_n2(seed, horizon=2500, replications=20):
    return MonteCarlo({
        "problem": {"name": "boxed_quadratic", "dim": 2, "seed": 0},
        "oracle": {"kind": "gaussian", "sigma": 0.1},
        "curvature": {"kind": "zero"},
        "run": {"horizon": horizon, "replications": replications,
                "base_seed": seed, "diagnostics": True, "write_traces": True,
                "workers": 1},
    }, _quadratic_checks)


def mc_logistic_n50_fd(seed, horizon=1000, replications=4):
    # Serial: with one worker per core of a shared 2-core host the run-to-run
    # spread of experiment_s was 0.27 of its median, against 0.04 serially.
    return MonteCarlo({
        "problem": {"name": "finite_sum_logistic", "dim": 50, "seed": seed},
        "oracle": {"kind": "subsample", "batch_size": 10},
        "curvature": {"kind": "diagonal_fd", "kappa_b": 16.0},
        "run": {"horizon": horizon, "replications": replications,
                "base_seed": seed, "diagnostics": True, "write_traces": True,
                "workers": 1},
    }, _logistic_checks)


class Sweep:
    """Short single-replication ``run()`` calls over problems, oracles and
    curvature providers.  An operation is one ``run()`` call."""

    def __init__(self, configs):
        self.configs = configs
        self.ops_per_round = len(configs)
        self.horizon = configs[0]["run"]["horizon"]
        self.parsed = []

    def setup(self):
        self.parsed = []
        for data in self.configs:
            config = harness.ExperimentConfig.from_dict(data)
            self.parsed.append((config, config.build_problem()))

    def round(self, out_dir, tracer=None):
        results = []
        busy = 0.0
        t0 = perf_counter()
        for config, problem in self.parsed:
            t = perf_counter()
            results.append(solver.run(
                problem, config.oracle, config.curvature, config.solver,
                config.horizon, config.base_seed,
                diagnostics=config.diagnostics))
            busy += perf_counter() - t
        t1 = perf_counter()
        h = hashlib.sha256()
        for res in results:
            for arr in (res.norm_d, res.gamma, res.step_sq, res.violation_count,
                        res.final_state.x, res.final_state.w):
                h.update(arr.tobytes())
        return Round(t1 - t0, busy, len(results) * self.horizon, h.hexdigest(),
                     0, _results_bytes(results), results, out_dir)

    def check(self, rnd):
        failures = checks.finite_histories(rnd.results)
        for i, ((config, problem), res) in enumerate(zip(self.parsed,
                                                        rnd.results)):
            failures += [(i, msg) for _, msg in
                         checks.monitors_and_feasibility([res], problem.box)]
            if (config.problem_name == "boxed_quadratic"
                    and config.raw["oracle"]["kind"] == "exact"):
                failures += checks.quadratic_minimizer(
                    i, res, *quadratic_data(config.dim))
        return failures


def sweep_monitors(seed, horizon=1000):
    """Each family once, with a dimension in 2..6 drawn from the seed, under
    3 oracles x 3 curvature providers at kappa_b = 16."""
    rng = np.random.default_rng(seed)
    configs = []
    for name in FAMILIES:
        dim = int(rng.integers(2, 7))
        problem_seed = int(rng.integers(2**31))
        bias = rng.normal(size=dim)
        bias *= 0.05 / np.linalg.norm(bias)
        oracles = (
            {"kind": "exact"},
            {"kind": "gaussian", "sigma": 0.1},
            {"kind": "constant_bias", "bias": bias.tolist(),
             "inner": {"kind": "gaussian", "sigma": 0.05}},
        )
        for oracle in oracles:
            for kind in ("zero", "scalar_bb", "exact_clipped"):
                configs.append({
                    "problem": {"name": name, "dim": dim, "seed": problem_seed},
                    "oracle": oracle,
                    "curvature": {"kind": kind, "kappa_b": 16.0},
                    "run": {"horizon": horizon, "replications": 1,
                            "base_seed": problem_seed, "diagnostics": False,
                            "write_traces": False, "workers": 1},
                })
    return Sweep(configs)


WORKLOADS = {
    "mc_quadratic_n2": mc_quadratic_n2,
    "sweep_monitors": sweep_monitors,
    "mc_logistic_n50_fd": mc_logistic_n50_fd,
}
