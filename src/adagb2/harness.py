"""Experiment configuration, Monte Carlo execution and file outputs.

Configs are JSON with five sections (problem, bounds, oracle, curvature,
solver, run); unknown keys anywhere are errors, reported with their field
path.  All outputs are byte-deterministic for a fixed config and seed:
floats are printed with 17 significant digits, replications are merged in
replication-index order regardless of how they were scheduled.
"""

import functools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import _format
from .analysis import (Aggregate, ConstantsReport, aggregate_results,
                       compute_constants)
from .curvature import CurvatureSpec
from .errors import ConfigurationError
from .geometry import BoundBox
from .oracle import NOISE_MODELS, Exact, NoiseModel
from .problem import TestProblem, make_test_problem
from .solver import (MONITORS, RunResult, SolverParams, SolverState, run,
                     run_batch)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# The JSON types each config kind takes.  bool is a subclass of int, so a
# bool is taken only where a bool is asked for.
_JSON_TYPES = {float: (int, float), int: (int, float), bool: bool, str: str,
               list: list, dict: dict}


def _typed(where: str, kind, value):
    """``value`` as ``kind``, or a ConfigurationError that names ``where``."""
    if (isinstance(value, _JSON_TYPES[kind])
            and isinstance(value, bool) == (kind is bool)
            and not (kind is int and isinstance(value, float)
                     and not value.is_integer())):
        try:
            return kind(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigurationError(
        f"{where}: expected {kind.__name__}, got {value!r}")


class _Section:
    """Strict key-by-key consumer for one config section."""

    def __init__(self, name: str, data: dict):
        if not isinstance(data, dict):
            raise ConfigurationError(f"{name}: expected an object")
        self.name = name
        self.data = dict(data)

    def take(self, key, kind, default=MISSING):
        if key not in self.data:
            if default is MISSING:
                raise ConfigurationError(f"{self.name}.{key}: required")
            return default
        return _typed(f"{self.name}.{key}", kind, self.data.pop(key))

    def finish(self):
        if self.data:
            extra = ", ".join(sorted(self.data))
            raise ConfigurationError(f"{self.name}: unknown keys: {extra}")


def _floats(where: str, values: list) -> tuple:
    """Each entry of a config list as a float."""
    return tuple(_typed(f"{where}[{i}]", float, v)
                 for i, v in enumerate(values))


def _finite(where: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigurationError(f"{where}: must be finite, got {value}")
    return value


def _from_section(sec: _Section, cls):
    """A ``cls`` from the keys of ``sec``, one per field of ``cls``, each
    read as its field's type; a field with a default may be left out.
    Float fields and the entries of float-vector fields must be finite."""
    values = {}
    for f in fields(cls):
        where = f"{sec.name}.{f.name}"
        if f.type is NoiseModel:
            values[f.name] = _parse_oracle(where, sec.take(f.name, dict))
        elif f.type is np.ndarray:
            entries = _floats(where, sec.take(f.name, list))
            values[f.name] = np.array([_finite(f"{where}[{i}]", v)
                                       for i, v in enumerate(entries)])
        elif f.type is float:
            values[f.name] = _finite(where, sec.take(f.name, float, f.default))
        else:
            values[f.name] = sec.take(f.name, f.type, f.default)
    try:
        built = cls(**values)
    except ValueError as exc:
        raise ConfigurationError(f"{sec.name}: {exc}") from exc
    sec.finish()
    return built


def _parse_oracle(name: str, data: dict) -> NoiseModel:
    """The noise model of ``NOISE_MODELS[kind]``, one config key per field."""
    sec = _Section(name, data)
    kind = sec.take("kind", str)
    if kind not in NOISE_MODELS:
        raise ConfigurationError(
            f"{name}.kind: unknown oracle {kind!r}; choose from "
            f"{tuple(NOISE_MODELS)}")
    return _from_section(sec, NOISE_MODELS[kind])


@dataclass(frozen=True)
class ExperimentConfig:
    problem_name: str
    dim: int
    problem_seed: int
    bounds_override: Optional[tuple]
    oracle: NoiseModel
    curvature: CurvatureSpec
    solver: SolverParams
    horizon: int
    replications: int
    base_seed: int
    diagnostics: bool
    write_traces: bool
    workers: int
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be an object")
        known = {"problem", "bounds", "oracle", "curvature", "solver", "run"}
        extra = set(data) - known
        if extra:
            raise ConfigurationError(
                f"unknown config sections: {', '.join(sorted(extra))}"
            )

        prob = _Section("problem", data.get("problem", {}))
        name = prob.take("name", str)
        dim = prob.take("dim", int)
        problem_seed = prob.take("seed", int, 0)
        prob.finish()
        if dim < 1:
            raise ConfigurationError(f"problem.dim: must be >= 1, got {dim}")

        bounds = None
        if "bounds" in data:
            bsec = _Section("bounds", data["bounds"])
            lower = bsec.take("lower", list)
            upper = bsec.take("upper", list)
            bsec.finish()
            bounds = (_floats("bounds.lower", lower),
                      _floats("bounds.upper", upper))

        oracle = _parse_oracle("oracle", data.get("oracle", {"kind": "exact"}))

        curvature = _from_section(
            _Section("curvature", data.get("curvature", {})), CurvatureSpec)
        solver = _from_section(_Section("solver", data.get("solver", {})),
                               SolverParams)

        rsec = _Section("run", data.get("run", {}))
        horizon = rsec.take("horizon", int)
        replications = rsec.take("replications", int, 1)
        base_seed = rsec.take("base_seed", int, 0)
        diagnostics = rsec.take("diagnostics", bool, True)
        write_traces = rsec.take("write_traces", bool, True)
        workers = rsec.take("workers", int, 1)
        rsec.finish()
        if horizon < 1:
            raise ConfigurationError("run.horizon: must be >= 1")
        if replications < 1:
            raise ConfigurationError("run.replications: must be >= 1")
        if workers < 1:
            raise ConfigurationError("run.workers: must be >= 1")

        return cls(
            problem_name=name, dim=dim, problem_seed=problem_seed,
            bounds_override=bounds, oracle=oracle, curvature=curvature,
            solver=solver, horizon=horizon, replications=replications,
            base_seed=base_seed, diagnostics=diagnostics,
            write_traces=write_traces, workers=workers, raw=data,
        )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    def build_problem(self) -> TestProblem:
        try:
            problem = make_test_problem(self.problem_name, self.dim,
                                        self.problem_seed)
        except ValueError as exc:
            raise ConfigurationError(f"problem: {exc}") from exc
        if self.bounds_override is not None:
            lower, upper = self.bounds_override
            try:
                box = BoundBox(np.asarray(lower), np.asarray(upper))
            except ValueError as exc:
                raise ConfigurationError(f"bounds: {exc}") from exc
            if box.n != self.dim:
                raise ConfigurationError(
                    f"bounds: dimension {box.n} does not match problem.dim "
                    f"{self.dim}"
                )
            problem = TestProblem(problem.name, problem.objective, box,
                                  np.clip(problem.x_ini, box.lower, box.upper))
        return problem


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    results: list
    aggregate: Aggregate

    @property
    def total_violations(self) -> int:
        return int(sum(r.total_violations for r in self.results))


def _run_block(config: ExperimentConfig, replications) -> list:
    problem = config.build_problem()
    return run_batch(
        problem, config.oracle, config.curvature, config.solver,
        horizon=config.horizon, base_seed=config.base_seed,
        replications=replications, diagnostics=config.diagnostics,
    )


def _blocks(count: int, parts: int) -> list:
    """``range(count)`` cut into ``parts`` contiguous blocks, sizes within one."""
    size, extra = divmod(count, parts)
    bounds = [i * size + min(i, extra) for i in range(parts + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute all replications and aggregate deterministically.

    The replications advance together in ``run_batch``, as the rows of
    one state.  With ``workers > 1`` each worker process takes one
    contiguous block of replications; the blocks are merged in replication
    order, so the results do not depend on the worker count.
    """
    parts = min(config.workers, config.replications)
    if parts > 1:
        # Imported here: the pool's modules cost every launch 10-15 ms.
        from concurrent.futures import ProcessPoolExecutor

        blocks = _blocks(config.replications, parts)
        with ProcessPoolExecutor(max_workers=parts) as pool:
            results = [res for block in pool.map(
                functools.partial(_run_block, config), blocks)
                for res in block]
    else:
        results = _run_block(config, config.replications)
    return ExperimentResult(config, results, aggregate_results(results))


# ---------------------------------------------------------------------------
# Rate fitting and bound verification
# ---------------------------------------------------------------------------


def check_fit_range(k_min: int, k_max: int, length: int) -> None:
    """Raise ValueError unless [k_min, k_max] is a fit range of ``fit_rate``
    over series of ``length`` iterations."""
    if not k_max > k_min >= 1:
        raise ValueError(f"need k_max > k_min >= 1, got [{k_min}, {k_max}]")
    if k_max >= length:
        raise ValueError(f"k_max {k_max} outside aggregated range {length}")


def fit_rate(aggregate: Aggregate, k_min: int, k_max: int,
             series: str = "run_avg_d"):
    """Log-log least-squares slope of a running-average series.

    The complexity theory predicts a slope near -1/2 for run_avg_d when the
    O(1/sqrt(k+1)) bound is tight, which needs the oracle error to be
    controlled (small enough on average, e.g. shrinking with ||G||).
    Additive noise of fixed scale is not controlled: ||d_k|| then sits at a
    noise floor and no slope near -1/2 is to be expected.
    """
    values = getattr(aggregate, series)
    check_fit_range(k_min, k_max, values.shape[0])
    y_raw = values[k_min:k_max + 1]
    if not (np.isfinite(y_raw) & (y_raw > 0)).all():
        raise ValueError(f"series {series} not positive over the fit range")
    x = np.log(np.arange(k_min, k_max + 1) + 1.0)
    y = np.log(y_raw)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class DeterministicBoundReport:
    applicable: bool
    reason: str
    kappa_conv: float
    max_ratio: float
    holds: bool
    norm_d0_sq: float
    constants: Optional[ConstantsReport]


def _need_lipschitz(problem: TestProblem) -> None:
    if problem.objective.lipschitz is None:
        raise ConfigurationError(f"{problem.name} has no certified Lipschitz "
                                 "constant; the complexity constants need one")


def theory_constants(problem: TestProblem, params: SolverParams,
                     kappa_b: float) -> ConstantsReport:
    """The complexity constants of ``problem`` with zero directional error.

    They need a certified Lipschitz constant and a positive starting gap
    f(x_0) - f_low; a ConfigurationError names the hypothesis that fails.
    """
    obj = problem.objective
    _need_lipschitz(problem)
    x0 = SolverState.initial(problem.x_ini, problem.box, params).x
    gamma0 = obj.f(x0) - obj.f_low
    if not gamma0 > 0.0:
        raise ConfigurationError("the complexity constants need a positive "
                                 f"starting gap; f(x0) - f_low = {gamma0}")
    return compute_constants(
        sigma=params.sigma, tau=params.tau, kappa_s=params.kappa_s,
        kappa_b=kappa_b, kappa_gg=0.0, lipschitz=obj.lipschitz,
        gamma0=gamma0, dim=problem.box.n,
    )


def verify_deterministic_bound(problem: TestProblem, params: SolverParams,
                               horizon: int,
                               curvature: CurvatureSpec = CurvatureSpec("zero"),
                               rel_slack: float = 1e-9) -> DeterministicBoundReport:
    """Check avg_{j<=k} ||Xi_j|| <= kappa_conv / sqrt(k+1) for all k.

    Runs the exact-gradient algorithm and compares against the constant
    computed with zero directional-error contribution.  When the
    non-critical-start hypothesis sigma < ||d_0||^2 fails, reports
    inapplicability instead of asserting.  A problem with no certified
    Lipschitz constant raises ConfigurationError before the run.
    """
    _need_lipschitz(problem)
    result = run(problem, Exact(), curvature, params, horizon=horizon,
                 base_seed=0, diagnostics=True)
    d0_sq = float(result.norm_d[0] ** 2)
    if d0_sq <= params.sigma:
        return DeterministicBoundReport(
            applicable=False,
            reason=f"hypothesis sigma < ||d_0||^2 fails ({params.sigma} >= {d0_sq})",
            kappa_conv=math.nan, max_ratio=math.nan, holds=False,
            norm_d0_sq=d0_sq, constants=None,
        )
    constants = theory_constants(problem, params, curvature.kappa_b)
    bound = constants.kappa_conv_exact / np.sqrt(np.arange(1, horizon + 1))
    max_ratio = float((result.run_avg_xi / bound).max())
    return DeterministicBoundReport(
        applicable=True, reason="", kappa_conv=constants.kappa_conv_exact,
        max_ratio=max_ratio, holds=bool(max_ratio <= 1.0 + rel_slack),
        norm_d0_sq=d0_sq, constants=constants,
    )


def check_markov_target(epsilon: float, delta: float) -> None:
    """Raise ValueError unless epsilon is finite and > 0 and delta is in
    (0, 1), as ``markov_complexity_report`` needs; NaN fails both."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def markov_complexity_report(results: Sequence[RunResult], epsilon: float,
                             delta: float, kappa_conv: float) -> dict:
    """Empirical vs theoretical probability of reaching epsilon-criticality.

    The theoretical iteration count comes from the Markov-style corollary
    and needs delta > 1 - p_A; otherwise it is reported as infinite.
    """
    check_markov_target(epsilon, delta)
    if any(math.isnan(r.min_xi[-1]) for r in results):
        raise ValueError("min ||Xi|| is NaN: the runs need diagnostics")
    p_a = float(np.mean([r.event_a for r in results]))
    frac = float(np.mean([r.min_xi[-1] <= epsilon for r in results]))
    if p_a > 1.0 - delta:
        k_theory = (p_a * kappa_conv / ((p_a - (1.0 - delta)) * epsilon)) ** 2
    else:
        k_theory = math.inf
    return {
        "epsilon": epsilon,
        "delta": delta,
        "p_A": p_a,
        "empirical_fraction": frac,
        "k_theoretical": k_theory,
    }


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: Sequence[str], blocks) -> None:
    """Write ``header``, then one line per row of each block of columns.

    A block is a list of equal-length 1-D arrays, one per column of
    ``header``.  Integer columns print with ``%d`` and float columns with
    ``%.17g``, which reads back to the same double ("nan" for any NaN).
    The rows are formatted in numpy, ``_format.CHUNK_ROWS`` at a time.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for columns in _format.chunks(blocks):
            fh.write(_format.csv_lines(columns))


def write_aggregate_csv(path: str, agg: Aggregate) -> None:
    columns = [np.broadcast_to(value, agg.k.shape)  # p_A is one number
               for value in agg.columns().values()]
    _write_csv(path, Aggregate.COLUMNS, [columns])


TRACE_COLUMNS = ("rep", "k", "norm_d", "norm_xi", "err_norm", "gamma", "f",
                 "event_A")


def write_traces_csv(path: str, results: Sequence[RunResult]) -> None:
    _write_csv(path, TRACE_COLUMNS, (
        [np.full(res.horizon, rep), np.arange(res.horizon), res.norm_d,
         res.norm_xi, res.err_norm, res.gamma, res.f_values,
         np.full(res.horizon, int(res.event_a))]
        for rep, res in enumerate(results)))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_summary_json(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def experiment_summary(exp: ExperimentResult) -> dict:
    agg = exp.aggregate
    last = agg.k.shape[0] - 1
    return {
        "config": exp.config.raw,
        "replications": exp.config.replications,
        "reps_in_aggregate": agg.reps_used,
        "p_A": agg.p_a,
        "horizon": exp.config.horizon,
        "final_run_avg_d": float(agg.run_avg_d[last]),
        "final_run_avg_xi": float(agg.run_avg_xi[last]),
        "final_min_xi": float(agg.min_xi[last]),
        "violations_total": {
            name: int(sum(r.violations[name] for r in exp.results))
            for name in MONITORS
        },
    }


def write_experiment_outputs(exp: ExperimentResult, out_dir: str,
                             fmt: str = "csv") -> list:
    """Write aggregate, traces (optional) and summary; returns paths."""
    if fmt not in ("csv", "json"):  # before out_dir is made
        raise ConfigurationError(f"unknown output format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt == "csv":
        agg_path = os.path.join(out_dir, "aggregate.csv")
        write_aggregate_csv(agg_path, exp.aggregate)
        paths.append(agg_path)
        if exp.config.write_traces:
            tr_path = os.path.join(out_dir, "traces.csv")
            write_traces_csv(tr_path, exp.results)
            paths.append(tr_path)
    else:
        agg_path = os.path.join(out_dir, "aggregate.json")
        write_summary_json(agg_path, exp.aggregate.columns())
        paths.append(agg_path)
    summary_path = os.path.join(out_dir, "summary.json")
    write_summary_json(summary_path, experiment_summary(exp))
    paths.append(summary_path)
    return paths
