"""Experiment configuration, Monte Carlo execution and file outputs.

Configs are JSON with five sections (problem, bounds, oracle, curvature,
solver, run); unknown keys anywhere are errors, reported with their field
path.  All outputs are byte-deterministic for a fixed config and seed:
floats are printed with 17 significant digits, replications are merged in
replication-index order regardless of how they were scheduled.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analysis import ConstantsReport, compute_constants
from .curvature import CurvatureSpec
from .errors import ConfigurationError
from .geometry import BoundBox
from .oracle import (AffineGaussian, BoundedUniform, ConstantBias, Exact,
                     Gaussian, RelativeBias, Subsample)
from .problem import TestProblem, make_test_problem
from .solver import (MONITORS, RunResult, SolverParams, SolverState, run,
                     run_batch)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


_REQUIRED = object()


class _Section:
    """Strict key-by-key consumer for one config section."""

    def __init__(self, name: str, data: dict):
        if not isinstance(data, dict):
            raise ConfigurationError(f"{name}: expected an object")
        self.name = name
        self.data = dict(data)

    def take(self, key, kind, default=_REQUIRED):
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigurationError(f"{self.name}.{key}: required")
            return default
        value = self.data.pop(key)
        try:
            if kind is float:
                if isinstance(value, bool):
                    raise TypeError
                return float(value)
            if kind is int:
                if isinstance(value, bool) or int(value) != value:
                    raise TypeError
                return int(value)
            if kind is bool:
                if not isinstance(value, bool):
                    raise TypeError
                return value
            if kind is str:
                if not isinstance(value, str):
                    raise TypeError
                return value
            if kind is list:
                if not isinstance(value, list):
                    raise TypeError
                return value
            if kind is dict:
                if not isinstance(value, dict):
                    raise TypeError
                return value
        except (TypeError, ValueError):
            pass
        raise ConfigurationError(
            f"{self.name}.{key}: expected {kind.__name__}, got {value!r}"
        )

    def finish(self):
        if self.data:
            extra = ", ".join(sorted(self.data))
            raise ConfigurationError(f"{self.name}: unknown keys: {extra}")


def _parse_oracle(name: str, data: dict):
    sec = _Section(name, data)
    kind = sec.take("kind", str)
    try:
        if kind == "exact":
            model = Exact()
        elif kind == "gaussian":
            model = Gaussian(sec.take("sigma", float))
        elif kind == "bounded_uniform":
            model = BoundedUniform(sec.take("radius", float))
        elif kind == "affine_gaussian":
            model = AffineGaussian(sec.take("kappa1", float),
                                   sec.take("kappa2", float))
        elif kind == "constant_bias":
            bias = np.asarray(sec.take("bias", list), dtype=np.float64)
            inner = _parse_oracle(f"{name}.inner", sec.take("inner", dict))
            model = ConstantBias(bias, inner)
        elif kind == "relative_bias":
            model = RelativeBias(sec.take("rho", float),
                                 _parse_oracle(f"{name}.inner",
                                               sec.take("inner", dict)))
        elif kind == "subsample":
            model = Subsample(sec.take("batch_size", int))
        else:
            raise ConfigurationError(f"{name}.kind: unknown oracle {kind!r}")
    except ValueError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc
    sec.finish()
    return model


@dataclass(frozen=True)
class ExperimentConfig:
    problem_name: str
    dim: int
    problem_seed: int
    bounds_override: Optional[tuple]
    oracle: object
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
            bounds = (tuple(float(v) for v in lower),
                      tuple(float(v) for v in upper))

        oracle = _parse_oracle("oracle", data.get("oracle", {"kind": "exact"}))

        csec = _Section("curvature", data.get("curvature", {}))
        try:
            curvature = CurvatureSpec(csec.take("kind", str, "zero"),
                                      csec.take("kappa_b", float, 1.0))
        except ValueError as exc:
            raise ConfigurationError(f"curvature: {exc}") from exc
        csec.finish()

        ssec = _Section("solver", data.get("solver", {}))
        try:
            solver = SolverParams(
                sigma=ssec.take("sigma", float, 0.01),
                tau=ssec.take("tau", float, 1.0),
                kappa_s=ssec.take("kappa_s", float, 1.0),
                step_mode=ssec.take("step_mode", str, "cauchy"),
            )
        except ValueError as exc:
            raise ConfigurationError(f"solver: {exc}") from exc
        ssec.finish()

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
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class Aggregate:
    """Per-iteration statistics over (event-conditioned) replications."""

    k: np.ndarray
    mean_norm_d: np.ndarray
    se_norm_d: np.ndarray
    mean_norm_xi: np.ndarray
    se_norm_xi: np.ndarray
    mean_err: np.ndarray
    mean_rmse: np.ndarray
    run_avg_d: np.ndarray
    run_avg_xi: np.ndarray
    min_xi: np.ndarray
    """Running minimum of ||Xi_k|| over *all* aggregated replications at once:
    entry k is the smallest ||Xi_j||, j <= k, that any replication reached.
    A best case, not a per-replication figure; written as the ``min_xi``
    column of ``aggregate.csv`` and as ``final_min_xi`` in ``summary.json``."""
    p_a: float
    violations: np.ndarray
    reps_used: int

    COLUMNS = (
        "k,mean_norm_d,se_norm_d,mean_norm_xi,se_norm_xi,mean_err,mean_rmse,"
        "run_avg_d,run_avg_xi,min_xi,p_A,violations"
    )


def aggregate_results(results: Sequence[RunResult]) -> Aggregate:
    """Merge replications (in index order) into per-iteration statistics.

    Statistics are conditioned on the iteration-zero event ||d_0||^2 >= sigma
    when at least one replication satisfies it, mirroring the conditioning of
    the stochastic theory; p_A is always the unconditional fraction.
    """
    if not results:
        raise ValueError("no replications to aggregate")
    p_a = float(np.mean([r.event_a for r in results]))
    selected = [r for r in results if r.event_a] or list(results)
    horizon = selected[0].horizon
    if any(r.horizon != horizon for r in selected):
        raise ValueError("replications have mismatched horizons")
    reps = len(selected)
    d = np.stack([r.norm_d for r in selected])
    xi = np.stack([r.norm_xi for r in selected])
    err = np.stack([r.err_norm for r in selected])
    viol = np.sum([r.violation_count for r in selected], axis=0)

    def _se(mat):
        if reps < 2:
            return np.zeros(horizon)
        return mat.std(axis=0, ddof=1) / math.sqrt(reps)

    mean_d = d.mean(axis=0)
    mean_xi = xi.mean(axis=0)
    counts = np.arange(1, horizon + 1)
    return Aggregate(
        k=np.arange(horizon),
        mean_norm_d=mean_d,
        se_norm_d=_se(d),
        mean_norm_xi=mean_xi,
        se_norm_xi=_se(xi),
        mean_err=err.mean(axis=0),
        mean_rmse=np.sqrt(np.mean(err * err, axis=0)),
        run_avg_d=np.cumsum(mean_d) / counts,
        run_avg_xi=np.cumsum(mean_xi) / counts,
        min_xi=np.minimum.accumulate(xi.min(axis=0)),
        p_a=p_a,
        violations=viol,
        reps_used=reps,
    )


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


def _run_block_from_dict(args) -> list:
    data, replications = args
    return _run_block(ExperimentConfig.from_dict(data), replications)


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
        blocks = _blocks(config.replications, parts)
        with ProcessPoolExecutor(max_workers=parts) as pool:
            results = [res for block in pool.map(
                _run_block_from_dict, [(config.raw, b) for b in blocks])
                for res in block]
    else:
        results = _run_block(config, config.replications)
    return ExperimentResult(config, results, aggregate_results(results))


# ---------------------------------------------------------------------------
# Rate fitting and bound verification
# ---------------------------------------------------------------------------


def fit_rate(aggregate: Aggregate, k_min: int, k_max: int,
             series: str = "run_avg_d"):
    """Log-log least-squares slope of a running-average series.

    The complexity theory predicts a slope near -1/2 for run_avg_d when the
    O(1/sqrt(k+1)) bound is tight, which needs the oracle error to be
    controlled (small enough on average, e.g. shrinking with ||G||).
    Additive noise of fixed scale is not controlled: ||d_k|| then sits at a
    noise floor and no slope near -1/2 is to be expected.
    """
    if not k_max > k_min >= 1:
        raise ValueError(f"need k_max > k_min >= 1, got [{k_min}, {k_max}]")
    values = getattr(aggregate, series)
    if k_max >= values.shape[0]:
        raise ValueError(
            f"k_max {k_max} outside aggregated range {values.shape[0]}"
        )
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


def verify_deterministic_bound(problem: TestProblem, params: SolverParams,
                               horizon: int,
                               curvature: CurvatureSpec = CurvatureSpec("zero"),
                               rel_slack: float = 1e-9) -> DeterministicBoundReport:
    """Check avg_{j<=k} ||Xi_j|| <= kappa_conv / sqrt(k+1) for all k.

    Runs the exact-gradient algorithm and compares against the constant
    computed with zero directional-error contribution.  When the
    non-critical-start hypothesis sigma < ||d_0||^2 fails, reports
    inapplicability instead of asserting.
    """
    obj = problem.objective
    if obj.lipschitz is None:
        raise ConfigurationError(
            "verify_deterministic_bound needs a problem with a known "
            "Lipschitz constant"
        )
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
    state0 = SolverState.initial(problem.x_ini, problem.box, params)
    gamma0 = obj.f(state0.x) - obj.f_low
    if gamma0 <= 0.0:
        return DeterministicBoundReport(
            applicable=False,
            reason=f"starting gap f(x0) - f_low = {gamma0} is not positive",
            kappa_conv=math.nan, max_ratio=math.nan, holds=False,
            norm_d0_sq=d0_sq, constants=None,
        )
    constants = compute_constants(
        sigma=params.sigma, tau=params.tau, kappa_s=params.kappa_s,
        kappa_b=curvature.kappa_b, kappa_gg=0.0, lipschitz=obj.lipschitz,
        gamma0=gamma0, dim=problem.box.n,
    )
    counts = np.arange(1, horizon + 1, dtype=np.float64)
    bound = constants.kappa_conv_exact / np.sqrt(counts)
    avg_xi = np.cumsum(result.norm_xi) / counts
    ratios = avg_xi / bound
    max_ratio = float(ratios.max())
    return DeterministicBoundReport(
        applicable=True, reason="", kappa_conv=constants.kappa_conv_exact,
        max_ratio=max_ratio, holds=bool(max_ratio <= 1.0 + rel_slack),
        norm_d0_sq=d0_sq, constants=constants,
    )


def markov_complexity_report(results: Sequence[RunResult], epsilon: float,
                             delta: float, kappa_conv: float) -> dict:
    """Empirical vs theoretical probability of reaching epsilon-criticality.

    The theoretical iteration count comes from the Markov-style corollary
    and needs delta > 1 - p_A; otherwise it is reported as infinite.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if any(math.isnan(r.min_xi[-1]) for r in results):
        raise ValueError("min ||Xi|| is NaN: the runs need diagnostics")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
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


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


def write_aggregate_csv(path: str, agg: Aggregate) -> None:
    lines = [Aggregate.COLUMNS]
    for i in range(agg.k.shape[0]):
        lines.append(",".join([
            _fmt(agg.k[i]), _fmt(agg.mean_norm_d[i]), _fmt(agg.se_norm_d[i]),
            _fmt(agg.mean_norm_xi[i]), _fmt(agg.se_norm_xi[i]),
            _fmt(agg.mean_err[i]), _fmt(agg.mean_rmse[i]),
            _fmt(agg.run_avg_d[i]), _fmt(agg.run_avg_xi[i]),
            _fmt(agg.min_xi[i]), _fmt(agg.p_a), _fmt(agg.violations[i]),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


TRACE_COLUMNS = "rep,k,norm_d,norm_xi,err_norm,gamma,f,event_A"


def write_traces_csv(path: str, results: Sequence[RunResult]) -> None:
    # f"{v:.17g}" on a Python float is _fmt(v), "nan" included.
    lines = [TRACE_COLUMNS]
    for rep, res in enumerate(results):
        flag = "1" if res.event_a else "0"
        columns = zip(res.norm_d.tolist(), res.norm_xi.tolist(),
                      res.err_norm.tolist(), res.gamma.tolist(),
                      res.f_values.tolist())
        lines.extend(
            f"{rep},{k},{d:.17g},{xi:.17g},{err:.17g},{gam:.17g},{f:.17g},{flag}"
            for k, (d, xi, err, gam, f) in enumerate(columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    elif fmt == "json":
        agg_path = os.path.join(out_dir, "aggregate.json")
        agg = exp.aggregate
        payload = {
            "k": agg.k, "mean_norm_d": agg.mean_norm_d,
            "se_norm_d": agg.se_norm_d, "mean_norm_xi": agg.mean_norm_xi,
            "se_norm_xi": agg.se_norm_xi, "mean_err": agg.mean_err,
            "mean_rmse": agg.mean_rmse, "run_avg_d": agg.run_avg_d,
            "run_avg_xi": agg.run_avg_xi, "min_xi": agg.min_xi,
            "p_A": agg.p_a, "violations": agg.violations,
        }
        write_summary_json(agg_path, payload)
        paths.append(agg_path)
    else:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    summary_path = os.path.join(out_dir, "summary.json")
    write_summary_json(summary_path, experiment_summary(exp))
    paths.append(summary_path)
    return paths
