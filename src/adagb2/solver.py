"""The adaptive bound-constrained iteration.

One iteration: draw a gradient estimate g_k, form the projected direction
d_k = P_F(x_k - g_k) - x_k, accumulate the per-coordinate weights
w_{k,i} = sqrt(w_{k-1,i}^2 + d_{k,i}^2), build the trust box of radii
|d_{k,i}|/w_{k,i}, take the projected first-order step s^L, scale it to
the Cauchy point s^Q of the local quadratic model, and move.  The method
never evaluates the objective to make decisions; function values appear
in traces for diagnostics only.

Every iteration is checked against the per-realization inequalities the
theory guarantees (linear-decrease, Cauchy-decrease, step bounds,
feasibility, the curvature bound |s^T B s| <= kappa_b ||s||^2 on the
first-order step, the criticality triangle inequality); violations are
counted and reported, and should be zero up to floating-point slack.

``run`` advances one replication; ``run_batch`` advances several as one
(R, n) state and gives each the results ``run`` gives it, bit for bit.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import _kernels
from .curvature import (CurvatureProvider, CurvatureSpec, ZeroCurvature,
                        make_provider)
from .errors import ConfigurationError, NumericalError
from .geometry import BoundBox, project_box
from .oracle import OracleDraw, OracleStream, draw, draw_rows, validate_model
from .problem import TestProblem

STEP_MODES = ("cauchy", "first_order", "sign_adagrad")

MONITORS = (
    "feasible",
    "step_bound",
    "gsl_lower",
    "gsl_norm",
    "cauchy_decrease",
    "model_decrease",
    "gen_decrease",
    "curvature_bound",
    "xi_triangle",  # last: only checked with diagnostics
)


@dataclass(frozen=True)
class SolverParams:
    sigma: float = 0.01  # initial weight, also the event threshold
    tau: float = 1.0
    kappa_s: float = 1.0
    step_mode: str = "cauchy"

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError(f"sigma must be in (0, 1], got {self.sigma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.kappa_s < 1.0:
            raise ValueError(f"kappa_s must be >= 1, got {self.kappa_s}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(
                f"unknown step_mode {self.step_mode!r}; choose from {STEP_MODES}"
            )


@dataclass
class SolverState:
    x: np.ndarray
    w: np.ndarray
    k: int = 0

    @classmethod
    def initial(cls, x_ini, box: BoundBox, params: SolverParams) -> "SolverState":
        x0 = project_box(np.asarray(x_ini, dtype=np.float64), box)
        return cls(x=x0, w=np.full(box.n, params.sigma), k=0)


@dataclass
class IterationTrace:
    k: int
    g: np.ndarray
    d: np.ndarray
    delta: np.ndarray
    s_l: np.ndarray
    gamma: float
    s_q: np.ndarray
    s: np.ndarray
    norm_d: float
    norm_xi: float
    err_norm: float
    f_value: float
    monitors: dict


def first_order_quantities(state: SolverState, g, box: BoundBox):
    """d, updated weights, trust radii and the projected first-order step."""
    g = np.ascontiguousarray(g, dtype=np.float64)
    if g.shape != state.x.shape:
        raise ValueError(f"gradient shape {g.shape} does not match {state.x.shape}")
    if not np.isfinite(g).all():
        raise NumericalError(
            f"non-finite gradient estimate at iteration {state.k}: {g}"
        )
    n = g.shape[0]
    d = np.empty(n)
    w_new = np.empty(n)
    delta = np.empty(n)
    s_l = np.empty(n)
    _kernels.first_order(state.x, g, box.lower, box.upper, state.w, d, w_new,
                         delta, s_l)
    return d, w_new, delta, s_l


def _cauchy_gamma(g, s_l, curv: float) -> float:
    if curv > 0.0:
        return min(1.0, -float(g @ s_l) / curv)
    return 1.0


def _sign_step(g, delta, x, box: BoundBox):
    s = -np.sign(g) * delta
    np.clip(s, box.lower - x, box.upper - x, out=s)
    return s


def _tol(slack, *values):
    m = 1.0
    for v in values:
        av = abs(v)
        if av > m:
            m = av
    return slack * m


def _tol_rows(slack, *values):
    """``_tol`` of each row: np.fmax skips NaN as ``_tol``'s ``>`` does."""
    m = 1.0
    for v in values:
        m = np.fmax(m, np.abs(v))
    return slack * m


def _decrease_monitors(tol, slack, g_sl, g_s, model_q, model_s, sum_d2_w,
                       qf_sl, norm_sl_sq, norm_delta_sq, kappa_b, params):
    """The five decrease inequalities and the curvature bound: on floats
    with ``tol=_tol``, or on (R,) arrays with ``tol=_tol_rows``."""
    sigma, tau, kappa_s = params.sigma, params.tau, params.kappa_s
    return {
        "gsl_lower": g_sl <= -sigma * sum_d2_w + tol(slack, g_sl, sum_d2_w),
        "gsl_norm": abs(g_sl)
        >= sigma * norm_sl_sq - tol(slack, g_sl, norm_sl_sq),
        "cauchy_decrease": model_q
        <= -(sigma**2 / (2.0 * kappa_b)) * sum_d2_w
        + tol(slack, model_q, sum_d2_w),
        "model_decrease": model_s
        <= tau * model_q + tol(slack, model_s, model_q),
        "gen_decrease": g_s
        <= -(tau * sigma**2 / (2.0 * kappa_b)) * sum_d2_w
        + 0.5 * kappa_s**2 * kappa_b * norm_delta_sq
        + tol(slack, g_s, sum_d2_w, norm_delta_sq),
        # kappa_b >= 1, so leaving norm_sl_sq out of the slack's scale
        # changes no outcome.
        "curvature_bound": abs(qf_sl) <= kappa_b * norm_sl_sq + tol(slack, qf_sl),
    }


def step(state: SolverState, oracle_draw: OracleDraw,
         provider: CurvatureProvider, box: BoundBox, params: SolverParams,
         slack: float = 1e-10):
    """Advance one iteration and record the trace with monitor results."""
    x = state.x
    g = oracle_draw.g
    d, w_new, delta, s_l = first_order_quantities(state, g, box)

    qf_sl = provider.quad_form(x, s_l)
    gamma = _cauchy_gamma(g, s_l, qf_sl)
    s_q = gamma * s_l
    qf_sq = gamma * gamma * qf_sl

    mode = params.step_mode
    if mode == "cauchy":
        s, qf_s = s_q, qf_sq
    elif mode == "first_order":
        s, qf_s = s_l, qf_sl
    else:
        if not isinstance(provider, ZeroCurvature):
            raise ConfigurationError("sign_adagrad mode requires the zero provider")
        s = _sign_step(g, delta, x, box)
        qf_s = 0.0
        # With B = 0 the model decrease condition reads g^T s <= tau g^T s_q;
        # the feasibility clamp can break it near an active bound, in which
        # case the projected first-order step is always admissible.
        if float(g @ s) > params.tau * float(g @ s_q):
            s, qf_s = s_l, qf_sl

    # Per-realization inequality monitors (all provable, so violations
    # beyond fp slack indicate a bug).
    g_s = float(g @ s)
    x_raw = x + s
    feas_tol = slack * (1.0 + np.abs(x))
    monitors = {
        "feasible": bool(
            (x_raw >= box.lower - feas_tol).all()
            and (x_raw <= box.upper + feas_tol).all()
        ),
        "step_bound": bool(
            (np.abs(s) <= params.kappa_s * delta + feas_tol).all()
        ),
        **_decrease_monitors(
            _tol, slack, float(g @ s_l), g_s,
            float(g @ s_q) + 0.5 * qf_sq, g_s + 0.5 * qf_s,
            float((d * d / w_new).sum()), qf_sl, float(s_l @ s_l),
            float(delta @ delta), provider.kappa_b, params),
    }

    norm_d = math.sqrt(float(d @ d))
    if oracle_draw.g_true is not None:
        xi = project_box(x - oracle_draw.g_true, box) - x
        norm_xi = math.sqrt(float(xi @ xi))
        err = oracle_draw.err_norm
        monitors["xi_triangle"] = norm_xi <= norm_d + err + _tol(
            slack, norm_xi, norm_d
        )
    else:
        norm_xi = np.nan
        err = np.nan

    # Reprojection removes the last-ulp rounding of x + (P(..) - x).
    x_new = project_box(x_raw, box)
    new_state = SolverState(x=x_new, w=w_new, k=state.k + 1)
    trace = IterationTrace(
        k=state.k, g=g, d=d, delta=delta, s_l=s_l, gamma=gamma, s_q=s_q, s=s,
        norm_d=norm_d, norm_xi=norm_xi, err_norm=err, f_value=np.nan,
        monitors=monitors,
    )
    return new_state, trace


@dataclass
class RunResult:
    """Per-iteration scalar history of one replication."""

    horizon: int
    event_a: bool
    norm_d: np.ndarray
    norm_xi: np.ndarray
    err_norm: np.ndarray
    gamma: np.ndarray
    f_values: np.ndarray
    dir_err: np.ndarray  # |<G - g, s>| per iteration (directional-error diagnostic)
    step_sq: np.ndarray  # ||s||^2 per iteration
    violations: dict
    violation_count: np.ndarray  # failed monitors per iteration
    final_state: SolverState
    traces: list = field(default_factory=list)

    @property
    def run_avg_d(self) -> np.ndarray:
        return np.cumsum(self.norm_d) / np.arange(1, self.horizon + 1)

    @property
    def run_avg_xi(self) -> np.ndarray:
        return np.cumsum(self.norm_xi) / np.arange(1, self.horizon + 1)

    @property
    def min_xi(self) -> np.ndarray:
        return np.minimum.accumulate(self.norm_xi)

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


def _check_run_args(obj, oracle_model, curvature_spec: CurvatureSpec,
                    params: SolverParams, horizon: int) -> None:
    """The argument checks ``run`` and ``run_batch`` share."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    validate_model(oracle_model, obj)
    if params.step_mode == "sign_adagrad" and curvature_spec.kind != "zero":
        raise ConfigurationError("sign_adagrad mode requires the zero provider")


def run(problem: TestProblem, oracle_model, curvature_spec: CurvatureSpec,
        params: SolverParams, horizon: int, base_seed: int,
        replication: int = 0, diagnostics: bool = True,
        keep_traces: bool = False, slack: float = 1e-10) -> RunResult:
    """Run the algorithm for a fixed horizon (no stopping test).

    The iterate sequence is fully determined by (base_seed, replication):
    oracle draws use counter-based streams indexed by iteration.
    """
    obj = problem.objective
    _check_run_args(obj, oracle_model, curvature_spec, params, horizon)
    provider = make_provider(curvature_spec, obj)
    stream = OracleStream(base_seed, replication)
    state = SolverState.initial(problem.x_ini, problem.box, params)
    box = problem.box

    norm_d = np.empty(horizon)
    norm_xi = np.full(horizon, np.nan)
    err_norm = np.full(horizon, np.nan)
    gamma_hist = np.empty(horizon)
    f_values = np.full(horizon, np.nan)
    dir_err = np.full(horizon, np.nan)
    step_sq = np.empty(horizon)
    violations = {name: 0 for name in MONITORS}
    violation_count = np.zeros(horizon, dtype=np.int64)
    traces = []
    event_a = False
    g_prev = None
    x_prev = None

    for k in range(horizon):
        od = draw(obj, state.x, oracle_model, stream.rng_shared(k),
                  with_true=diagnostics, validate=False)
        if k > 0:
            provider.observe(x_prev, state.x, g_prev, od.g)
        x_prev = state.x
        g_prev = od.g

        if diagnostics:
            fval = obj.f(state.x)
            if not np.isfinite(fval):
                raise NumericalError(
                    f"non-finite objective value {fval} at iteration {k}"
                )

        state, trace = step(state, od, provider, box, params, slack=slack)

        if k == 0:
            event_a = trace.norm_d**2 >= params.sigma
        norm_d[k] = trace.norm_d
        norm_xi[k] = trace.norm_xi
        err_norm[k] = trace.err_norm
        gamma_hist[k] = trace.gamma
        step_sq[k] = float(trace.s @ trace.s)
        if diagnostics:
            f_values[k] = fval
            trace.f_value = fval
            dir_err[k] = abs(float((od.g_true - od.g) @ trace.s))
        for name, ok in trace.monitors.items():
            if not ok:
                violations[name] += 1
                violation_count[k] += 1
        if keep_traces:
            traces.append(trace)

    return RunResult(
        horizon=horizon, event_a=bool(event_a), norm_d=norm_d, norm_xi=norm_xi,
        err_norm=err_norm, gamma=gamma_hist, f_values=f_values,
        dir_err=dir_err, step_sq=step_sq, violations=violations,
        violation_count=violation_count, final_state=state, traces=traces,
    )


def _non_finite(ok, what, values, k, replications):
    r = int(np.argmin(ok))
    raise NumericalError(f"non-finite {what} {values[r]} at iteration {k} "
                         f"(replication {replications[r]})")


def run_batch(problem: TestProblem, oracle_model, curvature_spec: CurvatureSpec,
              params: SolverParams, horizon: int, base_seed: int,
              replications: Union[int, Sequence[int]],
              diagnostics: bool = True, slack: float = 1e-10) -> list:
    """Run several replications side by side; one ``RunResult`` for each.

    ``replications`` is a count (indices 0 to R-1) or the replication
    indices themselves.  Row r of the (R, n) state holds replication
    ``replications[r]``, and its results are bit-identical to ``run`` with
    that index: each row draws from its own counter-based stream, in the
    order ``run`` draws, and everything else is row-wise numpy whose
    reductions (``np.vecdot``, sums over the last axis) round exactly as
    the 1-d ones do.  The history fields of the results are rows of
    (R, horizon) arrays.  A single replication goes to ``run``, which is
    faster for one row.
    """
    if isinstance(replications, int):
        replications = range(replications)
    replications = list(replications)
    if len(replications) == 1:
        return [run(problem, oracle_model, curvature_spec, params, horizon,
                    base_seed, replication=replications[0],
                    diagnostics=diagnostics, slack=slack)]
    if not replications:
        raise ValueError("run_batch needs at least one replication")
    obj = problem.objective
    _check_run_args(obj, oracle_model, curvature_spec, params, horizon)
    provider = make_provider(curvature_spec, obj)
    streams = [OracleStream(base_seed, r) for r in replications]
    box = problem.box
    lower, upper = box.lower, box.upper
    reps = len(replications)
    x0 = SolverState.initial(problem.x_ini, box, params).x
    x = np.tile(x0, (reps, 1))
    w = np.full((reps, box.n), params.sigma)
    sigma, tau, kappa_s = params.sigma, params.tau, params.kappa_s
    mode = params.step_mode

    norm_d = np.empty((reps, horizon))
    norm_xi = np.full((reps, horizon), np.nan)
    err_norm = np.full((reps, horizon), np.nan)
    gamma_hist = np.empty((reps, horizon))
    f_values = np.full((reps, horizon), np.nan)
    dir_err = np.full((reps, horizon), np.nan)
    step_sq = np.empty((reps, horizon))
    checked = MONITORS if diagnostics else MONITORS[:-1]
    failed = np.zeros((len(checked), reps), dtype=np.int64)
    violation_count = np.zeros((reps, horizon), dtype=np.int64)
    event_a = None
    g_prev = x_prev = None

    for k in range(horizon):
        g, g_true, err = draw_rows(obj, x, oracle_model,
                                   [st.rng_shared(k) for st in streams],
                                   with_true=diagnostics)
        if g.shape != x.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {x.shape}")
        if k > 0:
            provider.observe(x_prev, x, g_prev, g)
        x_prev, g_prev = x, g

        if diagnostics:
            fval = obj.f(x)
            ok = np.isfinite(fval)
            if not ok.all():
                _non_finite(ok, "objective value", fval, k, replications)
        ok = np.isfinite(g).all(axis=1)
        if not ok.all():
            _non_finite(ok, "gradient estimate", g, k, replications)

        d = np.empty_like(x)
        w_new = np.empty_like(x)
        delta = np.empty_like(x)
        s_l = np.empty_like(x)
        # The kernels broadcast the (n,) bounds over the rows.
        _kernels.first_order(x, g, lower, upper, w, d, w_new, delta, s_l)

        qf_sl = provider.quad_form(x, s_l)
        g_sl = np.vecdot(g, s_l)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -g_sl / qf_sl
        # _cauchy_gamma row by row: min(1, ratio) when the curvature is
        # positive, else 1.
        gamma = np.where((qf_sl > 0.0) & (ratio < 1.0), ratio, 1.0)
        s_q = gamma[:, None] * s_l
        qf_sq = gamma * gamma * qf_sl
        g_sq = np.vecdot(g, s_q)

        if mode == "cauchy":
            s, qf_s, g_s = s_q, qf_sq, g_sq
        elif mode == "first_order":
            s, qf_s, g_s = s_l, qf_sl, g_sl
        else:
            s = _sign_step(g, delta, x, box)
            back = np.vecdot(g, s) > tau * g_sq  # as in step()
            s = np.where(back[:, None], s_l, s)
            qf_s = np.where(back, qf_sl, 0.0)
            g_s = np.vecdot(g, s)

        x_raw = x + s
        feas_tol = slack * (1.0 + np.abs(x))
        monitors = [
            ((x_raw >= lower - feas_tol) & (x_raw <= upper + feas_tol)).all(axis=1),
            (np.abs(s) <= kappa_s * delta + feas_tol).all(axis=1),
            *_decrease_monitors(
                _tol_rows, slack, g_sl, g_s, g_sq + 0.5 * qf_sq, g_s + 0.5 * qf_s,
                (d * d / w_new).sum(axis=1), qf_sl, np.vecdot(s_l, s_l),
                np.vecdot(delta, delta), provider.kappa_b, params).values(),
        ]
        nd = np.sqrt(np.vecdot(d, d))
        if diagnostics:
            xi = np.empty_like(x)
            _kernels.project_box(x - g_true, lower, upper, xi)
            xi -= x
            nxi = np.sqrt(np.vecdot(xi, xi))
            monitors.append(nxi <= nd + err + _tol_rows(slack, nxi, nd))
            norm_xi[:, k] = nxi
            err_norm[:, k] = err
            f_values[:, k] = fval
            dir_err[:, k] = np.abs(np.vecdot(g_true - g, s))
        bad = ~np.array(monitors)
        failed += bad
        violation_count[:, k] = bad.sum(axis=0)

        if k == 0:
            # As run() computes it: a Python float squared.
            event_a = [float(v) ** 2 >= sigma for v in nd]
        norm_d[:, k] = nd
        gamma_hist[:, k] = gamma
        step_sq[:, k] = np.vecdot(s, s)

        # Reprojection removes the last-ulp rounding of x + (P(..) - x).
        x = np.empty_like(x_raw)
        _kernels.project_box(x_raw, lower, upper, x)
        w = w_new

    results = []
    for r in range(reps):
        violations = {name: 0 for name in MONITORS}
        violations.update(zip(checked, failed[:, r].tolist()))
        results.append(RunResult(
            horizon=horizon, event_a=event_a[r], norm_d=norm_d[r],
            norm_xi=norm_xi[r], err_norm=err_norm[r], gamma=gamma_hist[r],
            f_values=f_values[r], dir_err=dir_err[r], step_sq=step_sq[r],
            violations=violations, violation_count=violation_count[r],
            final_state=SolverState(x=x[r], w=w[r], k=horizon),
        ))
    return results
