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
counted and reported, and should be zero up to floating-point slack.  Each
iteration records the scalar inputs of these monitors, and one function
checks the recorded inputs of a block of ``BLOCK`` iterations at once.

``run`` advances one replication; ``run_batch`` advances several as one
(R, n) state and gives each the results ``run`` gives it, bit for bit.
"""

import math
from dataclasses import dataclass
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

BLOCK = 256  # iterations whose monitor inputs are checked together


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
        if not self.kappa_s >= 1.0:  # NaN fails too
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
    s_l: np.ndarray
    gamma: float
    s: np.ndarray
    norm_d: float
    norm_xi: float
    err_norm: float
    # g.s_L, g.s, g.s_Q, s_L^T B s_L, s^T B s, sum d^2/w, ||s_L||^2 and
    # ||delta||^2: the scalar monitor inputs, in _monitor_checks' order.
    inputs: tuple
    vector_ok: tuple  # the feasible and step_bound monitors
    limits: tuple  # kappa_b, params, slack and whether g_true was given

    @property
    def monitors(self) -> dict:
        """This iteration's monitors by name; xi_triangle needs g_true."""
        kappa_b, params, slack, with_true = self.limits
        xi = (self.norm_xi, self.norm_d, self.err_norm) if with_true else None
        checks = _monitor_checks(self.inputs, *self.vector_ok, self.gamma, xi,
                                 kappa_b, params, slack)
        return {name: bool(ok) for name, ok in zip(MONITORS, checks)}


def first_order_quantities(state: SolverState, g, box: BoundBox):
    """d, updated weights, trust radii and the projected first-order step."""
    g = np.ascontiguousarray(g, dtype=np.float64)
    if g.shape != state.x.shape:
        raise ValueError(f"gradient shape {g.shape} does not match {state.x.shape}")
    if not np.isfinite(g).all():
        raise NumericalError(
            f"non-finite gradient estimate at iteration {state.k}: {g}"
        )
    d, w_new, delta, s_l = np.empty((4,) + g.shape)
    _kernels.first_order(state.x, g, box.lower, box.upper, state.w, d, w_new,
                         delta, s_l)
    return d, w_new, delta, s_l


def _sign_step(g, delta, x, box: BoundBox):
    s = -np.sign(g) * delta
    np.clip(s, box.lower - x, box.upper - x, out=s)
    return s


def _vector_checks(x, x_raw, s, delta, box: BoundBox, kappa_s, slack):
    """The feasible and step_bound monitors over the last axis of x + s."""
    tol = slack * (1.0 + np.abs(x))
    inside = (x_raw >= box.lower - tol) & (x_raw <= box.upper + tol)
    return (inside.all(axis=-1),
            (np.abs(s) <= kappa_s * delta + tol).all(axis=-1))


def _tol(slack, *values):
    """slack times the largest of 1 and each |v|; np.fmax skips a NaN v."""
    m = 1.0
    for v in values:
        m = np.fmax(m, np.abs(v))
    return slack * m


def _monitor_checks(inputs, feasible, step_bound, gamma, xi, kappa_b, params,
                    slack):
    """The monitors in ``MONITORS`` order, elementwise over any shape.

    ``inputs`` unpacks into the eight scalars ``IterationTrace.inputs``
    lists; ``xi`` is (norm_xi, norm_d, err_norm), or None to leave out
    xi_triangle.  Every operation is elementwise, so a block of iterations
    gets the bits that each iteration would get alone.
    """
    g_sl, g_s, g_sq, qf_sl, qf_s, sum_d2_w, norm_sl_sq, norm_delta_sq = inputs
    sigma, tau, kappa_s = params.sigma, params.tau, params.kappa_s
    model_q = g_sq + 0.5 * (gamma * gamma * qf_sl)
    model_s = g_s + 0.5 * qf_s
    checks = [
        feasible,
        step_bound,
        g_sl <= -sigma * sum_d2_w + _tol(slack, g_sl, sum_d2_w),
        np.abs(g_sl) >= sigma * norm_sl_sq - _tol(slack, g_sl, norm_sl_sq),
        model_q <= -(sigma**2 / (2.0 * kappa_b)) * sum_d2_w
        + _tol(slack, model_q, sum_d2_w),
        model_s <= tau * model_q + _tol(slack, model_s, model_q),
        g_s <= -(tau * sigma**2 / (2.0 * kappa_b)) * sum_d2_w
        + 0.5 * kappa_s**2 * kappa_b * norm_delta_sq
        + _tol(slack, g_s, sum_d2_w, norm_delta_sq),
        # kappa_b >= 1, so leaving norm_sl_sq out of the slack's scale
        # changes no outcome.
        np.abs(qf_sl) <= kappa_b * norm_sl_sq + _tol(slack, qf_sl),
    ]
    if xi is not None:
        norm_xi, norm_d, err = xi
        checks.append(norm_xi <= norm_d + err + _tol(slack, norm_xi, norm_d))
    return checks


def step(state: SolverState, oracle_draw: OracleDraw,
         provider: CurvatureProvider, box: BoundBox, params: SolverParams,
         slack: float = 1e-10):
    """Advance one iteration; the trace holds its monitor inputs."""
    x = state.x
    g = oracle_draw.g
    d, w_new, delta, s_l = first_order_quantities(state, g, box)

    qf_sl = provider.quad_form(x, s_l)
    g_sl = float(g @ s_l)
    gamma = min(1.0, -g_sl / qf_sl) if qf_sl > 0.0 else 1.0
    s_q = gamma * s_l
    qf_sq = gamma * gamma * qf_sl
    g_sq = float(g @ s_q)

    mode = params.step_mode
    if mode == "cauchy":
        s, qf_s, g_s = s_q, qf_sq, g_sq
    elif mode == "first_order":
        s, qf_s, g_s = s_l, qf_sl, g_sl
    else:
        if not isinstance(provider, ZeroCurvature):
            raise ConfigurationError("sign_adagrad mode requires the zero provider")
        s = _sign_step(g, delta, x, box)
        qf_s, g_s = 0.0, float(g @ s)
        # With B = 0 the model decrease condition reads g^T s <= tau g^T s_q;
        # the feasibility clamp can break it near an active bound, in which
        # case the projected first-order step is always admissible.
        if g_s > params.tau * g_sq:
            s, qf_s, g_s = s_l, qf_sl, g_sl

    # The monitor inputs (every monitor is provable, so a violation beyond
    # fp slack indicates a bug); the vector checks are made here.
    x_raw = x + s
    vector_ok = _vector_checks(x, x_raw, s, delta, box, params.kappa_s, slack)
    inputs = (g_sl, g_s, g_sq, qf_sl, qf_s, (d * d / w_new).sum(), s_l @ s_l,
              delta @ delta)

    norm_d = math.sqrt(float(d @ d))
    norm_xi = err = np.nan
    with_true = oracle_draw.g_true is not None
    if with_true:
        xi = project_box(x - oracle_draw.g_true, box) - x
        norm_xi = math.sqrt(float(xi @ xi))
        err = oracle_draw.err_norm

    # Reprojection removes the last-ulp rounding of x + (P(..) - x).
    x_new = project_box(x_raw, box)
    new_state = SolverState(x=x_new, w=w_new, k=state.k + 1)
    trace = IterationTrace(
        s_l=s_l, gamma=gamma, s=s, norm_d=norm_d, norm_xi=norm_xi,
        err_norm=err, inputs=inputs, vector_ok=vector_ok,
        limits=(provider.kappa_b, params, slack, with_true),
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


class _Histories:
    """The per-iteration histories of a run and its monitor checks.

    ``rows`` is the leading shape of every array: () for ``run``, (R,) for
    ``run_batch``.  Iteration k records its monitor inputs at
    ``inputs[k % BLOCK]`` and ``vector_ok[k % BLOCK]``; ``check`` evaluates
    a block of them and adds up the violations.
    """

    def __init__(self, rows, horizon, diagnostics, kappa_b, params, slack):
        shape = rows + (horizon,)
        self.norm_d, self.gamma, self.step_sq = (np.empty(shape) for _ in range(3))
        self.norm_xi, self.err_norm, self.f_values, self.dir_err = (
            np.full(shape, np.nan) for _ in range(4))
        self.violation_count = np.zeros(shape, dtype=np.int64)
        self.inputs = np.empty((BLOCK, 8) + rows)
        self.vector_ok = np.empty((BLOCK, 2) + rows, dtype=bool)
        self.xi = (self.norm_xi, self.norm_d, self.err_norm) if diagnostics else None
        self.checked = MONITORS if diagnostics else MONITORS[:-1]
        self.failed = np.zeros(rows + (len(self.checked),), dtype=np.int64)
        self._limits = kappa_b, params, slack

    def check(self, k0, m):
        """Check iterations k0 to k0 + m - 1, recorded in slots 0 to m - 1."""
        block = np.s_[..., k0:k0 + m]
        xi = None if self.xi is None else [h[block] for h in self.xi]
        bad = ~np.stack(_monitor_checks(
            np.moveaxis(self.inputs[:m], 0, -1),
            *np.moveaxis(self.vector_ok[:m], 0, -1), self.gamma[block], xi,
            *self._limits), axis=-1)  # monitors last
        self.failed += bad.sum(axis=-2)
        self.violation_count[block] = bad.sum(axis=-1)

    def result(self, row, event_a, final_state) -> RunResult:
        """The result of ``row``: () for run's only row, (r,) for row r."""
        violations = dict.fromkeys(MONITORS, 0)
        violations.update(zip(self.checked, self.failed[row].tolist()))
        return RunResult(
            horizon=self.gamma.shape[-1], event_a=event_a,
            norm_d=self.norm_d[row], norm_xi=self.norm_xi[row],
            err_norm=self.err_norm[row], gamma=self.gamma[row],
            f_values=self.f_values[row], dir_err=self.dir_err[row],
            step_sq=self.step_sq[row], violations=violations,
            violation_count=self.violation_count[row], final_state=final_state)


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
        slack: float = 1e-10) -> RunResult:
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

    hist = _Histories((), horizon, diagnostics, provider.kappa_b, params,
                      slack)
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
        hist.norm_d[k] = trace.norm_d
        hist.norm_xi[k] = trace.norm_xi
        hist.err_norm[k] = trace.err_norm
        hist.gamma[k] = trace.gamma
        hist.step_sq[k] = float(trace.s @ trace.s)
        if diagnostics:
            hist.f_values[k] = fval
            hist.dir_err[k] = abs(float((od.g_true - od.g) @ trace.s))
        j = k % BLOCK
        hist.inputs[j] = trace.inputs
        hist.vector_ok[j] = trace.vector_ok
        if j == BLOCK - 1 or k == horizon - 1:
            hist.check(k - j, j + 1)

    return hist.result((), bool(event_a), state)


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

    hist = _Histories((reps,), horizon, diagnostics, provider.kappa_b,
                      params, slack)
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

        d, w_new, delta, s_l = np.empty((4,) + x.shape)
        # The kernels broadcast the (n,) bounds over the rows.
        _kernels.first_order(x, g, lower, upper, w, d, w_new, delta, s_l)

        qf_sl = provider.quad_form(x, s_l)
        g_sl = np.vecdot(g, s_l)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -g_sl / qf_sl
        # step()'s gamma row by row: min(1, ratio) when the curvature is
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
        j = k % BLOCK
        hist.vector_ok[j] = _vector_checks(x, x_raw, s, delta, box, kappa_s, slack)
        rec = hist.inputs[j]
        rec[0], rec[1], rec[2], rec[3], rec[4] = g_sl, g_s, g_sq, qf_sl, qf_s
        (d * d / w_new).sum(axis=1, out=rec[5])
        np.vecdot(s_l, s_l, out=rec[6])
        np.vecdot(delta, delta, out=rec[7])
        nd = np.sqrt(np.vecdot(d, d))
        if diagnostics:
            xi = np.empty_like(x)
            _kernels.project_box(x - g_true, lower, upper, xi)
            xi -= x
            hist.norm_xi[:, k] = np.sqrt(np.vecdot(xi, xi))
            hist.err_norm[:, k] = err
            hist.f_values[:, k] = fval
            hist.dir_err[:, k] = np.abs(np.vecdot(g_true - g, s))

        if k == 0:
            # As run() computes it: a Python float squared.
            event_a = [float(v) ** 2 >= sigma for v in nd]
        hist.norm_d[:, k] = nd
        hist.gamma[:, k] = gamma
        hist.step_sq[:, k] = np.vecdot(s, s)
        if j == BLOCK - 1 or k == horizon - 1:
            hist.check(k - j, j + 1)

        # Reprojection removes the last-ulp rounding of x + (P(..) - x).
        x = np.empty_like(x_raw)
        _kernels.project_box(x_raw, lower, upper, x)
        w = w_new

    return [hist.result((r,), event_a[r], SolverState(x=x[r], w=w[r], k=horizon))
            for r in range(reps)]
