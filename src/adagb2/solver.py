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

One engine advances R replications as one (R, n) state; ``run`` is its
one-row case.  Each iteration does only what the next iterate needs and
records its vectors in a reused block buffer.  Once per block, the
monitor inputs and the histories are derived from the recorded vectors by
the same row-wise operations and all monitors are checked, so every row
gets the bits its replication gets alone.
"""

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import _kernels
from .curvature import CurvatureSpec, make_provider
from .errors import ConfigurationError, NumericalError
from .geometry import BoundBox, project_box
from .oracle import OracleStream, draw, validate_model
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

BLOCK = 256  # most iterations recorded before their monitors are checked
BLOCK_BYTES = 256 * 1024  # the recorded vectors of a block fit in this

# The vectors each iteration records; g_true only with diagnostics.
_VECTORS = ("x", "g", "d", "w", "delta", "s_l", "s", "x_raw", "g_true")


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

    ``inputs`` is (g.s_L, g.s, g.s_Q, s_L^T B s_L, s^T B s, sum d^2/w,
    ||s_L||^2, ||delta||^2); ``xi`` is (norm_xi, norm_d, err_norm), or None
    to leave out xi_triangle.  Every operation is elementwise, so a block
    of iterations gets the bits that each iteration would get alone.
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


def step(x, w, oracle_draw, provider, box: BoundBox, params: SolverParams,
         slot):
    """Advance the rows of x (R, n) by one iteration; return the next x, w.

    ``slot`` is one iteration's place in the block buffer: the (R,) g.s_L,
    s_L^T B s_L and gamma, then the (R, n) vectors of ``_VECTORS``.  The
    iteration writes all of them; nothing else is computed here.
    """
    g_sl, qf_sl, gamma, x_rec, g, d, w_new, delta, s_l, s, x_raw, *g_true = slot
    x_rec[...] = x
    g[...] = oracle_draw.g
    if g_true:
        g_true[0][...] = oracle_draw.g_true
    _kernels.first_order(x, g, box.lower, box.upper, w, d, w_new, delta, s_l)
    qf_sl[...] = provider.quad_form(x, s_l)
    np.vecdot(g, s_l, out=g_sl)
    # min(1, -g.s_L / s_L^T B s_L) where the curvature is positive, else 1;
    # np.fmin, like Python's min, keeps the 1 against a NaN ratio.
    gamma.fill(1.0)
    np.divide(-g_sl, qf_sl, out=gamma, where=qf_sl > 0.0)
    np.fmin(gamma, 1.0, out=gamma)

    mode = params.step_mode
    if mode == "cauchy":
        np.multiply(gamma[:, None], s_l, out=s)
    elif mode == "first_order":
        s[...] = s_l
    else:
        np.multiply(-np.sign(g), delta, out=s)
        np.clip(s, box.lower - x, box.upper - x, out=s)
        # With B = 0 the model decrease condition reads g^T s <= tau g^T s_q;
        # the feasibility clamp can break it near an active bound, in which
        # case the projected first-order step is always admissible.
        back = np.vecdot(g, s) > params.tau * np.vecdot(g, gamma[:, None] * s_l)
        np.copyto(s, s_l, where=back[:, None])

    np.add(x, s, out=x_raw)
    # Reprojection removes the last-ulp rounding of x + (P(..) - x).
    return project_box(x_raw, box), w_new


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
    """The per-iteration histories of a run, its block buffer and monitors.

    Every array has one row per replication.  Iteration k records its
    vectors in ``slots[k % length]``; ``check`` derives the histories and
    the monitor inputs of a block from the recorded vectors, evaluates the
    monitors and adds up the violations.  The block length keeps the
    recorded vectors within ``BLOCK_BYTES`` and at most ``BLOCK``.
    """

    def __init__(self, reps, n, horizon, diagnostics, box, kappa_b, params,
                 slack):
        shape = (reps, horizon)
        self.norm_d, self.gamma, self.step_sq = (np.empty(shape) for _ in range(3))
        self.norm_xi, self.err_norm, self.f_values, self.dir_err = (
            np.full(shape, np.nan) for _ in range(4))
        self.violation_count = np.zeros(shape, dtype=np.int64)
        fields = len(_VECTORS) - (not diagnostics)
        self.length = max(1, min(BLOCK, BLOCK_BYTES // (8 * fields * reps * n)))
        self.vectors = np.empty((fields, self.length, reps, n))
        self.scalars = np.empty((3, self.length, reps))  # g.s_L, qf_sL, gamma
        self.slots = [(*self.scalars[:, j], *self.vectors[:, j])
                      for j in range(self.length)]
        self.checked = MONITORS if diagnostics else MONITORS[:-1]
        self.failed = np.zeros((reps, len(self.checked)), dtype=np.int64)
        self._box, self._limits = box, (kappa_b, params, slack)

    def check(self, k0, m):
        """Iterations k0 to k0 + m - 1, recorded in slots 0 to m - 1."""
        kappa_b, params, slack = self._limits
        box = self._box
        g_sl, qf_sl, gamma = self.scalars[:, :m]  # (m, R)
        x, g, d, w, delta, s_l, s, x_raw, *g_true = self.vectors[:, :m]
        g_s = np.vecdot(g, s)
        mode = params.step_mode
        if mode == "cauchy":
            qf_s = gamma * gamma * qf_sl
        elif mode == "first_order":
            qf_s = qf_sl
        else:
            qf_s = np.zeros_like(qf_sl)  # sign_adagrad runs with B = 0
        inputs = (g_sl, g_s, np.vecdot(g, gamma[..., None] * s_l), qf_sl, qf_s,
                  (d * d / w).sum(axis=-1), np.vecdot(s_l, s_l),
                  np.vecdot(delta, delta))
        norm_d = np.sqrt(np.vecdot(d, d))
        block = np.s_[:, k0:k0 + m]
        self.norm_d[block] = norm_d.T
        self.gamma[block] = gamma.T
        self.step_sq[block] = np.vecdot(s, s).T
        xi = None
        if g_true:
            g_true, = g_true
            xi_k = project_box(x - g_true, box) - x
            e = g - g_true
            norm_xi, err = np.sqrt(np.vecdot(xi_k, xi_k)), np.sqrt(np.vecdot(e, e))
            self.norm_xi[block] = norm_xi.T
            self.err_norm[block] = err.T
            self.dir_err[block] = np.abs(np.vecdot(g_true - g, s)).T
            xi = norm_xi, norm_d, err
        bad = ~np.stack(_monitor_checks(
            inputs, *_vector_checks(x, x_raw, s, delta, box, params.kappa_s,
                                    slack),
            gamma, xi, kappa_b, params, slack), axis=-1)  # (m, R, monitors)
        self.failed += bad.sum(axis=0)
        self.violation_count[block] = bad.sum(axis=-1).T

    def result(self, r, event_a, final_state) -> RunResult:
        """The result of row r."""
        violations = dict.fromkeys(MONITORS, 0)
        violations.update(zip(self.checked, self.failed[r].tolist()))
        return RunResult(
            horizon=self.gamma.shape[-1], event_a=event_a,
            norm_d=self.norm_d[r], norm_xi=self.norm_xi[r],
            err_norm=self.err_norm[r], gamma=self.gamma[r],
            f_values=self.f_values[r], dir_err=self.dir_err[r],
            step_sq=self.step_sq[r], violations=violations,
            violation_count=self.violation_count[r], final_state=final_state)


def run(problem: TestProblem, oracle_model, curvature_spec: CurvatureSpec,
        params: SolverParams, horizon: int, base_seed: int,
        replication: int = 0, diagnostics: bool = True,
        slack: float = 1e-10) -> RunResult:
    """Run one replication for a fixed horizon (no stopping test).

    The iterate sequence is fully determined by (base_seed, replication):
    oracle draws use counter-based streams indexed by iteration.  This is
    ``run_batch`` with the one row.
    """
    return run_batch(problem, oracle_model, curvature_spec, params, horizon,
                     base_seed, [replication], diagnostics, slack)[0]


def _non_finite(ok, what, values, k, replications):
    r = int(np.argmin(ok))
    raise NumericalError(f"non-finite {what} {values[r]} at iteration {k} "
                         f"(replication {replications[r]})")


def run_batch(problem: TestProblem, oracle_model, curvature_spec: CurvatureSpec,
              params: SolverParams, horizon: int, base_seed: int,
              replications: Union[int, Sequence[int]],
              diagnostics: bool = True, slack: float = 1e-10) -> list:
    """Run replications side by side; one ``RunResult`` for each.

    ``replications`` is a count (indices 0 to R-1) or the replication
    indices themselves.  Row r of the (R, n) state holds replication
    ``replications[r]`` and draws from its own counter-based stream.
    Everything else is row-wise numpy whose reductions (``np.vecdot``, sums
    over the last axis) round as they do on a lone row, so a row's results
    do not depend on the other rows or on the block length.  The history
    fields of the results are rows of (R, horizon) arrays.
    """
    if isinstance(replications, int):
        replications = range(replications)
    replications = list(replications)
    if not replications:
        raise ValueError("run_batch needs at least one replication")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    obj = problem.objective
    validate_model(oracle_model, obj)
    if params.step_mode == "sign_adagrad" and curvature_spec.kind != "zero":
        raise ConfigurationError("sign_adagrad mode requires the zero provider")
    provider = make_provider(curvature_spec, obj)
    streams = [OracleStream(base_seed, r) for r in replications]
    box = problem.box
    reps = len(replications)
    x = np.tile(SolverState.initial(problem.x_ini, box, params).x, (reps, 1))
    w = np.full((reps, box.n), params.sigma)
    hist = _Histories(reps, box.n, horizon, diagnostics, box,
                      provider.kappa_b, params, slack)
    x_prev = g_prev = None

    for k in range(horizon):
        od = draw(obj, x, oracle_model, [st.rng_shared(k) for st in streams],
                  with_true=diagnostics, validate=False)
        g = od.g
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
            hist.f_values[:, k] = fval
        ok = np.isfinite(g).all(axis=1)
        if not ok.all():
            _non_finite(ok, "gradient estimate", g, k, replications)

        j = k % hist.length
        x, w = step(x, w, od, provider, box, params, hist.slots[j])
        if j == hist.length - 1 or k == horizon - 1:
            hist.check(k - j, j + 1)

    w = w.copy()  # not a view of the block buffer
    # Python's float power, which can round apart from v * v in the last bit.
    event_a = [float(v) ** 2 >= params.sigma for v in hist.norm_d[:, 0]]
    return [hist.result(r, event_a[r], SolverState(x=x[r], w=w[r], k=horizon))
            for r in range(reps)]
