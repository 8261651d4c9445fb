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
records its vectors in a reused block buffer: the oracle writes its
estimate there, and the step writes the next iterate there.  Once per
block, the objective values, the monitor inputs and the histories are
derived from the recorded vectors by the same row-wise operations and all
monitors are checked, so every row gets the bits its replication gets
alone.
"""

from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from . import _kernels
from .curvature import CurvatureSpec, ZeroCurvature, make_provider
from .errors import ConfigurationError, NumericalError
from .geometry import BoundBox, TiledBox, project_box
from .oracle import NoiseModel, OracleStream, StreamRows, draw
from .problem import TestProblem

STEP_MODES = ("cauchy", "sign_adagrad")

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

# Floating-point slack of the monitors, relative to the magnitudes compared.
SLACK = 1e-10

BLOCK = 256  # most iterations recorded before their monitors are checked
BLOCK_BYTES = 256 * 1024  # the recorded vectors of a block fit in this
# (unless two iterations, the fewest a block holds, take more)

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

    @classmethod
    def initial(cls, x_ini, box: BoundBox, params: SolverParams) -> "SolverState":
        x0 = project_box(np.asarray(x_ini, dtype=np.float64), box)
        return cls(x=x0, w=np.full(box.n, params.sigma))


def _rows_all(a):
    """``a.all(axis=-1)`` of a C-contiguous bool array, one comparison of
    the bytes of each row rather than a reduction over a short axis."""
    row = np.dtype((np.void, a.shape[-1]))
    return a.view(row)[..., 0] == np.ones(a.shape[-1], bool).view(row)[0]


def _vector_checks(x, x_raw, s, delta, box: BoundBox, kappa_s):
    """The feasible and step_bound monitors over the last axis of x + s."""
    tol = SLACK * (1.0 + np.abs(x))
    inside = (x_raw >= box.lower - tol) & (x_raw <= box.upper + tol)
    return (_rows_all(inside),
            _rows_all(np.abs(s) <= kappa_s * delta + tol))


def _tol(*values):
    """SLACK times the largest of 1 and each |v|; np.fmax skips a NaN v."""
    m = 1.0
    for v in values:
        m = np.fmax(m, np.abs(v))
    return SLACK * m


def _monitor_checks(inputs, feasible, step_bound, xi, kappa_b, params):
    """The monitors in ``MONITORS`` order, elementwise over any shape.

    ``inputs`` is (g.s_L, g.s, g.s_Q, s_L^T B s_L, s^T B s, sum d^2/w,
    ||s_L||^2, ||delta||^2); ``xi`` is (norm_xi, norm_d, err_norm), or None
    to leave out xi_triangle.  Every operation is elementwise, so a block
    of iterations gets the bits that each iteration would get alone.
    """
    g_sl, g_s, g_sq, qf_sl, qf_s, sum_d2_w, norm_sl_sq, norm_delta_sq = inputs
    sigma, tau, kappa_s = params.sigma, params.tau, params.kappa_s
    model_q = g_sq + 0.5 * qf_s
    model_s = g_s + 0.5 * qf_s
    checks = [
        feasible,
        step_bound,
        g_sl <= -sigma * sum_d2_w + _tol(g_sl, sum_d2_w),
        np.abs(g_sl) >= sigma * norm_sl_sq - _tol(g_sl, norm_sl_sq),
        model_q <= -(sigma**2 / (2.0 * kappa_b)) * sum_d2_w
        + _tol(model_q, sum_d2_w),
        model_s <= tau * model_q + _tol(model_s, model_q),
        g_s <= -(tau * sigma**2 / (2.0 * kappa_b)) * sum_d2_w
        + 0.5 * kappa_s**2 * kappa_b * norm_delta_sq
        + _tol(g_s, sum_d2_w, norm_delta_sq),
        # kappa_b >= 1, so leaving norm_sl_sq out of the slack's scale
        # changes no outcome.
        np.abs(qf_sl) <= kappa_b * norm_sl_sq + _tol(qf_sl),
    ]
    if xi is not None:
        norm_xi, norm_d, err = xi
        checks.append(norm_xi <= norm_d + err + _tol(norm_xi, norm_d))
    return checks


def step(x, w, oracle_draw, provider, box: TiledBox, params: SolverParams,
         slot, out):
    """Advance the rows of x (R, n) by one iteration; return the next x, w.

    ``box`` holds the bounds tiled to x's shape.  ``slot`` is one
    iteration's place in the block buffer: the (R,) g.s_L, s_L^T B s_L and
    gamma, then the (R, n) vectors of ``_VECTORS`` but x, which is the
    slot's iterate already.  ``oracle_draw`` has written its estimate into
    the slot's g; the iteration writes the others, and the next x into
    ``out``; nothing else is computed here.  ``provider`` is None for the
    zero operator in cauchy mode: gamma is 1 and s is s_L, so the iteration
    writes only d, w, delta, s_L and x_raw, and ``_Histories.check`` fills
    in the rest.
    """
    g_sl, qf_sl, gamma, g, d, w_new, delta, s_l, s, x_raw, *g_true = slot
    if g_true:
        g_true[0][...] = oracle_draw.g_true
    _kernels.first_order(x, g, box.lower, box.upper, w, d, w_new, delta, s_l)
    if provider is None:
        np.add(x, s_l, out=x_raw)
        return project_box(x_raw, box, out=out), w_new
    qf_sl[...] = provider.quad_form(x, s_l)
    np.vecdot(g, s_l, out=g_sl)
    # min(1, -g.s_L / s_L^T B s_L) where the curvature is positive, else 1;
    # np.fmin, like Python's min, keeps the 1 against a NaN ratio.
    gamma.fill(1.0)
    np.divide(-g_sl, qf_sl, out=gamma, where=qf_sl > 0.0)
    np.fmin(gamma, 1.0, out=gamma)

    if params.step_mode == "cauchy":
        np.multiply(gamma[:, None], s_l, out=s)
    else:  # sign_adagrad
        np.multiply(-np.sign(g), delta, out=s)
        np.clip(s, box.lower - x, box.upper - x, out=s)
        # With B = 0 the model decrease condition reads g^T s <= tau g^T s_q;
        # the feasibility clamp can break it near an active bound, in which
        # case the projected first-order step is always admissible.  The
        # zero provider makes gamma 1, so g^T s_q is g.s_L.
        back = np.vecdot(g, s) > params.tau * g_sl
        np.copyto(s, s_l, where=back[:, None])

    np.add(x, s, out=x_raw)
    # Reprojection removes the last-ulp rounding of x + (P(..) - x).
    return project_box(x_raw, box, out=out), w_new


def running_mean(values: np.ndarray) -> np.ndarray:
    """Entry k is the mean of values[0] to values[k]."""
    return np.cumsum(values) / np.arange(1, values.shape[0] + 1)


@dataclass
class RunResult:
    """Per-iteration scalar history of one replication.

    Its array fields are the histories, ``HISTORIES``: one value per
    iteration, as rows of the (R, horizon) arrays of the run.
    """

    horizon: int
    event_a: bool
    norm_d: np.ndarray
    norm_xi: np.ndarray
    err_norm: np.ndarray
    gamma: np.ndarray
    f_values: np.ndarray
    step_sq: np.ndarray  # ||s||^2 per iteration
    violations: dict
    violation_count: np.ndarray  # failed monitors per iteration
    final_state: SolverState

    @property
    def run_avg_d(self) -> np.ndarray:
        return running_mean(self.norm_d)

    @property
    def run_avg_xi(self) -> np.ndarray:
        return running_mean(self.norm_xi)

    @property
    def min_xi(self) -> np.ndarray:
        return np.minimum.accumulate(self.norm_xi)

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


HISTORIES = tuple(f.name for f in fields(RunResult) if f.type is np.ndarray)


class _Histories:
    """The per-iteration histories of a run, its block buffer and monitors.

    Every array has one row per replication.  Iterate k sits in
    ``iterates[k % length]``, its step writes iterate k + 1 into the next
    one, and the iteration records its other vectors in
    ``slots[k % length]``.  ``check`` evaluates the objective at the
    block's iterates, derives the histories and the monitor inputs from
    the recorded vectors, evaluates the monitors and adds up the
    violations.  The block length keeps the recorded vectors within
    ``BLOCK_BYTES`` and at most ``BLOCK``, but at least 2: iteration k + 1
    reads the estimate that iteration k left in its slot.  With
    ``s_is_sl`` (the zero operator in cauchy mode) the step records only
    its first-order vectors and x_raw, and ``check`` fills in g.s_L,
    s_L^T B s_L = 0 and gamma = 1, and reads s as s_L.
    """

    def __init__(self, obj, replications, horizon, diagnostics, box,
                 kappa_b, params, s_is_sl):
        reps, n = len(replications), box.n
        shape = (reps, horizon)
        for name in HISTORIES:  # NaN stays where a diagnostic is not computed
            setattr(self, name, np.zeros(shape, np.int64)
                    if name == "violation_count" else np.full(shape, np.nan))
        kinds = len(_VECTORS) - (not diagnostics)
        self.length = max(2, min(BLOCK, BLOCK_BYTES // (8 * kinds * reps * n)))
        self.x = np.empty((self.length + 1, reps, n))
        self.vectors = np.empty((kinds - 1, self.length, reps, n))  # but x
        self.scalars = np.empty((3, self.length, reps))  # g.s_L, qf_sL, gamma
        self.iterates = list(self.x)
        self.slots = list(zip(*self.scalars, *self.vectors))
        self.estimates = list(self.vectors[0])  # the slots' g
        self.checked = MONITORS if diagnostics else MONITORS[:-1]
        self.failed = np.zeros((reps, len(self.checked)), dtype=np.int64)
        self._f = obj.f if diagnostics else None
        self._replications = replications
        self._box, self._limits = box, (kappa_b, params)
        self._s_is_sl = s_is_sl

    def check_objective(self, k0, m):
        """Record f at iterates k0 to k0 + m - 1, in iterates 0 to m - 1.

        Raises NumericalError at the first iteration with a non-finite
        value, naming the first such replication.  A no-op without
        diagnostics.
        """
        if self._f is None:
            return
        fval = self._f(self.x[:m])  # (m, R)
        ok = np.isfinite(fval)
        if not ok.all():
            i = int(np.argmin(ok.all(axis=1)))
            _non_finite(ok[i], "objective value", fval[i], k0 + i,
                        self._replications)
        self.f_values[:, k0:k0 + m] = fval.T

    def check(self, k0, m):
        """Iterations k0 to k0 + m - 1, recorded in slots 0 to m - 1.

        After a full block, iterate k0 + m moves to ``iterates[0]``.
        """
        self.check_objective(k0, m)
        kappa_b, params = self._limits
        box = self._box
        g_sl, qf_sl, gamma = self.scalars[:, :m]  # (m, R)
        x = self.x[:m]
        g, d, w, delta, s_l, s, x_raw, *g_true = self.vectors[:, :m]
        norm_sl_sq = np.vecdot(s_l, s_l)
        if self._s_is_sl:
            # What the step leaves out: the zero provider's s_L^T B s_L is
            # +0.0, so gamma is 1 and s = 1.0 * s_L is s_L bit for bit.
            np.vecdot(g, s_l, out=g_sl)
            qf_sl.fill(0.0)
            gamma.fill(1.0)
            s, g_s, norm_s_sq = s_l, g_sl, norm_sl_sq
        else:
            g_s, norm_s_sq = np.vecdot(g, s), np.vecdot(s, s)
        # s^T B s = gamma^2 s_L^T B s_L: s = gamma s_L for cauchy, and
        # sign_adagrad runs with B = 0, where s_L^T B s_L = +0.0 and gamma = 1.
        # g.s_Q is g.s for cauchy, where s is gamma s_L bit for bit, and
        # g.s_L for sign_adagrad.
        g_sq = g_s if params.step_mode == "cauchy" else g_sl
        inputs = (g_sl, g_s, g_sq, qf_sl, gamma * gamma * qf_sl,
                  (d * d / w).sum(axis=-1), norm_sl_sq,
                  np.vecdot(delta, delta))
        norm_d = np.sqrt(np.vecdot(d, d))
        block = np.s_[:, k0:k0 + m]
        self.norm_d[block] = norm_d.T
        self.gamma[block] = gamma.T
        self.step_sq[block] = norm_s_sq.T
        xi = None
        if g_true:
            g_true, = g_true
            xi_k = project_box(x - g_true, box) - x
            e = g - g_true
            norm_xi, err = np.sqrt(np.vecdot(xi_k, xi_k)), np.sqrt(np.vecdot(e, e))
            self.norm_xi[block] = norm_xi.T
            self.err_norm[block] = err.T
            xi = norm_xi, norm_d, err
        bad = ~np.stack(_monitor_checks(
            inputs, *_vector_checks(x, x_raw, s, delta, box, params.kappa_s),
            xi, kappa_b, params))  # (monitors, m, R)
        self.failed += bad.sum(axis=1).T
        self.violation_count[block] = bad.sum(axis=0).T
        if m == self.length:
            self.x[0] = self.x[m]

    def result(self, r, event_a, final_state) -> RunResult:
        """The result of row r."""
        violations = dict.fromkeys(MONITORS, 0)
        violations.update(zip(self.checked, self.failed[r].tolist()))
        return RunResult(
            horizon=self.gamma.shape[-1], event_a=event_a,
            violations=violations, final_state=final_state,
            **{name: getattr(self, name)[r] for name in HISTORIES})


def run(problem: TestProblem, oracle_model: NoiseModel,
        curvature_spec: CurvatureSpec, params: SolverParams, horizon: int,
        base_seed: int, replication: int = 0,
        diagnostics: bool = True) -> RunResult:
    """Run one replication for a fixed horizon (no stopping test).

    The iterate sequence is fully determined by (base_seed, replication):
    oracle draws use counter-based streams indexed by iteration.  This is
    ``run_batch`` with the one row.
    """
    return run_batch(problem, oracle_model, curvature_spec, params, horizon,
                     base_seed, [replication], diagnostics)[0]


def _non_finite(ok, what, values, k, replications):
    r = int(np.argmin(ok))
    raise NumericalError(f"non-finite {what} {values[r]} at iteration {k} "
                         f"(replication {replications[r]})")


def run_batch(problem: TestProblem, oracle_model: NoiseModel,
              curvature_spec: CurvatureSpec, params: SolverParams,
              horizon: int, base_seed: int,
              replications: Union[int, Sequence[int]],
              diagnostics: bool = True) -> list:
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
    oracle_model.validate(obj, problem.box.n)
    if params.step_mode == "sign_adagrad" and curvature_spec.kind != "zero":
        raise ConfigurationError("sign_adagrad mode requires the zero provider")
    provider = make_provider(curvature_spec, obj)
    # With the zero operator the Cauchy step is s_L itself.
    s_is_sl = (type(provider) is ZeroCurvature
               and params.step_mode == "cauchy")
    rngs = StreamRows([OracleStream(base_seed, r) for r in replications],
                      problem.box.n, horizon)
    box = problem.box
    reps = len(replications)
    rows = box.tile(reps)
    hist = _Histories(obj, replications, horizon, diagnostics, box,
                      provider.kappa_b, params, s_is_sl)
    iterates, estimates, slots = hist.iterates, hist.estimates, hist.slots
    length, observe = hist.length, provider.observe
    step_provider = None if s_is_sl else provider
    iterates[0][...] = SolverState.initial(problem.x_ini, box, params).x
    w = np.full((reps, box.n), params.sigma)
    x_prev = g_prev = None

    for k in range(horizon):
        j = k % length
        x = iterates[j]
        # Lazy: each row's stream is reset as its sample is drawn; not at
        # all by a model that draws no random numbers, and only for the
        # rows a block leaves to numpy when the normals come from a block
        # (``StreamRows``).  The estimate goes into the slot's g.
        od = draw(obj, x, oracle_model, rngs.at(k), with_true=diagnostics,
                  out=estimates[j])
        g = od.g
        if k > 0:
            observe(x_prev, x, g_prev, g)
        x_prev, g_prev = x, g
        if not np.isfinite(g).all():
            # A non-finite objective value at an iterate up to k is the
            # earlier failure.
            hist.check_objective(k - j, j + 1)
            _non_finite(np.isfinite(g).all(axis=1), "gradient estimate", g, k,
                        replications)

        # Module attributes, looked up each iteration: a tracer may wrap them.
        x, w = step(x, w, od, step_provider, rows, params, slots[j],
                    iterates[j + 1])
        if j == length - 1 or k == horizon - 1:
            hist.check(k - j, j + 1)

    x, w = x.copy(), w.copy()  # not views of the block buffer
    # Python's float power, which can round apart from v * v in the last bit.
    event_a = [float(v) ** 2 >= params.sigma for v in hist.norm_d[:, 0]]
    return [hist.result(r, event_a[r], SolverState(x=x[r], w=w[r]))
            for r in range(reps)]
