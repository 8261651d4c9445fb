import numpy as np
import pytest

from adagb2 import solver
from adagb2.curvature import CurvatureProvider, CurvatureSpec
from adagb2.errors import ConfigurationError, NumericalError
from adagb2.geometry import BoundBox
from adagb2.oracle import ConstantBias, Exact, Gaussian, OracleStream, Subsample
from adagb2.problem import Objective, make_test_problem
from adagb2.problem import TestProblem as BoxProblem  # avoid pytest collection
from adagb2.solver import MONITORS, SolverParams, SolverState, run, run_batch


def _constant_gradient(g, box, x_ini):
    """A problem whose gradient is the vector g at every point."""
    g = np.asarray(g, dtype=np.float64)
    obj = Objective(f=lambda x: np.vecdot(x, g),
                    grad=lambda x: np.zeros_like(x) + g, f_low=-np.inf)
    return BoxProblem("constant_gradient", obj, box, x_ini)


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(sigma=0.0)
    with pytest.raises(ValueError):
        SolverParams(tau=0.0)
    with pytest.raises(ValueError):
        SolverParams(kappa_s=0.5)
    with pytest.raises(ValueError):
        SolverParams(step_mode="newton")
    # The first-order method is the zero-curvature case of cauchy.
    with pytest.raises(ValueError, match="'cauchy', 'sign_adagrad'"):
        SolverParams(step_mode="first_order")


def test_initial_state_projects_and_seeds_weights():
    box = BoundBox(np.zeros(2), np.ones(2))
    params = SolverParams(sigma=0.25)
    st = SolverState.initial(np.array([-3.0, 0.4]), box, params)
    assert np.array_equal(st.x, [0.0, 0.4])
    assert np.array_equal(st.w, [0.25, 0.25])


def test_weight_recurrence_hand_check():
    # One unconstrained coordinate: d = -g, w_k = sqrt(w_{k-1}^2 + g^2).
    params = SolverParams(sigma=0.5)  # cauchy, with B = 0: s = s_L
    prob = _constant_gradient([2.0], BoundBox.unbounded(1), np.zeros(1))
    args = (prob, Exact(), CurvatureSpec("zero"), params)
    res = run(*args, 1, base_seed=0)
    w = np.sqrt(0.25 + 4.0)
    delta = 2.0 / w
    assert res.norm_d[0] == 2.0
    assert res.final_state.w[0] == w
    # |d| > delta, so the trust region is active: s_L = -delta
    assert res.final_state.x[0] == -delta
    assert res.step_sq[0] == delta * delta
    two = run(*args, 2, base_seed=0)
    assert two.final_state.w[0] == np.sqrt(w * w + 4.0)


def test_first_order_rejects_nan_gradient():
    prob = _constant_gradient([np.nan, 0.0], BoundBox.unbounded(2), np.zeros(2))
    with pytest.raises(NumericalError, match="gradient"):
        run(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 5,
            base_seed=0, diagnostics=False)


def test_step_monitors_all_pass_random_sweep():
    # Random boxes and starting points, and gradient estimates of scale 3
    # (a zero objective under Gaussian noise): every monitor holds on every
    # step of both replications.
    rng = np.random.default_rng(0)
    params = SolverParams(sigma=0.05)
    for trial in range(50):
        n = int(rng.integers(1, 10))
        lower = rng.uniform(-2, 0, n)
        upper = lower + rng.uniform(0.5, 3, n)
        box = BoundBox(lower, upper)
        prob = _constant_gradient(np.zeros(n), box, rng.uniform(lower, upper))
        for res in run_batch(prob, Gaussian(3.0), CurvatureSpec("zero"),
                             params, 20, base_seed=trial, replications=2):
            assert res.total_violations == 0, res.violations
            assert box.contains(res.final_state.x)


def test_gamma_is_one_for_zero_curvature():
    box = BoundBox(np.zeros(2), np.ones(2))
    prob = _constant_gradient([1.0, -1.0], box, np.full(2, 0.5))
    res = run(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 5,
              base_seed=0)
    assert (res.gamma == 1.0).all()
    # s = s_L: the Cauchy step is the first-order one.  From the centre of
    # the box, d = (-0.5, 0.5) lies inside the trust box (delta is about
    # 0.9998), so the first step reaches the corner (0, 1), where d = 0.
    assert np.array_equal(res.final_state.x, [0.0, 1.0])
    assert res.step_sq.tolist() == [0.5, 0.0, 0.0, 0.0, 0.0]


def test_gamma_shrinks_with_strong_curvature():
    # 1-d objective with gradient 4 and Hessian 50 at the start: the Cauchy
    # scaling must engage.
    obj = Objective(f=lambda x: 4.0 * x[..., 0],
                    grad=lambda x: np.full(np.shape(x), 4.0),
                    hess_vec=lambda x, v: 50.0 * v,
                    hess_bound=lambda x: np.full(np.shape(x)[:-1], 50.0),
                    f_low=-1e6)
    prob = BoxProblem("steep", obj, BoundBox.unbounded(1), np.zeros(1))
    params = SolverParams()
    res = run(prob, Exact(), CurvatureSpec("exact_clipped", 100.0), params, 1,
              base_seed=0)
    # gamma = min(1, -g s_L / (s_L B s_L)) = min(1, 4 |s_L| / (50 s_L^2)),
    # with s_L = -delta = -4 / w.
    delta = 4.0 / np.sqrt(params.sigma**2 + 16.0)
    gamma = res.gamma[0]
    assert gamma == pytest.approx(min(1.0, 4.0 / (50.0 * delta)))
    assert gamma < 1.0
    assert res.final_state.x[0] == pytest.approx(-gamma * delta)


def test_sign_adagrad_matches_plain_adagrad_unconstrained():
    # Unconstrained box, zero curvature: the iteration must reduce to
    # x_{k+1,i} = x_{k,i} - g_{k,i} / sqrt(sigma^2 + sum_{j<=k} g_{j,i}^2).
    # A zero objective under unit Gaussian noise makes g_k the standard
    # normal vector of the replication's stream at iteration k.
    n, horizon, seed = 4, 300, 123
    params = SolverParams(sigma=0.1, step_mode="sign_adagrad")
    x_ref = np.random.default_rng(seed).standard_normal(n)
    prob = _constant_gradient(np.zeros(n), BoundBox.unbounded(n), x_ref)
    res = run(prob, Gaussian(1.0), CurvatureSpec("zero"), params, horizon,
              base_seed=seed)
    stream = OracleStream(seed, 0)
    gsum = np.full(n, params.sigma**2)
    for k in range(horizon):
        g = stream.rng(k).standard_normal(n)
        gsum += g * g
        s = g / np.sqrt(gsum)
        x_ref = x_ref - s
        assert res.step_sq[k] == pytest.approx(s @ s, rel=1e-12)
    assert np.allclose(res.final_state.x, x_ref, rtol=1e-12, atol=1e-14)


def test_sign_adagrad_requires_zero_provider():
    prob = make_test_problem("boxed_quadratic", 2, 0)
    with pytest.raises(ConfigurationError):
        run(prob, Exact(), CurvatureSpec("scalar_bb"),
            SolverParams(step_mode="sign_adagrad"), 5, base_seed=0)


@pytest.mark.parametrize("model, kind, params, horizon, exc", [
    (Exact(), "zero", SolverParams(), 0, ValueError),
    (Subsample(1), "zero", SolverParams(), 5, ConfigurationError),
    (Exact(), "scalar_bb", SolverParams(step_mode="sign_adagrad"), 5,
     ConfigurationError),
])
def test_run_and_run_batch_reject_the_same_arguments(model, kind, params,
                                                     horizon, exc):
    prob = make_test_problem("boxed_quadratic", 2, 0)
    messages = []
    for fn, extra in ((run, {}), (run_batch, {"replications": 2})):
        with pytest.raises(exc) as info:
            fn(prob, model, CurvatureSpec(kind), params, horizon, 0, **extra)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


class _Multiple(CurvatureProvider):
    """B = factor * kappa_b * I on odd iterations, kappa_b * I on even ones.

    quad_form is called once per iteration, so the calls count them.
    """

    factor = 1.0

    def __init__(self, kappa_b):
        super().__init__(kappa_b)
        self.calls = 0

    def quad_form(self, x, v):
        scale = self.factor if self.calls % 2 else 1.0
        self.calls += 1
        v = np.asarray(v, dtype=np.float64)
        return np.vecdot(v, scale * self.kappa_b * v)


@pytest.mark.parametrize("factor, fails", [(1.0, False), (1.5, True)])
def test_curvature_bound_monitor(monkeypatch, factor, fails):
    # kappa_b I sits on the bound and must pass; 1.5 kappa_b I on the odd
    # iterations must be flagged on exactly those, by run() and by
    # run_batch() alike, across block boundaries: the horizon spans more
    # than two blocks and ends inside the last one.
    monkeypatch.setattr(_Multiple, "factor", factor)
    monkeypatch.setattr(solver, "make_provider",
                        lambda spec, obj: _Multiple(spec.kappa_b))
    horizon = 2 * solver.BLOCK + 37
    prob = make_test_problem("boxed_quadratic", 3, 0)
    args = (prob, Gaussian(0.1), CurvatureSpec("scalar_bb", 3.0),
            SolverParams(), horizon, 0)
    results = [run(*args)] + run_batch(*args, replications=[0, 1])
    expected = np.arange(horizon) % 2 if fails else np.zeros(horizon)
    for res in results:
        assert res.violations["curvature_bound"] == expected.sum()
        assert res.total_violations == expected.sum()
        assert np.array_equal(res.violation_count, expected)
    assert results[0].violations == results[1].violations


def test_run_deterministic_replay():
    prob = make_test_problem("boxed_quadratic", 4, 1)
    args = (prob, Gaussian(0.2), CurvatureSpec("scalar_bb", 4.0),
            SolverParams(), 200)
    a = run(*args, base_seed=7, replication=2)
    b = run(*args, base_seed=7, replication=2)
    c = run(*args, base_seed=7, replication=3)
    assert np.array_equal(a.norm_d, b.norm_d)
    assert np.array_equal(a.final_state.x, b.final_state.x)
    assert not np.array_equal(a.norm_d, c.norm_d)


def test_run_zero_violations_on_standard_setups():
    prob = make_test_problem("boxed_nonconvex_quartic", 3, 2)
    for model in (Exact(), Gaussian(0.1),
                  ConstantBias(np.full(3, 0.03), Gaussian(0.05))):
        for kind in ("zero", "scalar_bb", "exact_clipped"):
            res = run(prob, model, CurvatureSpec(kind, 11.0), SolverParams(),
                      100, base_seed=0)
            assert res.total_violations == 0, (model, kind, res.violations)


def test_run_event_a_and_histories():
    prob = make_test_problem("boxed_quadratic", 3, 0)
    res = run(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 50,
              base_seed=0)
    assert res.event_a == (res.norm_d[0] ** 2 >= SolverParams().sigma)
    assert res.norm_d.shape == (50,)
    assert np.isfinite(res.f_values).all()
    # exact oracle: d and Xi coincide
    assert np.allclose(res.norm_d, res.norm_xi, rtol=1e-12)
    assert (np.diff(res.min_xi) <= 0).all()
    assert res.run_avg_d[0] == res.norm_d[0]


def test_run_decreases_quadratic():
    prob = make_test_problem("boxed_quadratic", 5, 3)
    res = run(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 2000,
              base_seed=0)
    assert res.norm_xi[-1] < 1e-3 * res.norm_xi[0]
    assert res.f_values[-1] <= res.f_values[0]


def test_run_diagnostics_off_skips_true_gradient():
    prob = make_test_problem("boxed_quadratic", 3, 0)
    res = run(prob, Gaussian(0.1), CurvatureSpec("zero"), SolverParams(), 20,
              base_seed=0, diagnostics=False)
    assert np.isnan(res.f_values).all()
    assert np.isnan(res.norm_xi).all()
    assert np.isfinite(res.norm_d).all()


def test_violations_name_every_monitor(monkeypatch):
    # Every result counts each monitor of MONITORS, in order.  At a slack of
    # -0.5 the exact oracle breaks the criticality triangle
    # ||Xi|| <= ||d|| + 0 on every step; it is only checked with
    # diagnostics, which draw the true gradient.
    prob = make_test_problem("boxed_quadratic", 2, 0)
    args = (prob, Exact(), CurvatureSpec("zero"), SolverParams(), 30, 0)
    assert run(*args).total_violations == 0
    monkeypatch.setattr(solver, "SLACK", -0.5)
    with_true = run(*args)
    without = run(*args, diagnostics=False)
    for res in (with_true, without):
        assert list(res.violations) == list(MONITORS)
    assert with_true.violations["xi_triangle"] == 30
    assert without.violations["xi_triangle"] == 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_raises_on_divergent_objective():
    obj = Objective(f=lambda x: np.exp(x[..., 0]),
                    grad=lambda x: np.exp(np.minimum(x, 700.0)),
                    f_low=0.0)
    prob = BoxProblem("explode", obj, BoundBox.unbounded(1),
                       np.array([800.0]))  # f overflows to inf immediately
    with pytest.raises(NumericalError):
        run(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 50,
            base_seed=0)
