import numpy as np
import pytest

from adagb2 import solver
from adagb2.curvature import (CurvatureProvider, CurvatureSpec, ZeroCurvature,
                              make_provider)
from adagb2.errors import ConfigurationError, NumericalError
from adagb2.geometry import BoundBox
from adagb2.oracle import ConstantBias, Exact, Gaussian, OracleDraw, Subsample
from adagb2.problem import Objective, make_test_problem
from adagb2.problem import TestProblem as BoxProblem  # avoid pytest collection
from adagb2.solver import (MONITORS, SolverParams, SolverState,
                           first_order_quantities, run, run_batch, step)


def _draw(g, g_true=None):
    g = np.asarray(g, dtype=np.float64)
    gt = g if g_true is None else np.asarray(g_true, dtype=np.float64)
    return OracleDraw(g, gt, float(np.linalg.norm(g - gt)))


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(sigma=0.0)
    with pytest.raises(ValueError):
        SolverParams(tau=0.0)
    with pytest.raises(ValueError):
        SolverParams(kappa_s=0.5)
    with pytest.raises(ValueError):
        SolverParams(step_mode="newton")


def test_initial_state_projects_and_seeds_weights():
    box = BoundBox(np.zeros(2), np.ones(2))
    params = SolverParams(sigma=0.25)
    st = SolverState.initial(np.array([-3.0, 0.4]), box, params)
    assert np.array_equal(st.x, [0.0, 0.4])
    assert np.array_equal(st.w, [0.25, 0.25])
    assert st.k == 0


def test_weight_recurrence_hand_check():
    # One unconstrained coordinate: d = -g, w_k = sqrt(w_{k-1}^2 + g^2).
    box = BoundBox.unbounded(1)
    params = SolverParams(sigma=0.5)
    st = SolverState.initial(np.zeros(1), box, params)
    d, w_new, delta, s_l = first_order_quantities(st, np.array([2.0]), box)
    assert d[0] == -2.0
    assert w_new[0] == np.sqrt(0.25 + 4.0)
    assert delta[0] == 2.0 / np.sqrt(4.25)
    # |d| > delta, so the trust region is active: s_L = -delta
    assert s_l[0] == -delta[0]


def test_first_order_rejects_nan_gradient():
    box = BoundBox.unbounded(2)
    st = SolverState.initial(np.zeros(2), box, SolverParams())
    with pytest.raises(NumericalError):
        first_order_quantities(st, np.array([np.nan, 0.0]), box)


def test_step_monitors_all_pass_random_sweep():
    rng = np.random.default_rng(0)
    params = SolverParams(sigma=0.05)
    for trial in range(50):
        n = int(rng.integers(1, 10))
        lower = rng.uniform(-2, 0, n)
        upper = lower + rng.uniform(0.5, 3, n)
        box = BoundBox(lower, upper)
        prob = make_test_problem("boxed_quadratic", n, trial)
        provider = make_provider(CurvatureSpec("zero"), prob.objective)
        st = SolverState.initial(rng.uniform(lower, upper), box, params)
        for _ in range(20):
            g = rng.standard_normal(n) * 3
            st, trace = step(st, _draw(g), provider, box, params)
            assert all(trace.monitors.values()), trace.monitors
            assert box.contains(st.x)


def test_gamma_is_one_for_zero_curvature():
    box = BoundBox(np.zeros(2), np.ones(2))
    params = SolverParams()
    provider = ZeroCurvature(1.0)
    st = SolverState.initial(np.full(2, 0.5), box, params)
    _, trace = step(st, _draw([1.0, -1.0]), provider, box, params)
    assert trace.gamma == 1.0
    assert np.array_equal(trace.s, trace.s_l)


def test_gamma_shrinks_with_strong_curvature():
    # 1-d quadratic with huge curvature: the Cauchy scaling must engage.
    prob = make_test_problem("boxed_quadratic", 1, 0)
    box = BoundBox.unbounded(1)
    obj = Objective(f=prob.objective.f, grad=prob.objective.grad,
                    hess_vec=lambda x, v: 50.0 * v,
                    hess_bound=lambda x: 50.0, f_low=-1e6)
    provider = make_provider(CurvatureSpec("exact_clipped", 100.0), obj)
    params = SolverParams()
    st = SolverState.initial(np.zeros(1), box, params)
    _, trace = step(st, _draw([4.0]), provider, box, params)
    # gamma = min(1, -g s_L / (s_L B s_L)) = min(1, 4*|s_L| / (50 s_L^2))
    s_l = trace.s_l[0]
    assert trace.gamma == pytest.approx(min(1.0, (4.0 * -s_l) / (50.0 * s_l**2)))
    assert trace.gamma < 1.0
    assert np.allclose(trace.s, trace.gamma * trace.s_l)


def test_sign_adagrad_matches_plain_adagrad_unconstrained():
    # Unconstrained box, zero curvature: the iteration must reduce to
    # x_{k+1,i} = x_{k,i} - g_{k,i} / sqrt(sigma^2 + sum_{j<=k} g_{j,i}^2).
    n = 4
    box = BoundBox.unbounded(n)
    params = SolverParams(sigma=0.1, step_mode="sign_adagrad")
    provider = ZeroCurvature(1.0)
    rng = np.random.default_rng(123)
    st = SolverState.initial(rng.standard_normal(n), box, params)
    x_ref = st.x.copy()
    gsum = np.full(n, params.sigma**2)
    for _ in range(300):
        g = rng.standard_normal(n)
        st, _ = step(st, _draw(g), provider, box, params)
        gsum += g * g
        x_ref = x_ref - g / np.sqrt(gsum)
        assert np.allclose(st.x, x_ref, rtol=1e-12, atol=1e-14)


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


def test_step_trace_holds_every_monitor():
    box = BoundBox(np.zeros(2), np.ones(2))
    params = SolverParams()
    st = SolverState.initial(np.full(2, 0.5), box, params)
    g = np.array([1.0, -1.0])
    _, trace = step(st, _draw(g, g_true=g + 0.1), ZeroCurvature(1.0), box,
                    params)
    assert list(trace.monitors) == list(MONITORS)
    assert all(trace.monitors.values()), trace.monitors
    # Without the true gradient there is no criticality triangle to check.
    _, trace = step(st, OracleDraw(g, None, np.nan), ZeroCurvature(1.0), box,
                    params)
    assert list(trace.monitors) == list(MONITORS[:-1])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_raises_on_divergent_objective():
    obj = Objective(f=lambda x: float(np.exp(x[0])),
                    grad=lambda x: np.array([np.exp(min(x[0], 700.0))]),
                    f_low=0.0)
    prob = BoxProblem("explode", obj, BoundBox.unbounded(1),
                       np.array([800.0]))  # f overflows to inf immediately
    with pytest.raises(NumericalError):
        run(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 50,
            base_seed=0)
