import copy
import warnings

import numpy as np
import pytest

from adagb2 import solver
from adagb2.curvature import (CurvatureSpec, DiagonalFD, ExactClipped,
                              ScalarBB, ZeroCurvature, make_provider)
from adagb2.errors import ConfigurationError
from adagb2.oracle import Gaussian
from adagb2.problem import PROBLEM_NAMES, Objective, make_test_problem

QUAD = make_test_problem("boxed_quadratic", 5, 0)  # Hessian diag(1..4)


def test_spec_validation():
    with pytest.raises(ValueError):
        CurvatureSpec("nope")
    with pytest.raises(ValueError):
        CurvatureSpec("zero", 0.5)  # kappa_b below 1


def test_zero_provider():
    p = make_provider(CurvatureSpec("zero", 2.0), QUAD.objective)
    assert isinstance(p, ZeroCurvature)
    v = np.ones((1, 5))
    assert np.array_equal(p.quad_form(np.zeros((1, 5)), v), [0.0])
    assert np.array_equal(p.matvec(np.zeros((1, 5)), v), np.zeros((1, 5)))


def test_scalar_bb_hand_value():
    p = ScalarBB(kappa_b=10.0)
    assert p.sigma == 0.0  # zero operator before any observation
    s = np.array([[1.0, 0.0]])
    y = np.array([[3.0, 1.0]])  # s^T y / s^T s = 3
    p.observe(np.zeros((1, 2)), s, np.zeros((1, 2)), y)
    assert np.array_equal(p.sigma, [3.0])
    assert np.array_equal(p.quad_form(None, np.array([[2.0, 0.0]])), [12.0])


def test_scalar_bb_clipping():
    p = ScalarBB(kappa_b=2.0)
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    p.observe(zero, one, zero, np.array([[100.0]]))
    assert np.array_equal(p.sigma, [2.0])  # clipped at kappa_b
    p.observe(zero, one, zero, np.array([[-5.0]]))
    assert np.array_equal(p.sigma, [0.0])  # negative curvature maps to zero
    p.observe(zero, one, zero, np.array([[1.5]]))
    p.observe(one, one, zero, one)  # zero step
    assert np.array_equal(p.sigma, [1.5])  # keeps the previous scalar


def test_scalar_bb_diverged_row_is_nan_without_warning():
    # inf/inf on a diverged row gives NaN, which the clip keeps, and no
    # RuntimeWarning; the other row is unaffected.
    p = ScalarBB(kappa_b=2.0)
    zero = np.zeros((2, 1))
    step = np.array([[np.inf], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p.observe(zero, step, zero, np.array([[np.inf], [1.5]]))
    assert np.array_equal(p.sigma, [np.nan, 1.5], equal_nan=True)


def test_exact_clipped_small_hessian_untouched():
    # Hessian diag(1..4) has norm 4 <= kappa_b: no scaling.
    p = ExactClipped(5.0, QUAD.objective)
    x = np.full((1, 5), 0.5)
    v = np.array([[1.0, 2.0, -1.0, 0.5, 0.0]])
    a = np.linspace(1.0, 4.0, 5)
    assert np.allclose(p.matvec(x, v), a * v, rtol=1e-12)


def test_exact_clipped_scales_large_hessian():
    p = ExactClipped(1.0, QUAD.objective)
    x = np.full((1, 5), 0.5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal((1, 5))
        hv = p.matvec(x, v)
        # scaled operator norm must respect kappa_b (the quadratic's bound
        # max(a) is its Hessian norm)
        assert np.linalg.norm(hv) <= 1.0 * np.linalg.norm(v) * (1 + 1e-9)
    # the scale should be ~ 1/4 since ||H|| = 4
    e_last = np.zeros((1, 5))
    e_last[0, -1] = 1.0
    assert p.matvec(x, e_last)[0, -1] == pytest.approx(1.0, rel=1e-6)


def test_exact_clipped_is_stateless():
    # A call depends on (x, v) alone: the same bits at a point before and
    # after calls elsewhere, and a fresh provider agrees.
    prob = make_test_problem("boxed_rosenbrock", 6, 0)
    p = ExactClipped(16.0, prob.objective)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, (1, 6))
    v = rng.standard_normal((1, 6))
    first = p.quad_form(x, v)
    for _ in range(3):
        p.quad_form(rng.uniform(-2.0, 2.0, (1, 6)), rng.standard_normal((1, 6)))
    assert p.quad_form(x, v).tobytes() == first.tobytes()
    fresh = ExactClipped(16.0, prob.objective)
    assert fresh.quad_form(x, v).tobytes() == first.tobytes()


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_exact_clipped_batch_matches_rows(name):
    prob = make_test_problem(name, 5, 2)
    p = ExactClipped(2.0, prob.objective)
    rng = np.random.default_rng(4)
    x = rng.uniform(prob.box.lower, prob.box.upper, (4, 5))
    v = rng.standard_normal((4, 5))
    rows = [p.quad_form(xr[None], vr[None]) for xr, vr in zip(x, v)]
    assert p.quad_form(x, v).tobytes() == np.concatenate(rows).tobytes()
    rows = [p.matvec(xr[None], vr[None]) for xr, vr in zip(x, v)]
    assert p.matvec(x, v).tobytes() == np.concatenate(rows).tobytes()


@pytest.mark.parametrize("name, dim, kappa_b", [
    ("boxed_rosenbrock", 6, 16.0),
    ("boxed_rosenbrock", 20, 16.0),
    ("boxed_nonconvex_quartic", 6, 1.0),
])
def test_exact_clipped_norm_stays_below_kappa_b_along_runs(monkeypatch, name,
                                                           dim, kappa_b):
    # Replays 2000-step runs and builds each B_k densely, column by column,
    # at the point where the solver asks for its quadratic form.  Every
    # column comes from a copy of the provider as the solver finds it, so
    # a provider with memory is measured as it is used.
    ratios = []

    def recording(spec, obj):
        provider = make_provider(spec, obj)
        quad_form = provider.quad_form

        def quad_form_recorded(x, v):
            b = np.column_stack([copy.deepcopy(provider).matvec(x, e[None])[0]
                                 for e in np.eye(x.shape[-1])])
            ratios.append(np.linalg.norm(b, ord=2) / spec.kappa_b)
            return quad_form(x, v)

        provider.quad_form = quad_form_recorded
        return provider

    monkeypatch.setattr(solver, "make_provider", recording)
    prob = make_test_problem(name, dim, 0)
    res = solver.run(prob, Gaussian(0.1), CurvatureSpec("exact_clipped", kappa_b),
                     solver.SolverParams(), 2000, base_seed=0,
                     diagnostics=False)
    assert len(ratios) == 2000
    assert max(ratios) <= 1.0 + 1e-12
    assert res.total_violations == 0


def test_exact_clipped_requires_hessian():
    obj = Objective(f=lambda x: 0.0, grad=lambda x: np.zeros_like(x), f_low=0.0)
    with pytest.raises(ConfigurationError):
        ExactClipped(1.0, obj)


def test_exact_clipped_requires_hessian_bound():
    obj = Objective(f=lambda x: 0.0, grad=lambda x: np.zeros_like(x),
                    hess_vec=lambda x, v: v, f_low=0.0)
    with pytest.raises(ConfigurationError, match="hess_bound"):
        ExactClipped(1.0, obj)
    with pytest.raises(ConfigurationError, match="hess_bound"):
        make_provider(CurvatureSpec("exact_clipped", 1.0), obj)


def test_diagonal_fd_on_quadratic():
    p = DiagonalFD(10.0, QUAD.objective)
    x = np.full((1, 5), 0.5)
    v = np.ones((1, 5))
    a = np.linspace(1.0, 4.0, 5)
    assert np.allclose(p.matvec(x, v), a, rtol=1e-6)


def _diag_per_coordinate(grad, kappa_b, x):
    # The per-coordinate loop: two perturbed gradients per coordinate.
    d = np.empty_like(x)
    for i in range(x.shape[-1]):
        h = 1e-6 * (1.0 + np.abs(x[..., i]))
        e = np.zeros_like(x)
        e[..., i] = h
        d[..., i] = (grad(x + e)[..., i] - grad(x - e)[..., i]) / (2.0 * h)
    return np.clip(d, -kappa_b, kappa_b)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("shape", [(6,), (1, 6), (4, 6)])
def test_diagonal_fd_stack_matches_per_coordinate_loop(name, shape):
    prob = make_test_problem(name, 6, 1)
    p = DiagonalFD(16.0, prob.objective)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.uniform(prob.box.lower, prob.box.upper, shape)
        ref = _diag_per_coordinate(prob.objective.grad, 16.0, x)
        got = p._diag(x)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_diagonal_fd_clips():
    p = DiagonalFD(2.0, QUAD.objective)
    x = np.full((1, 5), 0.5)
    d = p.matvec(x, np.ones((1, 5)))
    assert (np.abs(d) <= 2.0 + 1e-12).all()


def test_make_provider_dispatch():
    obj = QUAD.objective
    assert isinstance(make_provider(CurvatureSpec("zero"), obj), ZeroCurvature)
    assert isinstance(make_provider(CurvatureSpec("scalar_bb"), obj), ScalarBB)
    assert isinstance(make_provider(CurvatureSpec("exact_clipped"), obj),
                      ExactClipped)
    assert isinstance(make_provider(CurvatureSpec("diagonal_fd"), obj),
                      DiagonalFD)


def test_quad_form_consistent_with_matvec():
    rng = np.random.default_rng(1)
    x = np.full((1, 5), 0.5)
    zero, one = np.zeros((1, 5)), np.ones((1, 5))
    for spec in ("scalar_bb", "exact_clipped", "diagonal_fd"):
        p = make_provider(CurvatureSpec(spec, 4.0), QUAD.objective)
        p.observe(zero, one, zero,
                  QUAD.objective.grad(one) - QUAD.objective.grad(zero))
        v = rng.standard_normal((1, 5))
        assert p.quad_form(x, v)[0] == pytest.approx(
            float(v[0] @ p.matvec(x, v)[0]), rel=1e-9, abs=1e-12)
