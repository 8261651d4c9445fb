import copy
import warnings

import numpy as np
import pytest

from adagb2 import solver
from adagb2.curvature import (CurvatureSpec, DiagonalFD, ExactClipped,
                              ScalarBB, ZeroCurvature, make_provider)
from adagb2.errors import ConfigurationError
from adagb2.oracle import Gaussian
from adagb2.problem import (PROBLEM_NAMES, ConstantBound, Objective,
                            make_test_problem)

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


def _bb_reference(sigma, s, y, kappa_b):
    """Row by row: s.y / s.s clipped by Python's max and min, whose ties and
    NaN keep the ratio (so -0.0 and NaN stay); a zero step keeps sigma."""
    out = []
    for prev, s_row, y_row in zip(sigma, s, y):
        ss = np.vecdot(s_row, s_row)
        if ss == 0.0:
            out.append(prev)
            continue
        with np.errstate(invalid="ignore"):
            ratio = float(np.vecdot(s_row, y_row) / ss)
        out.append(min(max(ratio, 0.0), kappa_b))
    return np.array(out)


def test_scalar_bb_clip_is_bit_exact_per_row():
    kb = 4.0
    rows = [  # (s, y) of one coordinate, and the ratio it gives
        (2.0, -5e-324),  # -1e-323 / 4 underflows to -0.0
        (1.0, 0.0),  # +0.0
        (1.0, np.nan),
        (1.0, np.inf),
        (1.0, -np.inf),
        (np.inf, np.inf),  # inf / inf is NaN
        (1.0, kb),
        (1.0, np.nextafter(kb, np.inf)),
        (1.0, np.nextafter(kb, 0.0)),
        (1.0, -3.0),
        (1.0, -5e-324),  # the smallest negative
        (2.0, 3.0),  # 6 / 4 = 1.5
        (0.0, 5.0),  # a zero step keeps the previous scalar
    ]
    s = np.array([[r[0]] for r in rows])
    y = np.array([[r[1]] for r in rows])
    zero, one = np.zeros_like(s), np.ones_like(s)
    p = ScalarBB(kappa_b=kb)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p.observe(zero, one, zero, np.full_like(s, 2.5))  # sigma 2.5
        p.observe(zero, s, zero, y)
    want = _bb_reference(np.full(len(rows), 2.5), s, y, kb)
    assert np.signbit(want[0]) and want[0] == 0.0  # the -0.0 row
    assert p.sigma.tobytes() == want.tobytes()
    # The quadratic form reads the updated scalars.
    v = np.array([[1.5]] * len(rows))
    assert p.quad_form(None, v).tobytes() == np.vecdot(
        v, want[:, None] * v).tobytes()


def test_scalar_bb_finite_pairs_keep_the_bits_of_the_reference():
    # All finite, so the pair takes the path without np.errstate; a zero
    # step keeps its scalar, here over three pairs.
    kb = 4.0
    s = np.array([[2.0], [1.0], [1.0], [1.0], [1.0], [2.0], [0.0], [3.0]])
    y = np.array([[-5e-324], [0.0], [kb], [np.nextafter(kb, np.inf)],
                  [-3.0], [3.0], [5.0], [1e-300]])
    p = ScalarBB(kappa_b=kb)
    zero, one = np.zeros_like(s), np.ones_like(s)
    want = np.zeros(len(s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in ((one, np.full_like(s, 2.5)), (s, y), (s[::-1], y)):
            p.observe(zero, pair[0], zero, pair[1])
            want = _bb_reference(want, *pair, kb)
            assert p.sigma.tobytes() == want.tobytes()
    assert np.signbit(p.sigma[0]) and p.sigma[0] == 0.0


def test_scalar_bb_before_the_first_pair_is_the_zero_operator():
    # 0.0 * v keeps the signs of v's zeros and products.
    p = ScalarBB(kappa_b=4.0)
    v = np.array([[-2.0, -0.0, 0.0, 3.0], [np.nan, 1.0, -1.0, -0.5]])
    assert p.matvec(None, v).tobytes() == (0.0 * v).tobytes()
    assert p.quad_form(None, v).tobytes() == np.vecdot(v, 0.0 * v).tobytes()


@pytest.mark.parametrize("name", ["boxed_quadratic", "finite_sum_logistic"])
def test_exact_clipped_run_scale_matches_per_row_scale(name):
    # These bounds hold on the whole box: the provider scales by one
    # number per run, with the bits of the per-row scale.
    obj = make_test_problem(name, 5, 2).objective
    assert isinstance(obj.hess_bound, ConstantBound)
    bound = obj.hess_bound.bound
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (4, 5))
    v = rng.standard_normal((4, 5))
    for kb in (1.0, bound / 3.0, np.nextafter(bound, 0.0), bound,
               np.nextafter(bound, np.inf), 16.0, 1e300):
        if kb < 1.0:
            continue
        p = ExactClipped(kb, obj)
        scale = kb / np.maximum(kb, obj.hess_bound(x))
        hv = scale[..., None] * obj.hess_vec(x, v)
        assert p.matvec(x, v).tobytes() == hv.tobytes()
        assert p.quad_form(x, v).tobytes() == np.vecdot(v, hv).tobytes()
