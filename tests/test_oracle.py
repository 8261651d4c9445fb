import numpy as np
import pytest

from adagb2.errors import ConfigurationError
from adagb2.oracle import (AffineGaussian, BoundedUniform, ConstantBias,
                           Exact, Gaussian, OracleStream, RelativeBias,
                           Subsample, draw, empirical_rmse, validate_model)
from adagb2.problem import make_test_problem

PROB = make_test_problem("boxed_quadratic", 6, 0)
OBJ = PROB.objective


def test_stream_replay_bit_identical():
    stream = OracleStream(42, 3)
    a = stream.rng(17).standard_normal(8)
    b = OracleStream(42, 3).rng(17).standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_shared_matches_fresh():
    stream = OracleStream(5, 0)
    for k in (0, 1, 2, 1000, 2**40):
        fresh = stream.rng(k).standard_normal(5)
        shared = stream.rng_shared(k).standard_normal(5)
        assert np.array_equal(fresh, shared)


def test_stream_out_of_order_access():
    # Counter-based streams: value at iteration k is independent of the
    # order in which iterations are visited.
    stream = OracleStream(1, 1)
    forward = [stream.rng_shared(k).standard_normal(3).copy() for k in range(5)]
    stream2 = OracleStream(1, 1)
    backward = [stream2.rng_shared(k).standard_normal(3).copy()
                for k in reversed(range(5))]
    for k in range(5):
        assert np.array_equal(forward[k], backward[4 - k])


def test_streams_differ_across_replications_and_iterations():
    s0 = OracleStream(9, 0).rng(0).standard_normal(4)
    s1 = OracleStream(9, 1).rng(0).standard_normal(4)
    s2 = OracleStream(9, 0).rng(1).standard_normal(4)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(s0, s2)


def test_exact_draw():
    x = np.full(6, 0.5)
    od = draw(OBJ, x, Exact(), OracleStream(0, 0).rng(0))
    assert np.array_equal(od.g, OBJ.grad(x))
    assert od.err_norm == 0.0


def test_gaussian_moments():
    x = np.full(6, 0.5)
    g_true = OBJ.grad(x)
    sigma = 0.3
    draws = np.array([
        draw(OBJ, x, Gaussian(sigma), OracleStream(0, r).rng(0)).g
        for r in range(4000)
    ])
    err = draws - g_true
    assert abs(err.mean()) < 0.01               # unbiased
    assert np.std(err) == pytest.approx(sigma, rel=0.05)


def test_bounded_uniform_stays_in_ball():
    x = np.full(6, 0.5)
    model = BoundedUniform(0.2)
    for r in range(200):
        od = draw(OBJ, x, model, OracleStream(3, r).rng(0))
        assert od.err_norm <= 0.2 + 1e-14


def test_affine_gaussian_rmse_matches_theory():
    x = np.full(6, 0.9)
    g_true = OBJ.grad(x)
    model = AffineGaussian(0.04, 0.5)
    target = np.sqrt(0.04 + 0.5 * float(g_true @ g_true))
    rmse = empirical_rmse(OBJ, x, model, draws=20000, seed=0)
    assert rmse == pytest.approx(target, rel=0.03)


def test_constant_bias_shifts_mean():
    x = np.full(6, 0.5)
    bias = np.full(6, 0.05)
    od = draw(OBJ, x, ConstantBias(bias, Exact()), OracleStream(0, 0).rng(0))
    assert np.allclose(od.g - od.g_true, bias)
    assert od.err_norm == pytest.approx(np.linalg.norm(bias))


def test_relative_bias():
    x = np.full(6, 0.5)
    od = draw(OBJ, x, RelativeBias(0.1, Exact()), OracleStream(0, 0).rng(0))
    assert np.allclose(od.g, 1.1 * od.g_true)


def test_subsample_full_batch_is_exact():
    prob = make_test_problem("finite_sum_logistic", 4, 0)
    model = Subsample(prob.objective.num_terms)
    x = np.full(4, 0.2)
    od = draw(prob.objective, x, model, OracleStream(0, 0).rng(0))
    assert np.allclose(od.g, prob.objective.grad(x), rtol=1e-12)


def test_subsample_mean_is_unbiased():
    prob = make_test_problem("finite_sum_logistic", 3, 1)
    model = Subsample(5)
    x = np.full(3, -0.4)
    g_true = prob.objective.grad(x)
    draws = np.array([
        draw(prob.objective, x, model, OracleStream(0, r).rng(0)).g
        for r in range(3000)
    ])
    assert np.allclose(draws.mean(axis=0), g_true, atol=0.02)


def test_subsample_requires_finite_sum():
    with pytest.raises(ConfigurationError):
        validate_model(Subsample(4), OBJ)
    prob = make_test_problem("finite_sum_logistic", 3, 0)
    with pytest.raises(ConfigurationError):
        validate_model(Subsample(10**6), prob.objective)


def test_model_validation():
    with pytest.raises(ValueError):
        Gaussian(-1.0)
    with pytest.raises(ValueError):
        BoundedUniform(-0.5)
    with pytest.raises(ValueError):
        AffineGaussian(-1.0, 0.0)
    with pytest.raises(ValueError):
        Subsample(0)


def test_constant_bias_dimension_mismatch():
    model = ConstantBias(np.ones(3), Exact())
    with pytest.raises(ValueError):
        draw(OBJ, np.full(6, 0.5), model, OracleStream(0, 0).rng(0))


def test_empirical_rmse_exact_is_zero():
    assert empirical_rmse(OBJ, np.full(6, 0.5), Exact(), 10, 0) == 0.0


@pytest.mark.parametrize("model", [
    Exact(), Gaussian(0.2), BoundedUniform(0.3), AffineGaussian(0.04, 0.5),
    ConstantBias(np.full(4, 0.05), Gaussian(0.1)),
    RelativeBias(0.1, BoundedUniform(0.2)), Subsample(5),
], ids=lambda m: m.kind)
def test_empirical_rmse_matches_per_draw_loop(model):
    # The stacked draw against the loop it replaces: one draw() at a time
    # from the same generator, the squared errors summed in order.
    obj = make_test_problem("finite_sum_logistic", 4, 0).objective
    x = np.array([0.3, -0.2, 0.1, 0.4])
    draws, seed = 3000, 7
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x535E)))
    acc = 0.0
    for _ in range(draws):
        od = draw(obj, x, model, rng)
        e = od.g - od.g_true
        acc += float(e @ e)
    assert empirical_rmse(obj, x, model, draws, seed) == pytest.approx(
        np.sqrt(acc / draws), rel=1e-13, abs=0.0)
