import numpy as np
import pytest

from adagb2.problem import (PROBLEM_NAMES, check_smoothness,
                            make_test_problem, quadratic_problem)


def _fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_gradient_matches_finite_differences(name, seed):
    dim = 5
    prob = make_test_problem(name, dim, seed)
    rng = np.random.default_rng(seed + 100)
    for _ in range(5):
        x = rng.uniform(prob.box.lower, prob.box.upper)
        g = prob.objective.grad(x)
        g_fd = _fd_gradient(prob.objective.f, x)
        assert np.allclose(g, g_fd, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_hess_vec_matches_gradient_differences(name):
    dim = 4
    prob = make_test_problem(name, dim, 3)
    obj = prob.objective
    if obj.hess_vec is None:
        pytest.skip("no Hessian action")
    rng = np.random.default_rng(11)
    x = rng.uniform(prob.box.lower, prob.box.upper)
    v = rng.standard_normal(dim)
    h = 1e-6
    hv_fd = (obj.grad(x + h * v) - obj.grad(x - h * v)) / (2.0 * h)
    assert np.allclose(obj.hess_vec(x, v), hv_fd, rtol=1e-4, atol=1e-4)


def _dense_hessian(hess_vec, x):
    return np.column_stack([hess_vec(x, e) for e in np.eye(x.shape[0])])


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("dim", [2, 5])
def test_hess_bound_is_certified(name, dim):
    prob = make_test_problem(name, dim, 4)
    obj = prob.objective
    rng = np.random.default_rng(12)
    x = rng.uniform(prob.box.lower, prob.box.upper, (20, dim))
    # corners and the origin too: the extremes of the quartic and
    # Rosenbrock Hessians sit on the box boundary
    x = np.vstack([x, prob.box.lower, prob.box.upper, np.zeros(dim)])
    batched = obj.hess_bound(x)
    assert isinstance(batched, np.ndarray) and batched.shape == (len(x),)
    for xr, b in zip(x, batched):
        single = obj.hess_bound(xr)
        assert isinstance(single, float) and single == b
        norm = np.linalg.norm(_dense_hessian(obj.hess_vec, xr), ord=2)
        assert norm <= single * (1.0 + 1e-12)


def test_quartic_hess_bound_is_exact():
    prob = make_test_problem("boxed_nonconvex_quartic", 4, 0)
    x = np.array([0.1, -2.0, 0.5, 1.0])
    assert prob.objective.hess_bound(x) == 11.0
    h = _dense_hessian(prob.objective.hess_vec, x)
    assert np.linalg.norm(h, ord=2) == pytest.approx(11.0, rel=1e-15)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_hess_vec_batch_matches_rows(name):
    prob = make_test_problem(name, 5, 6)
    obj = prob.objective
    rng = np.random.default_rng(13)
    x = rng.uniform(prob.box.lower, prob.box.upper, (4, 5))
    v = rng.standard_normal((4, 5))
    rows = np.array([obj.hess_vec(xr, vr) for xr, vr in zip(x, v)])
    assert obj.hess_vec(x, v).tobytes() == rows.tobytes()


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_f_low_is_a_lower_bound_on_samples(name):
    prob = make_test_problem(name, 6, 5)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(prob.box.lower, prob.box.upper)
        assert prob.objective.f(x) >= prob.objective.f_low - 1e-12


def test_quadratic_closed_form_minimum():
    # f = 1/2 a x^2 - b x on [0, 1]^2 with a = (1, 4), b = (1, 1):
    # unconstrained minimizers b/a = (1, 0.25), both interior/boundary-feasible.
    prob = quadratic_problem(np.array([1.0, 4.0]), np.array([1.0, 1.0]),
                             np.zeros(2), np.ones(2), np.full(2, 0.5))
    x_star = np.array([1.0, 0.25])
    f_star = prob.objective.f(x_star)
    assert prob.objective.f_low == pytest.approx(f_star, abs=1e-15)
    assert f_star == pytest.approx(0.5 * 1 - 1 + 0.5 * 4 * 0.0625 - 0.25)
    # gradient at the constrained minimizer: zero in coordinates strictly
    # inside, and the projected-gradient measure vanishes
    g = prob.objective.grad(x_star)
    xi = np.clip(x_star - g, 0.0, 1.0) - x_star
    assert np.linalg.norm(xi) <= 1e-15


def test_quadratic_clamped_minimizer():
    # b/a = 5 lies beyond the box: constrained minimizer sits at u = 1.
    prob = quadratic_problem(np.array([1.0]), np.array([5.0]),
                             np.array([0.0]), np.array([1.0]), np.array([0.2]))
    assert prob.objective.f_low == pytest.approx(0.5 - 5.0)


def test_quadratic_rejects_nonpositive_curvature():
    with pytest.raises(ValueError):
        quadratic_problem(np.array([0.0]), np.array([1.0]),
                          np.array([0.0]), np.array([1.0]), np.array([0.5]))


def test_spec_example_matches_dim2():
    prob = make_test_problem("boxed_quadratic", 2, 0)
    assert np.array_equal(prob.objective.grad(np.zeros(2)), [-1.0, -1.0])
    assert prob.objective.lipschitz == 4.0  # diag(1, 4)


def test_problem_determinism_in_seed():
    a = make_test_problem("finite_sum_logistic", 4, 9)
    b = make_test_problem("finite_sum_logistic", 4, 9)
    c = make_test_problem("finite_sum_logistic", 4, 10)
    assert np.array_equal(a.x_ini, b.x_ini)
    x = np.full(4, 0.3)
    assert a.objective.f(x) == b.objective.f(x)
    assert a.objective.f(x) != c.objective.f(x)


def test_rosenbrock_requires_dim2():
    with pytest.raises(ValueError):
        make_test_problem("boxed_rosenbrock", 1, 0)


def test_unknown_problem():
    with pytest.raises(ValueError):
        make_test_problem("nope", 3, 0)


@pytest.mark.parametrize("name", ["boxed_quadratic", "boxed_nonconvex_quartic",
                                  "finite_sum_logistic"])
def test_declared_lipschitz_holds_on_samples(name):
    prob = make_test_problem(name, 5, 2)
    report = check_smoothness(prob.objective, prob.box, samples=200, seed=1)
    assert report.within_bound


def test_sampled_ratios_at_seed_0():
    # The reference figures of ``adagb2 check``'s lipschitz_sampled sweep.
    want = {"boxed_quadratic": (3.9999982596733887, 4.0),
            "boxed_nonconvex_quartic": (8.704032749057369, 11.0),
            "finite_sum_logistic": (0.3726358739523061, 0.42033006193663247)}
    for name, (ratio, lipschitz) in want.items():
        prob = make_test_problem(name, 2, 0)
        report = check_smoothness(prob.objective, prob.box, 2000, 0)
        assert report.max_ratio == pytest.approx(ratio, rel=1e-12)
        assert prob.objective.lipschitz == pytest.approx(lipschitz, rel=1e-12)
        assert report.within_bound


def test_logistic_term_grad_full_batch_equals_gradient():
    prob = make_test_problem("finite_sum_logistic", 3, 4)
    obj = prob.objective
    x = np.array([0.1, -0.4, 0.7])
    full = obj.term_grad(x, np.arange(obj.num_terms))
    assert np.allclose(full, obj.grad(x), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("shape", [(50, 4, 50), (7, 3, 50), (4, 50)])
def test_logistic_grad_stack_matches_lone_points(shape):
    # diagonal_fd's (n, R, n) stack and the (R, n) draw stack get the bits
    # of one lone call per point.
    obj = make_test_problem("finite_sum_logistic", shape[-1], 3).objective
    x = np.random.default_rng(0).uniform(-5.0, 5.0, shape)
    lone = np.stack([obj.grad(p) for p in x.reshape(-1, shape[-1])])
    assert obj.grad(x).tobytes() == lone.reshape(shape).tobytes()


@pytest.mark.parametrize("name", [*PROBLEM_NAMES, "quadratic_problem"])
def test_f_stack_matches_lone_points(name):
    # The engine evaluates f once per block, on the (m, R, n) stack of the
    # block's iterates; each value must be the bits of a lone call.
    if name == "quadratic_problem":
        obj = quadratic_problem([0.5, 2.0, 7.0], [1.0, -3.0, 0.25],
                                [-1.0, -2.0, 0.0], [1.0, 2.0, 3.0],
                                [0.0, 0.0, 1.0]).objective
        dim = 3
    else:
        dim = 50 if name == "finite_sum_logistic" else 5
        obj = make_test_problem(name, dim, 3).objective
    x = np.random.default_rng(1).uniform(-2.0, 2.0, (7, 3, dim))
    lone = np.array([obj.f(p) for p in x.reshape(-1, dim)])
    assert all(type(obj.f(p)) is float for p in x[0])
    stack = obj.f(x)
    assert stack.shape == (7, 3)
    assert stack.tobytes() == lone.reshape(7, 3).tobytes()


def test_logistic_lipschitz_is_computed_once_per_dim_and_seed(monkeypatch):
    # The spectral norm of the logistic data is memoized per (dim, seed):
    # a second build takes the same bits without another SVD.
    from adagb2 import problem

    monkeypatch.setattr(problem, "_SPECTRAL_NORMS", {})
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(kwargs.get("ord"))
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    first = make_test_problem("finite_sum_logistic", 6, 11).objective.lipschitz
    again = make_test_problem("finite_sum_logistic", 6, 11).objective.lipschitz
    other = make_test_problem("finite_sum_logistic", 6, 12).objective.lipschitz
    assert calls == [2, 2]  # one SVD for (6, 11), one for (6, 12)
    assert np.float64(again).tobytes() == np.float64(first).tobytes()
    assert other != first
    features = np.random.default_rng(
        np.random.SeedSequence((0xAD46, 11))).standard_normal((24, 6))
    assert first == norm(features, ord=2) ** 2 / (4.0 * 24)


# The problem layer's formulas as they read before its callables were made
# to work in place; the suite must give their bits.

def _logistic_data(dim, seed):
    """The rows -y_i a_i of finite_sum_logistic, drawn as make_test_problem
    draws them."""
    rng = np.random.default_rng(np.random.SeedSequence((0xAD46, seed)))
    m = max(20, 4 * dim)
    features = rng.standard_normal((m, dim))
    w_true = rng.standard_normal(dim)
    labels = np.sign(features @ w_true + 0.1 * rng.standard_normal(m))
    labels[labels == 0] = 1.0
    return -labels[:, None] * features


def _reference_callables(name, dim, seed):
    """f, grad, hess_vec and hess_bound of ``make_test_problem(name, dim,
    seed)``, each written as the plain formula."""
    if name == "boxed_quadratic":
        a, b = np.linspace(1.0, 4.0, dim), np.ones(dim)
        return (lambda x: (0.5 * a * x * x - b * x).sum(axis=-1),
                lambda x: a * x - b,
                lambda x, v: a * v,
                lambda x: np.full(np.shape(x)[:-1], a.max()))
    if name == "boxed_rosenbrock":
        def f(x):
            head, tail = x[..., :-1], x[..., 1:]
            return (100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2).sum(axis=-1)

        def grad(x):
            head, tail = x[..., :-1], x[..., 1:]
            g = np.zeros_like(x)
            g[..., :-1] = -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
            g[..., 1:] += 200.0 * (tail - head**2)
            return g

        def hessian(x):
            diag = np.zeros_like(x)
            diag[..., :-1] += 1200.0 * x[..., :-1] ** 2 - 400.0 * x[..., 1:] + 2.0
            diag[..., 1:] += 200.0
            return diag, -400.0 * x[..., :-1]

        def hess_vec(x, v):
            diag, off = hessian(x)
            hv = diag * v
            hv[..., :-1] += off * v[..., 1:]
            hv[..., 1:] += off * v[..., :-1]
            return hv

        def hess_bound(x):
            diag, off = hessian(x)
            rows, off = np.abs(diag), np.abs(off)
            rows[..., :-1] += off
            rows[..., 1:] += off
            return rows.max(axis=-1)

        return f, grad, hess_vec, hess_bound
    if name == "boxed_nonconvex_quartic":
        return (lambda x: (0.25 * x**4 - 0.5 * x**2).sum(axis=-1),
                lambda x: x**3 - x,
                lambda x, v: (3.0 * x**2 - 1.0) * v,
                lambda x: np.abs(3.0 * x**2 - 1.0).max(axis=-1))
    signed = _logistic_data(dim, seed)
    m = len(signed)

    def apply(mat, v):
        return mat @ v if v.ndim == 1 else np.matmul(mat, v[..., None])[..., 0]

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    def hess_vec(x, v):
        s = sigmoid(apply(signed, x))
        return apply(signed.T, (s * (1.0 - s)) * apply(signed, v)) / m

    lipschitz = make_test_problem(name, dim, seed).objective.lipschitz
    return (lambda x: np.logaddexp(0.0, apply(signed, x)).mean(axis=-1),
            lambda x: apply(signed.T, sigmoid(apply(signed, x))) / m,
            hess_vec,
            lambda x: np.full(np.shape(x)[:-1], lipschitz))


def _pinned_points(box, dim, rng):
    """Seeded points in the box, its corners and faces, and signed zeros."""
    lower, upper = box.lower, box.upper
    points = [rng.uniform(lower, upper, (6, dim)), lower[None], upper[None],
              np.where(np.arange(dim) % 2, lower, upper)[None]]
    zeros = np.zeros((4, dim))
    zeros[1] = -0.0
    zeros[2, 1::2] = -0.0  # +0.0 heads before -0.0 tails
    zeros[3, ::2] = -0.0
    mixed = rng.uniform(lower, upper, (2, dim))
    mixed[:, ::3] = -0.0
    return np.concatenate(points + [zeros, mixed])


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("dim", [2, 3, 6])
def test_callables_keep_the_bits_of_the_plain_formulas(name, dim):
    prob = make_test_problem(name, dim, 7)
    obj = prob.objective
    refs = _reference_callables(name, dim, 7)
    rng = np.random.default_rng(dim)
    x = _pinned_points(prob.box, dim, rng)  # (R, n)
    v = rng.standard_normal(x.shape)
    v[::3] = -0.0
    stack = rng.uniform(prob.box.lower, prob.box.upper, (dim, len(x), dim))
    stack[0] = x  # the (n, R, n) stacks of diagonal_fd
    ref_f, ref_grad, ref_hess_vec, ref_hess_bound = refs
    for points in (x, stack, *x):  # a batch, a stack and every single row
        assert np.asarray(obj.f(points)).tobytes() == ref_f(points).tobytes()
        assert obj.grad(points).tobytes() == ref_grad(points).tobytes()
    for points, vectors in ((x, v), *zip(x, v)):
        assert (obj.hess_vec(points, vectors).tobytes()
                == ref_hess_vec(points, vectors).tobytes())
        assert (np.asarray(obj.hess_bound(points)).tobytes()
                == np.asarray(ref_hess_bound(points), float).tobytes())


def test_logistic_term_grad_keeps_the_bits_of_the_plain_formula():
    obj = make_test_problem("finite_sum_logistic", 6, 7).objective
    signed = _logistic_data(6, 7)
    rng = np.random.default_rng(8)
    for batch in (1, 10, obj.num_terms):
        x = rng.uniform(-5.0, 5.0, 6)
        x[::4] = -0.0
        indices = rng.choice(obj.num_terms, size=batch, replace=False)
        rows = signed[indices]
        s = 1.0 / (1.0 + np.exp(-(rows @ x)))
        want = (rows.T @ s) / len(indices)
        assert obj.term_grad(x, indices).tobytes() == want.tobytes()
