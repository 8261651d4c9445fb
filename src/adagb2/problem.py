"""Objective bundles and the bound-constrained test-problem suite.

An :class:`Objective` packages the function value, the true gradient, an
optional Hessian action with a certified bound on the Hessian norm, and a
certified lower bound on the feasible set.
Solvers never look at function values (they are recorded for diagnostics
only); the harness uses ``f_low`` and ``lipschitz`` when computing the
theoretical complexity constants.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import BoundBox

PROBLEM_NAMES = (
    "boxed_quadratic",
    "boxed_rosenbrock",
    "boxed_nonconvex_quartic",
    "finite_sum_logistic",
)


@dataclass(frozen=True)
class Objective:
    """Callable bundle for one optimization problem.

    ``term_grad(x, indices)`` (mean gradient over a subset of terms) and
    ``num_terms`` are only set for finite-sum objectives and enable the
    subsampling oracle.  ``lipschitz``, when set, is a certified bound on
    the gradient Lipschitz constant over the feasible box, and
    ``hess_bound(x)`` one on the spectral norm of the Hessian at ``x``.

    ``f``, ``grad``, ``hess_vec(x, v)`` and ``hess_bound`` take a point (n,)
    or a batch (R, n) of points, one per row, and must give each row bit
    for bit what a lone call on it gives: ``f`` and ``hess_bound`` return a
    float for a point and an (R,) array for a batch.  Reductions over the
    last axis (``sum(axis=-1)``, ``max(axis=-1)``) and stacked products
    (``np.matmul(A, x[..., None])[..., 0]``) keep that promise; ``x @ A.T``
    does not.  ``f`` and ``grad`` also take any stack (..., n) of points,
    ``f`` returning one value per point: the engine evaluates ``f`` once
    per block, on the (m, R, n) stack of the block's iterates, and
    ``diagonal_fd`` calls ``grad`` on (n, R, n) stacks.  ``term_grad``
    takes a single point.
    """

    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    f_low: float
    hess_vec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    hess_bound: Optional[Callable[[np.ndarray], float]] = None
    lipschitz: Optional[float] = None
    num_terms: Optional[int] = None
    term_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class TestProblem:
    name: str
    objective: Objective
    box: BoundBox
    x_ini: np.ndarray

    def __post_init__(self):
        x_ini = np.ascontiguousarray(self.x_ini, dtype=np.float64)
        if x_ini.shape != (self.box.n,):
            raise ValueError(
                f"x_ini has dimension {x_ini.shape}, box has dimension {self.box.n}"
            )
        object.__setattr__(self, "x_ini", x_ini)


def _value(total):
    """A float for one point, the (R,) array for a batch."""
    return float(total) if total.ndim == 0 else total


def _constant_bound(bound):
    """``hess_bound`` of a Hessian norm bound that holds on the whole box."""
    return lambda x: _value(np.full(np.shape(x)[:-1], bound))


def quadratic_problem(a_diag, b, lower, upper, x_ini, name="boxed_quadratic"):
    """Separable convex quadratic f(x) = 1/2 sum a_i x_i^2 - sum b_i x_i.

    All closed-form quantities (Lipschitz constant, constrained minimizer,
    minimum value) are exact, which makes this the main oracle problem for
    bound checks.
    """
    a = np.ascontiguousarray(a_diag, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if (a <= 0).any():
        raise ValueError("quadratic_problem requires strictly positive curvature")
    box = BoundBox(lower, upper)
    if a.shape != (box.n,) or b.shape != (box.n,):
        raise ValueError("a_diag/b dimension mismatch with bounds")

    # Separable: per-coordinate minimizer over [l_i, u_i] is the clamped
    # unconstrained minimizer b_i / a_i.
    x_star = np.clip(b / a, box.lower, box.upper)
    f_min = float(np.sum(0.5 * a * x_star**2 - b * x_star))

    objective = Objective(
        f=lambda x: _value((0.5 * a * x * x - b * x).sum(axis=-1)),
        grad=lambda x: a * x - b,
        hess_vec=lambda x, v: a * v,
        hess_bound=_constant_bound(float(a.max())),
        f_low=f_min,
        lipschitz=float(a.max()),
    )
    return TestProblem(name, objective, box, x_ini)


def _rosenbrock_f(x):
    head, tail = x[..., :-1], x[..., 1:]
    return _value((100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2)
                  .sum(axis=-1))


def _rosenbrock_grad(x):
    head, tail = x[..., :-1], x[..., 1:]
    g = np.zeros_like(x)
    g[..., :-1] = -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
    g[..., 1:] += 200.0 * (tail - head**2)
    return g


def _rosenbrock_hessian(x):
    """Diagonal and off-diagonal (i, i+1) of the tridiagonal Hessian."""
    diag = np.zeros_like(x)
    diag[..., :-1] += 1200.0 * x[..., :-1] ** 2 - 400.0 * x[..., 1:] + 2.0
    diag[..., 1:] += 200.0
    return diag, -400.0 * x[..., :-1]


def _rosenbrock_hess_vec(x, v):
    diag, off = _rosenbrock_hessian(x)
    hv = diag * v
    hv[..., :-1] += off * v[..., 1:]
    hv[..., 1:] += off * v[..., :-1]
    return hv


def _rosenbrock_hess_bound(x):
    # Gershgorin: some row i has |eigenvalue| <= |diag_i| + |off_{i-1}| + |off_i|.
    diag, off = _rosenbrock_hessian(x)
    rows, off = np.abs(diag), np.abs(off)
    rows[..., :-1] += off
    rows[..., 1:] += off
    return _value(rows.max(axis=-1))


_SPECTRAL_NORMS = {}  # (dim, seed) -> ||features||_2 of finite_sum_logistic


def make_test_problem(name: str, dim: int, seed: int) -> TestProblem:
    """Build a named test problem of the given dimension.

    The seed only affects randomized ingredients (starting point, logistic
    data); the problem family itself is deterministic in (name, dim).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    rng = np.random.default_rng(np.random.SeedSequence((0xAD46, seed)))

    if name == "boxed_quadratic":
        a = np.linspace(1.0, 4.0, dim)
        b = np.ones(dim)
        lower, upper = np.zeros(dim), np.ones(dim)
        x_ini = rng.uniform(lower, upper)
        return quadratic_problem(a, b, lower, upper, x_ini)

    if name == "boxed_rosenbrock":
        if dim < 2:
            raise ValueError("boxed_rosenbrock requires dim >= 2")
        box = BoundBox(np.full(dim, -2.0), np.full(dim, 2.0))
        x_ini = np.clip(np.tile([-1.2, 1.0], (dim + 1) // 2)[:dim]
                        + 0.05 * rng.standard_normal(dim),
                        box.lower, box.upper)
        objective = Objective(
            f=_rosenbrock_f,
            grad=_rosenbrock_grad,
            hess_vec=_rosenbrock_hess_vec,
            hess_bound=_rosenbrock_hess_bound,
            f_low=0.0,
            lipschitz=None,
        )
        return TestProblem(name, objective, box, x_ini)

    if name == "boxed_nonconvex_quartic":
        box = BoundBox(np.full(dim, -2.0), np.full(dim, 2.0))
        x_ini = rng.uniform(-2.0, 2.0, dim)
        objective = Objective(
            f=lambda x: _value((0.25 * x**4 - 0.5 * x**2).sum(axis=-1)),
            grad=lambda x: x**3 - x,
            hess_vec=lambda x, v: (3.0 * x**2 - 1.0) * v,
            # The Hessian is diagonal, so the bound is its norm.
            hess_bound=lambda x: _value(np.abs(3.0 * x**2 - 1.0).max(axis=-1)),
            f_low=-0.25 * dim,
            # max |3 x^2 - 1| on [-2, 2]
            lipschitz=11.0,
        )
        return TestProblem(name, objective, box, x_ini)

    # finite_sum_logistic
    m = max(20, 4 * dim)
    features = rng.standard_normal((m, dim))
    w_true = rng.standard_normal(dim)
    labels = np.sign(features @ w_true + 0.1 * rng.standard_normal(m))
    labels[labels == 0] = 1.0
    signed = -labels[:, None] * features  # rows: -y_i a_i

    def apply(mat, v):
        # mat @ v for each row of v, through the same BLAS call as a lone v
        return mat @ v if v.ndim == 1 else np.matmul(mat, v[..., None])[..., 0]

    def f(x):
        return _value(np.logaddexp(0.0, apply(signed, x)).mean(axis=-1))

    def grad(x):
        z = apply(signed, x)
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        s = np.divide(1.0, z, out=z)  # sigma(-y a^T x)
        g = apply(signed.T, s)
        g /= m
        return g

    def hess_vec(x, v):
        z = apply(signed, x)
        s = 1.0 / (1.0 + np.exp(-z))
        return apply(signed.T, (s * (1.0 - s)) * apply(signed, v)) / m

    def term_grad(x, indices):
        rows = signed[indices]
        z = rows @ x
        s = 1.0 / (1.0 + np.exp(-z))
        return (rows.T @ s) / len(indices)

    # The largest singular value, once per process for each (dim, seed):
    # the SVD can stall for tens of ms when the BLAS threads wait for a core.
    spectral = _SPECTRAL_NORMS.get((dim, seed))
    if spectral is None:
        spectral = float(np.linalg.norm(features, ord=2))
        _SPECTRAL_NORMS[dim, seed] = spectral
    # sigma (1 - sigma) <= 1/4 bounds the Hessian A^T D A / m everywhere.
    lipschitz = spectral**2 / (4.0 * m)
    objective = Objective(
        f=f,
        grad=grad,
        hess_vec=hess_vec,
        hess_bound=_constant_bound(lipschitz),
        f_low=0.0,
        lipschitz=lipschitz,
        num_terms=m,
        term_grad=term_grad,
    )
    box = BoundBox(np.full(dim, -5.0), np.full(dim, 5.0))
    x_ini = rng.uniform(-1.0, 1.0, dim)
    return TestProblem(name, objective, box, x_ini)


@dataclass(frozen=True)
class SmoothnessReport:
    max_ratio: float
    within_bound: Optional[bool]


def check_smoothness(obj: Objective, box: BoundBox, samples: int,
                     seed: int) -> SmoothnessReport:
    """Sample feasible pairs and bound the gradient difference ratio.

    Returns the largest observed ||G(x) - G(y)|| / ||x - y|| over the pairs
    at a positive distance; when the objective declares a Lipschitz
    constant, also reports whether the sampled maximum stays below it
    (1e-9 relative slack).  One ``grad`` call takes every pair.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo = np.where(np.isfinite(box.lower), box.lower,
                  np.where(np.isfinite(box.upper), box.upper - 20.0, -10.0))
    hi = np.where(np.isfinite(box.upper), box.upper, lo + 20.0)
    pairs = rng.uniform(lo, hi, (samples, 2, box.n))  # x then y, pair by pair
    dist = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=-1)
    pairs, dist = pairs[dist > 0.0], dist[dist > 0.0]  # no degenerate pair
    grads = obj.grad(pairs)
    ratios = np.linalg.norm(grads[:, 0] - grads[:, 1], axis=-1) / dist
    max_ratio = float(ratios.max(initial=0.0))
    within = None
    if obj.lipschitz is not None:
        within = max_ratio <= obj.lipschitz * (1.0 + 1e-9)
    return SmoothnessReport(max_ratio, within)
