"""The first-order kernel and the box projections against an independent
scalar reference.

The reference clamps one coordinate at a time with Python's ``min``/``max``
and ``math.sqrt``, in the numpy functions' order of operations, so every
output must agree bit for bit.  Each function is called on 1-d vectors and
once on an (R, n) stack of rows with (n,) bounds.  ``run_batch`` passes the
bounds tiled to (R, n), which must give the bits of the broadcast (n,)
bounds.
"""

import math

import numpy as np
import pytest

from adagb2 import _kernels
from adagb2.geometry import BoundBox, TiledBox, project_box, project_box_cap_trust

ROWS = 300


def _random_instance(rng, n, infinite_bounds):
    lower = rng.uniform(-4, 0, n)
    upper = lower + rng.uniform(0, 4, n)
    if infinite_bounds:
        lower[rng.random(n) < 0.3] = -np.inf
        upper[rng.random(n) < 0.3] = np.inf
    x = np.minimum(np.maximum(rng.uniform(-5, 5, n), lower), upper)
    g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
    w_prev = rng.uniform(1e-8, 10, n)
    return x, g, lower, upper, w_prev


def _random_rows(rng, n, infinite_bounds):
    """``ROWS`` instances of one size that share one box, as (R, n) arrays."""
    rows = [_random_instance(rng, n, infinite_bounds) for _ in range(ROWS)]
    lower, upper = rows[0][2], rows[0][3]
    x = np.stack([np.minimum(np.maximum(r[0], lower), upper) for r in rows])
    g = np.stack([r[1] for r in rows])
    w_prev = np.stack([r[4] for r in rows])
    return x, g, lower, upper, w_prev


def _ref_box(y, lo, up):
    return max(min(y, up), lo)


def _ref_cap_trust(y, lo, up, center, radius):
    return max(max(min(min(y, center + radius), up), center - radius), lo)


def _ref_first_order(x, g, lo, up, w_prev):
    y = x - g
    d = _ref_box(y, lo, up) - x
    w = math.sqrt(w_prev * w_prev + d * d)
    delta = abs(d) / w
    return d, w, delta, _ref_cap_trust(y, lo, up, x, delta) - x


def _rows(*arrays):
    """Each array as a list of rows of Python floats (a 1-d array is one row)."""
    return [np.atleast_2d(a).tolist() for a in arrays]


def _check_first_order(x, g, lower, upper, w_prev):
    outs = [np.empty_like(x) for _ in range(4)]
    _kernels.first_order(x, g, lower, upper, w_prev, *outs)
    lo, up = lower.tolist(), upper.tolist()
    for xr, gr, wr, *got in zip(*_rows(x, g, w_prev, *outs)):
        ref = zip(*map(_ref_first_order, xr, gr, lo, up, wr))
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def _check_projections(y, lower, upper, center, radii):
    bounds = BoundBox(lower, upper)
    box = project_box(y, bounds)
    capped = project_box_cap_trust(y, bounds, center, radii)
    lo, up = lower.tolist(), upper.tolist()
    for yr, cr, rr, got_box, got_capped in zip(
            *_rows(y, center, radii, box, capped)):
        assert np.array_equal(got_box, list(map(_ref_box, yr, lo, up)))
        assert np.array_equal(got_capped,
                              list(map(_ref_cap_trust, yr, lo, up, cr, rr)))


@pytest.mark.parametrize("infinite_bounds", [False, True])
def test_first_order_matches_scalar_reference(infinite_bounds):
    rng = np.random.default_rng(2024)
    for _ in range(ROWS):
        n = int(rng.integers(1, 40))
        _check_first_order(*_random_instance(rng, n, infinite_bounds))
    n = int(rng.integers(1, 40))
    _check_first_order(*_random_rows(rng, n, infinite_bounds))


def test_projections_match_scalar_reference():
    rng = np.random.default_rng(99)
    for _ in range(ROWS):
        n = int(rng.integers(1, 40))
        x, _, lower, upper, _ = _random_instance(rng, n, True)
        y = rng.uniform(-8, 8, n)
        radii = rng.uniform(0, 3, n)
        _check_projections(y, lower, upper, x, radii)
    n = int(rng.integers(1, 40))
    x, _, lower, upper, _ = _random_rows(rng, n, True)
    y = rng.uniform(-8, 8, x.shape)
    radii = rng.uniform(0, 3, x.shape)
    _check_projections(y, lower, upper, x, radii)


def test_first_order_values():
    # One fully hand-checked instance.
    x = np.array([0.5])
    g = np.array([2.0])
    lower = np.array([0.0])
    upper = np.array([1.0])
    w_prev = np.array([1.0])
    d = np.empty(1)
    w = np.empty(1)
    delta = np.empty(1)
    s_l = np.empty(1)
    _kernels.first_order(x, g, lower, upper, w_prev, d, w, delta, s_l)
    assert d[0] == -0.5                      # P(0.5 - 2) - 0.5
    assert w[0] == np.sqrt(1.25)             # sqrt(1 + 0.25)
    assert delta[0] == 0.5 / np.sqrt(1.25)
    # s_L projects x - g onto [max(l, x-delta), min(u, x+delta)]
    assert s_l[0] == max(0.0, 0.5 - delta[0]) - 0.5


def _kernel_outputs(x, g, w_prev, y, radii, bounds):
    """The kernel's and both projections' outputs and the sign_adagrad
    clip, as bytes."""
    lower, upper = bounds.lower, bounds.upper
    outs = [np.empty_like(x) for _ in range(4)]
    _kernels.first_order(x, g, lower, upper, w_prev, *outs)
    box = project_box(y, bounds)
    capped = project_box_cap_trust(y, bounds, x, radii)
    s = -np.sign(g) * outs[2]
    np.clip(s, lower - x, upper - x, out=s)
    return [a.tobytes() for a in (*outs, box, capped, s)]


@pytest.mark.parametrize("bounds", ("finite", "unbounded", "fixed"))
def test_tiled_bounds_match_broadcast_bounds(bounds):
    rng = np.random.default_rng(11)
    reps, n = 20, 7
    if bounds == "unbounded":
        box = BoundBox.unbounded(n)
    else:
        lower = rng.uniform(-4, 0, n)
        upper = lower + rng.uniform(0, 4, n)
        if bounds == "fixed":  # fixed variables beside infinite bounds
            upper[:3] = lower[:3]
            lower[5], upper[6] = -np.inf, np.inf
        box = BoundBox(lower, upper)
    rows = box.tile(reps)
    assert rows.lower.shape == rows.upper.shape == (reps, n)
    x = np.clip(rng.uniform(-5, 5, (reps, n)), box.lower, box.upper)
    g = rng.standard_normal((reps, n)) * 10.0 ** rng.integers(-8, 8, (reps, 1))
    g[0, 0] = 0.0  # sign 0: no sign step on that coordinate
    args = (x, g, rng.uniform(1e-8, 10, (reps, n)),
            rng.uniform(-8, 8, (reps, n)), rng.uniform(0, 3, (reps, n)))
    assert _kernel_outputs(*args, rows) == _kernel_outputs(*args, box)


def _four_clamp_first_order(x, g, lower, upper, w_prev):
    """``first_order`` with s_L as P_{F cap B}(x - g) - x, the four clamps of
    ``project_box_cap_trust``: the form the kernel is checked against.  The
    bounds differ from row to row, so they form a ``TiledBox``."""
    box = TiledBox(lower, upper)
    d, w, delta = (np.empty_like(x) for _ in range(3))
    y = x - g
    project_box(y, box, out=d)
    np.subtract(d, x, out=d)
    np.sqrt(w_prev * w_prev + d * d, out=w)
    np.divide(np.abs(d), w, out=delta)
    s_l = project_box_cap_trust(y, box, x, delta)
    np.subtract(s_l, x, out=s_l)
    return d, w, delta, s_l


def test_first_order_matches_four_clamps_bit_for_bit():
    # s_L clamps P_F(x - g) into [x - delta, x + delta]; for every x that
    # is its own projection onto F that is the four clamps' bits, signed
    # zeros included.  Rows mix infinite bounds, fixed coordinates, zero
    # bounds of either sign, x on a bound and g = 0.
    rng = np.random.default_rng(31)
    shape = (2000, 5)

    def where(p):
        return rng.random(shape) < p

    def zeros(mask):  # a zero of random sign at each masked entry
        return np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)

    lower = rng.uniform(-4, 0, shape)
    upper = lower + rng.uniform(0, 4, shape)
    for bound in (lower, upper):
        at_zero = where(0.1)
        bound[at_zero] = zeros(at_zero)
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    fixed = where(0.1)
    upper[fixed] = lower[fixed]
    lower[where(0.2) & ~fixed] = -np.inf
    upper[where(0.2) & ~fixed] = np.inf
    x = rng.uniform(-5, 5, shape)
    at_zero = where(0.1)
    x[at_zero] = zeros(at_zero)
    x = np.where(where(0.2) & np.isfinite(lower), lower, x)
    x = np.where(where(0.2) & np.isfinite(upper), upper, x)
    x = np.maximum(np.minimum(x, upper), lower)  # x = P_F(x) bit for bit
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    at_zero = where(0.15)
    g[at_zero] = zeros(at_zero)
    g[rng.random(shape[0]) < 0.05] = 0.0  # whole rows at a fixed point
    w_prev = rng.uniform(1e-8, 10, shape)
    assert fixed.any() and (x == lower).any() and (x == upper).any()
    outs = [np.empty(shape) for _ in range(4)]
    _kernels.first_order(x, g, lower, upper, w_prev, *outs)
    want = _four_clamp_first_order(x, g, lower, upper, w_prev)
    for name, got, ref in zip(("d", "w", "delta", "s_l"), outs, want):
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), name
