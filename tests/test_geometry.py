import re

import numpy as np
import pytest

from adagb2.geometry import BoundBox, project_box, project_box_cap_trust


def test_box_basic():
    box = BoundBox(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert box.n == 2
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([0.0, 2.5]))


def test_box_unbounded():
    box = BoundBox.unbounded(3)
    assert box.n == 3
    assert box.contains(np.array([1e300, -1e300, 0.0]))


def test_box_degenerate_interval_is_legal():
    box = BoundBox(np.array([2.0]), np.array([2.0]))
    assert np.array_equal(project_box(np.array([7.0]), box), [2.0])


def test_box_validation():
    with pytest.raises(ValueError):
        BoundBox(np.array([1.0]), np.array([0.0]))  # crossed
    with pytest.raises(ValueError):
        BoundBox(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        BoundBox(np.zeros((2, 2)), np.ones((2, 2)))  # not 1-d
    with pytest.raises(ValueError):
        BoundBox(np.zeros(2), np.ones(3))  # mismatched


def test_project_box_hand_values():
    box = BoundBox(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0]))
    y = np.array([-3.0, 0.5, 7.0])
    assert np.array_equal(project_box(y, box), [0.0, 0.5, 5.0])


def test_project_box_idempotent_and_nonexpansive():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        lower = rng.uniform(-5, 0, n)
        upper = lower + rng.uniform(0, 4, n)
        box = BoundBox(lower, upper)
        y1 = rng.uniform(-8, 8, n)
        y2 = rng.uniform(-8, 8, n)
        p1, p2 = project_box(y1, box), project_box(y2, box)
        assert box.contains(p1)
        assert np.array_equal(project_box(p1, box), p1)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-14


def test_cap_trust_equals_componentwise_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        lower = rng.uniform(-3, 0, n)
        upper = lower + rng.uniform(0.1, 3, n)
        box = BoundBox(lower, upper)
        x = project_box(rng.uniform(-3, 3, n), box)
        radii = rng.uniform(0, 2, n)
        y = rng.uniform(-6, 6, n)
        got = project_box_cap_trust(y, box, x, radii)
        want = np.maximum(lower, np.maximum(x - radii,
                          np.minimum(y, np.minimum(x + radii, upper))))
        assert np.array_equal(got, want)
        # membership in the intersection
        assert (got >= np.maximum(lower, x - radii) - 0.0).all()
        assert (got <= np.minimum(upper, x + radii) + 0.0).all()


def test_cap_trust_zero_radius_returns_center():
    box = BoundBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    x = np.array([0.3, 0.9])
    got = project_box_cap_trust(np.array([-5.0, 5.0]), box, x, np.zeros(2))
    assert np.array_equal(got, x)


def test_cap_trust_errors():
    box = BoundBox(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        project_box_cap_trust(np.zeros(2), box, np.zeros(2), -np.ones(2))
    with pytest.raises(ValueError):
        project_box_cap_trust(np.zeros(3), box, np.zeros(2), np.ones(2))


def test_projections_of_a_stack_match_row_by_row_calls():
    # A stack (m, R, n) gives, bit for bit, what a call on each row gives.
    rng = np.random.default_rng(5)
    box = BoundBox(np.array([-1.0, -np.inf, 0.0, -2.0]),
                   np.array([1.0, 0.5, np.inf, -2.0]))
    y = rng.uniform(-3, 3, (3, 5, 4))
    center = rng.uniform(-2, 2, (3, 5, 4))
    radii = rng.uniform(0, 2, (3, 5, 4))
    rows = np.ndindex(3, 5)
    want = np.array([project_box(y[i], box) for i in rows]).reshape(y.shape)
    got = project_box(y, box)
    assert got.shape == y.shape and got.tobytes() == want.tobytes()
    want = np.array([project_box_cap_trust(y[i], box, center[i], radii[i])
                     for i in np.ndindex(3, 5)]).reshape(y.shape)
    got = project_box_cap_trust(y, box, center, radii)
    assert got.shape == y.shape and got.tobytes() == want.tobytes()
    # (n,) trust boxes broadcast over the stack.
    got = project_box_cap_trust(y, box, center[0, 0], radii[0, 0])
    want = [project_box_cap_trust(y[i], box, center[0, 0], radii[0, 0])
            for i in np.ndindex(3, 5)]
    assert got.tobytes() == np.array(want).tobytes()


def test_project_box_onto_a_tiled_box_into_out():
    box = BoundBox(np.array([-1.0, -np.inf, 0.0, 2.0]),
                   np.array([1.0, 3.0, np.inf, 2.0]))
    y = np.random.default_rng(3).uniform(-4, 4, (5, 4))
    out = np.empty_like(y)
    assert project_box(y, box.tile(5), out=out) is out
    assert out.tobytes() == project_box(y, box).tobytes()


def test_projection_shape_errors():
    box = BoundBox(np.zeros(2), np.ones(2))
    for y in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 4, 3))):
        with pytest.raises(ValueError,
                           match="^dimension mismatch: y has 3, box has 2$"):
            project_box(y, box)
        with pytest.raises(ValueError, match=re.escape(
                "dimension mismatch: y=3, box=2, center=2, radii=2")):
            project_box_cap_trust(y, box, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError,
                       match="^dimension mismatch: y has 1, box has 2$"):
        project_box(1.0, box)  # a scalar is one coordinate
    with pytest.raises(ValueError, match=re.escape(
            "negative trust radius: radii[1]=-1.0")):
        project_box_cap_trust(np.zeros(2), box, np.zeros(2),
                              np.array([0.0, -1.0]))
