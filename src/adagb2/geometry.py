"""Bound boxes and the component-wise projections used by the solver.

The feasible set is a hyper-rectangle ``{x : l <= x <= u}`` where entries
of ``l`` / ``u`` may be ``-inf`` / ``+inf``.  Both projections are exact
component-wise clamps, NaN-free for infinite bounds, idempotent and
nonexpansive.
"""

from dataclasses import dataclass

import numpy as np


def _as_vector(v, name):
    a = np.ascontiguousarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class BoundBox:
    """Lower/upper bound vectors defining the feasible hyper-rectangle.

    Equal lower and upper entries (fixed variables) are legal; the box only
    has to be nonempty.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _as_vector(self.lower, "lower")
        upper = _as_vector(self.upper, "upper")
        if lower.shape != upper.shape:
            raise ValueError(
                f"bound dimension mismatch: {lower.shape} vs {upper.shape}"
            )
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds must not contain NaN")
        if not (lower <= upper).all():
            bad = int(np.argmax(lower > upper))
            raise ValueError(
                f"empty box: lower[{bad}]={lower[bad]} > upper[{bad}]={upper[bad]}"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def unbounded(cls, n: int) -> "BoundBox":
        return cls(np.full(n, -np.inf), np.full(n, np.inf))

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool((x >= self.lower - tol).all() and (x <= self.upper + tol).all())

    def tile(self, reps: int) -> "TiledBox":
        """The same box for each row of a (reps, n) stack."""
        return TiledBox(np.tile(self.lower, (reps, 1)),
                        np.tile(self.upper, (reps, 1)))


@dataclass(frozen=True)
class TiledBox:
    """A ``BoundBox`` whose bounds are repeated as (R, n) arrays.

    Projecting an (R, n) stack onto it gives the bits of the (n,) box,
    because every operation is elementwise, and costs less: numpy runs
    same-shape operands faster than (n,) bounds broadcast over the rows.
    """

    lower: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.shape[-1]


def project_box(y, box: BoundBox, out=None) -> np.ndarray:
    """Project ``y`` onto the box: z_i = max(l_i, min(y_i, u_i)).

    ``y`` is one point (n,) or any stack (..., n) of points; ``box`` may be
    a ``TiledBox`` of y's shape.  The result goes into ``out``, an array of
    y's shape, if it is given.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape[-1] != box.upper.shape[-1]:
        raise ValueError(f"dimension mismatch: y has {y.shape[-1]}, box has {box.n}")
    if out is None:
        out = np.empty_like(y)
    np.minimum(y, box.upper, out=out)
    return np.maximum(out, box.lower, out=out)


def project_box_cap_trust(y, box: BoundBox, center, radii) -> np.ndarray:
    """Project ``y`` onto the intersection of the box with a trust box.

    The trust box is ``{x : |x_i - center_i| <= radii_i}``; the result is
    z_i = max(l_i, center_i - radii_i, min(y_i, center_i + radii_i, u_i)).
    Each argument is one vector (n,) or a stack (..., n) that broadcasts
    against ``y``.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    center = np.ascontiguousarray(center, dtype=np.float64)
    radii = np.ascontiguousarray(radii, dtype=np.float64)
    if not (y.shape[-1] == box.n == center.shape[-1] == radii.shape[-1]):
        raise ValueError(
            "dimension mismatch: "
            f"y={y.shape[-1]}, box={box.n}, center={center.shape[-1]}, "
            f"radii={radii.shape[-1]}"
        )
    if (radii < 0).any():
        bad = np.unravel_index(np.argmax(radii < 0), radii.shape)
        where = ", ".join(str(int(i)) for i in bad)
        raise ValueError(f"negative trust radius: radii[{where}]={radii[bad]}")
    out = np.empty_like(y)
    np.minimum(y, center + radii, out=out)
    np.minimum(out, box.upper, out=out)
    np.maximum(out, center - radii, out=out)
    return np.maximum(out, box.lower, out=out)
