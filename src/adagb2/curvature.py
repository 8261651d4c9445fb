"""Bounded symmetric Hessian approximations.

Every provider realizes an operator B_k with ||B_k|| <= kappa_b: the zero
operator, a Barzilai-Borwein scalar clipped into [0, kappa_b], a diagonal
clipped entrywise, or the exact Hessian scaled down by the objective's
certified bound on its norm.  The solver only needs the quadratic form and
the operator action; providers with memory (Barzilai-Borwein) are updated
through ``observe`` and must not be shared across replications.

Every provider takes points and vectors as (R, n) arrays, one
replication per row, with one quadratic form per row (Barzilai-Borwein
keeps one scalar per row), each bit-identical to a one-row call on its row.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .problem import ConstantBound, Objective

CURVATURE_KINDS = ("zero", "exact_clipped", "scalar_bb", "diagonal_fd")


@dataclass(frozen=True)
class CurvatureSpec:
    kind: str = "zero"
    kappa_b: float = 1.0

    def __post_init__(self):
        if self.kind not in CURVATURE_KINDS:
            raise ValueError(
                f"unknown curvature kind {self.kind!r}; choose from {CURVATURE_KINDS}"
            )
        if not self.kappa_b >= 1.0:  # NaN fails too
            raise ValueError(f"kappa_b must be >= 1, got {self.kappa_b}")


class CurvatureProvider:
    """Base provider: the zero operator."""

    def __init__(self, kappa_b: float):
        self.kappa_b = float(kappa_b)

    def matvec(self, x, v) -> np.ndarray:
        return np.zeros_like(np.asarray(v, dtype=np.float64))

    def quad_form(self, x, v) -> np.ndarray:
        """v^T B v of each row of v (R, n)."""
        return np.vecdot(v, self.matvec(x, v))

    def observe(self, x_prev, x_new, g_prev, g_new) -> None:
        """Feed the step and gradient pair of a completed iteration."""


class ZeroCurvature(CurvatureProvider):
    def quad_form(self, x, v):
        return np.zeros(len(v))


class ScalarBB(CurvatureProvider):
    """Barzilai-Borwein scalar s^T y / s^T s clipped into [0, kappa_b].

    Negative curvature maps to the zero operator for that step; before the
    first observed pair the operator is zero as well.  Each row keeps its
    own scalar, updated in place.
    """

    def __init__(self, kappa_b: float):
        super().__init__(kappa_b)
        self.sigma = np.zeros(())  # one per row from the first pair on

    def matvec(self, x, v):
        return np.multiply(self.sigma[..., None], v)

    def quad_form(self, x, v):
        return np.vecdot(v, np.multiply(self.sigma[..., None], v))

    def observe(self, x_prev, x_new, g_prev, g_new):
        if self.sigma.ndim == 0:  # the first pair: one scalar per row
            rows = np.shape(x_new)[:-1]
            self.sigma = np.full(rows, self.sigma)
            # (s, y) and its finiteness, the last ratios, a mask, 0, kappa_b
            pair = np.empty((2, *np.shape(x_new)))
            self._work = (pair, np.empty(pair.shape, bool), b"\1" * pair.size,
                          np.zeros(rows), np.empty(rows, bool), np.zeros(rows),
                          np.full(rows, self.kappa_b))
        pair, finite, all_finite, ratio, mask, zero, kappa_b = self._work
        np.subtract(x_new, x_prev, pair[0])
        np.subtract(g_new, g_prev, pair[1])
        # Only a pair with an inf or NaN (a diverged row) needs np.errstate,
        # which costs more than this test (two infinite estimates still warn
        # in their difference; the engine's earlier estimate is finite).
        if np.isfinite(pair, finite).tobytes() == all_finite:
            _ratio(pair, ratio, mask, zero)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                _ratio(pair, ratio, mask, zero)
        # sigma clips each row's last ratio (a zero step keeps it) as Python's
        # min/max do, NaN and -0.0 included; writing in place is slower at R=1.
        np.minimum(ratio, kappa_b, out=self.sigma)
        np.copyto(self.sigma, zero, where=np.less(self.sigma, zero, mask))


def _ratio(pair, ratio, moved, zero):
    """s.y / s.s of the pair (s, y) into ``ratio`` where s.s != 0."""
    dots = np.vecdot(pair[0], pair)  # s.s and s.y, each as alone
    ss = dots[0]
    np.divide(dots[1], ss, out=ratio, where=np.not_equal(ss, zero, moved))


class ExactClipped(CurvatureProvider):
    """True Hessian action scaled by kappa_b / max(kappa_b, hess_bound(x)).

    ``hess_bound`` is a certified upper bound on ||H(x)||, so the scaled
    operator has norm at most kappa_b.  A bound that holds on the whole box
    (``ConstantBound``) gives one scale for the run, with the bits of the
    per-row scale.  The provider keeps no state.
    """

    def __init__(self, kappa_b: float, obj: Objective):
        super().__init__(kappa_b)
        if obj.hess_vec is None or obj.hess_bound is None:
            raise ConfigurationError(
                "exact_clipped curvature requires an objective with a Hessian "
                "action and a Hessian norm bound (hess_vec and hess_bound)"
            )
        self._hess_vec = obj.hess_vec
        self._hess_bound = obj.hess_bound
        kb = self._kb = np.array(self.kappa_b)  # a 0-d array: faster in ufuncs
        self._scale = None
        if isinstance(obj.hess_bound, ConstantBound):
            self._scale = float(kb / np.maximum(kb, obj.hess_bound.bound))

    def matvec(self, x, v):
        hv = self._hess_vec(x, v)
        scale = self._scale
        if scale is None:
            kb = self._kb
            scale = (kb / np.maximum(kb, self._hess_bound(x)))[..., None]
        elif scale == 1.0:  # 1.0 * hv is hv, bit for bit
            return hv
        return scale * hv


class DiagonalFD(CurvatureProvider):
    """Diagonal finite-difference Hessian, entrywise clipped to [-kb, kb]."""

    def __init__(self, kappa_b: float, obj: Objective):
        super().__init__(kappa_b)
        self._grad = obj.grad

    def _diag(self, x):
        # Layer i of the (n, ..., n) stack e moves coordinate i of x (of
        # every row of a batch) by h_i, so two gradient calls give all 2n
        # perturbed gradients; layer i contributes its coordinate i.
        x = np.asarray(x, dtype=np.float64)
        h = 1e-6 * (1.0 + np.abs(x))
        idx = np.arange(x.shape[-1])
        e = np.zeros(idx.shape + x.shape)
        e[idx, ..., idx] = np.moveaxis(h, -1, 0)
        diff = self._grad(x + e)[idx, ..., idx] - self._grad(x - e)[idx, ..., idx]
        d = np.moveaxis(diff, 0, -1) / (2.0 * h)
        return np.clip(d, -self.kappa_b, self.kappa_b)

    def matvec(self, x, v):
        return self._diag(x) * np.asarray(v, dtype=np.float64)


def make_provider(spec: CurvatureSpec, obj: Objective) -> CurvatureProvider:
    if spec.kind == "zero":
        return ZeroCurvature(spec.kappa_b)
    if spec.kind == "scalar_bb":
        return ScalarBB(spec.kappa_b)
    if spec.kind == "exact_clipped":
        return ExactClipped(spec.kappa_b, obj)
    return DiagonalFD(spec.kappa_b, obj)
