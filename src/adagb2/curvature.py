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
from .problem import Objective

CURVATURE_KINDS = ("zero", "exact_clipped", "scalar_bb", "diagonal_fd")


@dataclass(frozen=True)
class CurvatureSpec:
    kind: str
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
        v = np.asarray(v, dtype=np.float64)
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
    own scalar.
    """

    def __init__(self, kappa_b: float):
        super().__init__(kappa_b)
        self.sigma = 0.0

    def matvec(self, x, v):
        # sigma is 0.0 before the first observed pair, then one per row.
        return np.asarray(self.sigma)[..., None] * np.asarray(v, dtype=np.float64)

    def observe(self, x_prev, x_new, g_prev, g_new):
        s = np.asarray(x_new, dtype=np.float64) - np.asarray(x_prev, dtype=np.float64)
        y = np.asarray(g_new) - np.asarray(g_prev)
        # Per row, clipped with Python's min/max tie and NaN rules; a zero
        # step keeps the row's previous scalar.
        ss = np.vecdot(s, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.vecdot(s, y) / ss
        raw = np.where(0.0 > raw, 0.0, raw)
        raw = np.where(self.kappa_b < raw, self.kappa_b, raw)
        self.sigma = np.where(ss == 0.0, self.sigma, raw)


class ExactClipped(CurvatureProvider):
    """True Hessian action scaled by kappa_b / max(kappa_b, hess_bound(x)).

    ``hess_bound`` is a certified upper bound on ||H(x)||, so the scaled
    operator has norm at most kappa_b.  The provider keeps no state.
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

    def matvec(self, x, v):
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        kb = self.kappa_b
        scale = kb / np.maximum(kb, self._hess_bound(x))  # one per row
        return scale[..., None] * self._hess_vec(x, v)


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
