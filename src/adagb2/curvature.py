"""Bounded symmetric Hessian approximations.

Every provider realizes an operator B_k with ||B_k|| <= kappa_b (up to
power-iteration estimation slack for the clipped exact Hessian).  The
solver only needs the quadratic form and the operator action; providers
with memory (Barzilai-Borwein) are updated through ``observe`` and must
not be shared across replications.

``zero``, ``scalar_bb`` and ``diagonal_fd`` also take a batch: points and
vectors as (R, n) arrays, one replication per row, with one quadratic form
per row (Barzilai-Borwein keeps one scalar per row).  ``exact_clipped``
warm-starts its power iteration from the previous point, so a batch holds
one per row in a ``PerRow``.
"""

import math
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
        if self.kappa_b < 1.0:
            raise ValueError(f"kappa_b must be >= 1, got {self.kappa_b}")


class CurvatureProvider:
    """Base provider: the zero operator."""

    def __init__(self, kappa_b: float):
        self.kappa_b = float(kappa_b)

    def matvec(self, x, v) -> np.ndarray:
        return np.zeros_like(np.asarray(v, dtype=np.float64))

    def quad_form(self, x, v):
        """v^T B v: a float, or an (R,) array for a batch."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            return float(v @ self.matvec(x, v))
        return np.vecdot(v, self.matvec(x, v))

    def observe(self, x_prev, x_new, g_prev, g_new) -> None:
        """Feed the step and gradient pair of a completed iteration."""


class ZeroCurvature(CurvatureProvider):
    def quad_form(self, x, v):
        return 0.0 if np.ndim(v) == 1 else np.zeros(len(v))


class ScalarBB(CurvatureProvider):
    """Barzilai-Borwein scalar s^T y / s^T s clipped into [0, kappa_b].

    Negative curvature maps to the zero operator for that step; before the
    first observed pair the operator is zero as well.  A batch keeps one
    scalar per row.
    """

    def __init__(self, kappa_b: float):
        super().__init__(kappa_b)
        self.sigma = 0.0

    def matvec(self, x, v):
        sigma = self.sigma
        if isinstance(sigma, np.ndarray):  # one per row (np.ndim is slow on floats)
            sigma = sigma[:, None]
        return sigma * np.asarray(v, dtype=np.float64)

    def observe(self, x_prev, x_new, g_prev, g_new):
        s = np.asarray(x_new, dtype=np.float64) - np.asarray(x_prev, dtype=np.float64)
        y = np.asarray(g_new) - np.asarray(g_prev)
        if s.ndim == 1:
            ss = float(s @ s)
            if ss == 0.0:
                return
            raw = float(s @ y) / ss
            self.sigma = min(max(raw, 0.0), self.kappa_b)
            return
        # The same per row: np.where with Python's min/max tie and NaN
        # rules, and a zero step keeps the row's previous scalar.
        ss = np.vecdot(s, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.vecdot(s, y) / ss
        raw = np.where(0.0 > raw, 0.0, raw)
        raw = np.where(self.kappa_b < raw, self.kappa_b, raw)
        self.sigma = np.where(ss == 0.0, self.sigma, raw)


class ExactClipped(CurvatureProvider):
    """True Hessian action scaled so its norm estimate stays below kappa_b."""

    _POWER_STEPS = 20
    _POWER_STEPS_WARM = 8

    def __init__(self, kappa_b: float, obj: Objective):
        super().__init__(kappa_b)
        if obj.hess_vec is None:
            raise ConfigurationError(
                "exact_clipped curvature requires an objective with a Hessian action"
            )
        self._hess_vec = obj.hess_vec
        self._power_v = None

    def _norm_estimate(self, x, n) -> float:
        # Warm-start from the previous iterate's dominant direction: the
        # iterates move slowly, so a few refinement steps suffice.
        if self._power_v is not None and self._power_v.shape[0] == n:
            v = self._power_v
            steps = self._POWER_STEPS_WARM
        else:
            rng = np.random.default_rng(0x9E37)
            v = rng.standard_normal(n)
            v /= math.sqrt(float(v @ v))
            steps = self._POWER_STEPS
        est = 0.0
        for _ in range(steps):
            hv = self._hess_vec(x, v)
            # np.linalg.norm computes sqrt(hv @ hv) too, behind a slower
            # wrapper.
            est = math.sqrt(float(hv @ hv))
            if est == 0.0:
                self._power_v = None
                return 0.0
            v = hv / est
        self._power_v = v
        return est

    def _scale(self, x, n) -> float:
        return self.kappa_b / max(self.kappa_b, self._norm_estimate(x, n))

    def matvec(self, x, v):
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        return self._scale(x, x.shape[0]) * self._hess_vec(x, v)


class DiagonalFD(CurvatureProvider):
    """Diagonal finite-difference Hessian, entrywise clipped to [-kb, kb]."""

    def __init__(self, kappa_b: float, obj: Objective):
        super().__init__(kappa_b)
        self._grad = obj.grad

    def _diag(self, x):
        # For a batch, each coordinate's two perturbed gradients are taken
        # for all rows in one call each.
        x = np.asarray(x, dtype=np.float64)
        d = np.empty_like(x)
        for i in range(x.shape[-1]):
            h = 1e-6 * (1.0 + np.abs(x[..., i]))
            e = np.zeros_like(x)
            e[..., i] = h
            d[..., i] = (self._grad(x + e)[..., i]
                         - self._grad(x - e)[..., i]) / (2.0 * h)
        return np.clip(d, -self.kappa_b, self.kappa_b)

    def matvec(self, x, v):
        return self._diag(x) * np.asarray(v, dtype=np.float64)


class PerRow:
    """One provider per row of a batch, each called on its own row."""

    def __init__(self, providers):
        self.providers = providers
        self.kappa_b = providers[0].kappa_b

    def quad_form(self, x, v):
        return np.array([p.quad_form(xr, vr)
                         for p, xr, vr in zip(self.providers, x, v)])

    def observe(self, x_prev, x_new, g_prev, g_new):
        for p, *rows in zip(self.providers, x_prev, x_new, g_prev, g_new):
            p.observe(*rows)


def make_provider(spec: CurvatureSpec, obj: Objective) -> CurvatureProvider:
    if spec.kind == "zero":
        return ZeroCurvature(spec.kappa_b)
    if spec.kind == "scalar_bb":
        return ScalarBB(spec.kappa_b)
    if spec.kind == "exact_clipped":
        return ExactClipped(spec.kappa_b, obj)
    return DiagonalFD(spec.kappa_b, obj)
