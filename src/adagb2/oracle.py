"""Stochastic gradient oracles with deterministic, counter-based seeding.

Each draw is generated from a Philox stream keyed by (experiment seed,
replication index) with the iteration index placed in the high bits of the
counter, so identical (seed, replication, iteration) triples give
bit-identical draws regardless of execution order.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .problem import Objective


@dataclass(frozen=True)
class Exact:
    kind = "exact"


@dataclass(frozen=True)
class Gaussian:
    """g = G + sigma * z with z a standard normal vector."""

    sigma: float
    kind = "gaussian"

    def __post_init__(self):
        if not self.sigma >= 0:  # NaN fails too
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class BoundedUniform:
    """g = G + u with u uniform in the ball of the given radius."""

    radius: float
    kind = "bounded_uniform"

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class AffineGaussian:
    """Gaussian noise with total variance kappa1 + kappa2 * ||G||^2."""

    kappa1: float
    kappa2: float
    kind = "affine_gaussian"

    def __post_init__(self):
        if not (self.kappa1 >= 0 and self.kappa2 >= 0):
            raise ValueError("kappa1 and kappa2 must be >= 0")


@dataclass(frozen=True)
class ConstantBias:
    """Inner draw shifted by a fixed bias vector (a biased oracle)."""

    bias: np.ndarray
    inner: "NoiseModel"
    kind = "constant_bias"

    def __post_init__(self):
        object.__setattr__(
            self, "bias", np.ascontiguousarray(self.bias, dtype=np.float64)
        )
        if np.isnan(self.bias).any():
            raise ValueError(f"bias must not be NaN, got {self.bias}")


@dataclass(frozen=True)
class RelativeBias:
    """Inner draw shifted by rho * G: bias proportional to the true gradient."""

    rho: float
    inner: "NoiseModel"
    kind = "relative_bias"

    def __post_init__(self):
        if math.isnan(self.rho):
            raise ValueError("rho must not be NaN")


@dataclass(frozen=True)
class Subsample:
    """Mean gradient over a uniformly sampled batch of a finite sum."""

    batch_size: int
    kind = "subsample"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


NoiseModel = (
    Exact | Gaussian | BoundedUniform | AffineGaussian | ConstantBias
    | RelativeBias | Subsample
)


@dataclass(frozen=True)
class OracleDraw:
    """Gradient estimates at R points, one per row, and the true gradients."""

    g: np.ndarray  # (R, n)
    g_true: Optional[np.ndarray]  # (R, n), or None without with_true


class OracleStream:
    """Per-replication RNG factory with counter-based iteration streams."""

    def __init__(self, base_seed: int, replication: int):
        self.base_seed = int(base_seed)
        self.replication = int(replication)
        self._key = np.random.SeedSequence(
            (self.base_seed, self.replication)
        ).generate_state(2, np.uint64)
        self._shared_bg = np.random.Philox(counter=0, key=self._key)
        self._shared_gen = np.random.Generator(self._shared_bg)
        self._state = self._shared_bg.state

    def rng(self, iteration: int) -> np.random.Generator:
        # Iteration index in the high 128 bits: streams of different
        # iterations can never overlap.
        return np.random.Generator(
            np.random.Philox(counter=int(iteration) << 128, key=self._key)
        )

    def rng_shared(self, iteration: int) -> np.random.Generator:
        """Bit-identical to ``rng(iteration)`` but reuses one generator.

        Much cheaper in tight loops; the returned generator is invalidated
        by the next ``rng_shared`` call on the same stream.
        """
        counter = self._state["state"]["counter"]
        counter[0] = 0
        counter[1] = 0
        counter[2] = iteration & 0xFFFFFFFFFFFFFFFF
        counter[3] = iteration >> 64
        self._state["buffer_pos"] = 4
        self._shared_bg.state = self._state
        return self._shared_gen


def _needs_true_gradient(model) -> bool:
    if isinstance(model, (ConstantBias, RelativeBias)):
        return isinstance(model, RelativeBias) or _needs_true_gradient(model.inner)
    return not isinstance(model, Subsample)


def _normals(rngs, n):
    """One standard normal n-vector from each generator, stacked as rows."""
    z = np.empty((len(rngs), n))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return z


def _sample(obj, x, model, rngs, g_true):
    """Gradient estimates at the rows of ``x`` (R, n); row r draws from rngs[r].

    Each row makes the draws of a lone n-vector, in the same order, so a
    row's estimate does not depend on the other rows.
    """
    if isinstance(model, Exact):
        return g_true.copy()
    if isinstance(model, Gaussian):
        return g_true + model.sigma * _normals(rngs, x.shape[1])
    if isinstance(model, BoundedUniform):
        n = x.shape[1]
        z = np.empty_like(x)
        u = np.empty(len(rngs))
        for r, rng in enumerate(rngs):
            rng.standard_normal(out=z[r])
            u[r] = rng.random() ** (1.0 / n)
        nz = np.sqrt(np.vecdot(z, z))[:, None]  # np.linalg.norm of each row
        with np.errstate(divide="ignore", invalid="ignore"):
            g = g_true + (model.radius * u)[:, None] * z / nz
        return np.where(nz == 0.0, g_true, g)
    if isinstance(model, AffineGaussian):
        n = x.shape[1]
        total = model.kappa1 + model.kappa2 * np.vecdot(g_true, g_true)
        return g_true + np.sqrt(total / n)[:, None] * _normals(rngs, n)
    if isinstance(model, ConstantBias):
        if model.bias.shape != x.shape[1:]:
            raise ValueError(
                f"bias dimension {model.bias.shape} does not match x {x.shape[1:]}"
            )
        return _sample(obj, x, model.inner, rngs, g_true) + model.bias
    if isinstance(model, RelativeBias):
        return _sample(obj, x, model.inner, rngs, g_true) + model.rho * g_true
    if isinstance(model, Subsample):
        return np.stack([
            obj.term_grad(row, rng.choice(obj.num_terms, size=model.batch_size,
                                          replace=False))
            for row, rng in zip(x, rngs)
        ])
    raise TypeError(f"unknown noise model {model!r}")


def validate_model(model, obj: Objective) -> None:
    """Raise ConfigurationError if the model cannot be used with the objective."""
    if isinstance(model, Subsample):
        if obj.num_terms is None or obj.term_grad is None:
            raise ConfigurationError(
                "subsample oracle requires a finite-sum objective"
            )
        if model.batch_size > obj.num_terms:
            raise ConfigurationError(
                f"batch_size {model.batch_size} exceeds {obj.num_terms} terms"
            )
    if isinstance(model, (ConstantBias, RelativeBias)):
        validate_model(model.inner, obj)


def draw(obj: Objective, x, model, rngs, with_true: bool = True,
         validate: bool = True) -> OracleDraw:
    """One gradient estimate g(x, xi) per row of ``x`` (R, n).

    Row r draws from ``rngs[r]``, as a lone point would, so a row's
    estimate does not depend on the other rows; a single point is passed
    as one row.  The objective's ``grad`` is called once on all rows.
    ``with_true=False`` skips the true-gradient diagnostic when the model
    itself does not need G (only possible for pure subsampling).
    ``validate=False`` skips ``validate_model``, for callers that checked
    the model once before a loop of draws.
    """
    x = np.asarray(x, dtype=np.float64)
    if validate:
        validate_model(model, obj)
    need_true = with_true or _needs_true_gradient(model)
    g_true = obj.grad(x) if need_true else None
    g = _sample(obj, x, model, rngs, g_true)
    return OracleDraw(g, g_true if with_true else None)


def empirical_rmse(obj: Objective, x, model, draws: int, seed: int) -> float:
    """sqrt(mean ||g - G||^2) over independent draws at a fixed point."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    validate_model(model, obj)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x535E)))
    g_true = obj.grad(x)
    # One call for all draws: the one generator, repeated per row, makes
    # the draws a loop of single draws would make, in the same order.
    # np.tile, not a broadcast view: the samplers write into arrays made
    # like x, which must be contiguous.
    g = _sample(obj, np.tile(x, (draws, 1)), model, [rng] * draws,
                np.tile(g_true, (draws, 1)))
    errs = g - g_true
    return float(np.sqrt(np.mean(np.sum(errs * errs, axis=1))))
