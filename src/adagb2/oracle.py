"""Stochastic gradient oracles with deterministic, counter-based seeding.

Each draw is generated from a Philox stream keyed by (experiment seed,
replication index) with the iteration index placed in the high bits of the
counter, so identical (seed, replication, iteration) triples give
bit-identical draws regardless of execution order.
"""

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from ._philox import PhiloxBlocks, fast_normals, numpy_agrees
from .errors import ConfigurationError
from .problem import Objective, Tiles


class NoiseModel:
    """A gradient oracle; ``kind`` names it in configs, its fields are keys.

    ``sample`` writes the estimates at the rows of ``x`` (R, n) into the
    rows of ``out`` (R, n), row r drawing from the r-th generator of
    ``rngs`` as a lone n-vector would, in the same order, so a row's
    estimate does not depend on the other rows.  ``rngs`` is an iterable of
    one generator per row, taken once each, in row order, just before that
    row's sample; the row count comes from ``x``.  It may be lazy (the
    engine resets each row's stream as it is taken), so a model that draws
    no random numbers does not iterate it: that would cost a reset per row.
    A model that draws only standard normals takes them through
    ``_normals``, which reads them from the engine's ``StreamRows`` block
    where it can; the block is read only.
    ``sample`` reads the true gradients ``g_true`` only if ``needs_true``.
    ``validate`` raises ConfigurationError if the model cannot be used with
    the objective in dimension n.
    """

    kind: str
    needs_true = True

    def sample(self, obj: Objective, x, rngs, g_true, out) -> None:
        raise NotImplementedError

    def validate(self, obj: Objective, n: int) -> None:
        pass


def _normals(rngs, out):
    """One standard normal row from each generator; the array that holds them.

    That is the engine's block (read only) where it applies, and otherwise
    ``out``, whose rows the generators fill.
    """
    if isinstance(rngs, StreamRows):
        z = rngs.block_normals()
        if z is not None:
            return z
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    return out


@dataclass(frozen=True)
class Exact(NoiseModel):
    kind = "exact"

    def sample(self, obj, x, rngs, g_true, out):
        out[...] = g_true


@dataclass(frozen=True)
class Gaussian(NoiseModel):
    """g = G + sigma * z with z a standard normal vector."""

    sigma: float
    kind = "gaussian"

    def __post_init__(self):
        if not self.sigma >= 0:  # NaN fails too
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        # The same float64, which numpy multiplies by faster as an array.
        object.__setattr__(self, "_sigma", np.array(self.sigma, np.float64))

    def sample(self, obj, x, rngs, g_true, out):
        # G + sigma * z, in place: products and sums commute bit for bit.
        np.multiply(_normals(rngs, out), self._sigma, out)
        np.add(out, g_true, out)


@dataclass(frozen=True)
class BoundedUniform(NoiseModel):
    """g = G + u with u uniform in the ball of the given radius."""

    radius: float
    kind = "bounded_uniform"

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def sample(self, obj, x, rngs, g_true, out):
        n = x.shape[1]
        u = np.empty(x.shape[0])
        for r, rng in zip(range(x.shape[0]), rngs):
            rng.standard_normal(out=out[r])
            u[r] = rng.random() ** (1.0 / n)
        nz = np.sqrt(np.vecdot(out, out))[:, None]  # np.linalg.norm of each row
        with np.errstate(divide="ignore", invalid="ignore"):
            out *= (self.radius * u)[:, None]
            out /= nz
            out += g_true
        np.copyto(out, g_true, where=nz == 0.0)


@dataclass(frozen=True)
class AffineGaussian(NoiseModel):
    """Gaussian noise with total variance kappa1 + kappa2 * ||G||^2."""

    kappa1: float
    kappa2: float
    kind = "affine_gaussian"

    def __post_init__(self):
        if not (self.kappa1 >= 0 and self.kappa2 >= 0):
            raise ValueError("kappa1 and kappa2 must be >= 0")

    def sample(self, obj, x, rngs, g_true, out):
        n = x.shape[1]
        total = self.kappa1 + self.kappa2 * np.vecdot(g_true, g_true)
        np.multiply(_normals(rngs, out), np.sqrt(total / n)[:, None], out=out)
        out += g_true


@dataclass(frozen=True)
class ConstantBias(NoiseModel):
    """Inner draw shifted by a fixed bias vector (a biased oracle)."""

    bias: np.ndarray
    inner: NoiseModel
    kind = "constant_bias"

    def __post_init__(self):
        object.__setattr__(
            self, "bias", np.ascontiguousarray(self.bias, dtype=np.float64)
        )
        if np.isnan(self.bias).any():
            raise ValueError(f"bias must not be NaN, got {self.bias}")
        # The bias as an operand of the estimates' shape: the same sums.
        object.__setattr__(self, "_bias", Tiles(self.bias).of)

    @property
    def needs_true(self):
        return self.inner.needs_true

    def sample(self, obj, x, rngs, g_true, out):
        self.inner.sample(obj, x, rngs, g_true, out)
        out += self._bias(out)

    def validate(self, obj, n):
        if self.bias.shape != (n,):
            raise ConfigurationError(
                f"constant_bias: bias shape {self.bias.shape} does not match "
                f"the problem dimension {n}"
            )
        self.inner.validate(obj, n)


@dataclass(frozen=True)
class RelativeBias(NoiseModel):
    """Inner draw shifted by rho * G: bias proportional to the true gradient."""

    rho: float
    inner: NoiseModel
    kind = "relative_bias"

    def __post_init__(self):
        if np.isnan(self.rho):
            raise ValueError("rho must not be NaN")

    def sample(self, obj, x, rngs, g_true, out):
        self.inner.sample(obj, x, rngs, g_true, out)
        out += self.rho * g_true

    def validate(self, obj, n):
        self.inner.validate(obj, n)


@dataclass(frozen=True)
class Subsample(NoiseModel):
    """Mean gradient over a uniformly sampled batch of a finite sum."""

    batch_size: int
    kind = "subsample"
    needs_true = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def sample(self, obj, x, rngs, g_true, out):
        for row, g, rng in zip(x, out, rngs):
            g[...] = obj.term_grad(
                row, rng.choice(obj.num_terms, size=self.batch_size,
                                replace=False))

    def validate(self, obj, n):
        if obj.num_terms is None or obj.term_grad is None:
            raise ConfigurationError(
                "subsample oracle requires a finite-sum objective"
            )
        if self.batch_size > obj.num_terms:
            raise ConfigurationError(
                f"batch_size {self.batch_size} exceeds {obj.num_terms} terms"
            )


# Every noise model by the kind that names it in configs.
NOISE_MODELS = {cls.kind: cls for cls in (
    Exact, Gaussian, BoundedUniform, AffineGaussian, ConstantBias,
    RelativeBias, Subsample)}


class OracleDraw(NamedTuple):
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
        # The state of a fresh Philox at counter 0, in plain Python ints,
        # which the state setter reads faster than arrays of uint64.  An
        # empty buffer (buffer_pos 4) and no buffered 32-bit half make the
        # next draw start at the counter, whatever the last draw left.
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter,
                      "key": [int(k) for k in self._key]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

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
        self._counter[2] = iteration & 0xFFFFFFFFFFFFFFFF
        self._counter[3] = iteration >> 64
        self._shared_bg.state = self._state
        return self._shared_gen


# The block path's scope: run_batch's time on the block path over its time
# with per-row draws, 1,000 iterations of boxed_quadratic, Gaussian noise,
# zero curvature, no diagnostics, was 0.54 at n = 2, 0.98 at 16, 1.14 at 24
# and 1.24 at 32 with 20 rows, and 1.63 at n = 24 and 1.70 at 64 with one.
BLOCK_WORDS = 16


class StreamRows:
    """The rows' generators at one iteration, as ``draw``'s ``rngs``.

    Row r is ``streams[r]``; ``at(k)`` moves to iteration k and returns the
    object.  Iterating it resets each row's stream to k as the row is taken
    (``OracleStream.rng_shared``), so a model that draws nothing resets
    nothing.  ``block_normals()`` returns the (R, n) view of the block that
    holds iteration k's standard normals, row r bit for bit what
    ``rng_shared(k).standard_normal`` draws for row r, if the block path
    applies (at most ``BLOCK_WORDS`` normals a row, and the installed numpy
    passes ``numpy_agrees``), and otherwise None.  Callers must not write
    into the view.  The block path computes the Philox words of a block of
    iterations at once, and resets and draws by numpy only the rows whose
    words leave the ziggurat's fast path.  Its blocks are the engine's: the
    ``length`` iterations from each multiple of ``length``, the last cut at
    ``horizon``.  Its tables are built at the first block, sized to one.
    """

    def __init__(self, streams, n, horizon, length):
        self.streams = streams
        self.k = 0
        self._n, self._end, self._length = n, horizon, length
        self._block = n <= BLOCK_WORDS
        self._philox = None
        self._k0 = self._k1 = 0  # the iterations in the block
        self._z = None

    def at(self, k):
        self.k = k
        return self

    def __iter__(self):
        return map(OracleStream.rng_shared, self.streams, repeat(self.k))

    def block_normals(self) -> Optional[np.ndarray]:
        k = self.k
        if not self._k0 <= k < self._k1:
            if not (self._block and numpy_agrees()):
                return None
            self._fill(k)
        return self._z[k - self._k0]

    def _fill(self, k):
        if self._philox is None:
            self._philox = PhiloxBlocks([s._key for s in self.streams],
                                        self._n, min(self._length, self._end))
        k0 = k - k % self._length
        m = min(self._length, self._end - k0)
        z, fast = fast_normals(self._philox.words(k0, m))
        for j, r in zip(*np.nonzero(~fast.all(axis=-1))):
            OracleStream.rng_shared(self.streams[r], k0 + int(j)
                                    ).standard_normal(out=z[j, r])
        self._z, self._k0, self._k1 = z, k0, k0 + m


def draw(obj: Objective, x, model: NoiseModel, rngs,
         with_true: bool = True, out=None) -> OracleDraw:
    """One gradient estimate g(x, xi) per row of ``x`` (R, n).

    Row r draws from the r-th generator of the iterable ``rngs``, as a
    lone point would, so a row's estimate does not depend on the other
    rows; a single point is passed as one row.  ``rngs`` is iterated only
    by models that draw random numbers (see ``NoiseModel``).  The
    estimates are written into ``out`` (R, n), or into a new array if it is
    None, which becomes the draw's ``g``.  The objective's ``grad`` is
    called once on all rows.  ``with_true=False`` skips the true-gradient
    diagnostic when the model itself does not need G (only possible for
    pure subsampling).  The model is not validated here: callers run
    ``model.validate`` once, before their draws.
    """
    x = np.asarray(x, dtype=np.float64)
    g_true = None
    if with_true or model.needs_true:
        g_true = obj.grad(x)
        if g_true.shape != x.shape:
            raise ValueError(f"gradient shape {g_true.shape} does not match "
                             f"{x.shape}")
    if out is None:
        out = np.empty(x.shape)
    model.sample(obj, x, rngs, g_true, out)  # below: tuple.__new__ is faster
    return tuple.__new__(OracleDraw, (out, g_true if with_true else None))

