"""Criticality measures, complexity constants and lemma-level oracles.

Everything here is pure computation over problem data or collected run
histories: the per-iteration statistics over replications, the lower real
branch of the Lambert function, the complexity constant of the
convergence bound, the two technical lemmas used by its proof, and the
one-dimensional counterexample showing that unbiasedness alone does not
make the approximate and true measures coherent.
"""

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .solver import RunResult, running_mean


# ---------------------------------------------------------------------------
# Lambert W, lower branch
# ---------------------------------------------------------------------------

_BRANCH_POINT = -1.0 / math.e


def lambert_w_minus1(x: float) -> float:
    """Lower real branch: w <= -1 with w * exp(w) = x, for x in [-1/e, 0).

    Series initialization near the branch point, asymptotic initialization
    elsewhere, refined by Halley iterations; falls back to bisection if the
    iteration stalls.
    """
    x = float(x)
    if x >= 0.0:
        raise ValueError(f"lambert_w_minus1 requires x < 0, got {x}")
    t = 1.0 + math.e * x  # distance from the branch point, scaled
    if t < -1e-12:
        raise ValueError(f"lambert_w_minus1 requires x >= -1/e, got {x}")
    if t <= 1e-15:
        return -1.0

    if t < 0.25:
        p = math.sqrt(2.0 * t)
        w = -1.0 - p - p * p / 3.0 - 11.0 * p**3 / 72.0
    else:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1

    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * abs(w):
            break
    if abs(w * math.exp(w) - x) <= 1e-12 * abs(x):
        return w
    return _bisect_w(x)


def _bisect_w(x: float) -> float:
    # w e^w is decreasing on (-inf, -1]; bracket then bisect.
    lo, hi = -1.0, -1.0
    step = 1.0
    while lo * math.exp(lo) > x:
        hi = lo
        lo -= step
        step *= 2.0
        if lo < -800.0:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) > x:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def chatzigeorgiou_bound(x: float):
    """(|W_-1(-e^{-x-1})|, 1 + sqrt(2x) + x) for x > 0; lhs <= rhs."""
    if x <= 0.0:
        raise ValueError(f"requires x > 0, got {x}")
    lhs = abs(lambert_w_minus1(-math.exp(-x - 1.0)))
    rhs = 1.0 + math.sqrt(2.0 * x) + x
    return lhs, rhs


# ---------------------------------------------------------------------------
# Complexity constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    sigma: float
    tau: float
    kappa_s: float
    kappa_b: float
    kappa_gg: float
    lipschitz: float
    gamma0: float
    dim: int
    kappa_star: float
    kappa_w: float
    kappa_conv_exact: float
    kappa_conv_upper: float

    def as_dict(self) -> dict:
        return asdict(self)


def compute_constants(sigma: float, tau: float, kappa_s: float, kappa_b: float,
                      kappa_gg: float, lipschitz: float, gamma0: float,
                      dim: int) -> ConstantsReport:
    """Constant of the O(1/sqrt(k+1)) bound on the averaged measure."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must be in (0, 1], got {sigma}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if kappa_s < 1.0:
        raise ValueError(f"kappa_s must be >= 1, got {kappa_s}")
    if kappa_b < 1.0:
        raise ValueError(f"kappa_b must be >= 1, got {kappa_b}")
    if kappa_gg < 0.0:
        raise ValueError(f"kappa_gg must be >= 0, got {kappa_gg}")
    if lipschitz < 0.0:
        raise ValueError(f"lipschitz must be >= 0, got {lipschitz}")
    if gamma0 <= 0.0:
        raise ValueError(f"gamma0 must be > 0, got {gamma0}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    kappa_star = kappa_s**2 * (kappa_gg**2 + 0.5 * kappa_b + 0.5 * lipschitz)
    kappa_w = (
        8.0 * kappa_b / (tau * sigma**2 * math.sqrt(sigma))
        * max(1.0, gamma0)
        * max(3.0, 2.0 * dim * kappa_star / gamma0)
    )
    root = math.sqrt(sigma / 2.0)
    exact = root * kappa_w * abs(lambert_w_minus1(-1.0 / kappa_w))
    log_kw = math.log(kappa_w)  # kappa_w >= 24, so log_kw > 1
    upper = root * kappa_w * abs(log_kw + math.sqrt(2.0 * (log_kw - 1.0)))
    return ConstantsReport(
        sigma=sigma, tau=tau, kappa_s=kappa_s, kappa_b=kappa_b,
        kappa_gg=kappa_gg, lipschitz=lipschitz, gamma0=gamma0, dim=dim,
        kappa_star=kappa_star, kappa_w=kappa_w, kappa_conv_exact=exact,
        kappa_conv_upper=upper,
    )


# ---------------------------------------------------------------------------
# Lemma oracles
# ---------------------------------------------------------------------------


def lemma_magical_check(a, sigma: float):
    """sum_j a_j / (sigma + sum_{i<=j} a_i) <= log(1 + sum_j a_j / sigma)."""
    a = np.asarray(a, dtype=np.float64)
    if (a < 0).any():
        raise ValueError("sequence entries must be non-negative")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    partial = np.cumsum(a)
    lhs = float(np.sum(a / (sigma + partial)))
    rhs = math.log1p(partial[-1] / sigma) if a.size else 0.0
    return lhs, rhs, lhs <= rhs + 1e-12


def lemma_lambert_check(gamma1: float, gamma2: float, samples: int = 2000):
    """Check the log-inequality root bound on a log grid of u values.

    Every u > 0 with gamma1 * u <= gamma2 * log(u) must satisfy
    u <= -(gamma2/gamma1) * W_-1(-gamma1/gamma2).
    """
    if not (gamma1 > 0 and gamma2 > 3.0 * gamma1):
        raise ValueError("requires gamma2 > 3 * gamma1 > 0")
    u2 = -(gamma2 / gamma1) * lambert_w_minus1(-gamma1 / gamma2)
    grid = np.exp(np.linspace(math.log(1e-6), math.log(10.0 * u2), samples))
    satisfied = gamma1 * grid <= gamma2 * np.log(grid)
    compliant = grid[satisfied] <= u2 * (1.0 + 1e-12)
    return bool(compliant.all()), u2


# ---------------------------------------------------------------------------
# The one-dimensional counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleRow:
    k: int
    p: float
    abs_xi: float
    e_abs_d: float


def counterexample_closed_form(k: int) -> CounterexampleRow:
    """Closed forms of the 1-d example on [0, inf) with x_k = 1/(k+1).

    The Bernoulli oracle g in {0, 1} with P(g=1) = 1/(k+1) + 1/(k+1)^2 is
    unbiased, yet E|d_k| = 1/(k+1)^2 + 1/(k+1)^3 decays one order faster
    than the true measure |Xi_k| = 1/(k+1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = 1.0 / (k + 1)
    return CounterexampleRow(k=k, p=q + q * q, abs_xi=q, e_abs_d=q * q + q**3)


@dataclass(frozen=True)
class CounterexampleSample:
    k: int
    mean_abs_d: float
    std_err: float
    abs_xi: float
    mean_g: float
    reps: int


def counterexample_simulate(k_values: Sequence[int], reps: int,
                            seed: int) -> list:
    """Monte Carlo check of the closed forms, one row per requested k."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rows = []
    for k in k_values:
        cf = counterexample_closed_form(k)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(k))))
        g = rng.random(reps) < cf.p
        # d = P_[0,inf)(x - g) - x: zero when g = 0, -x when g = 1.
        abs_d = cf.abs_xi * g.astype(np.float64)
        mean = float(abs_d.mean())
        se = float(abs_d.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
        rows.append(CounterexampleSample(
            k=int(k), mean_abs_d=mean, std_err=se, abs_xi=cf.abs_xi,
            mean_g=float(g.mean()), reps=reps,
        ))
    return rows


# ---------------------------------------------------------------------------
# Statistics over replications
# ---------------------------------------------------------------------------


@dataclass
class Aggregate:
    """Per-iteration statistics over (event-conditioned) replications.

    ``COLUMNS`` names the columns of both aggregate outputs, in order;
    column ``p_A`` is the field ``p_a``.
    """

    k: np.ndarray
    mean_norm_d: np.ndarray
    se_norm_d: np.ndarray
    mean_norm_xi: np.ndarray
    se_norm_xi: np.ndarray
    mean_err: np.ndarray
    mean_rmse: np.ndarray
    run_avg_d: np.ndarray
    run_avg_xi: np.ndarray
    min_xi: np.ndarray
    """Running minimum of ||Xi_k|| over *all* aggregated replications at once:
    entry k is the smallest ||Xi_j||, j <= k, that any replication reached.
    A best case, not a per-replication figure; written as the ``min_xi``
    column of ``aggregate.csv`` and as ``final_min_xi`` in ``summary.json``."""
    p_a: float
    violations: np.ndarray
    reps_used: int

    COLUMNS = ("k", "mean_norm_d", "se_norm_d", "mean_norm_xi", "se_norm_xi",
               "mean_err", "mean_rmse", "run_avg_d", "run_avg_xi", "min_xi",
               "p_A", "violations")

    def columns(self) -> dict:
        """Each name of ``COLUMNS`` with its value, in order."""
        return {name: getattr(self, "p_a" if name == "p_A" else name)
                for name in self.COLUMNS}


def aggregate_results(results: Sequence[RunResult]) -> Aggregate:
    """Merge replications (in index order) into per-iteration statistics.

    Statistics are conditioned on the iteration-zero event ||d_0||^2 >= sigma
    when at least one replication satisfies it, mirroring the conditioning of
    the stochastic theory; p_A is always the unconditional fraction.
    """
    if not results:
        raise ValueError("need at least one replication")
    selected = [r for r in results if r.event_a] or list(results)
    p_a = float(np.mean([r.event_a for r in results]))
    horizon = selected[0].horizon
    if any(r.horizon != horizon for r in selected):
        raise ValueError("replications have mismatched horizons")
    reps = len(selected)
    d = np.stack([r.norm_d for r in selected])
    xi = np.stack([r.norm_xi for r in selected])
    err = np.stack([r.err_norm for r in selected])
    viol = np.sum([r.violation_count for r in selected], axis=0)

    def _se(mat):
        if reps < 2:
            return np.zeros(horizon)
        return mat.std(axis=0, ddof=1) / math.sqrt(reps)

    mean_d = d.mean(axis=0)
    mean_xi = xi.mean(axis=0)
    return Aggregate(
        k=np.arange(horizon),
        mean_norm_d=mean_d,
        se_norm_d=_se(d),
        mean_norm_xi=mean_xi,
        se_norm_xi=_se(xi),
        mean_err=err.mean(axis=0),
        mean_rmse=np.sqrt(np.mean(err * err, axis=0)),
        run_avg_d=running_mean(mean_d),
        run_avg_xi=running_mean(mean_xi),
        min_xi=np.minimum.accumulate(xi.min(axis=0)),
        p_a=p_a,
        violations=viol,
        reps_used=reps,
    )
