"""Criticality measures, complexity constants and lemma-level oracles.

Everything here is pure computation over problem data or collected run
histories: the true projected-gradient criticality measure, the lower
real branch of the Lambert function, the complexity constant of the
convergence bound, the two technical lemmas used by its proof, and the
one-dimensional counterexample showing that unbiasedness alone does not
make the approximate and true measures coherent.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import BoundBox, project_box
from .problem import Objective
from .solver import RunResult


def true_criticality(obj: Objective, x, box: BoundBox) -> float:
    """||P_F(x - G(x)) - x||; reduces to ||G(x)|| without bounds."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(project_box(x - obj.grad(x), box) - x))


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
        return {
            "sigma": self.sigma,
            "tau": self.tau,
            "kappa_s": self.kappa_s,
            "kappa_b": self.kappa_b,
            "kappa_gg": self.kappa_gg,
            "lipschitz": self.lipschitz,
            "gamma0": self.gamma0,
            "dim": self.dim,
            "kappa_star": self.kappa_star,
            "kappa_w": self.kappa_w,
            "kappa_conv_exact": self.kappa_conv_exact,
            "kappa_conv_upper": self.kappa_conv_upper,
        }


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
# Scenario classification over replications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioReport:
    coherence_ratio: np.ndarray  # mean||Xi|| / mean||d|| per iteration
    err_ratio: np.ndarray        # mean||g - G|| / mean||d|| per iteration
    kappa_gg_sq_diag: float      # mean|<G-g, s>| / mean||s||^2
    beta: np.ndarray             # running average of mean||g - G||
    scenario: str
    flags: dict


def _tail_head_growth(ratio: np.ndarray) -> float:
    valid = ratio[np.isfinite(ratio)]
    if valid.size < 10:
        return 1.0
    # Short head window: a drifting ratio should be compared against its
    # early value, before any bias-induced stall kicks in.
    head = float(np.median(valid[: min(50, max(1, valid.size // 10))]))
    tail = float(np.median(valid[-max(1, valid.size // 10):]))
    if head <= 0.0:
        return math.inf if tail > 0 else 1.0
    return tail / head


def scenario_classifier(results: Sequence[RunResult],
                        growth_cutoff: float = 3.0) -> ScenarioReport:
    """Descriptive classification of a batch of replications.

    Reports the per-iteration measure-coherence and error ratios plus the
    directional-error diagnostic, and flags which convergence scenario
    (coherently distributed / controlled error / general) the data looks
    consistent with.  This is a trend report, not a statistical test.
    """
    if not results:
        raise ValueError("need at least one replication")
    selected = [r for r in results if r.event_a] or list(results)
    mean_d = np.mean([r.norm_d for r in selected], axis=0)
    mean_xi = np.mean([r.norm_xi for r in selected], axis=0)
    mean_err = np.mean([r.err_norm for r in selected], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        coherence = mean_xi / mean_d
        err_ratio = mean_err / mean_d
    total_dir = float(np.nansum([np.nansum(r.dir_err) for r in selected]))
    total_sq = float(np.sum([np.sum(r.step_sq) for r in selected]))
    kappa_gg_sq = total_dir / total_sq if total_sq > 0 else 0.0
    horizon = selected[0].horizon
    beta = np.cumsum(mean_err) / np.arange(1, horizon + 1)

    coherent = _tail_head_growth(coherence) < growth_cutoff
    controlled = _tail_head_growth(err_ratio) < growth_cutoff
    if coherent:
        scenario = "coherently_distributed"
    elif controlled:
        scenario = "controlled_error"
    else:
        scenario = "general"
    return ScenarioReport(
        coherence_ratio=coherence, err_ratio=err_ratio,
        kappa_gg_sq_diag=kappa_gg_sq, beta=beta, scenario=scenario,
        flags={"coherently_distributed": coherent,
               "controlled_error": controlled},
    )
