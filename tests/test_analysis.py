import math
import sys

import numpy as np
import pytest

from adagb2.analysis import (chatzigeorgiou_bound, compute_constants,
                             counterexample_closed_form,
                             counterexample_simulate, lambert_w_minus1,
                             lemma_lambert_check, lemma_magical_check)
from adagb2.curvature import CurvatureSpec
from adagb2.geometry import project_box
from adagb2.oracle import Exact
from adagb2.problem import make_test_problem
from adagb2.solver import SolverParams, run

# Reference values computed by an independent 200-step bisection of
# w * exp(w) = x on (-inf, -1] and frozen here.
W_REFERENCE = {
    -1.0 / 24.0: -4.7325094262617178,
    -1.0 / 32.0: -5.093750249858795,
    -0.1: -3.5771520639572971,
    -0.05: -4.4997552885234882,
    -1e-3: -9.1180064704027401,
    -0.25: -2.1532923641103494,
    -0.3: -1.7813370234216275,
}


def test_lambert_frozen_values():
    for x, w_ref in W_REFERENCE.items():
        assert lambert_w_minus1(x) == pytest.approx(w_ref, rel=1e-13)


def test_lambert_branch_point():
    assert lambert_w_minus1(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-9)


def test_lambert_residual_sweep():
    xs = -np.logspace(-10, np.log10(1.0 / math.e) - 1e-12, 1000)
    for x in xs:
        w = lambert_w_minus1(float(x))
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)


def test_lambert_subnormal_log_residual_sweep():
    # exp(w) underflows here, so the residual is taken in log form:
    # w + log(-w) = log(-x).  The sweep starts at -5e-324.
    xs = -np.geomspace(math.ulp(0.0), sys.float_info.min, 2000, endpoint=False)
    ws = [lambert_w_minus1(float(x)) for x in xs]
    assert ws[0] == pytest.approx(-751.0615595398790, rel=1e-14)
    assert all(w <= -1.0 for w in ws)
    residual = [abs(w + math.log(-w) - math.log(-x)) for w, x in zip(ws, xs)]
    assert max(residual) <= 1e-12
    # W_-1 rises from -inf at 0- towards -1: no step down at the smallest
    # normal number either.
    assert ws == sorted(ws)
    assert lambert_w_minus1(-sys.float_info.min) > ws[-1]


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_w_minus1(0.0)
    with pytest.raises(ValueError):
        lambert_w_minus1(0.5)
    with pytest.raises(ValueError):
        lambert_w_minus1(-1.0)  # below -1/e


def test_chatzigeorgiou_bound_holds():
    rng = np.random.default_rng(0)
    for x in rng.uniform(1e-8, 100.0, 1000):
        lhs, rhs = chatzigeorgiou_bound(float(x))
        assert lhs <= rhs * (1.0 + 1e-12)


def test_chatzigeorgiou_bound_with_a_subnormal_argument():
    # -exp(-711) is subnormal; |W_-1| = lhs solves lhs - log(lhs) = 711.
    lhs, rhs = chatzigeorgiou_bound(710.0)
    assert lhs == pytest.approx(717.5758786963228, rel=1e-12)
    assert lhs - math.log(lhs) == pytest.approx(711.0, rel=1e-12)
    assert lhs <= rhs


def test_chatzigeorgiou_requires_positive():
    with pytest.raises(ValueError):
        chatzigeorgiou_bound(0.0)


def test_magical_lemma_hand_case():
    # a = (1, 1), sigma = 1: lhs = 1/2 + 1/3, rhs = log(3).
    lhs, rhs, ok = lemma_magical_check([1.0, 1.0], 1.0)
    assert lhs == pytest.approx(5.0 / 6.0)
    assert rhs == pytest.approx(math.log(3.0))
    assert ok


def test_magical_lemma_random_sweep():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = rng.uniform(0, 5, int(rng.integers(1, 200)))
        assert lemma_magical_check(a, float(rng.uniform(0.01, 3)))[2]


def test_magical_lemma_validation():
    with pytest.raises(ValueError):
        lemma_magical_check([-1.0], 1.0)
    with pytest.raises(ValueError):
        lemma_magical_check([1.0], 0.0)


def test_lemma_lambert_bound_is_tight_root():
    ok, u2 = lemma_lambert_check(1.0, 24.0)
    assert ok
    # u2 solves u = 24 log(u): substituting back must be (near) exact
    assert u2 == pytest.approx(24.0 * math.log(u2), rel=1e-12)


def test_lemma_lambert_random_sweep():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g1 = float(rng.uniform(0.01, 2.0))
        g2 = g1 * float(rng.uniform(3.01, 40.0))
        assert lemma_lambert_check(g1, g2)[0]


def test_constants_hand_example():
    r = compute_constants(sigma=1.0, tau=1.0, kappa_s=1.0, kappa_b=1.0,
                          kappa_gg=0.0, lipschitz=1.0, gamma0=1.0, dim=1)
    assert r.kappa_star == 1.0
    assert r.kappa_w == 24.0
    # sqrt(1/2) * 24 * |W_-1(-1/24)| with the frozen reference value
    assert r.kappa_conv_exact == pytest.approx(
        math.sqrt(0.5) * 24.0 * abs(W_REFERENCE[-1.0 / 24.0]), rel=1e-13)
    assert r.kappa_conv_exact == pytest.approx(80.313348176134042, rel=1e-13)
    assert r.kappa_conv_exact <= r.kappa_conv_upper


def test_constants_second_hand_example():
    # kappa_gg = 1 raises kappa_star to 2 and the max(...) term to 4.
    r = compute_constants(sigma=1.0, tau=1.0, kappa_s=1.0, kappa_b=1.0,
                          kappa_gg=1.0, lipschitz=1.0, gamma0=1.0, dim=1)
    assert r.kappa_star == 2.0
    assert r.kappa_w == 32.0


def test_constants_exact_below_upper_sweep():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = compute_constants(
            sigma=float(rng.uniform(0.001, 1.0)),
            tau=float(rng.uniform(0.05, 1.0)),
            kappa_s=float(rng.uniform(1, 4)),
            kappa_b=float(rng.uniform(1, 20)),
            kappa_gg=float(rng.uniform(0, 3)),
            lipschitz=float(rng.uniform(0, 200)),
            gamma0=float(rng.uniform(0.01, 50)),
            dim=int(rng.integers(1, 500)),
        )
        assert r.kappa_w >= 24.0  # floor of the definition
        assert r.kappa_conv_exact <= r.kappa_conv_upper * (1 + 1e-12)


def test_constants_validation():
    good = dict(sigma=0.1, tau=1.0, kappa_s=1.0, kappa_b=1.0, kappa_gg=0.0,
                lipschitz=1.0, gamma0=1.0, dim=2)
    for key, bad in [("sigma", 0.0), ("sigma", 1.5), ("tau", 0.0),
                     ("kappa_s", 0.9), ("kappa_b", 0.0), ("kappa_gg", -1.0),
                     ("lipschitz", -1.0), ("gamma0", 0.0), ("dim", 0)]:
        with pytest.raises(ValueError):
            compute_constants(**{**good, key: bad})
    # max(3.0, nan) is 3.0, so a NaN input once gave a finite kappa_conv.
    for key in set(good) - {"dim"}:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{key} must be"):
                compute_constants(**{**good, key: bad})


def test_counterexample_closed_form_values():
    row = counterexample_closed_form(1)
    assert row.p == 0.75
    assert row.abs_xi == 0.5
    assert row.e_abs_d == 0.375
    row9 = counterexample_closed_form(9)
    assert row9.abs_xi == pytest.approx(0.1)
    assert row9.e_abs_d == pytest.approx(0.01 + 0.001)
    # the coherence ratio E|d| / |Xi| = 1/(k+1) + 1/(k+1)^2 decays to zero
    ratios = [counterexample_closed_form(k).e_abs_d
              / counterexample_closed_form(k).abs_xi
              for k in (1, 9, 99, 999)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1e-3 + 1e-6)


def test_counterexample_unbiasedness():
    # E[d] = -x * p = -(1/(k+1)) * (1/(k+1) + 1/(k+1)^2); the oracle mean
    # equals the true gradient Xi implied by the construction: check that
    # the simulated Bernoulli frequency matches p.
    rows = counterexample_simulate([9], reps=200000, seed=0)
    row = rows[0]
    cf = counterexample_closed_form(9)
    assert row.mean_g == pytest.approx(cf.p, abs=3e-3)
    assert abs(row.mean_abs_d - cf.e_abs_d) <= 3.0 * row.std_err


def test_counterexample_validation():
    with pytest.raises(ValueError):
        counterexample_closed_form(0)
    with pytest.raises(ValueError):
        counterexample_simulate([1], reps=0, seed=0)


def true_criticality(obj, x, box) -> float:
    """||P_F(x - G(x)) - x||, the true criticality measure at x."""
    return float(np.linalg.norm(project_box(x - obj.grad(x), box) - x))


def test_true_criticality_matches_run_history():
    prob = make_test_problem("boxed_quadratic", 3, 0)
    res = run(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 5,
              base_seed=0)
    x0 = prob.x_ini  # already feasible for this family
    assert true_criticality(prob.objective, x0, prob.box) == pytest.approx(
        res.norm_xi[0], rel=1e-12)
