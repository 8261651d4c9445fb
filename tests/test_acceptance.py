"""Acceptance gate: one test per headline property, each printing a verdict.

Every test prints a single ``[acceptance N] PASS/FAIL`` line (visible with
``pytest -s`` and in failure output) and enforces its runtime budget.  The
suite is heavier than the module tests; expect a few minutes end to end.
"""

import json
import time

import numpy as np
import pytest

from adagb2.analysis import (chatzigeorgiou_bound, compute_constants,
                             counterexample_closed_form,
                             counterexample_simulate, lambert_w_minus1,
                             lemma_magical_check)
from adagb2.cli import cli_main
from adagb2.curvature import CurvatureSpec
from adagb2.geometry import BoundBox
from adagb2.harness import aggregate_results, fit_rate, verify_deterministic_bound
from adagb2.oracle import ConstantBias, Exact, Gaussian, OracleStream
from adagb2.problem import Objective, make_test_problem
from adagb2.problem import TestProblem as BoxProblem  # avoid pytest collection
from adagb2.solver import SolverParams, run, run_batch


def _report(num, ok, detail):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _budget(num, elapsed, limit):
    _report(f"{num}-runtime", elapsed < limit,
            f"{elapsed:.1f}s (budget {limit:.0f}s)")


# ---------------------------------------------------------------------------
# 1. Deterministic complexity bound with the exact oracle
# ---------------------------------------------------------------------------


def test_acceptance_1_deterministic_bound():
    t0 = time.monotonic()
    worst = 0.0
    for dim in (2, 5, 10):
        prob = make_test_problem("boxed_quadratic", dim, 0)
        report = verify_deterministic_bound(prob, SolverParams(), 10**5)
        assert report.applicable, report.reason
        worst = max(worst, report.max_ratio)
        assert report.holds
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1.0 + 1e-9,
            f"avg criticality <= kappa_conv/sqrt(k+1) for all k <= 1e5, "
            f"dims (2,5,10), max ratio {worst:.3e}")
    _budget(1, elapsed, 60.0)


# ---------------------------------------------------------------------------
# 2. Per-iteration inequality suite (runtime monitors)
# ---------------------------------------------------------------------------


def test_acceptance_2_monitor_sweep():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    providers = ("zero", "scalar_bb", "exact_clipped")
    total = 0
    for trial in range(100):
        name = ("boxed_quadratic", "boxed_rosenbrock",
                "boxed_nonconvex_quartic",
                "finite_sum_logistic")[trial % 4]
        dim = int(rng.integers(2, 7))
        prob = make_test_problem(name, dim, trial)
        bias = rng.normal(size=dim)
        bias *= 0.05 / np.linalg.norm(bias)
        oracles = (Exact(), Gaussian(0.1), ConstantBias(bias, Gaussian(0.05)))
        for oracle in oracles:
            for kind in providers:
                res = run(prob, oracle, CurvatureSpec(kind, 16.0),
                          SolverParams(), 1000, base_seed=trial,
                          diagnostics=False)
                total += res.total_violations
    elapsed = time.monotonic() - t0
    _report(2, total == 0,
            f"{total} monitor violations over 100 problems x 1e3 iterations "
            f"x 3 oracles x 3 curvature providers")
    _budget(2, elapsed, 120.0)


# ---------------------------------------------------------------------------
# 3. Reduction to plain Adagrad
# ---------------------------------------------------------------------------


def test_acceptance_3_adagrad_equivalence():
    # A zero objective under unit Gaussian noise makes g_k the standard
    # normal vector of the replication's stream at iteration k; its gradient
    # is asked for once per iteration, at the iterate, which it records.
    n, horizon, seed = 5, 1000, 42
    iterates = []

    def grad(x):
        iterates.append(x[0].copy())
        return np.zeros_like(x)

    obj = Objective(f=lambda x: np.zeros(np.shape(x)[:-1]), grad=grad,
                    f_low=0.0)
    rng = np.random.default_rng(seed)
    prob = BoxProblem("zero", obj, BoundBox.unbounded(n),
                      rng.standard_normal(n))
    params = SolverParams(sigma=0.1, step_mode="sign_adagrad")
    res = run(prob, Gaussian(1.0), CurvatureSpec("zero"), params, horizon,
              base_seed=seed, diagnostics=False)
    iterates.append(res.final_state.x)
    assert len(iterates) == horizon + 1  # x_0 to x_horizon
    stream = OracleStream(seed, 0)
    x_ref = prob.x_ini.copy()
    gsum = np.full(n, params.sigma**2)
    worst = 0.0
    for k in range(horizon):
        g = stream.rng(k).standard_normal(n)
        gsum += g * g
        x_ref = x_ref - g / np.sqrt(gsum)
        # relative tolerance 1e-12 with a tiny absolute floor for
        # coordinates passing through zero
        scale = 1e-12 * np.abs(x_ref) + 1e-14
        worst = max(worst, float(np.max(np.abs(iterates[k + 1] - x_ref) / scale)))
    _report(3, worst <= 1.0,
            f"sign mode == plain Adagrad over 1e3 iterations to relative "
            f"tolerance 1e-12 (worst scaled deviation {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. One-dimensional unbiased-oracle counterexample
# ---------------------------------------------------------------------------


def test_acceptance_4_counterexample():
    t0 = time.monotonic()
    ks = (9, 99, 999)
    # exact closed forms
    for k in list(ks) + [1, 3, 10**6]:
        q = 1.0 / (k + 1)
        row = counterexample_closed_form(k)
        assert row.e_abs_d == q * q + q**3
        assert row.abs_xi == q
    # the ratio E|d| / |Xi| = 1/(k+1) + 1/(k+1)^2 strictly decreases
    ratios = [counterexample_closed_form(k).e_abs_d
              / counterexample_closed_form(k).abs_xi for k in range(1, 2000)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    # 1e6-replication simulation within 3 standard errors
    worst_z = 0.0
    for row in counterexample_simulate(ks, 10**6, seed=0):
        z = abs(row.mean_abs_d - counterexample_closed_form(row.k).e_abs_d)
        z /= row.std_err
        worst_z = max(worst_z, z)
    elapsed = time.monotonic() - t0
    _report(4, worst_z <= 3.0,
            f"closed forms exact, ratio decreasing, 1e6-rep simulation "
            f"within 3 SE (worst z = {worst_z:.2f})")
    _budget(4, elapsed, 60.0)


# ---------------------------------------------------------------------------
# 5. Stochastic run under additive Gaussian noise of fixed scale
# ---------------------------------------------------------------------------
#
# Noise of fixed scale 0.1 keeps the average RMS oracle error near 0.14, so
# the paper's O(1/sqrt(k)) condition (a small enough average error) fails.
# What the paper promises then is that the optimality level is bounded above
# by the running average beta_k of the oracle error; the constant 1 on beta is
# a choice, the abstract gives none.  ||d_k|| = ||P_F(x_k - g_k) - x_k|| is a
# function of the oracle draw and sits at a noise floor near x*, so its
# running average is not a measure of progress here; the true criticality
# ||Xi_k|| is.  Both fitted slopes are printed as measurements only.


def test_acceptance_5_stochastic_rate():
    t0 = time.monotonic()
    prob = make_test_problem("boxed_quadratic", 2, 0)
    horizon = 10**5
    results = run_batch(prob, Gaussian(0.1), CurvatureSpec("zero"),
                        SolverParams(), horizon, base_seed=0, replications=20,
                        diagnostics=True)
    agg = aggregate_results(results)
    beta = float(agg.mean_err.mean())   # running average beta_k at k = 1e5
    checkpoints = (10**2, 10**3, 10**4, 10**5)
    avg_xi = [float(agg.run_avg_xi[k - 1]) for k in checkpoints]
    bounded = avg_xi[-1] <= beta
    decreasing = all(a > b for a, b in zip(avg_xi, avg_xi[1:]))
    slope_d, _, r2_d = fit_rate(agg, 100, horizon - 1, "run_avg_d")
    slope_xi, _, r2_xi = fit_rate(agg, 100, horizon - 1, "run_avg_xi")
    elapsed = time.monotonic() - t0
    _report(5, bounded and decreasing,
            f"avg||Xi|| = {avg_xi[-1]:.4f} <= beta_k = {beta:.4f} "
            f"at k=1e5 and decreasing at k=1e2..1e5 ("
            + " -> ".join(f"{v:.4f}" for v in avg_xi)
            + f"); measured slopes over k in [1e2, 1e5]: avg||d|| "
            f"{slope_d:.4f} (r2={r2_d:.3f}), avg||Xi|| {slope_xi:.4f} "
            f"(r2={r2_xi:.3f})")
    _budget(5, elapsed, 300.0)


# ---------------------------------------------------------------------------
# 6. Lambert-W and lemma oracles
# ---------------------------------------------------------------------------


def test_acceptance_6_lambert_and_lemmas():
    rng = np.random.default_rng(6)
    # residual of w e^w = x on 1e3 log-spaced points approaching both ends
    xs = -np.logspace(-8, np.log10(1.0 / np.e) - 1e-12, 1000)
    worst = 0.0
    for x in xs:
        w = lambert_w_minus1(float(x))
        worst = max(worst, abs(w * np.exp(w) - x) / abs(x))
    assert worst <= 1e-12, worst
    assert lambert_w_minus1(-1.0 / np.e) == pytest.approx(-1.0, abs=1e-9)
    # Chatzigeorgiou upper bound at 1e3 sampled x > 0
    for x in np.exp(rng.uniform(np.log(1e-8), np.log(600.0), 1000)):
        lhs, rhs = chatzigeorgiou_bound(float(x))
        assert lhs <= rhs * (1.0 + 1e-12), (x, lhs, rhs)
    # harmonic-sum ("magical") lemma on 1e3 random non-negative sequences
    for _ in range(1000):
        m = int(rng.integers(1, 60))
        a = rng.uniform(0.0, 5.0, m) * (rng.random(m) < 0.9)
        _, _, ok = lemma_magical_check(a, float(rng.uniform(0.01, 2.0)))
        assert ok
    # exact Lambert constant never exceeds its logarithmic upper bound
    for _ in range(100):
        rep = compute_constants(
            sigma=float(rng.uniform(0.001, 1.0)),
            tau=float(rng.uniform(0.1, 1.0)),
            kappa_s=float(rng.uniform(1.0, 3.0)),
            kappa_b=float(rng.uniform(1.0, 50.0)),
            kappa_gg=float(rng.uniform(0.0, 4.0)),
            lipschitz=float(rng.uniform(0.0, 100.0)),
            gamma0=float(rng.uniform(0.01, 100.0)),
            dim=int(rng.integers(1, 200)),
        )
        assert rep.kappa_conv_exact <= rep.kappa_conv_upper * (1 + 1e-12)
    _report(6, True,
            f"Lambert residual <= 1e-12 (worst {worst:.1e}), branch point "
            f"exact, Chatzigeorgiou bound, harmonic-sum lemma, and "
            f"exact <= upper constant all hold on random sweeps")


# ---------------------------------------------------------------------------
# 7. Biased oracle: criticality plateau bounded by ||d|| plus average error
# ---------------------------------------------------------------------------


def test_acceptance_7_bias_plateau():
    t0 = time.monotonic()
    prob = make_test_problem("boxed_quadratic", 4, 1)
    bias = np.zeros(4)
    bias[0] = 0.05
    oracle = ConstantBias(bias, Gaussian(0.05))
    horizon = 10**4
    gaps, d_curves = [], []
    for res in run_batch(prob, oracle, CurvatureSpec("zero"), SolverParams(),
                         horizon, base_seed=3, replications=8):
        beta = float(res.err_norm.mean())
        gaps.append(res.run_avg_xi[-1] - (res.run_avg_d[-1] + beta))
        d_curves.append(res.run_avg_d)
    gaps = np.asarray(gaps)
    se = float(gaps.std(ddof=1) / np.sqrt(gaps.size))
    mean_gap = float(gaps.mean())
    d_mean = np.mean(d_curves, axis=0)
    decreasing = d_mean[horizon - 1] < d_mean[999] < d_mean[99]
    elapsed = time.monotonic() - t0
    _report(7, mean_gap <= 3.0 * se and decreasing,
            f"avg||Xi|| - (avg||d|| + beta_k) = {mean_gap:.3e} <= 3 SE "
            f"({3 * se:.3e}) at k=1e4 while avg||d|| decreases "
            f"({d_mean[99]:.4f} -> {d_mean[999]:.4f} -> "
            f"{d_mean[horizon - 1]:.4f})")
    _budget(7, elapsed, 120.0)


# ---------------------------------------------------------------------------
# 8. CLI determinism: byte-identical reruns for every subcommand
# ---------------------------------------------------------------------------


def test_acceptance_8_cli_determinism(tmp_path, capsys):
    config = {
        "problem": {"name": "boxed_quadratic", "dim": 3, "seed": 2},
        "oracle": {"kind": "gaussian", "sigma": 0.1},
        "run": {"horizon": 200, "replications": 3, "base_seed": 11},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    commands = {
        "run": ["run", "--config", str(cfg)],
        "mc": ["mc", "--config", str(cfg), "--fit-kmin", "10",
               "--fit-kmax", "199", "--epsilon", "0.05", "--delta", "0.5"],
        "constants": ["constants", "--sigma", "0.01", "--tau", "1",
                      "--kappa-s", "1", "--kappa-b", "1", "--kappa-gg", "0",
                      "--lipschitz", "4", "--gamma0", "1", "--dim", "3",
                      "--format", "json"],
        "counterexample": ["counterexample", "--k", "99", "--reps", "20000",
                           "--seed", "3"],
        "check": ["check", "--seed", "1"],
        "verify-deterministic": ["verify-deterministic", "--dim", "3",
                                 "--horizon", "2000"],
    }
    for name, argv in commands.items():
        snapshots = []
        for attempt in ("a", "b"):
            args = list(argv)
            out_dir = None
            if name in ("run", "mc"):
                out_dir = tmp_path / f"{name}-{attempt}"
                args += ["--out", str(out_dir)]
            assert cli_main(args) == 0, name
            snap = {"stdout": capsys.readouterr().out}
            if out_dir is not None:
                for f in sorted(out_dir.iterdir()):
                    snap[f.name] = f.read_bytes()
            snapshots.append(snap)
        assert snapshots[0] == snapshots[1], f"{name} rerun differs"
    _report(8, True,
            "all 6 CLI subcommands byte-identical across reruns "
            "(stdout and output files)")
