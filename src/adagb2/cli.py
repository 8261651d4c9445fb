"""Command-line front end.

Subcommands: run, mc, constants, counterexample, check,
verify-deterministic.  Exit codes: 0 success, 1 assertion or monitor
violation, 2 configuration or I/O error.
"""

import argparse
import copy
import math
import os
import sys

import numpy as np

from .analysis import (chatzigeorgiou_bound, compute_constants,
                       counterexample_closed_form, counterexample_simulate,
                       lambert_w_minus1, lemma_lambert_check,
                       lemma_magical_check)
from .curvature import CurvatureSpec
from .errors import ConfigurationError, NumericalError
from .geometry import BoundBox, project_box, project_box_cap_trust
from .harness import (ExperimentConfig, check_fit_range,
                      check_markov_target, fit_rate,
                      markov_complexity_report, run_experiment,
                      theory_constants, verify_deterministic_bound,
                      write_experiment_outputs, write_summary_json)
from .problem import PROBLEM_NAMES, check_smoothness, make_test_problem
from .solver import SolverParams


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adagb2",
        description="Bound-constrained stochastic Adagrad-type optimizer "
                    "and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=os.environ.get("ADAGB2_OUT"),
                       help="output directory (default: $ADAGB2_OUT)")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.base_seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--no-diagnostics", action="store_true",
                       help="skip true-gradient diagnostics (timing runs)")

    p_run = sub.add_parser("run", help="single replication from a config file")
    add_common(p_run)

    p_mc = sub.add_parser("mc", help="Monte Carlo experiment from a config file")
    add_common(p_mc)
    p_mc.add_argument("--epsilon", type=float, default=None,
                      help="criticality target for the probability report")
    p_mc.add_argument("--delta", type=float, default=None,
                      help="failure probability for --epsilon (default 0.1)")
    p_mc.add_argument("--fit-kmin", type=int, default=None)
    p_mc.add_argument("--fit-kmax", type=int, default=None)

    p_const = sub.add_parser("constants", help="print the complexity constants")
    p_const.add_argument("--sigma", type=float, required=True)
    p_const.add_argument("--tau", type=float, required=True)
    p_const.add_argument("--kappa-s", type=float, required=True)
    p_const.add_argument("--kappa-b", type=float, required=True)
    p_const.add_argument("--kappa-gg", type=float, required=True)
    p_const.add_argument("--lipschitz", type=float, required=True)
    p_const.add_argument("--gamma0", type=float, required=True)
    p_const.add_argument("--dim", type=int, required=True)
    p_const.add_argument("--format", choices=("text", "json"), default="text")
    p_const.add_argument("--out", default=None, help="write JSON report here")

    p_ce = sub.add_parser("counterexample",
                          help="closed forms and simulation of the 1-d "
                               "incoherence example")
    p_ce.add_argument("--k", type=int, nargs="+", default=[1, 9, 99, 999])
    p_ce.add_argument("--reps", type=int, default=100000,
                      help="simulation replications (0: closed form only)")
    p_ce.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check", help="run all lemma/property sweeps")
    p_check.add_argument("--seed", type=int, default=0)

    p_det = sub.add_parser("verify-deterministic",
                           help="check the exact-gradient complexity bound")
    p_det.add_argument("--problem", choices=PROBLEM_NAMES,
                       default="boxed_quadratic")
    p_det.add_argument("--dim", type=int, default=2)
    p_det.add_argument("--problem-seed", type=int, default=0)
    p_det.add_argument("--sigma", type=float, default=SolverParams.sigma)
    p_det.add_argument("--tau", type=float, default=SolverParams.tau)
    p_det.add_argument("--kappa-s", type=float, default=SolverParams.kappa_s)
    p_det.add_argument("--kappa-b", type=float, default=CurvatureSpec.kappa_b)
    p_det.add_argument("--horizon", type=int, default=10000)
    return parser


def _load_config(args, force_single: bool) -> ExperimentConfig:
    data = ExperimentConfig.from_file(args.config).raw
    data = copy.deepcopy(data)
    run_sec = data.setdefault("run", {})
    if args.seed is not None:
        run_sec["base_seed"] = args.seed
    if force_single:
        run_sec["replications"] = 1
    if args.no_diagnostics:
        run_sec["diagnostics"] = False
    return ExperimentConfig.from_dict(data)


def _cmd_run(args) -> int:
    config = _load_config(args, force_single=True)
    exp = run_experiment(config)
    if args.out:
        write_experiment_outputs(exp, args.out, fmt=args.format)
    agg = exp.aggregate
    last = config.horizon - 1
    print(f"horizon={config.horizon} event_A={exp.results[0].event_a} "
          f"final_avg_d={agg.run_avg_d[last]:.6g} "
          f"final_min_xi={agg.min_xi[last]:.6g} "
          f"violations={exp.total_violations}")
    return 1 if exp.total_violations else 0


def _cmd_mc(args) -> int:
    if (args.fit_kmin is None) != (args.fit_kmax is None):
        raise ConfigurationError("--fit-kmin and --fit-kmax go together")
    if args.delta is not None and args.epsilon is None:
        raise ConfigurationError("--delta needs --epsilon")
    config = _load_config(args, force_single=False)
    if args.fit_kmin is not None:  # checked before the run, not after it
        check_fit_range(args.fit_kmin, args.fit_kmax, config.horizon)
    if args.epsilon is not None:  # checked before the run, not after it
        delta = 0.1 if args.delta is None else args.delta
        check_markov_target(args.epsilon, delta)
        if not config.diagnostics:
            raise ConfigurationError(
                "--epsilon needs diagnostics: min ||Xi|| is not computed with "
                "--no-diagnostics or run.diagnostics false")
        constants = theory_constants(config.build_problem(), config.solver,
                                     config.curvature.kappa_b)
    exp = run_experiment(config)
    agg = exp.aggregate
    last = config.horizon - 1
    extras = {}
    if args.fit_kmin is not None:
        slope, intercept, r2 = fit_rate(agg, args.fit_kmin, args.fit_kmax)
        extras["rate_fit"] = {"slope": slope, "intercept": intercept, "r2": r2}
        print(f"rate fit over [{args.fit_kmin}, {args.fit_kmax}]: "
              f"slope={slope:.4f} r2={r2:.4f}")
    if args.epsilon is not None:
        report = markov_complexity_report(exp.results, args.epsilon, delta,
                                          constants.kappa_conv_exact)
        extras["probability_report"] = report
        print(f"P(min ||Xi|| <= {args.epsilon}) empirical="
              f"{report['empirical_fraction']:.3f} "
              f"theoretical k={report['k_theoretical']:.4g} "
              f"p_A={report['p_A']:.3f}")
    if args.out:
        paths = write_experiment_outputs(exp, args.out, fmt=args.format)
        if extras:
            extra_path = os.path.join(args.out, "analysis.json")
            write_summary_json(extra_path, extras)
            paths.append(extra_path)
    print(f"replications={config.replications} p_A={agg.p_a:.3f} "
          f"final_avg_d={agg.run_avg_d[last]:.6g} "
          f"final_avg_xi={agg.run_avg_xi[last]:.6g} "
          f"violations={exp.total_violations}")
    return 1 if exp.total_violations else 0


def _cmd_constants(args) -> int:
    report = compute_constants(
        sigma=args.sigma, tau=args.tau, kappa_s=args.kappa_s,
        kappa_b=args.kappa_b, kappa_gg=args.kappa_gg,
        lipschitz=args.lipschitz, gamma0=args.gamma0, dim=args.dim,
    )
    if args.format == "json":
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"kappa_star = {report.kappa_star:.17g}")
        print(f"kappa_W = {report.kappa_w:.17g}")
        print(f"kappa_conv (exact) = {report.kappa_conv_exact:.17g}")
        print(f"kappa_conv (upper) = {report.kappa_conv_upper:.17g}")
    if args.out:
        write_summary_json(args.out, report.as_dict())
    return 0


def _cmd_counterexample(args) -> int:
    print("k,p,abs_xi,e_abs_d,ratio")
    for k in args.k:
        row = counterexample_closed_form(k)
        print(f"{row.k},{row.p:.17g},{row.abs_xi:.17g},{row.e_abs_d:.17g},"
              f"{row.e_abs_d / row.abs_xi:.17g}")
    if args.reps > 0:
        print("k,mean_abs_d,std_err,abs_xi,mean_g")
        for row in counterexample_simulate(args.k, args.reps, args.seed):
            print(f"{row.k},{row.mean_abs_d:.17g},{row.std_err:.17g},"
                  f"{row.abs_xi:.17g},{row.mean_g:.17g}")
    return 0


# ---------------------------------------------------------------------------
# Property sweeps for `check`
# ---------------------------------------------------------------------------


def _check_lambert_residual(seed) -> bool:
    xs = -np.logspace(-8, np.log10(1.0 / math.e) - 1e-12, 1000)
    for x in xs:
        w = lambert_w_minus1(float(x))
        if abs(w * math.exp(w) - x) > 1e-12 * abs(x):
            return False
    # Subnormal x, where exp(w) underflows: the residual in log form,
    # log(w e^w / x), which is about the relative residual above.
    for x in -np.geomspace(math.ulp(0.0), sys.float_info.min, 1000,
                           endpoint=False):
        w = lambert_w_minus1(float(x))
        if abs(w + math.log(-w) - math.log(-x)) > 1e-12:
            return False
    return abs(lambert_w_minus1(-1.0 / math.e) + 1.0) <= 1e-9


def _check_chatzigeorgiou(seed) -> bool:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(1e-6, 50.0, 1000)
    return all(lhs <= rhs + 1e-9 for lhs, rhs in map(chatzigeorgiou_bound, xs))


def _check_magical(seed) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        length = int(rng.integers(1, 1000))
        a = rng.uniform(0.0, 10.0, length)
        sigma = float(rng.uniform(1e-3, 2.0))
        if not lemma_magical_check(a, sigma)[2]:
            return False
    return True


def _check_lemma_lambert(seed) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        g1 = float(rng.uniform(0.01, 1.0))
        g2 = float(g1 * rng.uniform(3.001, 50.0))
        if not lemma_lambert_check(g1, g2)[0]:
            return False
    return True


def _check_projections(seed) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        lower = rng.uniform(-5, 0, n)
        upper = lower + rng.uniform(0, 5, n)
        lower[rng.random(n) < 0.2] = -np.inf
        upper[rng.random(n) < 0.2] = np.inf
        box = BoundBox(lower, upper)
        y = rng.uniform(-10, 10, n)
        z = project_box(y, box)
        if not box.contains(z):
            return False
        if not np.array_equal(project_box(z, box), z):  # idempotent
            return False
        y2 = rng.uniform(-10, 10, n)
        z2 = project_box(y2, box)
        if (np.abs(z - z2) > np.abs(y - y2) + 1e-15).any():  # nonexpansive
            return False
        center = project_box(rng.uniform(-10, 10, n), box)
        radii = rng.uniform(0, 3, n)
        zc = project_box_cap_trust(y, box, center, radii)
        if not box.contains(zc) or (np.abs(zc - center) > radii + 1e-12).any():
            return False
    return True


def _check_hess_bound(seed) -> bool:
    """||H(x)||_2 <= hess_bound(x), H built from hess_vec columns."""
    rng = np.random.default_rng(seed)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        prob = make_test_problem(PROBLEM_NAMES[trial % 4], n, trial)
        obj = prob.objective
        x = rng.uniform(prob.box.lower, prob.box.upper)
        hess = np.column_stack([obj.hess_vec(x, e) for e in np.eye(n)])
        if np.linalg.norm(hess, ord=2) > obj.hess_bound(x) * (1 + 1e-12):
            return False
    return True


def _check_lipschitz_sampled(seed) -> bool:
    """No sampled ||G(x) - G(y)|| / ||x - y|| exceeds the Lipschitz constant
    a family declares, at n = 2, 5 and 10.  A sample can refute the
    constant, not certify it."""
    for name in PROBLEM_NAMES:
        for n in (2, 5, 10):
            prob = make_test_problem(name, n, seed)
            if prob.objective.lipschitz is None:
                continue
            report = check_smoothness(prob.objective, prob.box, 2000, seed)
            if not report.within_bound:
                return False
    return True


def _check_f_low_sampled(seed) -> bool:
    """No f at 20,000 uniform points of the box falls below the f_low a
    family declares, at n = 2, 5 and 10.  A sample can refute f_low, not
    certify it."""
    for name in PROBLEM_NAMES:
        for n in (2, 5, 10):
            prob = make_test_problem(name, n, seed)
            rng = np.random.default_rng(seed)
            points = rng.uniform(prob.box.lower, prob.box.upper, (20000, n))
            if (prob.objective.f(points) < prob.objective.f_low).any():
                return False
    return True


def _check_constants_order(seed) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        report = compute_constants(
            sigma=float(rng.uniform(0.001, 1.0)),
            tau=float(rng.uniform(0.1, 1.0)),
            kappa_s=float(rng.uniform(1.0, 5.0)),
            kappa_b=float(rng.uniform(1.0, 10.0)),
            kappa_gg=float(rng.uniform(0.0, 5.0)),
            lipschitz=float(rng.uniform(0.0, 100.0)),
            gamma0=float(rng.uniform(0.01, 100.0)),
            dim=int(rng.integers(1, 1000)),
        )
        if not report.kappa_conv_exact <= report.kappa_conv_upper * (1 + 1e-12):
            return False
    return True


_CHECKS = (
    ("lambert_residual", _check_lambert_residual),
    ("chatzigeorgiou_bound", _check_chatzigeorgiou),
    ("lemma_magical", _check_magical),
    ("lemma_lambert", _check_lemma_lambert),
    ("projection_properties", _check_projections),
    ("hess_bound_certified", _check_hess_bound),
    ("lipschitz_sampled", _check_lipschitz_sampled),
    ("f_low_sampled", _check_f_low_sampled),
    ("constants_ordering", _check_constants_order),
)


def _cmd_check(args) -> int:
    failures = 0
    for name, fn in _CHECKS:
        ok = fn(args.seed)
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _cmd_verify_deterministic(args) -> int:
    problem = make_test_problem(args.problem, args.dim, args.problem_seed)
    params = SolverParams(sigma=args.sigma, tau=args.tau,
                          kappa_s=args.kappa_s)
    report = verify_deterministic_bound(
        problem, params, args.horizon,
        curvature=CurvatureSpec("zero", args.kappa_b),
    )
    if not report.applicable:
        print(f"corollary inapplicable: {report.reason}")
        return 0
    status = "holds" if report.holds else "VIOLATED"
    print(f"bound {status}: kappa_conv={report.kappa_conv:.6g} "
          f"max achieved/bound ratio={report.max_ratio:.6g}")
    return 0 if report.holds else 1


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "run": _cmd_run,
        "mc": _cmd_mc,
        "constants": _cmd_constants,
        "counterexample": _cmd_counterexample,
        "check": _cmd_check,
        "verify-deterministic": _cmd_verify_deterministic,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
