import dataclasses
import json

import pytest

from adagb2 import cli, solver
from adagb2.cli import cli_main

CONFIG = {
    "problem": {"name": "boxed_quadratic", "dim": 3, "seed": 2},
    "oracle": {"kind": "gaussian", "sigma": 0.1},
    "solver": {"sigma": 0.01},
    "run": {"horizon": 40, "replications": 2, "base_seed": 5},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def test_constants_hand_example(capsys):
    code = cli_main(["constants", "--sigma", "1", "--tau", "1",
                     "--kappa-s", "1", "--kappa-b", "1", "--kappa-gg", "0",
                     "--lipschitz", "1", "--gamma0", "1", "--dim", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kappa_W = 24" in out


def test_constants_json_format(tmp_path, capsys):
    path = tmp_path / "constants.json"
    code = cli_main(["constants", "--sigma", "0.1", "--tau", "1",
                     "--kappa-s", "1", "--kappa-b", "2", "--kappa-gg", "0",
                     "--lipschitz", "4", "--gamma0", "1", "--dim", "2",
                     "--format", "json", "--out", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa_conv_exact"] <= payload["kappa_conv_upper"]
    assert json.loads(path.read_text()) == payload  # --out writes the report


def test_constants_invalid_values(capsys):
    code = cli_main(["constants", "--sigma", "2", "--tau", "1",
                     "--kappa-s", "1", "--kappa-b", "1", "--kappa-gg", "0",
                     "--lipschitz", "1", "--gamma0", "1", "--dim", "1"])
    assert code == 2


def test_constants_non_finite_value_is_usage_error(capsys):
    # max(3.0, nan) is 3.0: a NaN input once printed a finite kappa_conv.
    code = cli_main(["constants", "--sigma", "0.1", "--tau", "1",
                     "--kappa-s", "nan", "--kappa-b", "1", "--kappa-gg", "0",
                     "--lipschitz", "1", "--gamma0", "1", "--dim", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: kappa_s must be finite and >= 1, got nan\n"
    assert captured.out == ""


def test_counterexample_closed_form(capsys):
    code = cli_main(["counterexample", "--k", "1", "--reps", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1,0.75,0.5,0.375," in out


@pytest.mark.parametrize("flags, message", [
    (["--k", "1", "-1"], "--k must be >= 1, got -1"),
    (["--k", "0", "--reps", "0"], "--k must be >= 1, got 0"),
    (["--reps", "-2"], "--reps must be >= 0, got -2"),
])
def test_counterexample_checks_its_flags_before_printing(capsys, flags,
                                                         message):
    code = cli_main(["counterexample", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_counterexample_simulation(capsys):
    code = cli_main(["counterexample", "--k", "9", "--reps", "5000",
                     "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean_abs_d" in out


def test_run_subcommand(config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = cli_main(["run", "--config", config_path, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "aggregate.csv").exists()
    assert (out_dir / "summary.json").exists()
    # run forces a single replication regardless of the config
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["replications"] == 1


def test_mc_subcommand_with_fit(config_path, tmp_path, capsys):
    code = cli_main(["mc", "--config", config_path,
                     "--out", str(tmp_path / "mc"),
                     "--fit-kmin", "5", "--fit-kmax", "39"])
    out = capsys.readouterr().out
    assert code == 0
    assert "slope=" in out
    assert (tmp_path / "mc" / "analysis.json").exists()


def test_mc_epsilon_report(config_path, capsys):
    code = cli_main(["mc", "--config", config_path,
                     "--epsilon", "0.05", "--delta", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p_A=" in out


def test_mc_epsilon_without_diagnostics_is_usage_error(config_path, capsys):
    # min ||Xi|| is NaN without diagnostics, which would report 0.000
    code = cli_main(["mc", "--config", config_path, "--no-diagnostics",
                     "--epsilon", "0.05", "--delta", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--epsilon needs diagnostics" in captured.err
    assert "empirical=" not in captured.out


@pytest.mark.parametrize("given", [["--fit-kmin", "10"], ["--fit-kmax", "39"]])
def test_mc_half_a_fit_range_is_usage_error(config_path, tmp_path, capsys,
                                            given):
    out_dir = tmp_path / "out"
    code = cli_main(["mc", "--config", config_path, "--out", str(out_dir),
                     *given])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --fit-kmin and --fit-kmax go together\n"
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("kmin, kmax, message", [
    (30, 10, "need k_max > k_min >= 1, got [30, 10]"),
    (0, 10, "need k_max > k_min >= 1, got [0, 10]"),
    (5, 40, "k_max 40 outside aggregated range 40"),  # horizon 40
    (5, 400, "k_max 400 outside aggregated range 40"),
])
def test_mc_bad_fit_range_is_refused_before_the_run(config_path, tmp_path,
                                                    capsys, monkeypatch,
                                                    kmin, kmax, message):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    out_dir = tmp_path / "out"
    code = cli_main(["mc", "--config", config_path, "--out", str(out_dir),
                     "--fit-kmin", str(kmin), "--fit-kmax", str(kmax)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert runs == []
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("given, message", [
    (["--epsilon", "nan"], "epsilon must be finite and > 0, got nan"),
    (["--epsilon", "inf"], "epsilon must be finite and > 0, got inf"),
    (["--epsilon", "0"], "epsilon must be finite and > 0, got 0.0"),
    (["--epsilon", "0.1", "--delta", "1.5"],
     "delta must be in (0, 1), got 1.5"),
    (["--epsilon", "0.1", "--delta", "nan"],
     "delta must be in (0, 1), got nan"),
])
def test_mc_bad_epsilon_or_delta_is_refused_before_the_run(
        config_path, tmp_path, capsys, monkeypatch, given, message):
    def no_run(config):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    out_dir = tmp_path / "out"
    code = cli_main(["mc", "--config", config_path, "--out", str(out_dir),
                     *given])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("section, values, message", [
    # inf made ExactClipped's scale NaN: 150 spurious violations, exit 1.
    ("curvature", {"kind": "exact_clipped", "kappa_b": float("inf")},
     "curvature.kappa_b: must be finite, got inf"),
    ("solver", {"kappa_s": 1e999}, "solver.kappa_s: must be finite, got inf"),
    ("oracle", {"kind": "gaussian", "sigma": float("inf")},
     "oracle.sigma: must be finite, got inf"),
    ("oracle", {"kind": "relative_bias", "rho": -float("inf"),
                "inner": {"kind": "exact"}},
     "oracle.rho: must be finite, got -inf"),
    ("oracle", {"kind": "constant_bias", "bias": [0.1, 0.0, 0.0],
                "inner": {"kind": "affine_gaussian", "kappa1": 0.1,
                          "kappa2": float("inf")}},
     "oracle.inner.kappa2: must be finite, got inf"),
], ids=["kappa_b", "kappa_s", "sigma", "rho", "inner_kappa2"])
def test_mc_non_finite_config_value_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch, section, values, message):
    def no_run(config):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({**CONFIG, section: values}))  # Infinity
    out_dir = tmp_path / "out"
    code = cli_main(["mc", "--config", str(path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("flag", ["--kappa-s", "--kappa-b"])
def test_verify_deterministic_infinite_kappa_is_refused_before_the_run(
        capsys, monkeypatch, flag):
    def no_run(*args, **kwargs):
        raise AssertionError("verify_deterministic_bound was called")

    monkeypatch.setattr(cli, "verify_deterministic_bound", no_run)
    code = cli_main(["verify-deterministic", flag, "inf"])
    captured = capsys.readouterr()
    name = flag[2:].replace("-", "_")
    assert code == 2
    assert captured.err == f"error: {name} must be finite and >= 1, got inf\n"
    assert captured.out == ""


def test_mc_delta_without_epsilon_is_usage_error(config_path, tmp_path,
                                                 capsys):
    out_dir = tmp_path / "out"
    code = cli_main(["mc", "--config", config_path, "--out", str(out_dir),
                     "--delta", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --delta needs --epsilon\n"
    assert captured.out == "" and not out_dir.exists()


def test_mc_delta_defaults_to_a_tenth_under_epsilon(tmp_path, capsys):
    # solver.sigma 1 makes event A fail on one of the two replications:
    # p_A = 0.5 <= 1 - delta, so the corollary gives no iteration count.
    path = _write(tmp_path, {**CONFIG, "solver": {"sigma": 1.0}})
    code = cli_main(["mc", "--config", path, "--out", str(tmp_path / "mc"),
                     "--epsilon", "0.05"])
    assert code == 0
    assert "theoretical k=inf p_A=0.500" in capsys.readouterr().out
    report = json.loads((tmp_path / "mc" / "analysis.json").read_text())
    report = report["probability_report"]
    assert report["delta"] == 0.1 and report["k_theoretical"] == float("inf")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_numerical_failure_exits_1(tmp_path, capsys):
    # Noise of scale 1e308 overflows a gradient estimate to inf.
    path = _write(tmp_path, {**CONFIG, "oracle": {"kind": "gaussian",
                                                  "sigma": 1e308}})
    assert cli_main(["run", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "numerical failure: non-finite gradient estimate")
    assert captured.out == ""


def _write(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_mc_epsilon_needs_a_lipschitz_constant(tmp_path, capsys):
    # Rosenbrock has no certified Lipschitz constant: no probability
    # report, and nothing is run.
    path = _write(tmp_path, {**CONFIG, "problem": {"name": "boxed_rosenbrock",
                                                   "dim": 2}})
    out_dir = tmp_path / "out"
    code = cli_main(["mc", "--config", path, "--out", str(out_dir),
                     "--epsilon", "0.05"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "Lipschitz" in captured.err
    assert captured.out == "" and not out_dir.exists()


def test_first_order_step_mode_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, {**CONFIG, "solver": {"step_mode": "first_order"}})
    assert cli_main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver: unknown step_mode 'first_order'")
    assert "('cauchy', 'sign_adagrad')" in err


def test_wrong_bias_length_exits_before_the_first_iteration(tmp_path, capsys,
                                                             monkeypatch):
    draws = []
    monkeypatch.setattr(solver, "draw", lambda *a, **k: draws.append(a))
    path = _write(tmp_path, {**CONFIG, "oracle": {
        "kind": "constant_bias", "bias": [0.1, 0.2],
        "inner": {"kind": "gaussian", "sigma": 0.1}}})
    assert cli_main(["mc", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: constant_bias: bias shape (2,)")
    assert "dimension 3" in err and not draws


@pytest.mark.parametrize("oracle, message", [
    ({"kind": "relative_bias", "rho": 0.1, "inner": {"kind": "subsample"}},
     "oracle.inner.batch_size: required"),
    ({"kind": "gaussian", "sigma": 0.1, "radius": 1.0},
     "oracle: unknown keys: radius"),
])
def test_bad_oracle_fields_are_usage_errors(tmp_path, capsys, oracle,
                                            message):
    path = _write(tmp_path, {**CONFIG, "oracle": oracle})
    assert cli_main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_missing_config_is_usage_error(capsys):
    code = cli_main(["run", "--config", "/nonexistent/config.json"])
    assert code == 2


def test_invalid_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for config in ({"problem": {"name": "nope", "dim": 2},
                    "run": {"horizon": 5}},
                   {**CONFIG, "bounds": {"lower": [None, 0, 0],
                                         "upper": [1, 1, 1]}}):
        bad.write_text(json.dumps(config))
        code = cli_main(["run", "--config", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("section, values", [
    ("curvature", {"kind": "scalar_bb", "kappa_b": float("nan")}),
    ("solver", {"kappa_s": float("nan")}),
    ("oracle", {"kind": "gaussian", "sigma": float("nan")}),
    ("oracle", {"kind": "bounded_uniform", "radius": float("nan")}),
    ("oracle", {"kind": "affine_gaussian", "kappa1": float("nan"),
                "kappa2": 0.1}),
    ("oracle", {"kind": "affine_gaussian", "kappa1": 0.1,
                "kappa2": float("nan")}),
    ("oracle", {"kind": "relative_bias", "rho": float("nan"),
                "inner": {"kind": "exact"}}),
    ("oracle", {"kind": "constant_bias", "bias": [0.1, float("nan"), 0.0],
                "inner": {"kind": "exact"}}),
], ids=["kappa_b", "kappa_s", "sigma", "radius", "kappa1", "kappa2", "rho",
        "bias"])
def test_nan_config_value_is_usage_error(tmp_path, capsys, section, values):
    # json writes NaN as a bare NaN token, which json.load reads back.
    config = {**CONFIG, section: values}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(config))
    code = cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_seed_override_changes_output(config_path, tmp_path):
    outs = []
    for seed, name in (("5", "a"), ("6", "b")):
        out_dir = tmp_path / name
        assert cli_main(["run", "--config", config_path, "--seed", seed,
                         "--out", str(out_dir)]) == 0
        outs.append((out_dir / "aggregate.csv").read_bytes())
    assert outs[0] != outs[1]


def test_rerun_byte_identical(config_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert cli_main(["mc", "--config", config_path,
                         "--out", str(out_dir)]) == 0
        outs.append({f: (out_dir / f).read_bytes()
                     for f in ("aggregate.csv", "traces.csv", "summary.json")})
    assert outs[0] == outs[1]


def test_check_subcommand(capsys):
    code = cli_main(["check", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 9
    assert "PASS lipschitz_sampled" in out
    assert "PASS f_low_sampled" in out


def test_check_refutes_an_understated_lipschitz_constant(capsys,
                                                         monkeypatch):
    # The quartic's gradient x^3 - x has Lipschitz constant 11 on [-2, 2];
    # the sampled ratios at n = 2 reach 8.7, above a declared 5.
    make = cli.make_test_problem

    def understated(name, dim, seed):
        prob = make(name, dim, seed)
        if name != "boxed_nonconvex_quartic":
            return prob
        return dataclasses.replace(prob, objective=dataclasses.replace(
            prob.objective, lipschitz=5.0))

    monkeypatch.setattr(cli, "make_test_problem", understated)
    code = cli_main(["check", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL lipschitz_sampled" in out
    assert out.count("FAIL") == 1


def test_check_refutes_an_overstated_f_low(capsys, monkeypatch):
    # The quartic's f is -0.25 per coordinate at its minima; the uniform
    # points at n = 2 come within 5e-5 of -0.5, below a declared -0.48.
    make = cli.make_test_problem

    def overstated(name, dim, seed):
        prob = make(name, dim, seed)
        if name != "boxed_nonconvex_quartic":
            return prob
        return dataclasses.replace(prob, objective=dataclasses.replace(
            prob.objective, f_low=-0.24 * dim))

    monkeypatch.setattr(cli, "make_test_problem", overstated)
    code = cli_main(["check", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL f_low_sampled" in out
    assert out.count("FAIL") == 1


def test_verify_deterministic(capsys):
    code = cli_main(["verify-deterministic", "--dim", "3",
                     "--horizon", "1500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound holds" in out


def test_verify_deterministic_inapplicable_exits_0(capsys):
    # ||d_0||^2 = 0.2519 at this problem's start, below sigma = 0.5.
    code = cli_main(["verify-deterministic", "--sigma", "0.5",
                     "--horizon", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("corollary inapplicable: hypothesis "
                          "sigma < ||d_0||^2 fails (0.5 >= 0.25")
