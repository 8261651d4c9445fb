import json
import math
from dataclasses import fields

import numpy as np
import pytest

from adagb2 import harness
from adagb2.curvature import CurvatureSpec
from adagb2.errors import ConfigurationError
from adagb2.harness import (Aggregate, ExperimentConfig, aggregate_results,
                            fit_rate, markov_complexity_report, run_experiment,
                            theory_constants, verify_deterministic_bound,
                            write_aggregate_csv, write_experiment_outputs,
                            write_traces_csv)
from adagb2.oracle import (NOISE_MODELS, AffineGaussian, BoundedUniform,
                           ConstantBias, Exact, Gaussian, NoiseModel,
                           RelativeBias, Subsample)
from adagb2.problem import make_test_problem
from adagb2.solver import SolverParams, run

BASE_CONFIG = {
    "problem": {"name": "boxed_quadratic", "dim": 4, "seed": 1},
    "oracle": {"kind": "gaussian", "sigma": 0.1},
    "curvature": {"kind": "zero", "kappa_b": 1.0},
    "solver": {"sigma": 0.01, "tau": 1.0, "kappa_s": 1.0,
               "step_mode": "cauchy"},
    "run": {"horizon": 50, "replications": 3, "base_seed": 7},
}


def _fmt(value) -> str:
    """The reference number format of the CSV outputs."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


def _config(**overrides):
    data = json.loads(json.dumps(BASE_CONFIG))
    for section, values in overrides.items():
        if isinstance(values, dict) and section not in ("oracle", "bounds"):
            data.setdefault(section, {}).update(values)
        else:
            data[section] = values
    return data


def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(_config())
    assert cfg.problem_name == "boxed_quadratic"
    assert cfg.dim == 4
    assert cfg.oracle == Gaussian(0.1)
    assert cfg.curvature == CurvatureSpec("zero", 1.0)
    assert cfg.horizon == 50
    assert cfg.replications == 3
    assert cfg.base_seed == 7
    assert cfg.workers == 1  # default


def test_config_defaults():
    cfg = ExperimentConfig.from_dict({
        "problem": {"name": "boxed_quadratic", "dim": 2},
        "run": {"horizon": 10},
    })
    assert cfg.oracle.kind == "exact"
    assert cfg.curvature.kind == "zero"
    assert cfg.solver == SolverParams()
    assert cfg.replications == 1


def test_config_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match="sections"):
        ExperimentConfig.from_dict(_config(bogus={"a": 1}))


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="solver"):
        ExperimentConfig.from_dict(_config(solver={"stepsize": 0.1}))


def test_config_type_errors():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(_config(run={"horizon": "many"}))
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(_config(run={"horizon": True}))  # bool != int
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(_config(oracle={"kind": "laplace"}))
    with pytest.raises(ConfigurationError, match="solver.sigma"):
        ExperimentConfig.from_dict(_config(solver={"sigma": "0.1"}))
    with pytest.raises(ConfigurationError, match="solver.tau"):
        ExperimentConfig.from_dict(_config(solver={"tau": True}))
    with pytest.raises(ConfigurationError, match="run.horizon"):
        ExperimentConfig.from_dict(_config(run={"horizon": 2.5}))
    with pytest.raises(ConfigurationError, match="run.horizon"):
        ExperimentConfig.from_dict(_config(run={"horizon": math.inf}))
    with pytest.raises(ConfigurationError, match="solver.tau"):
        ExperimentConfig.from_dict(_config(solver={"tau": 10**400}))
    for lower in ([None, 0, 0, 0], [[0], 0, 0, 0], [False, 0, 0, 0],
                  ["0", 0, 0, 0]):
        with pytest.raises(ConfigurationError, match=r"bounds.lower\[0\]"):
            ExperimentConfig.from_dict(_config(bounds={
                "lower": lower, "upper": [1.0] * 4}))
    with pytest.raises(ConfigurationError, match=r"oracle.bias\[1\]"):
        ExperimentConfig.from_dict(_config(oracle={
            "kind": "constant_bias", "bias": [0.0, True, 0.0, 0.0],
            "inner": {"kind": "exact"}}))
    # An integral float is taken as an int, an int as a float.
    cfg = ExperimentConfig.from_dict(_config(run={"horizon": 50.0},
                                             solver={"tau": 1}))
    assert cfg.horizon == 50 and isinstance(cfg.horizon, int)
    assert cfg.solver.tau == 1.0 and isinstance(cfg.solver.tau, float)


@pytest.mark.parametrize("section, key, message", [
    ("problem", "dim", "problem.dim: must be >= 1, got 0"),
    ("run", "horizon", "run.horizon: must be >= 1"),
    ("run", "replications", "run.replications: must be >= 1"),
    ("run", "workers", "run.workers: must be >= 1"),
])
def test_config_counts_must_be_positive(section, key, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        ExperimentConfig.from_dict(_config(**{section: {key: 0}}))


def test_config_nested_oracle():
    cfg = ExperimentConfig.from_dict(_config(oracle={
        "kind": "constant_bias", "bias": [0.05, 0.0, 0.0, 0.0],
        "inner": {"kind": "gaussian", "sigma": 0.1},
    }))
    assert isinstance(cfg.oracle, ConstantBias)
    assert cfg.oracle.inner == Gaussian(0.1)
    # the old flat keys must be gone
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(_config(oracle={
            "kind": "constant_bias", "bias": [0.0] * 4,
            "inner": {"kind": "gaussian", "sigma": 0.1}, "extra": 1,
        }))


# A config of every noise-model kind and the model it must parse to; the
# bias wrappers nest each other.
ORACLE_CASES = {
    "exact": ({"kind": "exact"}, Exact()),
    "gaussian": ({"kind": "gaussian", "sigma": 0.1}, Gaussian(0.1)),
    "bounded_uniform": ({"kind": "bounded_uniform", "radius": 2},
                        BoundedUniform(2.0)),
    "affine_gaussian": ({"kind": "affine_gaussian", "kappa1": 0.01,
                         "kappa2": 0.5}, AffineGaussian(0.01, 0.5)),
    "constant_bias": (
        {"kind": "constant_bias", "bias": [0.05, 0, -1e-3, 2],
         "inner": {"kind": "relative_bias", "rho": -0.2,
                   "inner": {"kind": "gaussian", "sigma": 0.1}}},
        ConstantBias(np.array([0.05, 0.0, -1e-3, 2.0]),
                     RelativeBias(-0.2, Gaussian(0.1)))),
    "relative_bias": (
        {"kind": "relative_bias", "rho": 0.3,
         "inner": {"kind": "constant_bias", "bias": [1, 2, 3, 4],
                   "inner": {"kind": "subsample", "batch_size": 3}}},
        RelativeBias(0.3, ConstantBias(np.arange(1.0, 5.0), Subsample(3)))),
    "subsample": ({"kind": "subsample", "batch_size": 5}, Subsample(5)),
}


def _assert_same_model(a, b):
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        elif isinstance(y, NoiseModel):
            _assert_same_model(x, y)
        else:
            assert type(x) is type(y) and x == y


def _sections(data, where="oracle"):
    """Each oracle object of a config, the nested ones too, and its path."""
    yield data, where
    if "inner" in data:
        yield from _sections(data["inner"], where + ".inner")


@pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
def test_parse_every_oracle_kind(kind):
    config, model = ORACLE_CASES[kind]
    data = json.loads(json.dumps(config))  # a copy to take keys out of
    _assert_same_model(ExperimentConfig.from_dict(_config(oracle=data)).oracle,
                       model)
    # Every field is required, and no other key is taken, at every depth.
    for section, where in _sections(data):
        for name in [key for key in section if key != "kind"]:
            value = section.pop(name)
            with pytest.raises(ConfigurationError,
                               match=rf"^{where}\.{name}: required"):
                ExperimentConfig.from_dict(_config(oracle=data))
            section[name] = value
        section["extra"] = 1
        with pytest.raises(ConfigurationError,
                           match=rf"^{where}: unknown keys: extra"):
            ExperimentConfig.from_dict(_config(oracle=data))
        del section["extra"]


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(str(bad))


def test_bounds_override():
    cfg = ExperimentConfig.from_dict(_config(bounds={
        "lower": [0.1, 0.1, 0.1, 0.1], "upper": [0.9, 0.9, 0.9, 0.9],
    }))
    prob = cfg.build_problem()
    assert np.array_equal(prob.box.lower, np.full(4, 0.1))
    assert prob.box.contains(prob.x_ini)


def test_bounds_override_dimension_mismatch():
    cfg = ExperimentConfig.from_dict(_config(bounds={
        "lower": [0.0], "upper": [1.0],
    }))
    with pytest.raises(ConfigurationError):
        cfg.build_problem()


def test_run_experiment_and_aggregate_shapes():
    exp = run_experiment(ExperimentConfig.from_dict(_config()))
    agg = exp.aggregate
    assert len(exp.results) == 3
    assert agg.k.shape == (50,)
    assert agg.reps_used <= 3
    assert 0.0 <= agg.p_a <= 1.0
    assert exp.total_violations == 0
    # running averages agree with a direct recomputation
    want = np.cumsum(agg.mean_norm_d) / np.arange(1, 51)
    assert np.allclose(agg.run_avg_d, want, rtol=1e-15)
    assert (np.diff(agg.min_xi) <= 0).all()


def test_parallel_matches_serial():
    # workers=2 over 3 replications: blocks of 2 and 1, merged in order.
    serial = run_experiment(ExperimentConfig.from_dict(_config()))
    parallel = run_experiment(ExperimentConfig.from_dict(
        _config(run={"workers": 2})))
    assert len(serial.results) == len(parallel.results) == 3
    for a, b in zip(serial.results, parallel.results):
        assert a.event_a == b.event_a
        assert a.violations == b.violations
        for name, value in vars(a).items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(b, name).tobytes(), name
        assert a.final_state.x.tobytes() == b.final_state.x.tobytes()
        assert a.final_state.w.tobytes() == b.final_state.w.tobytes()


def test_aggregate_conditions_on_event_a():
    prob = make_test_problem("boxed_quadratic", 4, 1)
    results = [run(prob, Gaussian(0.1), CurvatureSpec("zero"), SolverParams(),
                   30, base_seed=0, replication=r) for r in range(4)]
    # force one replication to fail the event flag
    results[0].event_a = False
    agg = aggregate_results(results)
    assert agg.reps_used == 3
    assert agg.p_a == 0.75
    only = aggregate_results(results[1:])
    assert np.array_equal(agg.mean_norm_d, only.mean_norm_d)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate_results([])


def test_fit_rate_recovers_exact_power_law():
    horizon = 1000
    k = np.arange(horizon)
    series = 3.0 * (k + 1.0) ** -0.5
    agg = Aggregate(
        k=k, mean_norm_d=series, se_norm_d=np.zeros(horizon),
        mean_norm_xi=series, se_norm_xi=np.zeros(horizon),
        mean_err=np.zeros(horizon), mean_rmse=np.zeros(horizon),
        run_avg_d=series, run_avg_xi=series,
        min_xi=np.minimum.accumulate(series), p_a=1.0,
        violations=np.zeros(horizon, dtype=np.int64), reps_used=1,
    )
    slope, intercept, r2 = fit_rate(agg, 10, 999)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_rate_validation():
    exp = run_experiment(ExperimentConfig.from_dict(_config()))
    with pytest.raises(ValueError):
        fit_rate(exp.aggregate, 10, 10)
    with pytest.raises(ValueError):
        fit_rate(exp.aggregate, 1, 10**6)


def test_deterministic_bound_holds_on_quadratic():
    prob = make_test_problem("boxed_quadratic", 3, 0)
    report = verify_deterministic_bound(prob, SolverParams(), 2000)
    assert report.applicable
    assert report.holds
    assert report.max_ratio <= 1.0
    assert report.constants.kappa_gg == 0.0


def test_deterministic_bound_inapplicable_near_critical_start():
    # start essentially at the solution: ||d_0||^2 < sigma
    prob = make_test_problem("boxed_quadratic", 2, 0)
    x_star = np.clip(1.0 / np.linspace(1, 4, 2), 0.0, 1.0)
    from adagb2.problem import TestProblem as BoxProblem

    near = BoxProblem("near_critical", prob.objective, prob.box, x_star)
    report = verify_deterministic_bound(near, SolverParams(sigma=0.5), 10)
    assert not report.applicable
    assert "d_0" in report.reason


def test_deterministic_bound_needs_a_lipschitz_constant_before_running(
        monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the horizon ran")

    monkeypatch.setattr(harness, "run", no_run)
    rosenbrock = make_test_problem("boxed_rosenbrock", 2, 0)
    with pytest.raises(ConfigurationError, match="Lipschitz"):
        verify_deterministic_bound(rosenbrock, SolverParams(), 10000)


def test_theory_constants_need_their_hypotheses():
    params = SolverParams()
    rosenbrock = make_test_problem("boxed_rosenbrock", 2, 0)
    with pytest.raises(ConfigurationError, match="Lipschitz"):
        theory_constants(rosenbrock, params, 1.0)
    prob = make_test_problem("boxed_quadratic", 2, 0)
    x_star = np.clip(1.0 / np.linspace(1, 4, 2), 0.0, 1.0)
    from adagb2.problem import TestProblem as BoxProblem

    at_minimum = BoxProblem("at_minimum", prob.objective, prob.box, x_star)
    with pytest.raises(ConfigurationError, match="positive starting gap"):
        theory_constants(at_minimum, params, 1.0)
    constants = theory_constants(prob, params, 2.0)
    assert constants.kappa_gg == 0.0 and constants.kappa_b == 2.0
    assert constants.lipschitz == prob.objective.lipschitz


def test_markov_report():
    prob = make_test_problem("boxed_quadratic", 3, 0)
    results = [run(prob, Gaussian(0.05), CurvatureSpec("zero"), SolverParams(),
                   500, base_seed=1, replication=r) for r in range(5)]
    rep = markov_complexity_report(results, epsilon=0.05, delta=0.2,
                                   kappa_conv=100.0)
    assert 0.0 <= rep["empirical_fraction"] <= 1.0
    assert rep["k_theoretical"] > 0
    for epsilon, delta in ((0.0, 0.2), (math.nan, 0.2), (math.inf, 0.2),
                           (0.05, 1.5), (0.05, math.nan)):
        with pytest.raises(ValueError):
            markov_complexity_report(results, epsilon=epsilon, delta=delta,
                                     kappa_conv=100.0)
    # Without diagnostics min ||Xi|| is NaN, which no fraction can use.
    blind = [run(prob, Gaussian(0.05), CurvatureSpec("zero"), SolverParams(),
                 50, base_seed=1, diagnostics=False)]
    with pytest.raises(ValueError, match="diagnostics"):
        markov_complexity_report(blind, epsilon=0.05, delta=0.2,
                                 kappa_conv=100.0)


def test_csv_output_format(tmp_path):
    exp = run_experiment(ExperimentConfig.from_dict(_config()))
    path = tmp_path / "agg.csv"
    write_aggregate_csv(str(path), exp.aggregate)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(Aggregate.COLUMNS)
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == exp.aggregate.mean_norm_d[0]


def test_write_experiment_outputs_csv_and_json(tmp_path):
    exp = run_experiment(ExperimentConfig.from_dict(_config()))
    paths = write_experiment_outputs(exp, str(tmp_path / "csv"), fmt="csv")
    names = {p.split("/")[-1] for p in paths}
    assert names == {"aggregate.csv", "traces.csv", "summary.json"}
    paths = write_experiment_outputs(exp, str(tmp_path / "json"), fmt="json")
    names = {p.split("/")[-1] for p in paths}
    assert names == {"aggregate.json", "summary.json"}
    summary = json.loads((tmp_path / "json" / "summary.json").read_text())
    assert summary["horizon"] == 50
    assert summary["p_A"] == exp.aggregate.p_a
    with pytest.raises(ConfigurationError,
                       match="^unknown output format 'xml'$"):
        write_experiment_outputs(exp, str(tmp_path / "xml"), fmt="xml")


def test_unknown_output_format_makes_no_directory(tmp_path):
    exp = run_experiment(ExperimentConfig.from_dict(_config()))
    out_dir = tmp_path / "xml"
    with pytest.raises(ConfigurationError,
                       match="^unknown output format 'xml'$"):
        write_experiment_outputs(exp, str(out_dir), fmt="xml")
    assert not out_dir.exists()


def test_traces_csv_matches_fmt_reference(tmp_path):
    # Diagnostics off: the norm_xi, err_norm and f columns are all NaN.
    exp = run_experiment(ExperimentConfig.from_dict(
        _config(run={"diagnostics": False})))
    assert np.isnan(exp.results[0].norm_xi).all()
    agg = exp.aggregate
    lines = ["k,mean_norm_d,se_norm_d,mean_norm_xi,se_norm_xi,mean_err,"
             "mean_rmse,run_avg_d,run_avg_xi,min_xi,p_A,violations"]
    for i in range(agg.k.shape[0]):
        lines.append(",".join([
            _fmt(agg.k[i]), _fmt(agg.mean_norm_d[i]), _fmt(agg.se_norm_d[i]),
            _fmt(agg.mean_norm_xi[i]), _fmt(agg.se_norm_xi[i]),
            _fmt(agg.mean_err[i]), _fmt(agg.mean_rmse[i]),
            _fmt(agg.run_avg_d[i]), _fmt(agg.run_avg_xi[i]),
            _fmt(agg.min_xi[i]), _fmt(agg.p_a), _fmt(agg.violations[i]),
        ]))
    path = tmp_path / "aggregate.csv"
    write_aggregate_csv(str(path), agg)
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    lines = ["rep,k,norm_d,norm_xi,err_norm,gamma,f,event_A"]
    for rep, res in enumerate(exp.results):
        flag = "1" if res.event_a else "0"
        for k in range(res.horizon):
            lines.append(",".join([
                str(rep), str(k), _fmt(res.norm_d[k]), _fmt(res.norm_xi[k]),
                _fmt(res.err_norm[k]), _fmt(res.gamma[k]),
                _fmt(res.f_values[k]), flag,
            ]))
    path = tmp_path / "traces.csv"
    write_traces_csv(str(path), exp.results)
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_fmt_matches_float_format():
    # The CSV writer formats floats with "%.17g" and ints with "%d".
    for v in (0.0, -0.0, 1.0 / 3.0, -2.5e-300, 5e-324, 1e308, np.inf,
              -np.inf, np.nan, -np.nan):
        assert _fmt(np.float64(v)) == f"{float(v):.17g}" == "%.17g" % v
    for v in (0, -3, 2**62):
        assert _fmt(np.int64(v)) == "%d" % v


def test_outputs_byte_identical_across_runs(tmp_path):
    for out in ("a", "b"):
        exp = run_experiment(ExperimentConfig.from_dict(_config()))
        write_experiment_outputs(exp, str(tmp_path / out), fmt="csv")
    for name in ("aggregate.csv", "traces.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
