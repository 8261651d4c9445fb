import json

import pytest

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


def test_constants_json_format(capsys):
    code = cli_main(["constants", "--sigma", "0.1", "--tau", "1",
                     "--kappa-s", "1", "--kappa-b", "2", "--kappa-gg", "0",
                     "--lipschitz", "4", "--gamma0", "1", "--dim", "2",
                     "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa_conv_exact"] <= payload["kappa_conv_upper"]


def test_constants_invalid_values(capsys):
    code = cli_main(["constants", "--sigma", "2", "--tau", "1",
                     "--kappa-s", "1", "--kappa-b", "1", "--kappa-gg", "0",
                     "--lipschitz", "1", "--gamma0", "1", "--dim", "1"])
    assert code == 2


def test_counterexample_closed_form(capsys):
    code = cli_main(["counterexample", "--k", "1", "--reps", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1,0.75,0.5,0.375," in out


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


def test_missing_config_is_usage_error(capsys):
    code = cli_main(["run", "--config", "/nonexistent/config.json"])
    assert code == 2


def test_invalid_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": {"name": "nope", "dim": 2},
                               "run": {"horizon": 5}}))
    code = cli_main(["run", "--config", str(bad)])
    assert code == 2


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
    assert out.count("PASS") == 6


def test_verify_deterministic(capsys):
    code = cli_main(["verify-deterministic", "--dim", "3",
                     "--horizon", "1500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound holds" in out
