"""Golden digests: the results of a fixed matrix of runs, pinned bit for bit.

Every configuration of 4 problem families x every oracle x 4 curvature
providers x diagnostics on and off (R=3, 300 iterations), plus the
``sign_adagrad`` step on each family, is run and hashed: each history's
bytes, the violation counts, ``event_a`` and the final ``x`` and ``w`` of
every replication.  A few R=5 runs pin the block draw path of the
Gaussian-type oracles the same way, and a few R=20 runs pin it across two
block refills.  A few ``adagb2 mc`` runs hash their output files.  The
digests are compared with ``golden_digests.json``.

The bits depend on numpy (its Philox stream, its normal sampler, its SIMD
``exp``/``log`` and reduction kernels), so the file records the numpy
version and the platform it was made on; anywhere else the test skips and
names both.  A changed digest is a change of results.  To record new
digests after such a change, run from the root of a checkout::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import platform
import sys

import numpy as np
import pytest

from adagb2.cli import cli_main
from adagb2.harness import ExperimentConfig, run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")

FAMILIES = ("boxed_quadratic", "boxed_rosenbrock", "boxed_nonconvex_quartic",
            "finite_sum_logistic")
ORACLES = {
    "exact": {"kind": "exact"},
    "gaussian": {"kind": "gaussian", "sigma": 0.1},
    "bounded_uniform": {"kind": "bounded_uniform", "radius": 0.2},
    "affine_gaussian": {"kind": "affine_gaussian", "kappa1": 0.01,
                        "kappa2": 0.05},
    "constant_bias": {"kind": "constant_bias", "bias": [0.03, -0.02, 0.01],
                      "inner": {"kind": "gaussian", "sigma": 0.05}},
    "relative_bias": {"kind": "relative_bias", "rho": 0.1,
                      "inner": {"kind": "bounded_uniform", "radius": 0.1}},
    "subsample": {"kind": "subsample", "batch_size": 4},
}
CURVATURES = ("zero", "scalar_bb", "exact_clipped", "diagonal_fd")
HISTORY_NAMES = ("norm_d", "norm_xi", "err_norm", "gamma", "f_values",
                 "step_sq", "violation_count")

# adagb2 mc runs whose output files are pinned: (name, config, extra flags).
MC_RUNS = (
    ("quadratic_csv", {
        "problem": {"name": "boxed_quadratic", "dim": 2, "seed": 0},
        "oracle": {"kind": "gaussian", "sigma": 0.1},
        "run": {"horizon": 300, "replications": 4, "base_seed": 7},
    }, ["--epsilon", "0.05", "--delta", "0.1", "--fit-kmin", "10",
        "--fit-kmax", "299"]),
    ("logistic_json", {
        "problem": {"name": "finite_sum_logistic", "dim": 5, "seed": 3},
        "oracle": {"kind": "subsample", "batch_size": 10},
        "curvature": {"kind": "diagonal_fd", "kappa_b": 16.0},
        "run": {"horizon": 200, "replications": 3, "base_seed": 9},
    }, ["--format", "json"]),
    ("rosenbrock_bias_fit", {
        "problem": {"name": "boxed_rosenbrock", "dim": 3, "seed": 1},
        "oracle": ORACLES["constant_bias"],
        "curvature": {"kind": "scalar_bb", "kappa_b": 16.0},
        "solver": {"sigma": 0.05, "tau": 0.5},
        "run": {"horizon": 200, "replications": 3, "base_seed": 2},
    }, ["--fit-kmin", "10", "--fit-kmax", "199"]),
    ("quartic_no_diagnostics", {
        "problem": {"name": "boxed_nonconvex_quartic", "dim": 3, "seed": 4},
        "oracle": ORACLES["affine_gaussian"],
        "curvature": {"kind": "exact_clipped", "kappa_b": 16.0},
        "run": {"horizon": 200, "replications": 3, "base_seed": 1},
    }, ["--no-diagnostics"]),
)


def environment() -> dict:
    """What the digests depend on besides the code: numpy and the platform.

    The platform names the operating system, the machine and the numpy
    SIMD targets this CPU enables, which pick the ``exp``/``log`` and
    reduction kernels.
    """
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__,
            "platform": f"{sys.platform}-{platform.machine()} "
                        f"[{' '.join(targets)}]"}


def _configs():
    """(name, config dict) of every run of the matrix."""
    for family in FAMILIES:
        for oracle, model in ORACLES.items():
            if oracle == "subsample" and family != "finite_sum_logistic":
                continue  # subsampling needs a finite sum
            for curvature in CURVATURES:
                for diagnostics in (True, False):
                    yield (f"{family}/{oracle}/{curvature}/cauchy/"
                           f"{'diag' if diagnostics else 'nodiag'}",
                           family, model, curvature, "cauchy", diagnostics)
        for diagnostics in (True, False):
            yield (f"{family}/gaussian/zero/sign_adagrad/"
                   f"{'diag' if diagnostics else 'nodiag'}",
                   family, ORACLES["gaussian"], "zero", "sign_adagrad",
                   diagnostics)


# Runs of R=5 with diagnostics.  Their normals come from the block path
# (``oracle.StreamRows.block_normals``), as do those of every R=3 run above
# with a Gaussian-type oracle: n is at most ``oracle.BLOCK_WORDS``.
BLOCK_FAMILIES = ("boxed_quadratic", "boxed_rosenbrock")
BLOCK_ORACLES = {
    "affine_gaussian": ORACLES["affine_gaussian"],
    "constant_bias": ORACLES["constant_bias"],
    "relative_bias": {"kind": "relative_bias", "rho": 0.1,
                      "inner": {"kind": "gaussian", "sigma": 0.05}},
}


def _block_configs():
    """(name, config dict) of every R=5 run."""
    for family in BLOCK_FAMILIES:
        for oracle, model in BLOCK_ORACLES.items():
            yield (f"block_r5/{family}/{oracle}", {
                "problem": {"name": family, "dim": 3, "seed": 1},
                "oracle": model,
                "curvature": {"kind": "scalar_bb", "kappa_b": 16.0},
                "run": {"horizon": 300, "replications": 5, "base_seed": 5},
            })


# Runs of R=20, n=2 whose horizon crosses two refills of the block path:
# its blocks hold 204 iterations of 20 rows (``oracle.BLOCK_COUNTERS``).
REFILL_ORACLES = {
    "gaussian": ORACLES["gaussian"],
    "affine_gaussian": ORACLES["affine_gaussian"],
    "constant_bias": {"kind": "constant_bias", "bias": [0.03, -0.02],
                      "inner": ORACLES["constant_bias"]["inner"]},
}


def _refill_configs():
    """(name, config dict) of every R=20 run."""
    for oracle, model in REFILL_ORACLES.items():
        for curvature in ("zero", "scalar_bb"):
            yield (f"refill_r20/boxed_quadratic/{oracle}/{curvature}", {
                "problem": {"name": "boxed_quadratic", "dim": 2, "seed": 0},
                "oracle": model,
                "curvature": {"kind": curvature, "kappa_b": 16.0},
                "run": {"horizon": 450, "replications": 20, "base_seed": 7},
            })


def _run_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        for name in HISTORY_NAMES:
            h.update(getattr(res, name).tobytes())
        h.update(json.dumps(res.violations).encode())
        h.update(b"A" if res.event_a else b"-")
        h.update(res.final_state.x.tobytes())
        h.update(res.final_state.w.tobytes())
    return h.hexdigest()


def run_digests() -> dict:
    digests = {}
    for name, family, model, curvature, step_mode, diagnostics in _configs():
        config = ExperimentConfig.from_dict({
            "problem": {"name": family, "dim": 3, "seed": 1},
            "oracle": model,
            "curvature": {"kind": curvature, "kappa_b": 16.0},
            "solver": {"step_mode": step_mode},
            "run": {"horizon": 300, "replications": 3, "base_seed": 5,
                    "diagnostics": diagnostics},
        })
        digests[name] = _run_digest(run_experiment(config).results)
    for name, data in (*_block_configs(), *_refill_configs()):
        digests[name] = _run_digest(
            run_experiment(ExperimentConfig.from_dict(data)).results)
    return digests


def file_digests(work_dir) -> dict:
    digests = {}
    for name, config, flags in MC_RUNS:
        path = os.path.join(work_dir, f"{name}.json")
        out = os.path.join(work_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = cli_main(["mc", "--config", path, "--out", out] + flags)
        digests[f"{name}/exit_code"] = str(code)
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                digests[f"{name}/{fname}"] = hashlib.sha256(
                    fh.read()).hexdigest()
    return digests


def _mismatches(expected: dict, actual: dict) -> list:
    return sorted(k for k in expected.keys() | actual.keys()
                  if expected.get(k) != actual.get(k))


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    here = environment()
    if golden["environment"] != here:
        pytest.skip(f"golden digests were recorded with numpy "
                    f"{golden['environment']['numpy']} on "
                    f"{golden['environment']['platform']}; this is numpy "
                    f"{here['numpy']} on {here['platform']}")
    return golden


def test_run_digests_match_golden():
    golden = _golden()
    bad = _mismatches(golden["runs"], run_digests())
    assert not bad, f"{len(bad)} configurations changed results: {bad[:10]}"


def test_mc_output_files_match_golden(tmp_path, capsys):
    golden = _golden()
    bad = _mismatches(golden["files"], file_digests(str(tmp_path)))
    assert not bad, f"output files changed: {bad}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        files = file_digests(tmp)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"environment": environment(), "runs": run_digests(),
                   "files": files}, fh, indent=1, sort_keys=True)
        fh.write("\n")
