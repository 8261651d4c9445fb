"""The engine against an independent per-iteration reference, and rows
against lone runs.

``_reference`` redoes the iteration one step at a time in 1-d numpy and
Python floats, with no histories and no monitors; ``run`` must give its
bits in every history array, event flag and final state.  ``run_batch``
must give every replication exactly what ``run`` gives it alone: the same
bits, monitor counts and byte-identical output files.
"""

import math

import numpy as np
import pytest

from adagb2 import _philox, oracle, solver
from adagb2.curvature import CurvatureSpec, make_provider
from adagb2.errors import ConfigurationError, NumericalError
from adagb2.geometry import BoundBox
from adagb2.harness import (ExperimentConfig, ExperimentResult,
                            aggregate_results, run_experiment,
                            write_experiment_outputs)
from adagb2.oracle import (AffineGaussian, BoundedUniform, ConstantBias,
                           Exact, Gaussian, OracleStream, RelativeBias,
                           Subsample, draw)
from adagb2.problem import Objective, quadratic_problem
from adagb2.problem import TestProblem as BoxProblem  # avoid pytest collection
from adagb2.solver import SolverParams, run, run_batch

REPS = 3
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


def _config(oracle, curvature, step_mode="cauchy", diagnostics=True,
            problem=None):
    if problem is None:
        problem = ("finite_sum_logistic" if oracle == "subsample"
                   else "boxed_rosenbrock")
    return ExperimentConfig.from_dict({
        "problem": {"name": problem, "dim": 3, "seed": 1},
        "oracle": ORACLES[oracle],
        "curvature": {"kind": curvature, "kappa_b": 16.0},
        "solver": {"step_mode": step_mode},
        "run": {"horizon": 60, "replications": REPS, "base_seed": 5,
                "diagnostics": diagnostics},
    })


def _assert_same_result(a, b):
    assert a.horizon == b.horizon
    assert a.event_a is b.event_a
    assert a.violations == b.violations
    for name in solver.HISTORIES:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name  # bits: NaN and -0.0 too
    for x, y in ((a.final_state.x, b.final_state.x),
                 (a.final_state.w, b.final_state.w)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _check_rows_match_lone_runs(config, tmp_path):
    """Each row of a batch against its replication run alone."""
    problem = config.build_problem()
    args = (problem, config.oracle, config.curvature, config.solver,
            config.horizon, config.base_seed)
    alone = [run(*args, replication=r, diagnostics=config.diagnostics)
             for r in range(REPS)]
    batch = run_batch(*args, replications=REPS,
                      diagnostics=config.diagnostics)
    assert len(batch) == REPS
    for a, b in zip(alone, batch):
        _assert_same_result(a, b)
    files = []
    for name, results in (("alone", alone), ("batch", batch)):
        exp = ExperimentResult(config, results, aggregate_results(results))
        write_experiment_outputs(exp, str(tmp_path / name))
        files.append({f: (tmp_path / name / f).read_bytes()
                      for f in ("traces.csv", "aggregate.csv", "summary.json")})
    assert files[0] == files[1]


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("curvature", CURVATURES)
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_batch_matches_serial(oracle, curvature, diagnostics, tmp_path):
    _check_rows_match_lone_runs(_config(oracle, curvature,
                                        diagnostics=diagnostics), tmp_path)


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("oracle", ("gaussian", "subsample"))
@pytest.mark.parametrize("step_mode", ("sign_adagrad",))
def test_batch_matches_serial_step_modes(step_mode, oracle, diagnostics,
                                         tmp_path):
    _check_rows_match_lone_runs(
        _config(oracle, "zero", step_mode=step_mode, diagnostics=diagnostics),
        tmp_path)


@pytest.mark.parametrize("curvature", ("scalar_bb", "diagonal_fd"))
@pytest.mark.parametrize("problem", ("boxed_quadratic",
                                     "boxed_nonconvex_quartic",
                                     "finite_sum_logistic"))
def test_batch_matches_serial_other_problems(problem, curvature, tmp_path):
    _check_rows_match_lone_runs(
        _config("gaussian", curvature, problem=problem), tmp_path)


def test_batch_replication_indices():
    config = _config("gaussian", "scalar_bb")
    problem = config.build_problem()
    args = (problem, config.oracle, config.curvature, config.solver,
            config.horizon, config.base_seed)
    tail = run_batch(*args, replications=[1, 2])
    for r, res in zip((1, 2), tail):
        _assert_same_result(run(*args, replication=r), res)
    alone, = run_batch(*args, replications=[2])
    _assert_same_result(run(*args, replication=2), alone)


def test_batch_histories_are_rows_of_one_array():
    config = _config("gaussian", "zero")
    results = run_batch(config.build_problem(), config.oracle,
                        config.curvature, config.solver, config.horizon,
                        config.base_seed, replications=REPS)
    base = results[0].norm_d.base
    assert base is not None and base.shape == (REPS, config.horizon)
    assert all(res.norm_d.base is base for res in results)


def test_batch_rejects_bad_arguments():
    config = _config("gaussian", "scalar_bb")
    args = (config.build_problem(), config.oracle, config.curvature,
            SolverParams(step_mode="sign_adagrad"), 10, 0)
    with pytest.raises(ConfigurationError):
        run_batch(*args, replications=2)
    with pytest.raises(ValueError):
        run_batch(*args, replications=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_batch_raises_on_divergent_objective():
    obj = Objective(f=lambda x: np.exp(x[..., 0]),
                    grad=lambda x: np.exp(np.minimum(x, 700.0)),
                    f_low=0.0)
    prob = BoxProblem("explode", obj, BoundBox.unbounded(1),
                      np.array([800.0]))  # f overflows to inf immediately
    with pytest.raises(NumericalError, match="replication 0"):
        run_batch(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 50,
                  base_seed=0, replications=2)
    with pytest.raises(NumericalError, match="gradient"):
        run_batch(prob, Gaussian(np.inf), CurvatureSpec("zero"),
                  SolverParams(), 50, base_seed=0, replications=2,
                  diagnostics=False)


def _reference(problem, oracle, spec, params, horizon, base_seed,
               replication, diagnostics):
    """One replication, one iteration at a time, in 1-d numpy and floats.

    Each clamp takes its arguments in the order of the kernels, so that a
    signed zero comes out the same.  Returns the rows (norm_d, gamma,
    step_sq, norm_xi, err_norm, f) of every iteration, event_a,
    the final x and w, and how often sign_adagrad fell back to s_L.
    """
    obj, lower, upper = problem.objective, problem.box.lower, problem.box.upper
    provider = make_provider(spec, obj)
    stream = OracleStream(base_seed, replication)
    x = np.maximum(np.minimum(problem.x_ini, upper), lower)
    w = np.full(x.shape, params.sigma)
    rows, fallbacks = [], 0
    for k in range(horizon):
        od = draw(obj, x[None], oracle, [stream.rng(k)], with_true=diagnostics)
        g = od.g[0]
        if k > 0:
            provider.observe(x_prev[None], x[None], g_prev[None], g[None])
        x_prev, g_prev = x, g
        y = x - g
        d = np.maximum(np.minimum(y, upper), lower) - x
        w = np.sqrt(w * w + d * d)
        delta = np.abs(d) / w
        s_l = np.maximum(np.maximum(np.minimum(np.minimum(y, x + delta), upper),
                                    x - delta), lower) - x
        qf_sl = float(provider.quad_form(x[None], s_l[None])[0])
        g_sl = float(g @ s_l)
        gamma = min(1.0, -g_sl / qf_sl) if qf_sl > 0.0 else 1.0
        s_q = gamma * s_l
        if params.step_mode == "cauchy":
            s = s_q
        else:
            s = np.clip(-np.sign(g) * delta, lower - x, upper - x)
            if float(g @ s) > params.tau * float(g @ s_q):
                s, fallbacks = s_l, fallbacks + 1
        row = [math.sqrt(float(d @ d)), gamma, float(s @ s)] + [math.nan] * 3
        if diagnostics:
            g_true = od.g_true[0]
            xi = np.maximum(np.minimum(x - g_true, upper), lower) - x
            e = g - g_true
            row[3:] = [math.sqrt(float(xi @ xi)), math.sqrt(float(e @ e)),
                       float(obj.f(x))]
        rows.append(row)
        x = np.maximum(np.minimum(x + s, upper), lower)
    return np.array(rows), rows[0][0] ** 2 >= params.sigma, x, w, fallbacks


def _assert_matches_reference(res, ref):
    rows, event_a, x, w, _ = ref
    names = ("norm_d", "gamma", "step_sq", "norm_xi", "err_norm", "f_values")
    for name, column in zip(names, rows.T):
        assert getattr(res, name).tobytes() == column.tobytes(), name
    assert res.event_a is event_a
    assert res.final_state.x.tobytes() == x.tobytes()
    assert res.final_state.w.tobytes() == w.tobytes()
    assert res.total_violations == 0, res.violations


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("step_mode, curvature", [
    *(("cauchy", c) for c in CURVATURES),
    ("sign_adagrad", "zero"),
])
def test_run_matches_reference(step_mode, curvature, diagnostics):
    # 300 steps: past the end of the first block of a one-row run.
    problem = ("boxed_quadratic" if step_mode == "sign_adagrad"
               else "boxed_rosenbrock")
    config = _config("gaussian", curvature, step_mode, diagnostics, problem)
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, 300, config.base_seed)
    ref = _reference(*args, 0, diagnostics)
    _assert_matches_reference(run(*args, diagnostics=diagnostics), ref)
    if step_mode == "sign_adagrad":
        assert ref[-1] > 0  # the fallback to s_L is exercised


def test_short_blocks_match_reference():
    # Logistic n=50 at R=4 records too much per iteration for a full block
    # of 256, and the horizon ends inside a block.
    config = ExperimentConfig.from_dict({
        "problem": {"name": "finite_sum_logistic", "dim": 50, "seed": 3},
        "oracle": {"kind": "subsample", "batch_size": 10},
        "curvature": {"kind": "diagonal_fd", "kappa_b": 16.0},
        "run": {"horizon": 100, "replications": 4, "base_seed": 9},
    })
    length = solver.BLOCK_BYTES // (8 * len(solver._VECTORS) * 4 * 50)
    assert 1 < length < solver.BLOCK and 100 % length != 0
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, 100, config.base_seed)
    for r, res in enumerate(run_batch(*args, replications=4)):
        _assert_matches_reference(res, _reference(*args, r, True))


def test_non_finite_gradient_names_its_replication():
    # Only the second row's gradient is NaN; the message names its index.
    def grad(x):
        g = np.zeros_like(x)
        g[1:] = np.nan
        return g

    obj = Objective(f=lambda x: x[..., 0], grad=grad, f_low=0.0)
    prob = BoxProblem("nan_row", obj, BoundBox.unbounded(2),
                      np.array([1.0, 0.5]))
    with pytest.raises(NumericalError,
                       match=r"non-finite gradient estimate \[nan nan\] "
                             r"at iteration 0 \(replication 5\)"):
        run_batch(prob, Exact(), CurvatureSpec("zero"), SolverParams(), 5,
                  base_seed=0, replications=[4, 5], diagnostics=False)


@pytest.mark.parametrize("model, draws", [
    (Exact(), False),
    (ConstantBias(np.array([0.03, -0.02, 0.01]), Exact()), False),
    (RelativeBias(0.1, Exact()), False),
    (Gaussian(0.1), True),
    (BoundedUniform(0.2), True),
    (AffineGaussian(0.01, 0.05), True),
    (Subsample(4), True),
], ids=lambda v: getattr(v, "kind", "draws" if v else "no_draws"))
def test_streams_are_reset_only_for_models_that_draw(model, draws,
                                                     monkeypatch):
    # Each row's stream is reset once per iteration, in row order, by a
    # model that draws per row; a model that draws no random numbers resets
    # none.  Gaussian-type normals come from the block, which resets only
    # the rows with a word off the ziggurat's fast path, in (k, r) order:
    # over 60 iterations, where there are some.
    calls = []
    reset = OracleStream.rng_shared

    def counted(stream, k):
        calls.append((k, stream.replication))
        return reset(stream, k)

    monkeypatch.setattr(OracleStream, "rng_shared", counted)
    oracle = "subsample" if isinstance(model, Subsample) else "exact"
    problem = _config(oracle, "zero").build_problem()
    block = isinstance(model, (Gaussian, AffineGaussian))
    horizon = 60 if block else 7
    run_batch(problem, model, CurvatureSpec("zero"), SolverParams(), horizon,
              base_seed=5, replications=REPS)
    rows = [(k, r) for k in range(horizon) for r in range(REPS)]
    if block:
        streams = [OracleStream(5, r) for r in range(REPS)]
        rows = [(k, r) for k, r in rows if not _philox.fast_normals(
            streams[r].rng(k).bit_generator.random_raw(3))[1].all()]
        assert 0 < len(rows) < horizon * REPS // 4
    assert calls == rows * draws


@pytest.mark.parametrize("block", (1, 2))
@pytest.mark.parametrize("curvature", CURVATURES)
def test_short_blocks_match_the_default_length(curvature, block, monkeypatch):
    # The draw writes each estimate into its slot of the block buffer, and
    # the next iteration's observe reads it there: scalar_bb's gradient
    # change must not read one slot twice, however short the block.  On
    # this quadratic every provider but zero cuts some Cauchy factors.
    config = _config("gaussian", curvature, problem="boxed_quadratic")
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, config.horizon, config.base_seed)
    default = run_batch(*args, replications=REPS)
    assert any((res.gamma < 1.0).any() for res in default) is (
        curvature != "zero")
    monkeypatch.setattr(solver, "BLOCK", block)
    for a, b in zip(default, run_batch(*args, replications=REPS)):
        _assert_same_result(a, b)


def _climb(f_limit=np.inf, grad_limit=np.inf):
    """The unbounded line from 0 under a gradient of -1: with ``CLIMB``'s
    noise every row climbs, in steps that differ a little between rows.
    f(x) = x, but inf from f_limit up; the gradient is NaN from grad_limit
    up."""
    obj = Objective(
        f=lambda x: np.where(x[..., 0] >= f_limit, np.inf, x[..., 0]),
        grad=lambda x: np.where(x >= grad_limit, np.nan, -1.0),
        f_low=-np.inf)
    return BoxProblem("climb", obj, BoundBox.unbounded(1), np.array([0.0]))


CLIMB = (Gaussian(0.01), CurvatureSpec("zero"), SolverParams())


def _climb_iterates(horizon, replications):
    """The iterates of each row on ``_climb()``, (R, horizon)."""
    results = run_batch(_climb(), *CLIMB, horizon, base_seed=0,
                        replications=replications)
    xs = np.array([res.f_values for res in results])
    assert (np.diff(xs, axis=1) > 0).all()
    return xs


def test_objective_error_wins_over_a_later_gradient_error():
    # Replication 4 reaches f's limit first, at iteration k1; the gradient
    # turns NaN at a later iteration k2 of the same block, before the block
    # is checked.  The objective error is raised, naming k1 and row 4.
    horizon, replications = 40, [3, 4]
    xs = _climb_iterates(horizon, replications)
    k1 = next(k for k in range(5, horizon) if xs[1, k] > xs[0, k])
    k2 = k1 + 3
    f_limit, grad_limit = xs[1, k1], xs[:, k2].min()
    assert (xs[:, :k1] < f_limit).all() and xs[0, k1] < f_limit
    assert (xs[:, :k2] < grad_limit).all()
    args = (_climb(f_limit, grad_limit), *CLIMB, horizon)
    assert horizon < solver.BLOCK  # one block
    with pytest.raises(NumericalError,
                       match=rf"^non-finite gradient estimate .* at "
                             rf"iteration {k2} "):
        run_batch(*args, base_seed=0, replications=replications,
                  diagnostics=False)
    with pytest.raises(NumericalError,
                       match=rf"^non-finite objective value inf at "
                             rf"iteration {k1} \(replication 4\)$"):
        run_batch(*args, base_seed=0, replications=replications)


def test_objective_error_in_the_last_partial_block():
    # One row, one coordinate: full blocks of BLOCK iterations, then a
    # partial one, in which alone f is not finite.
    horizon = solver.BLOCK + 44
    xs = _climb_iterates(horizon, 1)
    k1 = horizon - 3
    with pytest.raises(NumericalError,
                       match=rf"^non-finite objective value inf at "
                             rf"iteration {k1} \(replication 0\)$"):
        run(_climb(xs[0, k1]), *CLIMB, horizon, base_seed=0)


@pytest.mark.parametrize("oracle_kind", ("gaussian", "affine_gaussian",
                                         "constant_bias"))
def test_block_draws_match_lone_runs(oracle_kind, monkeypatch):
    # Seven rows from the block path against lone runs drawn per row.
    config = _config(oracle_kind, "scalar_bb", problem="boxed_quadratic")
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, config.horizon, config.base_seed)
    reps = range(7)
    batch = run_batch(*args, replications=reps)
    monkeypatch.setattr(oracle, "numpy_agrees", lambda: False)
    for r, res in zip(reps, batch):
        _assert_same_result(run(*args, replication=r), res)


def test_a_wrong_table_entry_turns_the_block_path_off(monkeypatch):
    # mc_quadratic_n2's shape at a short horizon.  With numpy's tables most
    # rows take block normals; with one wrong entry the guard turns the
    # block path off, every row is reset and drawn by numpy, and the bits
    # stay.  Without the guard the wrong entry would show.
    config = ExperimentConfig.from_dict({
        "problem": {"name": "boxed_quadratic", "dim": 2, "seed": 0},
        "oracle": {"kind": "gaussian", "sigma": 0.1},
        "curvature": {"kind": "zero"},
        "run": {"horizon": 150, "replications": 20, "base_seed": 7},
    })
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, config.horizon, config.base_seed, 20)
    resets = []
    reset = OracleStream.rng_shared

    def counted(stream, k):
        resets.append(k)
        return reset(stream, k)

    monkeypatch.setattr(OracleStream, "rng_shared", counted)
    wi = _philox._WI_TABLE.copy()
    wi[37] = np.nextafter(wi[37], 0.0)
    _philox.numpy_agrees.cache_clear()
    try:
        block = run_batch(*args)
        block_resets = len(resets)
        monkeypatch.setattr(_philox, "_WI_TABLE", wi)
        _philox.numpy_agrees.cache_clear()
        resets.clear()
        guarded = run_batch(*args)
        assert len(resets) == 20 * 150
        monkeypatch.setattr(oracle, "numpy_agrees", lambda: True)
        unguarded = run_batch(*args)
    finally:
        _philox.numpy_agrees.cache_clear()
    assert 0 < block_resets < 20 * 150 // 10
    for a, b in zip(block, guarded):
        _assert_same_result(a, b)
    assert any(a.err_norm.tobytes() != b.err_norm.tobytes()
               for a, b in zip(block, unguarded))


@pytest.mark.parametrize(
    "oracle_kind, family, dim, reps, horizon, diagnostics", [
        ("gaussian", "boxed_quadratic", 2, 20, 450, True),
        ("affine_gaussian", "boxed_quadratic", 2, 20, 450, False),
        ("constant_bias", "boxed_rosenbrock", 3, 1, 600, True),
        ("gaussian", "boxed_rosenbrock", 3, 1, 600, False),
        ("exact", "boxed_quadratic", 2, 20, 450, True),
        ("subsample", "finite_sum_logistic", 3, 1, 300, True),
    ])
def test_philox_blocks_are_the_check_blocks(oracle_kind, family, dim, reps,
                                            horizon, diagnostics, monkeypatch):
    # One block schedule a run: the Philox words are computed once for
    # each of the engine's check blocks, in order, the last one cut at the
    # horizon.  Models that draw no normals compute none.
    assert _philox.numpy_agrees()  # its check computes words, once
    lengths, calls = [], []
    init, words = solver._Histories.__init__, _philox.PhiloxBlocks.words

    def recorded(self, *args):
        init(self, *args)
        lengths.append(self.length)

    def counted(self, k0, m):
        calls.append((k0, m))
        return words(self, k0, m)

    monkeypatch.setattr(solver._Histories, "__init__", recorded)
    monkeypatch.setattr(_philox.PhiloxBlocks, "words", counted)
    config = ExperimentConfig.from_dict({
        "problem": {"name": family, "dim": dim, "seed": 0},
        "oracle": ORACLES[oracle_kind],
        "curvature": {"kind": "scalar_bb", "kappa_b": 16.0},
        "run": {"horizon": horizon, "replications": reps, "base_seed": 7,
                "diagnostics": diagnostics},
    })
    run_experiment(config)
    length, = lengths
    if oracle_kind in ("exact", "subsample"):
        assert calls == []
    else:
        assert length < horizon  # the normals are refilled
        assert calls == [(k0, min(length, horizon - k0))
                         for k0 in range(0, horizon, length)]


FAMILIES = ("boxed_quadratic", "boxed_rosenbrock", "boxed_nonconvex_quartic",
            "finite_sum_logistic")


def _layout_configs(count=12, seed=23):
    """``count`` configurations drawn from the golden axes with a fixed seed:
    family, oracle, curvature, step mode and diagnostics, at R=4 and 120
    iterations."""
    rng = np.random.default_rng(seed)
    configs = {}
    while len(configs) < count:
        family = FAMILIES[rng.integers(len(FAMILIES))]
        oracles = [o for o in sorted(ORACLES)  # subsampling needs a finite sum
                   if o != "subsample" or family == "finite_sum_logistic"]
        oracle_kind = oracles[rng.integers(len(oracles))]
        step_mode = ("cauchy", "sign_adagrad")[int(rng.random() < 0.25)]
        curvature = ("zero" if step_mode == "sign_adagrad"
                     else CURVATURES[rng.integers(len(CURVATURES))])
        diagnostics = bool(rng.integers(2))
        name = (f"{family}/{oracle_kind}/{curvature}/{step_mode}/"
                f"{'diag' if diagnostics else 'nodiag'}")
        configs[name] = {
            "problem": {"name": family, "dim": 3, "seed": 1},
            "oracle": ORACLES[oracle_kind],
            "curvature": {"kind": curvature, "kappa_b": 16.0},
            "solver": {"step_mode": step_mode},
            "run": {"horizon": 120, "replications": 4, "base_seed": 5,
                    "diagnostics": diagnostics},
        }
    return configs


LAYOUT_CONFIGS = _layout_configs()


def test_layout_sample_covers_the_axes():
    families, oracles, curvatures, step_modes, diagnostics = zip(
        *(name.split("/") for name in LAYOUT_CONFIGS))
    assert set(families) == set(FAMILIES)
    assert set(curvatures) == set(CURVATURES)
    assert set(step_modes) == {"cauchy", "sign_adagrad"}
    assert set(diagnostics) == {"diag", "nodiag"}
    # Gaussian-type noise reads the Philox block, whose refills are tested.
    assert set(oracles) & {"gaussian", "affine_gaussian", "constant_bias"}


@pytest.mark.parametrize("name", sorted(LAYOUT_CONFIGS))
def test_block_layout_leaves_results_unchanged(name, monkeypatch):
    # Each knob of the engine's shape, varied alone, against the default
    # run: the blocks, which the checks and the Philox refills share (7
    # iterations, then 2, the fewest), a reordered subset of the
    # replications, and two worker processes.
    data = LAYOUT_CONFIGS[name]
    config = ExperimentConfig.from_dict(data)
    default = run_experiment(config).results
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, config.horizon, config.base_seed)
    kw = {"diagnostics": config.diagnostics}
    for knob, value in (("BLOCK", 7), ("BLOCK_BYTES", 1)):
        with monkeypatch.context() as m:
            m.setattr(solver, knob, value)
            for a, b in zip(default, run_batch(*args, 4, **kw)):
                _assert_same_result(a, b)
    for r, res in zip([3, 1], run_batch(*args, [3, 1], **kw)):
        _assert_same_result(default[r], res)
    two = {**data, "run": {**data["run"], "workers": 2}}
    for a, b in zip(default, run_experiment(
            ExperimentConfig.from_dict(two)).results):
        _assert_same_result(a, b)


@pytest.mark.parametrize("curvature", CURVATURES)
def test_lone_runs_around_a_batch_of_another_size(curvature):
    # One problem and one oracle model serve every run, so their tiles of
    # the coefficients and the bias outlive each run: a lone run after a
    # batch of 5 rows (and diagonal_fd's (n, 5, n) stacks) gets its bytes.
    config = _config("constant_bias", curvature, problem="boxed_quadratic")
    args = (config.build_problem(), config.oracle, config.curvature,
            config.solver, config.horizon, config.base_seed)
    before = run(*args, replication=1)
    batch = run_batch(*args, replications=5)
    after = run(*args, replication=1)
    _assert_same_result(before, after)
    _assert_same_result(before, batch[1])


@pytest.mark.parametrize("diagnostics", (True, False))
@pytest.mark.parametrize("far", (False, True))
def test_zero_operator_block_pass_matches_the_explicit_cauchy_pass(
        far, diagnostics, monkeypatch):
    # Under the zero operator the block pass takes s = s_L, g.s = g.s_L,
    # ||s||^2 = ||s_L||^2 and s^T B s = +0.0 as known; the general pass
    # computes gamma * s_L and its products.  Every bit must agree.  Far
    # from 0, d and Xi round x - g at the scale of |x| = 1e7, so
    # xi_triangle fails in many iterations: monitor counts to compare.
    problem = (quadratic_problem([1.0], [1e7 - 0.5], [-np.inf], [np.inf],
                                 [1e7]) if far else
               _config("gaussian", "zero", problem="boxed_quadratic"
                       ).build_problem())
    args = (problem, Gaussian(0.1), CurvatureSpec("zero"), SolverParams(),
            300, 1)
    known = run_batch(*args, replications=4, diagnostics=diagnostics)
    init = solver._Histories.__init__

    def explicit(self, *a):
        init(self, *a)
        assert self._zero
        self._zero = False

    monkeypatch.setattr(solver._Histories, "__init__", explicit)
    computed = run_batch(*args, replications=4, diagnostics=diagnostics)
    for a, b in zip(known, computed):
        _assert_same_result(a, b)
    if diagnostics and far:
        assert sum(res.violations["xi_triangle"] for res in known) > 0
