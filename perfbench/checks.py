"""Correctness checks of the benchmark, made apart from the program.

Each check returns a list of failures ``(operation, message)``.  The
operation is a replication index (``mc_*``) or a run index
(``sweep_monitors``) when the failure belongs to one operation, and ``None``
when it condemns every operation of the round.  Reference values come from
the formulas in the package README, from properties the method must have,
or from the output files re-read with numpy; none is a copy of an earlier
output.
"""

import math

import numpy as np

TRACE_COLUMNS = ("rep", "k", "norm_d", "norm_xi", "err_norm", "gamma", "f",
                 "event_A")
RESULT_TRACE_FIELDS = {"norm_d": "norm_d", "norm_xi": "norm_xi",
                       "err_norm": "err_norm", "gamma": "gamma",
                       "f": "f_values"}


def _close(a, b, rtol):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    return bool(np.all(np.abs(a - b) <= rtol * scale))


def monitors_and_feasibility(results, box):
    """Zero monitor violations and every final iterate inside the box."""
    failures = []
    for i, res in enumerate(results):
        if res.total_violations:
            bad = {k: v for k, v in res.violations.items() if v}
            failures.append((i, f"monitor violations {bad}"))
        x = res.final_state.x
        if not ((x >= box.lower).all() and (x <= box.upper).all()):
            failures.append((i, f"final iterate {x} outside the box"))
    return failures


def finite_histories(results):
    failures = []
    for i, res in enumerate(results):
        for name in ("norm_d", "gamma", "step_sq"):
            if not np.isfinite(getattr(res, name)).all():
                failures.append((i, f"non-finite {name} history"))
        if not np.isfinite(res.final_state.x).all():
            failures.append((i, "non-finite final iterate"))
    return failures


def replay_quadratic(result, x0, a, b, lower, upper, sigma, base_seed,
                     iters, rng_factory, rtol=1e-12):
    """Replay the first iterations of replication 0 with the README formulas.

    d = P_F(x - g) - x, w = sqrt(w^2 + d^2), delta = |d| / w,
    s_L = clamp(x - g, max(l, x - delta), min(u, x + delta)) - x and, with
    zero curvature, s = s_L and x += s; the gradient estimate is
    g = a x - b + sigma z with z drawn from ``rng_factory(k)``.
    """
    x = np.array(x0, dtype=np.float64)
    w = np.full(x.shape, 0.01)
    ref = np.empty(iters)
    for k in range(iters):
        z = rng_factory(k).standard_normal(x.shape[0])
        g = a * x - b + sigma * z
        y = x - g
        d = np.minimum(np.maximum(y, lower), upper) - x
        w = np.sqrt(w * w + d * d)
        delta = np.abs(d) / w
        lo = np.maximum(lower, x - delta)
        hi = np.minimum(upper, x + delta)
        s = np.minimum(np.maximum(y, lo), hi) - x
        ref[k] = math.sqrt(float(d @ d))
        x = x + s
    got = result.norm_d[:iters]
    if not _close(got, ref, rtol):
        worst = int(np.argmax(np.abs(got - ref) / np.abs(ref)))
        return [(0, f"norm_d[{worst}] = {got[worst]!r} but the reference "
                    f"loop gives {ref[worst]!r} (seed {base_seed})")]
    return []


def gaussian_noise_scale(results, sigma):
    """Mean oracle error within 4 standard errors of sigma * sqrt(pi / 2).

    sqrt(pi / 2) is the mean norm of a standard 2-d Gaussian vector.
    """
    err = np.concatenate([r.err_norm for r in results])
    expected = sigma * math.sqrt(math.pi / 2.0)
    se = float(err.std(ddof=1)) / math.sqrt(err.shape[0])
    mean = float(err.mean())
    if not abs(mean - expected) <= 4.0 * se:
        return [(None, f"mean oracle error {mean:.6g} is "
                       f"{abs(mean - expected) / se:.1f} standard errors "
                       f"from {expected:.6g}")]
    return []


def xi_below_beta(results, checkpoints):
    """Running average of ||Xi|| ends at most beta_K and decreases.

    beta_K is the running average of the mean oracle error at the horizon,
    the bound the paper gives when the error is not small.
    """
    xi = np.mean([r.norm_xi for r in results], axis=0)
    err = np.mean([r.err_norm for r in results], axis=0)
    counts = np.arange(1, xi.shape[0] + 1)
    avg_xi = np.cumsum(xi) / counts
    beta = float(np.sum(err)) / xi.shape[0]
    failures = []
    if not avg_xi[-1] <= beta:
        failures.append((None, f"avg ||Xi|| {avg_xi[-1]:.6g} > beta_K {beta:.6g}"))
    marks = [float(avg_xi[k - 1]) for k in checkpoints]
    if not all(u > v for u, v in zip(marks, marks[1:])):
        failures.append((None, f"avg ||Xi|| at k={list(checkpoints)} does not "
                               f"decrease: {marks}"))
    return failures


def read_traces(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if tuple(header) != TRACE_COLUMNS:
        raise ValueError(f"traces.csv header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def traces_roundtrip(traces, results):
    """traces.csv holds exactly the in-memory histories, in order."""
    horizon = results[0].horizon
    if traces.shape != (len(results) * horizon, len(TRACE_COLUMNS)):
        return [(None, f"traces.csv has shape {traces.shape}")]
    failures = []
    for rep, res in enumerate(results):
        rows = traces[rep * horizon:(rep + 1) * horizon]
        ok = (np.array_equal(rows[:, 0], np.full(horizon, rep))
              and np.array_equal(rows[:, 1], np.arange(horizon))
              and np.array_equal(rows[:, 7], np.full(horizon, float(res.event_a))))
        for col, field in RESULT_TRACE_FIELDS.items():
            ok = ok and np.array_equal(rows[:, TRACE_COLUMNS.index(col)],
                                       getattr(res, field), equal_nan=True)
        if not ok:
            failures.append((rep, "traces.csv rows differ from the run's arrays"))
    return failures


def aggregate_crosscheck(aggregate_path, traces, results, rtol=1e-12):
    """Recompute every aggregate.csv column from traces.csv with numpy."""
    with open(aggregate_path, encoding="utf-8") as fh:
        columns = fh.readline().strip().split(",")
    got = np.loadtxt(aggregate_path, delimiter=",", skiprows=1, ndmin=2)
    reps = len(results)
    horizon = traces.shape[0] // reps
    cube = traces.reshape(reps, horizon, len(TRACE_COLUMNS))
    event = cube[:, 0, 7] == 1.0
    sel = cube[event] if event.any() else cube
    d, xi, err = (sel[:, :, TRACE_COLUMNS.index(c)]
                  for c in ("norm_d", "norm_xi", "err_norm"))
    n = sel.shape[0]
    counts = np.arange(1, horizon + 1)

    def se(m):
        return m.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(horizon)

    want = {
        "k": np.arange(horizon),
        "mean_norm_d": d.mean(axis=0), "se_norm_d": se(d),
        "mean_norm_xi": xi.mean(axis=0), "se_norm_xi": se(xi),
        "mean_err": err.mean(axis=0),
        "mean_rmse": np.sqrt((err * err).mean(axis=0)),
        "run_avg_d": np.cumsum(d.mean(axis=0)) / counts,
        "run_avg_xi": np.cumsum(xi.mean(axis=0)) / counts,
        "min_xi": np.minimum.accumulate(xi.min(axis=0)),
        "p_A": np.full(horizon, cube[:, 0, 7].mean()),
        # Not in traces.csv: the per-iteration monitor failures of the run.
        "violations": np.sum([r.violation_count for r, e in zip(results, event)
                              if e or not event.any()], axis=0),
    }
    if columns != list(want) or got.shape != (horizon, len(want)):
        return [(None, f"aggregate.csv has columns {columns}, shape {got.shape}")]
    failures = []
    for j, (name, ref) in enumerate(want.items()):
        if not _close(got[:, j], ref, rtol):
            i = int(np.argmax(np.abs(got[:, j] - ref)))
            failures.append((None, f"aggregate.csv {name}[{i}] = {got[i, j]!r}, "
                                   f"recomputed {ref[i]!r}"))
    return failures


def criticality(grad, x, box):
    """||P_F(x - G(x)) - x||, the true criticality measure."""
    return float(np.linalg.norm(np.clip(x - grad(x), box.lower, box.upper) - x))


def criticality_decreased(results, problem):
    """Each final iterate is more critical-point-like than the start."""
    obj, box = problem.objective, problem.box
    start = criticality(obj.grad, np.clip(problem.x_ini, box.lower, box.upper), box)
    failures = []
    for i, res in enumerate(results):
        end = criticality(obj.grad, res.final_state.x, box)
        if not end < start:
            failures.append((i, f"criticality {end:.6g} at the final iterate is "
                                f"not below {start:.6g} at x0"))
    return failures


def quadratic_minimizer(index, result, a, b, lower, upper, tol=1e-9):
    """An exact-oracle run on the separable quadratic ends at clip(b/a, l, u)."""
    x_star = np.clip(b / a, lower, upper)
    dist = float(np.max(np.abs(result.final_state.x - x_star)))
    if not dist <= tol:
        return [(index, f"final iterate {dist:.3g} from the minimizer")]
    return []


def deterministic(digests):
    """Every round produced the same outputs as the last, checked one."""
    return [(None, f"round {i} outputs differ from the last round")
            for i, dig in enumerate(digests) if dig != digests[-1]]
