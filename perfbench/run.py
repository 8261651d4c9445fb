"""End-to-end and per-layer benchmark of adagb2.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its ``src``.
One run sets up the workload, then repeats whole rounds of it until S
seconds have passed, checks the last round's outputs and the byte-identity
of all rounds, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the tracer of
``tracing.py`` is installed and the metrics are the per-layer ones.  Machine
and version information, each round's figures and the failures go to
``perfbench/results/``; see the README for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
KINDS = ("zero", "scalar_bb", "exact_clipped", "diagonal_fd")
# Per-layer metric -> span it reads.  "_us" is the median span in
# microseconds, "_s" the median in seconds; the others count calls per round.
MEDIAN_US = {
    "oracle.rng_shared_us": "oracle.rng_shared",
    "oracle.draw_us": "oracle.draw",
    "kernels.first_order_us": "kernels.first_order",
    "geometry.project_box_us": "geometry.project_box",
    "solver.step_us": "solver.step",
    "solver.run_us": "solver.run",
    "curvature.observe_us": "curvature.observe",
    "problem.grad_us": "problem.grad",
    **{f"curvature.quad_form_us.{k}": f"curvature.quad_form.{k}" for k in KINDS},
}
CALLS = {
    "oracle.rng_shared_calls": "oracle.rng_shared",
    "oracle.draws": "oracle.draw",
    "kernels.first_order_calls": "kernels.first_order",
    "geometry.project_box_calls": "geometry.project_box",
    "solver.step_calls": "solver.step",
    "solver.run_calls": "solver.run",
    "curvature.observe_calls": "curvature.observe",
    "problem.grad_calls": "problem.grad",
    "problem.f_calls": "problem.f",
    "problem.hess_vec_calls": "problem.hess_vec",
    "problem.term_grad_calls": "problem.term_grad",
    **{f"curvature.quad_form_calls.{k}": f"curvature.quad_form.{k}" for k in KINDS},
}
MEDIAN_S = {
    "harness.aggregate_s": "harness.aggregate",
    "harness.write_traces_s": "harness.write_traces_csv",
    "harness.write_aggregate_s": "harness.write_aggregate_csv",
    "harness.write_summary_s": "harness.write_summary_json",
    "analysis.postprocess_s": "analysis.postprocess",
}


def _import_package():
    """Import adagb2 from this checkout's src, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import adagb2
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import adagb2 from {SRC}: {exc}")
    where = os.path.dirname(os.path.dirname(os.path.abspath(adagb2.__file__)))
    if where != SRC:
        sys.exit(f"perfbench: adagb2 was imported from {where}, not {SRC}")
    return adagb2


def measure_setup(configs, work_dir):
    """Median time from a fresh interpreter to the configs parsed and the
    problems built (``setup_probe.py``)."""
    path = os.path.join(work_dir, "configs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(configs, fh)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), path],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {code}: {line!r}")
    return samples


def peak_rss_mib():
    """Largest resident set of this process so far.

    The set-up probes are left out: they are not part of the experiment, and
    no workload starts pool workers.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metrics(tracer, rounds, horizon):
    """Per-layer figures of a traced run; 0 for a layer the workload skips."""
    m = {name: (tracer.median(span) * 1e6, "us") for name, span in MEDIAN_US.items()}
    m["solver.step_self_us"] = (tracer.median("solver.step", True) * 1e6, "us")
    m["solver.run_self_us_per_iter"] = (
        tracer.median("solver.run", True) * 1e6 / horizon, "us")
    m.update({name: (tracer.calls(span) / len(rounds), "count")
              for name, span in CALLS.items()})
    m.update({name: (tracer.median(span), "s") for name, span in MEDIAN_S.items()})
    m["harness.output_bytes"] = (rounds[-1].output_bytes, "bytes")
    m["harness.results_bytes"] = (rounds[-1].results_bytes, "bytes")
    return m


def failed_operations(workload, rounds, crashed):
    """Operations of all rounds that raised or failed a check.

    Only the last finished round is checked in full.  A round whose outputs
    are byte-identical to it shares its verdict; any other round fails whole.
    """
    ops = workload.ops_per_round
    if not rounds:
        return ops if crashed else 0, []
    last = rounds[-1]
    try:
        failures = workload.check(last)
    except Exception as exc:  # outputs a check cannot read fail the round
        traceback.print_exc()
        failures = [(None, f"check raised {exc!r}")]
    bad = set()
    for op, _ in failures:
        bad.update(range(ops) if op is None else [op])
    nondeterministic = checks.deterministic([r.digest for r in rounds])
    failed = sum(ops if r.digest != last.digest else len(bad) for r in rounds)
    return failed + (ops if crashed else 0), failures + nondeterministic


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    adagb2 = _import_package()
    import numpy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    machine = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernel_backend": adagb2.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(HERE, ".out", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(HERE, "results")
    os.makedirs(work_dir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        setup_samples = [] if args.trace else measure_setup(workload.configs, work_dir)
        tracer = tracing.Tracer().install() if args.trace else None
        rounds, crashed = [], False
        try:
            workload.setup()
            start = perf_counter()
            while not rounds or perf_counter() - start < args.seconds:
                out_dir = os.path.join(work_dir, f"round{len(rounds)}")
                rounds.append(workload.round(out_dir, tracer))
                if len(rounds) > 1:  # only the last round is checked in full
                    shutil.rmtree(rounds[-2].out_dir, ignore_errors=True)
                    rounds[-2].results = None
        except Exception:  # a crashed round fails whole; report it
            traceback.print_exc()
            crashed = True
        finally:
            if tracer:
                tracer.uninstall()
        rss = peak_rss_mib()
        if tracer and rounds:
            metrics = per_layer_metrics(tracer, rounds, workload.horizon)
            with open(os.path.join(results_dir, f"{tag}-spans.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"summary": tracer.summary(), "sample": tracer.sample},
                          fh, indent=1)
        elif rounds:
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "experiment_s": (statistics.median(r.experiment_s for r in rounds), "s"),
                "rep_iters_per_s": (statistics.median(
                    r.iterations / r.busy_s for r in rounds), "1/s"),
                "peak_rss_mib": (rss, "MiB"),
            }
        else:
            metrics = {}
        failed, failures = failed_operations(workload, rounds, crashed)
        attempted = workload.ops_per_round * (len(rounds) + crashed)
        result = {
            "correct": failed == 0 and not crashed,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        with open(os.path.join(results_dir, f"{tag}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "machine": machine,
                       "result": result, "setup_samples_s": setup_samples,
                       "rounds": [{"experiment_s": r.experiment_s,
                                   "busy_s": r.busy_s,
                                   "iterations": r.iterations,
                                   "digest": r.digest} for r in rounds],
                       "failures": failures}, fh, indent=1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for op, msg in failures:
        print(f"FAILED {'round' if op is None else f'op {op}'}: {msg}",
              file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
