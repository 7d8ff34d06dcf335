"""Benchmark of the few2d command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-large --seed 1 --seconds 25 --trace 0

The seed generates the workload's config files (``perfbench/workloads.py``).
A fresh worker process imports few2d from ``src/`` and runs the job list
through ``few2d.cli.main``, one job after another, pass after pass for about
``--seconds`` seconds.  Every output of every pass is checked against an
independent reference (``perfbench/reference.py``).  ``wall_s`` sums each
job's fastest pass.  Set-up time is the median over several fresh processes
of the time from spawn to "imports done".  With ``--trace 1`` the worker
alternates untraced and traced passes and the per-layer metrics come from
the spans (``perfbench/tracing.py``).

Only this process tree is measured: there is no machine-wide tracing and
no page-cache dropping.  BLAS runs single-threaded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance (versions, cores, commit, seed) and every failure by
pass, job id and reason.  ``--workload known-defects`` reproduces the
program's known failures and ``--workload oracle-loops`` times the Sturm and
shooting oracles; neither is one of the benchmark's workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import reference, tracing, workloads  # noqa: E402

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150.0
BLAS_THREADS = 1

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("certified_levels_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in tracing.LAYERS]
    + [(f"{name}_s", "s", "lower") for name in tracing.SPAN_NAMES]
    + [
        ("cli.jobs", "count", "higher"),
        ("cli.jobs_failed", "count", "lower"),
        ("model.eval_potential_calls", "count", "lower"),
        ("discretize.dof", "count", "lower"),
        ("discretize.nnz", "count", "lower"),
        ("eigensolve.matvecs", "count", "lower"),
        ("eigensolve.matvec_bytes_computed", "B", "lower"),
        ("eigensolve.max_residual", "norm", "lower"),
        ("eigensolve.levels_correct_ratio", "ratio", "higher"),
        ("oracles.calls", "count", "lower"),
        ("oracles.accuracy_failures", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn_until_ready(run_dir: Path, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "worker.py"), *extra],
                            cwd=run_dir, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed to import few2d")
    return proc, ready


def _git_commit() -> str:
    try:
        # --git-dir keeps git from searching directories above the checkout
        out = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "commit": _git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "machine": platform.machine(),
        "scope": "this process tree only; no machine-wide tracing, no cache dropping",
    }


def run_workload(jobs: list[dict], seconds: float, trace: bool,
                 run_dir: Path) -> tuple[list[float], dict]:
    """Write the configs, measure set-up, run the worker; returns its result."""
    (run_dir / "configs").mkdir(parents=True)
    for job in jobs:
        (run_dir / "configs" / f"{job['id']}.json").write_bytes(workloads.config_bytes(job))
    (run_dir / "jobs.json").write_text(json.dumps(
        {"ids": [job["id"] for job in jobs], "seconds": seconds, "trace": int(trace)}))

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = _spawn_until_ready(run_dir, "--ready-only")
        proc.wait()
        setup.append(ready)
    proc, ready = _spawn_until_ready(run_dir)
    setup.append(ready)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, json.loads((run_dir / "worker_result.json").read_text())


def check_passes(jobs: list[dict], result: dict, run_dir: Path) -> list[list]:
    """Reference checks of every job in every pass."""
    return [[reference.check_job(job, run_dir / "passes" / str(i), outcome)
             for job, outcome in zip(jobs, p["outcomes"])]
            for i, p in enumerate(result["passes"])]


def job_walls(result: dict, stat) -> list[float]:
    """``stat`` of each job's wall across the untraced passes."""
    walls = [p["job_walls"] for p in result["passes"] if not p["traced"]]
    return [stat(column) for column in zip(*walls)]


def end_to_end_metrics(setup: list[float], result: dict, checks: list[list]) -> dict:
    # the job list's wall as the sum of per-job minima over the passes: the
    # program's cost without the slow spells of a shared host, which only
    # ever add time
    wall = sum(job_walls(result, min))
    certified = statistics.median(sum(c.certified for c in pc) for pc in checks)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "certified_levels_per_s": certified / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(result: dict, checks: list[list]) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    by_pass = [tracing.layer_metrics(p["spans"]) for p in traced]
    per_pass = {key: (max if key.endswith("max_residual") else statistics.mean)(
                    [d.get(key, 0.0) for d in by_pass])
                for key in set().union(*by_pass)}
    failed = [sum(c.reason is not None for c in pc)
              for pc, p in zip(checks, result["passes"]) if p["traced"]]
    grid_levels = sum(c.grid_levels for pc in checks for c in pc)
    grid_ok = sum(c.grid_certified for pc in checks for c in pc)
    solvers = [name for target in tracing.TARGETS
               if target.function in ("radial_spectrum", "angular_pt_levels")
               for name in target.names]
    calls = sum(per_pass.get(f"{name}.calls", 0.0) for name in solvers)
    misses = sum(per_pass.get(f"{name}.errors.AccuracyNotReached", 0.0) for name in solvers)
    derived = {
        "cli.jobs": len(traced[0]["outcomes"]),
        "cli.jobs_failed": statistics.mean(failed),
        "model.eval_potential_calls": per_pass.get("model.eval_potential.calls", 0.0),
        "eigensolve.levels_correct_ratio": grid_ok / grid_levels if grid_levels else 0.0,
        "oracles.calls": calls,
        "oracles.accuracy_failures": misses / calls if calls else 0.0,
        # the first pass also pays first-call costs
        "trace.overhead_s": (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in untraced[1:] or untraced)),
    }
    return {name: derived.get(name, per_pass.get(name, 0.0)) for name, _, _ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the worker must import few2d from this checkout, never from site-packages
    if not (ROOT / "src" / "few2d" / "__init__.py").is_file():
        print(f"error: no few2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed)
        setup, result = run_workload(jobs, args.seconds, bool(args.trace), run_dir)
        checks = check_passes(jobs, result, run_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(pc) for pc in checks)
    failures = [(i, job["id"], c.reason) for i, pc in enumerate(checks)
                for job, c in zip(jobs, pc) if c.reason is not None]
    if args.trace:
        values, spec = per_layer_metrics(result, checks), PER_LAYER
    else:
        values, spec = end_to_end_metrics(setup, result, checks), END_TO_END
    print(json.dumps({"provenance": provenance(args.workload, args.seed)}))
    print(json.dumps({"passes": len(result["passes"]),
                      "pass_walls_s": [p["wall_s"] for p in result["passes"]],
                      "pass_cpu_s": [sum(p["job_cpus"]) for p in result["passes"]],
                      "setup_samples_s": setup,
                      "job_min_s": dict(zip((job["id"] for job in jobs),
                                            job_walls(result, min))),
                      "job_median_s": dict(zip((job["id"] for job in jobs),
                                               job_walls(result, statistics.median))),
                      "failed_frac": len(failures) / attempted}))
    for i, job_id, reason in failures:
        print(f"FAILED pass={i} job={job_id}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
