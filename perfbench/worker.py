"""Workload process: imports few2d, then runs the job list through ``cli.main``.

Run from a run directory that holds ``jobs.json`` and ``configs/``::

    python3 perfbench/worker.py            # run the passes
    python3 perfbench/worker.py --ready-only   # import and report ready only

It prints ``ready`` once few2d, numpy and scipy are imported, then runs the
job list one job after another (a closed loop with one client), pass after
pass while the time budget lasts.  With tracing on, passes alternate
untraced and traced, so one process gives both walls.  Each pass writes
into ``out/``, which is then renamed to ``passes/<i>`` for the reference
checks.  The result, with spans of traced passes, goes to
``worker_result.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run_pass(cli, ids: list[str], tracer) -> dict:
    os.makedirs("out")
    outcomes, job_walls, job_cpus = [], [], []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for job_id in ids:
            argv = [f"configs/{job_id}.json"]
            t0, c0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    if tracer is None:
                        rc = cli.main(argv)
                    else:
                        tracer.job = job_id
                        rc = tracer.call("cli.main", cli.main, (argv,))
                    outcomes.append(f"exit {rc}")
                except Exception as exc:  # a failed job is recorded, the pass goes on
                    outcomes.append(f"{type(exc).__name__}: {exc}")
            job_walls.append(time.perf_counter() - t0)
            job_cpus.append(time.process_time() - c0)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "job_walls": job_walls, "job_cpus": job_cpus, "outcomes": outcomes,
            "traced": tracer is not None,
            "spans": tracer.spans if tracer is not None else None}


def main(argv: list[str]) -> int:
    from few2d import cli   # imports numpy and scipy too

    print("ready", flush=True)
    if "--ready-only" in argv:
        return 0

    from perfbench.tracing import Tracer

    with open("jobs.json") as fh:
        spec = json.load(fh)
    ids, budget, trace = spec["ids"], spec["seconds"], spec["trace"]
    os.makedirs("passes")
    passes: list[dict] = []
    spent = 0.0
    while True:
        i = len(passes)
        tracer = Tracer() if trace and i % 2 == 1 else None
        record = _run_pass(cli, ids, tracer)
        os.rename("out", f"passes/{i}")
        passes.append(record)
        spent += record["wall_s"]
        step = 2 if trace else 1
        enough = len(passes) % step == 0
        if enough and spent + step * record["wall_s"] > budget:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("worker_result.json", "w") as fh:
        json.dump({"passes": passes, "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
