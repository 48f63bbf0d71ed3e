"""One pass of a workload in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The process imports
``apolar`` from the checkout's ``src/``, writes the workload's input
files into its working directory, prints ``ready`` (the parent times set-up up to this line), runs
every job of the workload once in a closed loop (one client; each job
starts after the previous one returns), and prints one JSON line with
the per-job outputs and timings.  With ``--setup-only`` it exits after
``ready``.  With ``--trace 1`` the pass runs under the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import apolar.bounds  # noqa: E402
import apolar.catalog  # noqa: E402
import apolar.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def call_library(job: workloads.Job) -> int:
    """The README library route: build the family, then the bound."""
    W = apolar.catalog.build(apolar.catalog.parse_family(job.family))
    F = W.reduced_basis[0]
    at = apolar.Polynomial.named_variable(W.context, job.extra["at"])
    return apolar.bounds.bernardi_ranestad_upper(F, at)


def run_job(job: workloads.Job) -> dict:
    """Run one job with stdout and stderr captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.kind == "cli":
                code = apolar.cli.main(list(job.argv))
            else:
                print(call_library(job))
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return {
        "key": job.key,
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": wall,
        "cpu_s": cpu,
    }


def run_pass(job_list: list[workloads.Job], tracer: tracing.Tracer | None = None) -> dict:
    """Every job once, in order; pass times are sums over the jobs."""
    results = []
    for job in job_list:
        if tracer is None:
            results.append(run_job(job))
            continue
        tracer.enter(tracing.JOB)
        try:
            r = run_job(job)
        finally:
            tracer.exit()
        tracer.counts["cli.stdout_bytes"] += len(r["stdout"].encode())
        results.append(r)
    wall = sum(r["wall_s"] for r in results)
    out = {
        "wall_s": wall,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "job_geomean_s": math.exp(
            sum(math.log(max(r["wall_s"], 1e-9)) for r in results) / len(results)
        ),
        "jobs": results,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, wall)
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    job_list = workloads.jobs(args.workload, args.seed)
    workloads.write_inputs(job_list)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run_pass(job_list, tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
