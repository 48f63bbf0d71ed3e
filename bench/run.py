"""apolar benchmark: closed-loop CLI workloads with correctness checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass over the workload's job list
runs in its own fresh worker process (``worker.py``), one process at a
time, so no cache of one pass survives into the next and every pass pays
what a user's process pays.  Passes repeat while another one fits in
``--seconds`` (at least one pass; two in a traced run: one untraced, one
traced).  Set-up (interpreter start, ``import apolar``, writing the input
files) is timed by the parent from process start until the worker
reports ready, in every pass process and in extra set-up-only processes.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Per-job and
per-workload input descriptors and any failed checks go to stderr.
Exit code 0 on a completed run, 2 when the checkout has no ``apolar``
source or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7  # set-up timings per run, pass processes included
DEADLINE_S = 160  # a run must end within 180 s, checks included

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "job_geomean_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}


class BenchError(Exception):
    pass


def spawn(
    workload: str, seed: int, trace: int, workdir: Path, setup_only: bool, deadline: float
) -> dict:
    """Run one worker process in ``workdir``; returns its result with
    ``setup_s`` added."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=workdir)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"run did not finish within {DEADLINE_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    result["setup_s"] = setup_s
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: int, workdir: Path):
    """Untraced (and, with trace, traced) passes plus set-up samples."""
    passes, traced, setups = [], [], []
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    while True:
        p = spawn(workload, seed, 0, workdir, False, deadline)
        passes.append(p)
        setups.append(p["setup_s"])
        if trace:
            traced.append(spawn(workload, seed, 1, workdir, False, deadline))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(passes)
        if elapsed + per_round > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, 0, workdir, True, deadline)["setup_s"])
    return passes, traced, setups


def check_jobs(job_list, all_passes) -> tuple[int, int, list[dict], list[dict]]:
    """Checks every job output; returns attempted, failed, per-job
    descriptors and the failures."""
    import checks  # imports apolar, so only once the source is known to exist

    attempted = failed = 0
    described, failures = [], []
    for i, job in enumerate(job_list):
        runs = [p["jobs"][i] for p in all_passes]
        subject = checks.Subject(job)
        problems = []
        for r in runs:
            if r["key"] != job.key:
                raise BenchError(f"job order differs between passes at {job.key}")
            if r["error"]:
                problems.append(r["error"].strip().splitlines()[-1])
        if len({r["stdout"] for r in runs}) > 1:
            problems.append("stdout differs between identical invocations")
        if not problems:
            problems = checks.check_output(subject, runs[0]["code"], runs[0]["stdout"])
        attempted += len(runs)
        if problems:
            failed += len(runs)
            failures.append({"job": job.key, "problems": problems, "stderr": runs[0]["stderr"]})
        described.append({
            "job": job.key,
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            **subject.descriptors(),
        })
    return attempted, failed, described, failures


def workload_descriptors(described: list[dict]) -> dict:
    def span(key):
        vals = [d[key] for d in described]
        return [min(vals), max(vals)]

    return {
        "jobs": len(described),
        "n": span("n"),
        "d": span("d"),
        "dim_w": span("dim_w"),
        "terms": span("terms"),
        "coeff_range": [
            str(min(Fraction(d["coeff_range"][0]) for d in described)),
            str(max(Fraction(d["coeff_range"][1]) for d in described)),
        ],
        "useful_ratio": sum(d["sum_h"] for d in described) / sum(d["sum_dim_s"] for d in described),
    }


def end_to_end(passes, setups, attempted, failed) -> dict:
    med = statistics.median
    values = {
        "setup_s": med(setups),
        "run_s": med(p["wall_s"] for p in passes),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "job_geomean_s": med(p["job_geomean_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_kb"] for p in passes) / 1024,
        "success_rate": 1 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(passes, traced, units: dict) -> dict:
    layers = [t["layers"] for t in traced]
    values = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    values["trace.run_s"] = statistics.median(t["wall_s"] for t in traced)
    values["trace.untraced_run_s"] = statistics.median(p["wall_s"] for p in passes)
    values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
    return {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}


def layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        passes, traced, setups = run_passes(workload, seed, seconds, trace, workdir)
        job_list = workloads.jobs(workload, seed)
        check_start = time.perf_counter()
        attempted, failed, described, failures = check_jobs(job_list, passes + traced)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "check_s": check_s,
        "passes_s": [{"wall": p["wall_s"], "cpu": p["cpu_s"]} for p in passes],
        "descriptors": workload_descriptors(described),
        "jobs": described,
        "failures": failures,
    }
    print(json.dumps(report, indent=1), file=sys.stderr)
    metrics = per_layer(passes, traced, layer_units()) if trace else end_to_end(
        passes, setups, attempted, failed
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="apolar benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "apolar" / "__init__.py").is_file():
        print(f"error: no apolar source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
