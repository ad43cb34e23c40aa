"""frameflow benchmark: run one workload's job list and print its metrics.

    python3 bench/run.py --workload flow-exact --seed 1 --seconds 17 --trace 0

Each job is an in-process call to frameflow.cli.main(argv) with --output to
a scratch file under .bench_out/; one client runs the jobs back to back
(closed loop).  Every output is parsed and checked.  With --trace 0 the run
measures whole cycles of jobs until --seconds seconds of job time are spent
and prints the end-to-end metrics; with --trace 1 it runs the first cycle of
the job list untraced, replays it with the tracer installed, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the metric names and units
come from BENCHMARK.json.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

# One client, one thread: BLAS runs single-threaded in the benchmark and in
# the interpreters that time the import.  BLAS reads these when numpy loads,
# so they are set before anything below imports numpy.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

from checks import CheckFailed, check  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORK_UNITS, first_cycle, jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_IMPORTS = 7
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import frameflow; "
    "print(time.perf_counter() - t0)"
)

# Per-layer metrics beyond each span's calls and self_s.
PATHS = ("flows.flow_path", "flows.gradient_path")
COUNTERS = (
    "flows.flow_path.steps", "flows.gradient_path.steps", "strata.trees",
    "skeleton.vertices", "skeleton.edges", "morse.rest_points",
)


class JobResult(NamedTuple):
    job: object
    seconds: float
    problem: Optional[str]  # None when the job exited 0 and passed its check
    digest: Optional[str]
    nbytes: int
    outcome: object


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_frameflow():
    """Import frameflow from this checkout's src/."""
    if not (SRC / "frameflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no frameflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frameflow
    import frameflow.cli

    if Path(frameflow.__file__).resolve().parent != SRC / "frameflow":
        raise SystemExit(f"error: imported frameflow from {frameflow.__file__}")
    return frameflow


def time_import():
    """Seconds to import frameflow in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def git_commit():
    """Commit of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def metadata(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in sorted(THREAD_ENV)},
        "git_commit": git_commit(),
    }


def run_job(cli, job, out_path, tracer=None):
    if out_path.exists():
        out_path.unlink()
    # collect the previous job's garbage outside the timed region
    gc.collect()
    err = io.StringIO()
    if tracer is not None:
        tracer.job = job.index
    with contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(job.argv(out_path))
        except Exception as exc:  # a crash fails this job, not the benchmark
            rc = "on exception"
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = perf_counter() - start
    if rc != 0:
        first = (err.getvalue().strip().splitlines() or [""])[0]
        return JobResult(job, seconds, f"exit {rc}: {first}", None, 0, None)
    data = out_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        outcome = check(job, data.decode())
    except CheckFailed as exc:
        return JobResult(job, seconds, f"check: {exc}", digest, len(data), None)
    return JobResult(job, seconds, None, digest, len(data), outcome)


def run_jobs(cli, jobs, budget_s, out_path, tracer=None):
    """Run jobs back to back until budget_s seconds of job time are spent
    and the current cycle is complete, so every run measures whole cycles."""
    results = []
    spent = 0.0
    for job in jobs:
        if spent >= budget_s and job.cycle != results[-1].job.cycle:
            break
        result = run_job(cli, job, out_path, tracer)
        results.append(result)
        spent += result.seconds
    return results


def rate(results):
    spent = sum(r.seconds for r in results)
    return sum(r.outcome.units for r in results if r.problem is None) / spent


def tail_latency(sorted_ms):
    """(value, percentile): the highest percentile with ten jobs beyond it."""
    n = len(sorted_ms)
    if n <= 10:
        return sorted_ms[-1], 100.0
    return sorted_ms[n - 11], 100.0 * (n - 10) / n


def end_to_end(results, setup_s):
    done = [r for r in results if r.problem is None]
    latencies = sorted(1e3 * r.seconds for r in done)
    p50 = tail = 0.0  # no completed job: the result is already not correct
    if latencies:
        p50 = statistics.median(latencies)
        tail, pct = tail_latency(latencies)
        print(f"job_tail_ms is p{pct:.2f} of {len(done)} completed jobs")
    return {
        "setup_s": setup_s,
        "work_per_s": rate(results),
        "job_p50_ms": p50,
        "job_tail_ms": tail,
        "ok_ratio": len(done) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced):
    """Every per-layer figure the traced replay yields, by metric name."""
    stats = tracer.layer_stats()
    metrics = {}
    for span in SPAN_NAMES:
        calls, _, own = stats.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = own
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    steps = sum(tracer.counts[f"{p}.steps"] for p in PATHS)
    path_s = sum(stats.get(p, (0, 0.0, 0.0))[1] for p in PATHS)
    metrics["flows.step_us"] = 1e6 * path_s / steps if steps else 0.0
    done = [r.outcome for r in traced if r.problem is None]
    metrics["frames.orth_defect_max"] = max((o.orth_defect for o in done), default=0.0)
    metrics["flows.energy_dip_max"] = max((o.energy_dip for o in done), default=0.0)
    metrics["cli.output_bytes"] = sum(r.nbytes for r in traced)
    traced_rate = rate(traced)
    metrics["trace.overhead_ratio"] = rate(untraced) / traced_rate if traced_rate else 0.0
    return metrics


def traced_run(cli, workload, seed, out_path):
    """Untraced pass over the first cycle, then a traced replay of it.
    Returns (results, metrics, problems found in the tracer's hygiene)."""
    cycle = first_cycle(workload, seed)
    untraced = run_jobs(cli, cycle, math.inf, out_path)
    tracer = Tracer()
    try:
        tracer.install()
        traced = run_jobs(cli, cycle, math.inf, out_path, tracer)
    finally:
        leftover = tracer.uninstall()
    hygiene = [f"wrapper left installed: {name}" for name in leftover]
    for a, b in zip(untraced, traced):
        if a.digest != b.digest:
            hygiene.append(f"job {a.job.index}: traced output differs from untraced")
    bad = tracer.bad_spans()
    if bad:
        hygiene.append(f"{len(bad)} spans with self time out of range")
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    return traced, per_layer(tracer, traced, untraced), hygiene


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    frameflow = load_frameflow()
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"job-{os.getpid()}.out"
    print("meta " + json.dumps(metadata(args)))
    try:
        if args.trace:
            results, metrics, problems = traced_run(
                frameflow.cli, args.workload, args.seed, out_path
            )
            declared = spec["per_layer"]
        else:
            imports = [time_import() for _ in range(SETUP_IMPORTS)]
            start = perf_counter()
            job_list = jobs(args.workload, args.seed)
            setup_s = statistics.median(imports) + perf_counter() - start
            gc.collect()
            results = run_jobs(frameflow.cli, job_list, args.seconds, out_path)
            metrics = end_to_end(results, setup_s)
            problems = []
            declared = spec["end_to_end"]
    finally:
        if out_path.exists():
            out_path.unlink()
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names unknown metrics {sorted(missing)}")

    failed = [r for r in results if r.problem is not None]
    for r in failed:
        print(f"failed job {r.job.index} ({r.job.label()} seed {r.job.seed}): {r.problem}")
    for p in problems:
        print(f"trace hygiene: {p}")
    print(f"work unit: {WORK_UNITS[args.workload]}")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}")
    result = {
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
