"""chipfire benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rr-ladder --seed 1 --seconds 55 --trace 0

Builds the workload's inputs from the seed, runs them in a separate worker
process (closed loop: one client, one thread), checks every answer against an
independent reference, writes the results with the run's environment to
perfbench/results/, and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs an untraced, a
traced and another untraced pass and reports the per-layer metrics.  Exits
2 when the checkout has no chipfire sources, and 1 when the workload cannot
be built or a worker fails; neither prints a result line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh processes (the worker is one of them).
SETUP_SAMPLES = 11
# Workers are stopped if the whole run would take longer than this.
RUN_LIMIT_S = 170


class WorkerFailed(Exception):
    pass


def run_worker(spec, deadline):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    return json.loads(proc.stdout)


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "chipfire").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(worker, setups):
    """Each timing is the median over passes of that pass's value, so a
    burst of host slowness during one pass does not move it."""
    passes = worker["passes"]

    def over_passes(stat):
        return statistics.median(stat(p) for p in passes)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (over_passes(lambda p: p["wall_s"]), "s"),
        "op_p50_ms": (over_passes(lambda p: percentile(p["op_s"], 50)) * 1e3, "ms"),
        "op_p99_ms": (over_passes(lambda p: percentile(p["op_s"], 99)) * 1e3, "ms"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "chipfire" / "__init__.py").is_file():
        print(f"error: no chipfire package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import workloads

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        try:
            spec, refs = workloads.build(args.workload, args.seed, workdir)
        except workloads.WorkloadError as exc:
            print(f"error: cannot build the workload: {exc}", file=sys.stderr)
            return 1
        spec.update(
            workload=args.workload,
            src=str(SRC),
            seconds=args.seconds,
            trace=bool(args.trace),
            spans_path=str(results / f"{stem}.spans"),
        )
        try:
            worker = run_worker(spec, deadline)
            setups = [worker["setup_s"]]
            if not args.trace:
                setups += [
                    run_worker({**spec, "setup_only": True}, deadline)["setup_s"]
                    for _ in range(SETUP_SAMPLES - 1)
                ]
        except (WorkerFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: worker failed: {exc}", file=sys.stderr)
            return 1
        if not Path(worker["chipfire_file"]).resolve().is_relative_to(SRC):
            print(f"error: imported {worker['chipfire_file']}, not this checkout", file=sys.stderr)
            return 1
        checks = reference.VERIFIERS[args.workload](spec, refs, worker["answers"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = {int(i): [f"raised {err}"] for i, err in worker["errors"].items()}
    for i, found in checks.items():
        if found:
            problems.setdefault(i, []).extend(found)
    n_ops = len(spec["ops"])
    runs = len(worker["passes"])
    unstable = sum(c for i, c in worker["mismatches"].items() if int(i) not in problems)
    if args.trace:
        runs += 1
        unstable += len(set(worker["traced_mismatches"]) - set(problems))
        metrics = {
            name: (worker["layers"][name], LAYER_METRICS[name][0]) for name in LAYER_METRICS
        }
    else:
        metrics = end_to_end(worker, setups)
    attempted = n_ops * runs
    failed = len(problems) * runs + unstable

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_per_pass": n_ops,
        "passes": runs,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": setups,
        "pass_wall_s": [p["wall_s"] for p in worker["passes"]],
        "absent": worker.get("absent", []),
        "spans": worker.get("spans"),
        "problems": {str(i): p for i, p in sorted(problems.items())[:50]},
    }
    if args.trace:
        record["traced_wall_s"] = worker["traced_wall_s"]
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n_ops} ops x {runs} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':52s} {failed / attempted:14.6g} ({failed}/{attempted})")
    if record["absent"]:
        print(f"  absent at this commit: {', '.join(record['absent'])}")
    for i, found in list(problems.items())[:5]:
        print(f"  op {i} failed: {'; '.join(found)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
