#!/usr/bin/env python3
"""conekit benchmark: run one workload and print its metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload light-sweep --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh single-threaded worker process (worker.py)
with conekit imported from src/.  With --trace 0 the last line of standard
output holds the end-to-end metrics:

- pass_s: median wall time of one pass over the workload's operations;
- setup_s: median, over several set-ups, of the time from the worker's
  start until its first timed pass can begin;
- peak_rss_mib: peak resident memory of the worker that made the passes.

With --trace 1 a separate worker runs with the outside-in tracer
(tracer.py) and the last line holds the per-layer figures of one pass.
Either way the line also says whether the outputs were correct and how
many operations were attempted and failed.  The exit code is 0 when a
result was printed, 1 when a worker broke, 2 on a usage error or when the
conekit source is missing.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# every subprocess of one run must end within this many seconds; one
# quadric-heavy pass takes about 100 s, so its traced run needs longer
RUN_LIMIT_S = {"quadric-heavy": 420.0}
DEFAULT_LIMIT_S = 170.0
# set-ups per untraced run; those of light-warm-cache and quadric-heavy are
# whole cold passes, so they set up fewer times
SETUPS = {"light-sweep": 5, "engine-gb": 5, "light-warm-cache": 2, "quadric-heavy": 2}


class WorkerError(Exception):
    pass


def start_worker(args, workdir: str, extra=()) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["OMP_NUM_THREADS"] = "1"
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    return subprocess.Popen(cmd + list(extra), cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)


def run_worker(args, workdir: str, deadline: float, setup_only: bool):
    """(set-up seconds, result dict or None) of one worker process."""
    os.makedirs(workdir)
    t0 = time.perf_counter()
    proc = start_worker(args, workdir, ["--setup-only"] if setup_only else [])
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise WorkerError("worker did not finish set-up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError("worker exited with code %d" % proc.returncode)
    if setup_only:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def main(argv=None) -> int:
    from worker import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conekit", "__init__.py")):
        print("perfbench: no conekit source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S.get(args.workload, DEFAULT_LIMIT_S)
    work_root = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    setups = []
    try:
        for k in range(0 if args.trace else SETUPS[args.workload] - 1):
            setups.append(run_worker(args, os.path.join(work_root, "probe%d" % k),
                                     deadline, True)[0])
        setup_s, result = run_worker(args, os.path.join(work_root, "main"), deadline, False)
        setups.append(setup_s)
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run still uses it, or it is already gone

    passes = len(result["pass_times"])
    print("pass times (s): %s" % " ".join("%.3f" % t for t in result["pass_times"]),
          file=sys.stderr)
    for op, reasons in sorted(result["failures"].items()):
        print("failed: %s: %s" % (op, "; ".join(reasons)), file=sys.stderr)
    for problem in result["run_problems"]:
        print("incorrect: %s" % problem, file=sys.stderr)
    if args.trace:
        import tracer

        metrics = {k: {"value": v, "unit": tracer.metric_unit(k)}
                   for k, v in result["trace"].items()}
    else:
        metrics = {
            "pass_s": {"value": result["pass_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not result["run_problems"],
        "attempted": result["operations"] * passes,
        "failed": len(result["failures"]) * passes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
