#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternating pairs of runs.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10 --traced --out BENCH_6.json

The base tree is `git archive <base>` unpacked into a temporary directory.
The change tree is the working tree of this repository, or `git archive
<change>` when --change is given.  Pair k runs `perfbench/run.py` once in
each tree, with seed first-seed + k, for every workload that BENCHMARK.json
lists and for its `run_seconds`; even pairs run the base first and odd pairs
the change first, so a drift in machine speed falls on both sides.

The output JSON holds every run's metrics, and per workload and metric the
median and quartiles of each side and the number of pairs the change won,
with "better" read from BENCHMARK.json.  With --traced, one traced run per
side and workload (at the first seed) adds the per-layer figures.  The file
is rewritten after every pair, so an interrupted comparison keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(rev: str, dest: str) -> str:
    """Unpack the committed files of `rev` into `dest`; returns the full hash."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit("git archive %s failed" % rev)
    return git("rev-parse", rev)


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])}
    out = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": round(wall, 3),
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: v["value"] for k, v in out["metrics"].items()},
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict, better: dict) -> dict:
    """Per workload and end-to-end metric: both sides' medians and quartiles, and wins."""
    summary = {}
    for workload, sides in runs.items():
        pairs = [(b, c) for b, c in zip(sides["base"], sides["change"])
                 if "error" not in b and "error" not in c]
        if not pairs:
            continue
        wl = {"pairs": len(pairs), "failed_share": {},
              "all_correct": all(b["correct"] and c["correct"] for b, c in pairs),
              "metrics": {}}
        for k, side in enumerate(("base", "change")):
            rs = [pair[k] for pair in pairs]
            wl["failed_share"][side] = (sum(r["failed"] for r in rs)
                                        / max(1, sum(r["attempted"] for r in rs)))
        for name in pairs[0][0]["metrics"]:
            base = [b["metrics"][name] for b, _ in pairs]
            change = [c["metrics"][name] for _, c in pairs]
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            lower = better.get(name, "lower") == "lower"
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            wl["metrics"][name] = {
                "better": "lower" if lower else "higher",
                "base": {"median": bmed, "q1": bq1, "q3": bq3},
                "change": {"median": cmed, "q1": cq1, "q3": cq3},
                "change_wins": wins,
                "ratio_base_over_change": round(bmed / cmed, 4) if cmed else None,
                "median_gap_exceeds_base_iqr": abs(bmed - cmed) > (bq3 - bq1),
            }
        summary[workload] = wl
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base tree")
    ap.add_argument("--change", help="git revision of the change tree (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per side and workload at the first seed")
    ap.add_argument("--out", required=True, help="path of the JSON to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": os.path.join(tmp, "base")}
        record = {
            "protocol": {
                "pairs": args.pairs, "first_seed": args.first_seed, "seconds": seconds,
                "order": "even pairs run the base first, odd pairs the change first",
                "python": platform.python_version(), "nproc": os.cpu_count(),
            },
            "base": export_tree(args.base, trees["base"]),
        }
        if args.change:
            trees["change"] = os.path.join(tmp, "change")
            record["change"] = export_tree(args.change, trees["change"])
        else:
            trees["change"] = ROOT
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
            record["change"] = git("rev-parse", "HEAD") + (" plus uncommitted edits" if dirty else "")
        runs = {w: {"base": [], "change": []} for w in workloads}
        record["runs"] = runs

        def write():
            record["summary"] = summarize(runs, better)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")

        for k in range(args.pairs):
            seed = args.first_seed + k
            sides = ("base", "change") if k % 2 == 0 else ("change", "base")
            for w in workloads:
                for side in sides:
                    r = run_once(trees[side], w, seed, seconds, 0)
                    runs[w][side].append(r)
                    print("pair %d %s %s: %s" % (k + 1, w, side, r.get("metrics", r.get("error"))),
                          file=sys.stderr, flush=True)
            write()
        if args.traced:
            record["traced"] = {w: {side: run_once(trees[side], w, args.first_seed, seconds, 1)
                                    for side in ("base", "change")} for w in workloads}
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
