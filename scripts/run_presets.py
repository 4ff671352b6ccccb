#!/usr/bin/env python3
"""Run every preset over both standard primes and summarize the verdicts.

Writes one report per (preset, prime) under --out-dir and prints a status
matrix.  Skips nothing: FAIL and INCONCLUSIVE rows are part of the record.
Exits 1 when a check reports FAIL; otherwise 3 when a check raised or a
--jobs worker died, as `conekit verify` does.

Usage:
    python3 scripts/run_presets.py [--out-dir reports] [--seed N]
        [--checks a,b,c] [--timings] [--jobs K]
"""

import argparse
import json
import os
import sys

from conekit.checks import CHECK_ORDER
from conekit.cone import PRESETS
from conekit.fields import DEFAULT_PRIME, SECOND_PRIME
from conekit.report import (
    ScenarioConfig,
    ScenarioWorkerDied,
    exit_status,
    report_bytes,
    run_scenarios,
)


def build_configs(args):
    checks = tuple(args.checks.split(",")) if args.checks else tuple(CHECK_ORDER)
    configs = []
    for name in sorted(PRESETS):
        for p in (DEFAULT_PRIME, SECOND_PRIME):
            out = os.path.join(args.out_dir, "%s-p%d.json" % (name, p))
            configs.append(
                ScenarioConfig(
                    preset_name=name,
                    field="Fp:%d" % p,
                    checks=checks,
                    seed=args.seed,
                    out_path=out,
                    timings=args.timings,
                )
            )
    return configs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checks", default=None, help="comma-separated subset")
    ap.add_argument("--timings", action="store_true")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    configs = build_configs(args)
    try:
        reports = run_scenarios(configs, args.jobs)
    except ScenarioWorkerDied as exc:
        print("internal error: a scenario worker died: %s" % exc, file=sys.stderr)
        return 3

    width = max(len(c["name"]) for r in reports for c in r["checks"])
    for cfg, rep in zip(configs, reports):
        with open(cfg.out_path, "wb") as fh:
            fh.write(report_bytes(rep))
        print("== %s  %s  (seed %d)" % (cfg.preset_name, cfg.field, cfg.seed))
        for c in rep["checks"]:
            print("   %-*s  %s" % (width, c["name"], c["status"]))
        print("   summary: %s -> %s" % (json.dumps(rep["summary"]), cfg.out_path))
    return exit_status(reports)


if __name__ == "__main__":
    sys.exit(main())
