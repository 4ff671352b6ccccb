"""One benchmark worker: set up one workload, time whole passes, check outputs.

Run by run.py in its own single-threaded process, so the in-process memo,
the disk cache and peak memory belong to one workload alone.  Protocol on
standard output: the line ``READY`` when set-up is done (run.py times
set-up from process start to that line), then one JSON line with the
results.  With --setup-only the worker exits after ``READY``.

conekit is imported during set-up, and only the public entry points that
``conekit verify`` uses (report.run_scenario, report.report_bytes) and
groebner.buchberger are called, always through their module, so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs", "engine_gb.json")
PRIMES = (31991, 32003)
PRESETS = ("cubic-3f-h1", "cubic-3f-h2", "quadric-s2-h1")
HEAVY_CHECKS = ("prop-2-1", "prop-2-6")
# S-pairs of each returned basis that the checker reduces, drawn with --seed
SPAIR_SAMPLE = 2


class ReportWorkload:
    """Scenarios through report.run_scenario; one operation is one check in
    one scenario."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        # two passes must give identical report bytes; one quadric-heavy
        # pass takes most of a run's time limit
        self.min_passes = 1 if name == "quadric-heavy" else 2
        self.cold = None  # light-warm-cache: the reports of the cold pass

    def setup(self) -> None:
        from conekit import checks, report

        self.report = report
        if self.name == "quadric-heavy":
            specs = [("quadric-s2-h1", PRIMES[0], HEAVY_CHECKS)]
        else:
            light = tuple(c for c in checks.CHECK_ORDER if c not in HEAVY_CHECKS)
            specs = [(name, p, light) for name in PRESETS for p in PRIMES]
        cache = os.path.join(self.workdir, "cache") if self.name == "light-warm-cache" else None
        self.configs = [
            report.ScenarioConfig(preset_name=name, field="Fp:%d" % p, checks=chk,
                                  seed=self.seed, cache_dir=cache)
            for name, p, chk in specs
        ]
        if cache is not None:
            # the cold pass: it computes every basis itself and fills the cache
            self.cold = self.run_pass()

    def run_pass(self) -> list:
        out = []
        for cfg in self.configs:
            try:
                out.append(self.report.report_bytes(self.report.run_scenario(cfg)))
            except Exception as exc:  # a raising scenario fails its checks
                out.append("%s: %s" % (type(exc).__name__, exc))
        return out

    def check(self, results: list) -> tuple:
        """(operations, {failed operation: reasons}, run-level problems) of
        one pass."""
        import props

        ops, failures, run_problems = 0, {}, []
        if self.cold is not None and results != self.cold:
            run_problems.append("warm-cache reports differ from the cold pass")
        status = {}
        for cfg, res in zip(self.configs, results):
            ops += len(cfg.checks)
            label = "%s %s" % (cfg.preset_name, cfg.field)
            if isinstance(res, str):
                for c in cfg.checks:
                    failures.setdefault("%s %s" % (label, c), []).append("raised " + res)
                continue
            rep = json.loads(res)
            for rec in rep["checks"]:
                status.setdefault((cfg.preset_name, rec["name"]), {})[cfg.field] = rec["status"]
                probs = props.check_record_problems(rec, rep["instance"])
                if probs:
                    failures.setdefault("%s %s" % (label, rec["name"]), []).extend(probs)
        for (preset, name), by_prime in sorted(status.items()):
            if len(set(by_prime.values())) > 1:
                for field in by_prime:
                    failures.setdefault("%s %s %s" % (preset, field, name), []).append(
                        "primes disagree: %s" % by_prime)
        return ops, failures, run_problems


class EngineWorkload:
    """Fixed Groebner inputs through groebner.buchberger with DEFAULT_CAPS;
    one operation is one basis."""

    min_passes = 1

    def __init__(self, name: str, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        from conekit import cache, groebner, ring

        import props

        self.groebner = groebner
        with open(INPUTS, encoding="utf-8") as fh:
            spec = json.load(fh)
        self.inputs = []
        for item in spec["inputs"]:
            prime_ring = ring.PolyRing(cache.ambient_from_key(item["ambient"]),
                                       cache.field_from_name(item["field"]))
            # the benchmark's own parser: conekit's takes about 3 s on these inputs,
            # and its cost is measured by light-warm-cache
            p = int(item["field"].split(":")[1])
            gens = [prime_ring.from_terms(props.parse_poly(s, prime_ring.ambient.varnames, p))
                    for s in item["gens"]]
            self.inputs.append((item, gens, make_order(ring, item["order"], prime_ring.nvars)))

    def run_pass(self) -> list:
        out = []
        for _, gens, order in self.inputs:
            try:
                out.append(self.groebner.buchberger(gens, order, self.groebner.DEFAULT_CAPS))
            except self.groebner.ResourceCapExceeded as exc:
                out.append("ResourceCapExceeded: %s" % exc)
        return out

    def check(self, results: list) -> tuple:
        import props

        failures = {}
        rng = random.Random(self.seed)
        for (item, gens, _), res in zip(self.inputs, results):
            if isinstance(res, str):
                failures[item["name"]] = [res]
                continue
            p = int(item["field"].split(":")[1])
            rank = props.order_rank(item["order"], gens[0].ring.nvars)
            probs = props.basis_problems([dict(b.terms) for b in res],
                                         [dict(g.terms) for g in gens], rank, p, rng, SPAIR_SAMPLE)
            if probs:
                failures[item["name"]] = probs
        return len(self.inputs), failures, []


def make_order(ring_mod, name: str, nvars: int):
    """conekit's monomial order from its name."""
    if name == "grevlex":
        return ring_mod.GrevlexOrder(nvars)
    kind, _, arg = name.partition(":")
    idx = [int(i) for i in arg.split(",")]
    if kind == "grevlex-perm":
        return ring_mod.PermutedGrevlexOrder(idx)
    if kind == "elim":
        return ring_mod.BlockElimOrder(idx, nvars)
    raise ValueError("unknown order %r" % name)


WORKLOADS = {
    "quadric-heavy": ReportWorkload,
    "light-sweep": ReportWorkload,
    "light-warm-cache": ReportWorkload,
    "engine-gb": EngineWorkload,
}


def timed_passes(wl, seconds: float, min_passes: int) -> tuple:
    """Whole passes until `seconds` have elapsed and at least `min_passes`
    are done; (pass times, results of the first pass, all passes equal)."""
    times, first, same = [], None, True
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        res = wl.run_pass()
        times.append(time.perf_counter() - t)
        if first is None:
            first = res
        else:
            same = same and res == first
        if len(times) >= min_passes and time.perf_counter() - begin >= seconds:
            return times, first, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.workload, args.seed, args.workdir)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"run_problems": []}
    if tracer is None:
        times, first, same = timed_passes(wl, args.seconds, wl.min_passes)
        result["pass_s"] = statistics.median(times)
        result["pass_times"] = times
    else:
        # untraced and traced passes alternate, so that a drift in the
        # machine's speed falls on both; the difference is the overhead
        setup_spans = len(tracer.spans)
        tracer.uninstall()
        plain, traced, first, same = [], [], None, True
        begin = time.perf_counter()
        while not plain or time.perf_counter() - begin < args.seconds:
            for times, traced_pass in ((plain, False), (traced, True)):
                if traced_pass:
                    tracer.install()
                t = time.perf_counter()
                res = wl.run_pass()
                times.append(time.perf_counter() - t)
                if traced_pass:
                    tracer.uninstall()
                if first is None:
                    first = res
                else:  # traced passes too must give the untraced outputs
                    same = same and res == first
        per_pass = tracer.summary(setup_spans)
        metrics = {k: v / len(traced) for k, v in per_pass.items()}
        metrics["groebner.buchberger.max_s"] = per_pass["groebner.buchberger.max_s"]
        at_setup = tracer.summary(0, setup_spans)
        for k in tracer_mod.SETUP_METRICS:
            metrics["setup." + k] = at_setup[k]
        metrics["trace.untraced_pass_s"] = statistics.median(plain)
        metrics["trace.traced_pass_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]
        result["trace"] = metrics
        result["pass_times"] = plain + traced
    # before the checks, whose memory depends on the seeded S-pair sample
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not same:
        result["run_problems"].append("passes gave different outputs")
    ops, failures, run_problems = wl.check(first)
    result["run_problems"] += run_problems
    result["operations"] = ops
    result["failures"] = failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
