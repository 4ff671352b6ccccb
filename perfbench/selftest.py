#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each check is fed a
known-good output, which it must accept, and deliberately wrong ones, each
of which it must reject.  Needs no conekit; takes well under a second.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
from types import SimpleNamespace

import props
from worker import ReportWorkload

QUADRIC = {"n": 2, "h": 1, "f": "x0*x3 - x1*x2", "field": "Fp:31991"}
CUBIC = {"n": 3, "h": 1, "f": "x0^3 + x1^3 + x2^3 + x3^3 + x4^3", "field": "Fp:31991"}


def record(name, witnesses, status="PASS"):
    return {"name": name, "status": status, "witnesses": witnesses}


GOOD_RECORDS = [
    (record("w-covering", {"fiber-counts": [2, 2, 2],
                           "sample-points": [[1, 2, 3, 6], [0, 5, 0, 7]]}), QUADRIC),
    (record("formula-3-5", {"total-intersection-degree": 3, "delta-part-multiplicity": "1",
                            "residual-degree": 2}, "FAIL"), CUBIC),
    (record("formula-3-5", {"total-intersection-degree": 2, "excess-component": ["x2", "x3"]},
            "NOT-APPLICABLE"), QUADRIC),
    (record("digamma", {"component-dimensions": [3, 3]}), QUADRIC),
    (record("digamma", {"component-dimensions": [4, 4]}), CUBIC),
]

# (what is wrong, record, instance)
BAD_RECORDS = [
    ("fibre count below deg f",
     record("w-covering", {"fiber-counts": [2, 1, 2], "sample-points": []}), QUADRIC),
    ("no fibre counts", record("w-covering", {"fiber-counts": []}), QUADRIC),
    ("sample point off f = 0",
     record("w-covering", {"fiber-counts": [2, 2, 2], "sample-points": [[1, 2, 3, 5]]}), QUADRIC),
    ("sample point off the cubic",
     record("w-covering", {"fiber-counts": [3, 3, 3],
                           "sample-points": [[1, 1, 1, 1, 31987]]}), CUBIC),
    ("all-zero sample point",
     record("w-covering", {"fiber-counts": [2, 2, 2], "sample-points": [[0, 0, 0, 0]]}), QUADRIC),
    ("total degree != deg X * deg delta",
     record("formula-3-5", {"total-intersection-degree": 2, "delta-part-multiplicity": "1",
                            "residual-degree": 1}, "FAIL"), CUBIC),
    ("multiplicity * deg delta + residual != total",
     record("formula-3-5", {"total-intersection-degree": 3, "delta-part-multiplicity": "1",
                            "residual-degree": 1}, "FAIL"), CUBIC),
    ("digamma dimension off", record("digamma", {"component-dimensions": [3, 2]}), QUADRIC),
    ("digamma one component", record("digamma", {"component-dimensions": [3]}), QUADRIC),
    ("INCONCLUSIVE", record("prop-2-5", {"resource-cap": "reduction-steps"}, "INCONCLUSIVE"),
     QUADRIC),
]

P = 31991
RANK = props.order_rank("grevlex", 2)
X_MINUS_Y = {(1, 0): 1, (0, 1): P - 1}
Y2_MINUS_1 = {(0, 2): 1, (0, 0): P - 1}
X2_MINUS_1 = {(2, 0): 1, (0, 0): P - 1}
X2_MINUS_Y = {(2, 0): 1, (0, 1): P - 1}
XY_MINUS_1 = {(1, 1): 1, (0, 0): P - 1}

# (the problem the check must name, basis, generators); (x - y, x^2 - 1)
# has the reduced grevlex basis (x - y, y^2 - 1)
GOOD_BASIS = ([X_MINUS_Y, Y2_MINUS_1], [X_MINUS_Y, X2_MINUS_1])
BAD_BASES = [
    ("not monic", [X_MINUS_Y, {(0, 2): 2, (0, 0): P - 2}], [X_MINUS_Y, X2_MINUS_1]),
    ("not reduced", [X_MINUS_Y, Y2_MINUS_1, XY_MINUS_1], [X_MINUS_Y, X2_MINUS_1]),
    ("do not reduce to zero", [X_MINUS_Y], [X_MINUS_Y, X2_MINUS_1]),
    # monic, reduced, contains its generators, but its S-pair is not in it
    ("S-pair", [X2_MINUS_Y, XY_MINUS_1], [X2_MINUS_Y, XY_MINUS_1]),
]


def report(instance, records):
    return json.dumps({"instance": instance, "checks": records}, sort_keys=True).encode()


def report_workload_cases():
    """(what is wrong or None, workload, results) for ReportWorkload.check."""
    configs = [SimpleNamespace(preset_name="quadric-s2-h1", field="Fp:%d" % p,
                               checks=("digamma",)) for p in (31991, 32003)]
    good = [report(dict(QUADRIC, field=c.field), [GOOD_RECORDS[3][0]]) for c in configs]
    flipped = copy.deepcopy(GOOD_RECORDS[3][0])
    flipped["status"] = "FAIL"
    wl = ReportWorkload("light-sweep", 0, "")
    wl.configs = configs
    warm = ReportWorkload("light-warm-cache", 0, "")
    warm.configs, warm.cold = configs, [good[0], good[1].replace(b"3]", b"3 ]")]
    return [
        (None, wl, good),
        ("primes disagree", wl, [good[0], report(dict(QUADRIC, field="Fp:32003"), [flipped])]),
        ("scenario raised", wl, [good[0], "IdealError: boom"]),
        ("warm bytes differ from the cold pass", warm, good),
    ]


def main() -> int:
    errors = []
    for rec, inst in GOOD_RECORDS:
        probs = props.check_record_problems(rec, inst)
        if probs:
            errors.append("good %s record rejected: %s" % (rec["name"], probs))
    for what, rec, inst in BAD_RECORDS:
        if not props.check_record_problems(rec, inst):
            errors.append("record check missed: %s" % what)
    rng = random.Random(0)
    probs = props.basis_problems(*GOOD_BASIS, RANK, P, rng, 3)
    if probs:
        errors.append("good basis rejected: %s" % probs)
    for what, basis, gens in BAD_BASES:
        probs = props.basis_problems(basis, gens, RANK, P, rng, 3)
        if not any(what in q for q in probs):
            errors.append("basis check missed %r: %s" % (what, probs))
    cases = report_workload_cases()
    for what, wl, results in cases:
        _, failures, run_problems = wl.check(results)
        if what is None and (failures or run_problems):
            errors.append("good reports rejected: %s %s" % (failures, run_problems))
        if what is not None and not (failures or run_problems):
            errors.append("report check missed: %s" % what)
    n_cases = len(GOOD_RECORDS) + len(BAD_RECORDS) + 1 + len(BAD_BASES) + len(cases)
    for e in errors:
        print("selftest: " + e, file=sys.stderr)
    print("selftest: %d cases, %d wrong" % (n_cases, len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
