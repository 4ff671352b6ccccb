"""Rebuild perfbench/inputs/engine_gb.json, the fixed inputs of engine-gb.

Usage (from the repository root; takes about three minutes):

    PYTHONPATH=src python3 perfbench/make_inputs.py

The inputs are Groebner computations that conekit itself asks for, recorded
at the engine boundary (every call of groebner.buchberger goes through
ideals.EngineContext.groebner) at scenario seed 0:

- quadric: the quadric-heavy scenario (prop-2-1 and prop-2-6 on
  quadric-s2-h1 at Fp:31991).  Kept: inputs at the scenario's prime (not
  the second-prime re-runs) whose reduced basis has MIN_TERMS to MAX_TERMS
  terms, one per basis length (inputs that give bases of one length are
  near repeats; the one with the most terms is kept).  These are block
  eliminations that saturate's colon probe runs.  The bases above
  MAX_TERMS (152 elements, 64k terms) take about 25 s each, more than half
  of what one run can spend, and are left out.
- cubic: the basis that exceeds the reduction-step cap while building
  sigma's x-block saturation for prop-2-1 on cubic-3f-h1.
"""

from __future__ import annotations

import json
import os
import sys

from conekit import groebner, ideals
from conekit.report import ScenarioConfig, run_scenario
from conekit.ring import poly_str

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs", "engine_gb.json")
MIN_TERMS = 10_000
MAX_TERMS = 50_000


def record(cfg: ScenarioConfig) -> list:
    """(input record, result terms, result length) per call; the terms
    and length are None when a cap was hit."""
    calls = []
    orig = ideals.buchberger

    def recorder(gens, order, caps=groebner.DEFAULT_CAPS):
        gens = [g for g in gens if not g.is_zero()]
        item = {
            "field": gens[0].ring.field.name,
            "ambient": [list(b) for b in gens[0].ring.ambient.key()],
            "order": order.name,
            "gens": [poly_str(g) for g in gens],
        }
        try:
            out = orig(gens, order, caps)
        except groebner.ResourceCapExceeded:
            calls.append((item, None, None))
            raise
        calls.append((item, sum(len(b.terms) for b in out), len(out)))
        return out

    ideals.buchberger = recorder
    try:
        run_scenario(cfg)
    finally:
        ideals.buchberger = orig
    return calls


def main() -> int:
    inputs, seen = [], set()
    quadric = record(ScenarioConfig(preset_name="quadric-s2-h1", field="Fp:31991",
                                    checks=("prop-2-1", "prop-2-6"), seed=0))
    for item, terms, length in sorted(quadric, key=lambda c: -(c[1] or 0)):
        if (terms is None or not MIN_TERMS <= terms <= MAX_TERMS or length in seen
                or item["field"] != "Fp:31991"):
            continue
        seen.add(length)
        item["name"] = "quadric-elim-%dgens" % len(item["gens"])
        item["basis_terms_at_build"] = terms
        inputs.append(item)
    cubic = record(ScenarioConfig(preset_name="cubic-3f-h1", field="Fp:31991",
                                  checks=("prop-2-1",), seed=0))
    capped = [item for item, terms, _ in cubic if terms is None]
    if len(capped) != 1:
        print("expected one capped basis on cubic-3f-h1, found %d" % len(capped), file=sys.stderr)
        return 1
    capped[0]["name"] = "cubic-sigma-xsat-%dgens" % len(capped[0]["gens"])
    capped[0]["basis_terms_at_build"] = None
    inputs.append(capped[0])
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"inputs": [{k: it[k] for k in sorted(it)} for it in inputs]}, fh, indent=1)
        fh.write("\n")
    for it in inputs:
        print(it["name"], it["order"], it["basis_terms_at_build"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
