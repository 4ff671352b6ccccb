"""Work counts of one light scenario, which repeat exactly on any machine.

quadric-s2-h1 at 31991, seed 0, the seven light checks.  The number of
Groebner bases computed is pinned, so a memo that stops hitting (or starts
hitting where it should not) fails here.  The number of polynomials
printed has an upper bound: the memo is keyed by generator sets, and a
polynomial keeps its printed form, so printing is left to RNG tags and
witnesses.  When the memo was keyed by printed generators, this scenario
printed 2,215 polynomials.
"""

from conekit import ideals, ring
from conekit.checks import CHECK_ORDER
from conekit.report import ScenarioConfig, run_scenario

LIGHT_CHECKS = tuple(c for c in CHECK_ORDER if c not in ("prop-2-1", "prop-2-6"))

GROEBNER_CALLS = 341
BUCHBERGER_CALLS = 227
MAX_PRINTS = 600  # 490 when the bound was set


def test_light_scenario_work_counts(monkeypatch):
    counts = {"groebner": 0, "buchberger": 0, "print": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ideals.EngineContext, "groebner",
                        counted("groebner", ideals.EngineContext.groebner))
    monkeypatch.setattr(ideals, "buchberger", counted("buchberger", ideals.buchberger))
    monkeypatch.setattr(ring, "_format_poly", counted("print", ring._format_poly))
    cfg = ScenarioConfig(preset_name="quadric-s2-h1", field="Fp:31991", checks=LIGHT_CHECKS, seed=0)
    run_scenario(cfg)
    assert counts["buchberger"] == BUCHBERGER_CALLS
    assert counts["groebner"] == GROEBNER_CALLS
    assert 0 < counts["print"] <= MAX_PRINTS
