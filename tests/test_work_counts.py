"""Work counts of one light scenario, which repeat exactly on any machine.

quadric-s2-h1 at 31991, seed 0, the seven light checks.  The number of
Groebner bases computed is pinned, so a memo that stops hitting (or starts
hitting where it should not) fails here.  The number of polynomials
printed has an upper bound: the memo is keyed by generator sets, and a
polynomial keeps its printed form, so printing is left to RNG tags and
witnesses.  When the memo was keyed by printed generators, this scenario
printed 2,215 polynomials.

`run_scenario` runs the second prime in a forked child, whose work this
process cannot count.  With `os.fork` deleted it runs both primes here,
and the whole scenario is counted and bounded.  The two halves are also
pinned apart: the first prime through a forking `run_scenario`, the second
through `run_second_prime`.  When each randomized check had a fresh
context and genericity gate at the second prime, the scenario computed 341
Groebner bases through `EngineContext.groebner` and ran `buchberger` 227
times.
"""

import os

import pytest

from conekit import ideals, report, ring
from conekit.checks import CHECK_ORDER, CHECKS, run_second_prime, second_prime_data
from conekit.ideals import EngineContext
from conekit.report import ScenarioConfig, run_scenario

LIGHT_CHECKS = tuple(c for c in CHECK_ORDER if c not in ("prop-2-1", "prop-2-6"))
CFG = ScenarioConfig(preset_name="quadric-s2-h1", field="Fp:31991", checks=LIGHT_CHECKS, seed=0)

# (EngineContext.groebner calls, buchberger calls) of each half
FIRST_PRIME = (199, 121)
SECOND_PRIME = (133, 88)
MAX_PRINTS = 600  # 490 when the bound was set, over both primes


@pytest.fixture
def counts(monkeypatch):
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
    return counts


def test_light_scenario_work_counts(counts, monkeypatch):
    # both primes in this process
    monkeypatch.delattr(os, "fork")
    run_scenario(CFG)
    both = (FIRST_PRIME[0] + SECOND_PRIME[0], FIRST_PRIME[1] + SECOND_PRIME[1])
    assert (counts["groebner"], counts["buchberger"]) == both
    assert 0 < counts["print"] <= MAX_PRINTS


def test_first_prime_work_counts(counts, monkeypatch):
    # the second prime runs in a child, uncounted here
    monkeypatch.setattr(report, "_cores", lambda: 2)
    run_scenario(CFG)
    assert (counts["groebner"], counts["buchberger"]) == FIRST_PRIME


def test_second_prime_work_counts(counts):
    names = [n for n in LIGHT_CHECKS if CHECKS[n].randomized]
    run_second_prime(names, *second_prime_data(CFG.cone_data(), EngineContext(seed=0)))
    assert (counts["groebner"], counts["buchberger"]) == SECOND_PRIME
