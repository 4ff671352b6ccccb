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
times.  When `saturate` certified its result with a second saturation and
a containment test, and a saturation by a linear form outside
`saturate_block` took the 1 - u*g elimination, the first prime made
(199, 121) of these calls, the second (133, 88), both (332, 209).  Before
`join` and `cone_family_end` dropped three saturations that change no
ideal, the first prime made (139, 107), the second (93, 77).  Before
`fiber` and prop-2-5 fixed a block at a point by substituting it, where
they had cut by the point forms, saturated the block and eliminated it,
the first prime made (137, 105), the second (91, 75).  Before
`random_point` read the points of a slicing that cuts a line from one
binary form, where it computed a lex basis for each chart x_c = 1, the
first prime made (126, 95), the second (80, 65).  Before formula-3-5 built
its correspondence once and dropped its saturations of the correspondence
in x and of delta + f, and w-covering read its fibre unsaturated, the
first prime made (98, 68), the second (56, 42).  Before `join` took the
span of its two linear inputs by row reduction, where it eliminated from an
incidence ideal, and formula-3-5 read its cut unsaturated, the first prime
made (91, 62), the second (49, 36).  Before digamma set its dominance
pattern by construction, where it eliminated x and y from both hand-built
components and compared the second elimination with (z1), the first prime
made (87, 58); the second, which does not re-run digamma, stays put.
Before omega-consistency and digamma were decided by one ideal equality
each, where they saturated the bare equation system and the cut projection
graph in every block and split the cut by random saturations, w-covering
read its fibre from the graph closure where the bare minors with f
suffice, and a graph closure over a full product ring saturated by a
random combination of its forms in one elimination, where one divide-out
per variable of a monomial form now does it, the first prime made
(83, 55), the second (45, 32).  Before prop-2-5 read its linear forms
from the image ideal whose basis it had computed, where it computed a
basis of that reduced basis as a new generator set, the first prime made
(72, 39), the second (44, 30).

prop-2-1 alone on the same scenario is pinned by its block saturations:
the diagonal part's x, which is exact for any draw, and nothing else.
When it built sigma from omega, saturated the t = 1 fibre in x and tested
V(C) ⊆ V(S) by radical membership, it made 6 `saturate_block` calls
(omega's four, the diagonal part's x and the fibre's x), and on
quadric-s2-h1 and cubic-3f-h1 it made 17 and 27 `radical_member` calls
and 6 random draws.  When it saturated the diagonal part and both t = 1
fibres in every block, it made 14 `saturate_block` calls.
omega-consistency and digamma alone make none; they made 4 and 3 when
they saturated their ideals before comparing them.
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
FIRST_PRIME = (72, 38)
SECOND_PRIME = (44, 29)
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


@pytest.fixture
def block_saturations(monkeypatch):
    calls = []
    original = ideals.saturate_block

    def counted(ideal, block, ctx):
        calls.append(block)
        return original(ideal, block, ctx)

    monkeypatch.setattr(ideals, "saturate_block", counted)
    return calls


def test_prop_2_1_block_saturations(block_saturations):
    run_scenario(ScenarioConfig(preset_name="quadric-s2-h1", field="Fp:31991",
                                checks=("prop-2-1",), seed=0))
    # the diagonal part's x only
    assert block_saturations == ["x"]


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["quadric-s2-h1", "cubic-3f-h1"])
def test_prop_2_1_draws_once_and_tests_no_radical(preset, monkeypatch):
    # one random draw, the diagonal part's exact x saturation, and the
    # containment V(C) ⊆ V(S) read as S ⊆ C with no radical-membership basis
    calls = {"radical": 0, "rng": 0}
    radical_member, rng = ideals.radical_member, ideals.EngineContext.rng

    def counted_radical(*args):
        calls["radical"] += 1
        return radical_member(*args)

    def counted_rng(self, *tag):
        calls["rng"] += 1
        return rng(self, *tag)

    monkeypatch.setattr(ideals, "radical_member", counted_radical)
    monkeypatch.setattr(ideals.EngineContext, "rng", counted_rng)
    rep = run_scenario(ScenarioConfig(preset_name=preset, field="Fp:31991",
                                      checks=("prop-2-1",), seed=0))
    assert [c["status"] for c in rep["checks"]] == ["PASS"]
    assert calls == {"radical": 0, "rng": 1}


def test_equality_checks_make_no_block_saturation(block_saturations):
    rep = run_scenario(ScenarioConfig(preset_name="quadric-s2-h1", field="Fp:31991",
                                      checks=("omega-consistency", "digamma"), seed=0))
    assert [c["status"] for c in rep["checks"]] == ["PASS", "PASS"]
    assert block_saturations == []
