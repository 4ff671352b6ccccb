"""Acceptance suite: one test (and one pass/fail line) per criterion.

Each criterion runs at its stated tolerance.  Cap exhaustion on the two
cubic presets downgrades a criterion to the quadric preset plus
INCONCLUSIVE reporting; criteria 1-5 and 7-8 on the quadric preset are
the minimum passing bar.  Criteria whose claimed values the computation
refutes are asserted as claimed and allowed to fail with their honest
witnesses in the assertion message.
"""

import itertools
import sys
import time

import pytest

from conekit import checks, cone
from conekit.checks import (
    INCONCLUSIVE,
    NOT_APPLICABLE,
    PASS,
    REJECTED_GENERICITY,
    run_check,
    run_check_two_prime,
)
from conekit.fields import DEFAULT_PRIME, FieldConfig, PrimeField, SECOND_PRIME
from conekit.groebner import DEFAULT_CAPS, buchberger, is_groebner_basis, normal_form
from conekit.ideals import (
    EngineContext,
    Ideal,
    contains,
    hilbert_data,
    ideal_equal,
    saturate_by_poly,
)
from conekit.report import ScenarioConfig, report_bytes, run_scenario
from conekit.ring import AmbientSpace, GrevlexOrder, PolyRing

CFG = FieldConfig.parse("Fp:%d" % DEFAULT_PRIME)
CTX = EngineContext(seed=0)
FP = PrimeField(DEFAULT_PRIME)

PRESET_A = "quadric-s2-h1"
PRESET_B = "cubic-3f-h1"
PRESET_C = "cubic-3f-h2"


def emit(num, ok, detail=""):
    line = "criterion %-2d: %s%s" % (num, "PASS" if ok else "FAIL",
                                     " — %s" % detail if detail else "")
    print(line, file=sys.stderr, flush=True)
    return ok


def run(name, preset_name, seed=0, two_prime=False):
    cd = cone.preset(preset_name, CFG)
    ctx = EngineContext(seed=seed)
    fn = run_check_two_prime if two_prime else run_check
    return fn(name, cd, ctx)


def downgraded_ok(outcome):
    """PASS, or cap exhaustion honestly reported as INCONCLUSIVE."""
    if outcome.status == PASS:
        return True
    return outcome.status == INCONCLUSIVE and "resource-cap" in outcome.witnesses


def random_form(ring, deg, rng):
    nv = ring.nvars
    terms = {}
    for combo in itertools.combinations_with_replacement(range(nv), deg):
        m = [0] * nv
        for i in combo:
            m[i] += 1
        terms[tuple(m)] = FP.sample_nonzero(rng)
    return ring.from_terms(terms)


def test_criterion_01_engine_soundness():
    start = time.monotonic()
    order = GrevlexOrder(4)
    R = PolyRing(AmbientSpace.product(("x", 4)), FP)
    cfg = FieldConfig.parse("Fp:%d" % DEFAULT_PRIME, seed=0)
    # S-pair certificate + membership consistency on random small systems
    for trial in range(3):
        rng = cfg.rng("engine", trial)
        gens = [random_form(R, d, rng) for d in (1, 2)]
        basis = buchberger(gens, order, DEFAULT_CAPS)
        assert is_groebner_basis(basis, order, DEFAULT_CAPS)
        I = Ideal(R, gens)
        for g in gens:
            assert normal_form(g, basis, order).is_zero()
            assert contains(I, g * g + gens[0] * g, CTX)
        assert ideal_equal(I, Ideal(R, list(reversed(gens))), CTX)
    # saturation idempotence
    x0, x1, x2, x3 = R.gens()
    I = Ideal(R, [x0 * x0 * x1, x0 * x2])
    once = saturate_by_poly(I, x0, CTX)
    twice = saturate_by_poly(once, x0, CTX)
    assert ideal_equal(once, twice, CTX)
    # Bezout degrees of generic complete intersections, 3 trials each
    for nv, degs in ((4, (1, 2, 3)), (5, (1, 1, 2, 3))):
        ring = PolyRing(AmbientSpace.product(("x", nv)), FP)
        expected = 1
        for d in degs:
            expected *= d
        for trial in range(3):
            rng = cfg.rng("bezout", nv, trial)
            gens = [random_form(ring, d, rng) for d in degs]
            hd = hilbert_data(Ideal(ring, gens), CTX)
            assert (hd.dimension, hd.degree) == (0, expected), \
                "P^%d degrees %s: got dim %d deg %d" % (nv - 1, degs, hd.dimension, hd.degree)
    elapsed = time.monotonic() - start
    assert emit(1, elapsed < 60, "engine suite in %.1fs (< 60s)" % elapsed)


@pytest.mark.parametrize("preset_name", [PRESET_A, PRESET_B, PRESET_C])
def test_criterion_02_graph_consistency(preset_name):
    start = time.monotonic()
    out = run("omega-consistency", preset_name)
    elapsed = time.monotonic() - start
    ok = out.status == PASS and elapsed < 300
    assert emit(2, ok, "%s: %s in %.1fs (< 5min)" % (preset_name, out.status, elapsed))


@pytest.mark.parametrize("preset_name", [PRESET_A, PRESET_B, PRESET_C])
def test_criterion_03_special_fiber(preset_name):
    out = checks.E0_FIBER_CHECK.fn(cone.preset(preset_name, CFG), CTX)
    assert emit(3, out.status == PASS, "%s: %s" % (preset_name, out.status))


@pytest.mark.parametrize("preset_name", [
    pytest.param(PRESET_A, marks=pytest.mark.slow),
    pytest.param(PRESET_B, marks=pytest.mark.slow),
])
def test_criterion_04_diagonal_component(preset_name):
    out = run("prop-2-1", preset_name)
    if preset_name == PRESET_A:
        ok = out.status == PASS  # minimum passing bar: no downgrade here
    else:
        ok = downgraded_ok(out)
    assert emit(4, ok, "%s: %s %s" % (preset_name, out.status,
                                      out.witnesses.get("resource-cap", "")))


def test_criterion_05_first_order_term():
    statuses = []
    for preset_name in (PRESET_A, PRESET_B, PRESET_C):
        out = run("expansion-g", preset_name)
        statuses.append((preset_name, out.status))
    degenerate = cone.ConeData(n=3, h=1, f_text="x0^3 + x1^3 + x2^3", field_cfg=CFG)
    gate = run_check("expansion-g", degenerate, CTX)
    statuses.append(("degenerate-f", gate.status))
    ok = all(s == PASS for _, s in statuses[:3]) and gate.status == REJECTED_GENERICITY
    assert emit(5, ok, "; ".join("%s: %s" % t for t in statuses))


@pytest.mark.parametrize("preset_name,expected", [(PRESET_A, 2), (PRESET_B, 3)])
def test_criterion_06_covering_degree(preset_name, expected):
    # asserted as claimed; the computed parameter-fiber count is the honest
    # verdict and is carried in the assertion message when it differs
    start = time.monotonic()
    out = run("w-covering", preset_name, two_prime=True)
    elapsed = time.monotonic() - start
    counts = out.witnesses.get("fiber-counts")
    ok = out.status == PASS and elapsed < 300
    assert emit(6, ok,
                "%s: %s, expected count %d, computed %s, %.1fs"
                % (preset_name, out.status, expected, counts, elapsed))


@pytest.mark.parametrize("preset_name", [
    pytest.param(PRESET_A, marks=pytest.mark.slow),
    pytest.param(PRESET_C, marks=pytest.mark.slow),
])
def test_criterion_07_family_end_support(preset_name):
    out = run("prop-2-6", preset_name, two_prime=True)
    if preset_name == PRESET_A:
        ok = out.status == PASS
    else:
        ok = downgraded_ok(out)
    assert emit(7, ok, "%s: %s %s" % (preset_name, out.status,
                                      out.witnesses.get("resource-cap", "")))


@pytest.mark.parametrize("preset_name", [PRESET_A, PRESET_B, PRESET_C])
def test_criterion_08_split_decomposition(preset_name):
    out = run("digamma", preset_name)
    ok = out.status == PASS
    assert emit(8, ok, "%s: %s mults (%s, %s)" % (
        preset_name, out.status,
        out.witnesses.get("multiplicity-diagonal"),
        out.witnesses.get("multiplicity-special-fiber")))


@pytest.mark.parametrize("preset_name,expected", [
    (PRESET_A, 2), (PRESET_B, 3), (PRESET_C, 3)])
def test_criterion_09_degree_split(preset_name, expected):
    # asserted as claimed; the computed multiplicity split is the honest
    # verdict and is carried in the assertion message when it differs
    start = time.monotonic()
    out = run("formula-3-5", preset_name, two_prime=True)
    elapsed = time.monotonic() - start
    ok = out.status == PASS and elapsed < 600
    assert emit(9, ok,
                "%s: %s, expected delta-part multiplicity %d, computed %s "
                "(residual degree %s, total %s), %.1fs"
                % (preset_name, out.status, expected,
                   out.witnesses.get("delta-part-multiplicity"),
                   out.witnesses.get("residual-degree"),
                   out.witnesses.get("total-intersection-degree"), elapsed))


def test_criterion_10_join_support():
    out = run("example-3-2", PRESET_B, two_prime=True)
    ok = out.status == PASS and out.witnesses.get("delta-kind") == "line"
    assert emit(10, ok, "%s: %s (delta: %s)" % (
        PRESET_B, out.status, out.witnesses.get("delta-kind")))


def test_criterion_11_determinism_and_two_prime():
    cfg = ScenarioConfig(preset_name=PRESET_A, seed=4,
                         checks=("omega-consistency", "expansion-g", "prop-2-5"))
    a = report_bytes(run_scenario(cfg))
    b = report_bytes(run_scenario(cfg))
    byte_ok = a == b
    # every randomized check must agree across the two primes
    agree = True
    details = []
    for name in ("w-covering", "prop-2-5"):
        out = run(name, PRESET_A, two_prime=True)
        second = out.witnesses.get("second-prime-status")
        this_ok = second == out.status and "two-prime-disagreement" not in out.witnesses
        agree = agree and this_ok
        details.append("%s: %s/%s" % (name, out.status, second))
    ok = byte_ok and agree
    assert emit(11, ok, "byte-identical: %s; %s" % (byte_ok, "; ".join(details)))
