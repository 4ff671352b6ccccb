"""Groebner engine: S-pair certificates, normal forms, resource caps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # only the differential test needs it
    sympy = None

from conekit.fields import DEFAULT_PRIME, PrimeField, QQ
from conekit.groebner import (
    DEFAULT_CAPS,
    ResourceCapExceeded,
    ResourceCaps,
    buchberger,
    is_groebner_basis,
    normal_form,
)
from conekit.ring import (
    AmbientSpace,
    BlockElimOrder,
    GrevlexOrder,
    LexOrder,
    PermutedGrevlexOrder,
    PolyRing,
)
from oracles import lead_in, monic_in

FP = PrimeField(DEFAULT_PRIME)
R = PolyRing(AmbientSpace.product(("x", 4)), FP)
ORDER = GrevlexOrder(4)


def small_polys(nvars=4, max_terms=3, max_exp=3):
    ring = R
    monos = st.tuples(*[st.integers(0, max_exp)] * nvars)
    coeffs = st.integers(1, DEFAULT_PRIME - 1)
    pairs = st.lists(st.tuples(monos, coeffs), min_size=1, max_size=max_terms)
    return pairs.map(lambda ps: ring.from_terms({m: c for m, c in ps}))


@settings(max_examples=25, deadline=None)
@given(gens=st.lists(small_polys(), min_size=1, max_size=3))
def test_buchberger_output_is_groebner(gens):
    basis = buchberger(gens, ORDER, DEFAULT_CAPS)
    assert is_groebner_basis(basis, ORDER, DEFAULT_CAPS)
    # every input generator reduces to zero against the basis
    for g in gens:
        assert normal_form(g, basis, ORDER).is_zero()


@settings(max_examples=25, deadline=None)
@given(gens=st.lists(small_polys(), min_size=1, max_size=3), p=small_polys())
def test_normal_form_is_stable(gens, p):
    basis = buchberger(gens, ORDER, DEFAULT_CAPS)
    r = normal_form(p, basis, ORDER)
    assert normal_form(r, basis, ORDER) == r


def test_twisted_cubic_elimination():
    """Lex basis of the twisted cubic contains the three classical minors."""
    x0, x1, x2, x3 = R.gens()
    gens = [x1 * x1 - x0 * x2, x2 * x2 - x1 * x3, x1 * x2 - x0 * x3]
    basis = buchberger(gens, LexOrder(4), DEFAULT_CAPS)
    assert is_groebner_basis(basis, LexOrder(4), DEFAULT_CAPS)
    for g in gens:
        assert normal_form(g, basis, LexOrder(4)).is_zero()


def test_elimination_order_projects():
    # eliminate t from (x - t^2, y - t^3): the image is the cuspidal cubic
    amb = AmbientSpace.product(("t", 1), ("v", 2), affine=("t", "v"))
    ring = PolyRing(amb, QQ)
    t, x, y = ring.var("t0"), ring.var("v0"), ring.var("v1")
    order = BlockElimOrder.for_blocks(amb, ["t"])
    basis = buchberger([x - t * t, y - t * t * t], order, DEFAULT_CAPS)
    t_free = [g for g in basis if all(m[0] == 0 for m in g.terms)]
    target = y * y - x * x * x
    assert any(g == target or g == -target for g in t_free)


def test_reduced_basis_is_monic_and_autoreduced():
    x0, x1, x2, x3 = R.gens()
    basis = buchberger([x0 * x0 + x1 * x1, x0 * x1], ORDER, DEFAULT_CAPS)
    for i, g in enumerate(basis):
        assert g.lead()[1] == FP.one
        others = basis[:i] + basis[i + 1:]
        assert normal_form(g, others, ORDER) == g


def test_unit_ideal_detection():
    x0, x1, x2, x3 = R.gens()
    basis = buchberger([x0, x0 + R.one()], ORDER, DEFAULT_CAPS)
    assert len(basis) == 1 and basis[0] == R.one()


def test_reduction_step_cap_raises():
    caps = ResourceCaps(max_basis=4000, max_pairs=200000,
                        max_coeff_bits=100000, max_reduction_steps=10)
    x0, x1, x2, x3 = R.gens()
    with pytest.raises(ResourceCapExceeded):
        buchberger([x0 ** 5 - x1 * x2 * x3, x1 ** 4 - x2 * x3 ** 2,
                    x2 ** 3 - x0 * x3 * x1], ORDER, caps)


def test_coefficient_bit_cap_raises():
    ring = PolyRing(AmbientSpace.product(("x", 2), affine=("x",)), QQ)
    x, y = ring.gens()
    caps = ResourceCaps(max_basis=4000, max_pairs=200000,
                        max_coeff_bits=8, max_reduction_steps=4_000_000)
    big = ring.const(QQ.from_int(10**9))
    with pytest.raises(ResourceCapExceeded):
        buchberger([x * x - big * y, x * y - big * big * x + y], GrevlexOrder(2), caps)


@pytest.mark.parametrize("order,gens,expected", [
    # x0^40000 does not fit the first field width
    (GrevlexOrder(2), ["x0^40000 - x1^40000", "x0*x1^3"],
     ["x1^40003", "x0^40000 - x1^40000", "x0*x1^3"]),
    # the inputs fit; the lcm x0^20000*x1^20003 of a later S-pair does not
    (GrevlexOrder(2), ["x0^20000 - x1^20000", "x0*x1^3"],
     ["x1^20003", "x0^20000 - x1^20000", "x0*x1^3"]),
    # the inputs fit; the product x1^20000 * x1^20000 made while reducing does not
    (LexOrder(2), ["x0 - x1^20000", "x0*x1^20000 - x1"], ["x0 - x1^20000", "x1^40000 - x1"]),
])
def test_exponent_overflow_widens_fields(order, gens, expected):
    """Exponents past the first field width come out exact, not wrapped.

    The bases are worked out by hand.  Grevlex, with f = x0^n - x1^n and
    g = x0*x1^3: S(f, g) = x1^3*f - x0^(n-1)*g = -x1^(n+3), and every other
    S-pair reduces to zero.  Lex: x0*x1^20000 - x1 reduces by x0 - x1^20000
    to x1^40000 - x1, whose lead is coprime to x0.
    """
    ring = PolyRing(AmbientSpace.product(("x", 2)), FP)
    gens = [ring.parse(g) for g in gens]
    basis = buchberger(gens, order, DEFAULT_CAPS)
    assert [list(b.terms.items()) for b in basis] == \
        [list(ring.parse(e).terms.items()) for e in expected]
    assert is_groebner_basis(basis, order, DEFAULT_CAPS)
    assert all(normal_form(g, basis, order).is_zero() for g in gens)


# Reduced bases of fixed small ideals, one per order class, with each term
# where the engine puts it: a change of representation must not move any.
GOLDEN_FP = PrimeField(32003)
GOLDEN_R = PolyRing(AmbientSpace.product(("x", 4)), GOLDEN_FP)
GOLDEN_RQ = PolyRing(AmbientSpace.product(("x", 3), affine=("x",)), QQ)
GOLDEN_CASES = {
    "grevlex": (GOLDEN_R, GrevlexOrder(4),
                ["x1^2 - x0*x2", "x2^2 - x1*x3", "x1*x2 - x0*x3", "x0^3 + 5*x1*x2*x3 - x3^3"]),
    "lex": (GOLDEN_R, LexOrder(4), ["x1^2 - x0*x2", "x2^2 - x1*x3", "x1*x2 - x0*x3"]),
    "grevlex-perm": (GOLDEN_R, PermutedGrevlexOrder.with_last(4, 0),
                     ["x0*x1 - x2^2 + 3*x3^2", "x0^2*x3 - x1^3", "x1*x2*x3 - 7*x0^3"]),
    "elim": (GOLDEN_R, BlockElimOrder([0, 1], 4),
             ["x0^2 - x2 + x3", "x1^2 - 2*x3", "x0*x1 - x2*x3 + 1"]),
    "grevlex-qq": (GOLDEN_RQ, GrevlexOrder(3),
                   ["x0^2 - 1/2*x1 + 3", "x0*x1 - 2/3*x2^2", "x1^2 - x0*x2"]),
}
GOLDEN_BASES = {
    'grevlex': [
        [((3, 0, 0, 0), 1), ((1, 0, 0, 2), 5), ((0, 0, 0, 3), 32002)],
        [((0, 2, 0, 0), 1), ((1, 0, 1, 0), 32002)],
        [((0, 1, 1, 0), 1), ((1, 0, 0, 1), 32002)],
        [((0, 0, 2, 0), 1), ((0, 1, 0, 1), 32002)],
    ],
    'lex': [
        [((1, 0, 1, 0), 1), ((0, 2, 0, 0), 32002)],
        [((1, 0, 0, 1), 1), ((0, 1, 1, 0), 32002)],
        [((0, 1, 0, 1), 1), ((0, 0, 2, 0), 32002)],
    ],
    'grevlex-perm': [
        [((2, 0, 0, 4), 1), ((3, 2, 1, 0), 21333), ((3, 1, 0, 2), 10668)],
        [((2, 0, 1, 2), 1), ((3, 2, 0, 0), 31996)],
        [((0, 1, 0, 3), 1), ((1, 2, 0, 1), 10668), ((3, 0, 1, 0), 21333)],
        [((0, 3, 0, 0), 1), ((2, 0, 0, 1), 32002)],
        [((0, 1, 1, 1), 1), ((3, 0, 0, 0), 31996)],
        [((0, 0, 2, 0), 1), ((0, 0, 0, 2), 32000), ((1, 1, 0, 0), 32002)],
    ],
    'elim': [
        [((0, 2, 0, 0), 1), ((0, 0, 0, 1), 32001)],
        [((1, 0, 0, 0), 1), ((0, 1, 2, 1), 16001), ((0, 1, 1, 0), 16003), ((0, 1, 0, 1), 32002)],
        [((0, 0, 2, 2), 1), ((0, 0, 1, 1), 31999), ((0, 0, 0, 2), 2), ((0, 0, 0, 0), 1)],
    ],
    'grevlex-qq': [
        [((0, 0, 4), Fraction(1, 1)), ((0, 0, 3), Fraction(-3, 4)), ((1, 0, 1), Fraction(27, 4))],
        [((1, 0, 2), Fraction(1, 1)), ((1, 0, 1), Fraction(-3, 4)), ((0, 1, 0), Fraction(9, 2))],
        [((0, 1, 2), Fraction(1, 1)), ((0, 1, 1), Fraction(-3, 4)), ((0, 0, 1), Fraction(9, 2))],
        [((2, 0, 0), Fraction(1, 1)), ((0, 1, 0), Fraction(-1, 2)), ((0, 0, 0), Fraction(3, 1))],
        [((1, 1, 0), Fraction(1, 1)), ((0, 0, 2), Fraction(-2, 3))],
        [((0, 2, 0), Fraction(1, 1)), ((1, 0, 1), Fraction(-1, 1))],
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_bases(name):
    ring, order, gens = GOLDEN_CASES[name]
    basis = buchberger([ring.parse(g) for g in gens], order, DEFAULT_CAPS)
    assert [list(b.terms.items()) for b in basis] == GOLDEN_BASES[name]


DIFF_P = 101
DIFF_R = PolyRing(AmbientSpace.product(("x", 3), affine=("x",)), PrimeField(DIFF_P))
DIFF_ORDERS = [GrevlexOrder(3), LexOrder(3), PermutedGrevlexOrder([2, 0, 1]),
               PermutedGrevlexOrder.with_last(3, 1)]


def diff_polys():
    monos = st.tuples(*[st.integers(0, 2)] * 3)
    pairs = st.lists(st.tuples(monos, st.integers(1, DIFF_P - 1)), min_size=1, max_size=3)
    return pairs.map(lambda ps: DIFF_R.from_terms({m: c for m, c in ps}))


def sympy_basis(gens, order):
    """sympy's reduced basis as a set of monic term sets in DIFF_R."""
    xs = sympy.symbols("x0:3")
    slots = order.perm if isinstance(order, PermutedGrevlexOrder) else range(3)
    name = "lex" if isinstance(order, LexOrder) else "grevlex"
    exprs = [sum(c * xs[0] ** m[0] * xs[1] ** m[1] * xs[2] ** m[2] for m, c in g.terms.items())
             for g in gens]
    G = sympy.groebner(exprs, *[xs[i] for i in slots], order=name, modulus=DIFF_P)
    out = set()
    for P in G.polys:
        terms = {}
        for monom, c in P.terms():
            m = [0, 0, 0]
            for slot, e in zip(slots, monom):
                m[slot] = e
            terms[tuple(m)] = int(c) % DIFF_P
        out.add(frozenset(monic_in(DIFF_R.from_terms(terms), order).terms.items()))
    return out


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=None)
@given(gens=st.lists(diff_polys(), min_size=1, max_size=3),
       k=st.integers(0, len(DIFF_ORDERS) - 1))
def test_buchberger_matches_sympy(gens, k):
    order = DIFF_ORDERS[k]
    basis = buchberger(gens, order, DEFAULT_CAPS)
    assert {frozenset(b.terms.items()) for b in basis} == sympy_basis(gens, order)


# Where the reduction-step cap stops a run, recorded before the reducer was
# rewritten around candidate lists and a monic basis: the cap counts
# reduction steps, so a faster reducer must stop at the same count.
STEP_R = PolyRing(AmbientSpace.product(("x", 4)), PrimeField(32003))
STEP_IDEALS = {
    "cubic": ["x1^2 - x0*x2", "x2^2 - x1*x3", "x1*x2 - x0*x3", "x0^3 + 5*x1*x2*x3 - x3^3"],
    "cyclic4": ["x0 + x1 + x2 + x3", "x0*x1 + x1*x2 + x2*x3 + x3*x0",
                "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1", "x0*x1*x2*x3 - 1"],
    "mixed": ["x0^2*x1 - 3*x2^3 + x3", "x1^2*x2 - x0*x3^2 + 7", "x0*x2*x3 - x1^3 + 2*x0"],
}
STEP_ORDERS = {"grevlex": GrevlexOrder(4), "lex": LexOrder(4), "elim": BlockElimOrder([0, 1], 4)}
STEP_CAPS = (10, 50, 200, 1000, 4000)
# ResourceCapExceeded.detail at each cap of STEP_CAPS; None: the run finishes
STEP_DETAILS = {
    ("cubic", "grevlex"): ["11", None, None, None, None],
    ("cubic", "lex"): ["11", "51", "201", None, None],
    ("cubic", "elim"): ["11", "51", None, None, None],
    ("cyclic4", "grevlex"): ["11", "53", "201", None, None],
    ("cyclic4", "lex"): ["14", "53", "201", None, None],
    ("cyclic4", "elim"): ["11", "53", "206", None, None],
    ("mixed", "grevlex"): ["11", "51", "203", None, None],
    ("mixed", "lex"): ["11", "53", "201", "1031", "4001"],
    ("mixed", "elim"): ["11", "51", "201", "1002", "4014"],
}


@pytest.mark.parametrize("ideal,order", sorted(STEP_DETAILS))
def test_reduction_step_cap_details(ideal, order):
    gens = [STEP_R.parse(g) for g in STEP_IDEALS[ideal]]
    details = []
    for cap in STEP_CAPS:
        try:
            buchberger(gens, STEP_ORDERS[order], ResourceCaps(max_reduction_steps=cap))
            details.append(None)
        except ResourceCapExceeded as exc:
            assert exc.what == "reduction-steps"
            details.append(exc.detail)
    assert details == STEP_DETAILS[(ideal, order)]


def scaled(polys, field, rng):
    """Each polynomial times a random nonzero constant."""
    out = []
    for g in polys:
        c = field.from_int(rng.randint(1, 10**6)) if field is QQ else rng.randrange(1, field.p)
        if field is QQ:
            c = c / rng.randint(1, 97)
        out.append(g.ring.from_terms({m: c * v for m, v in g.terms.items()}))
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_non_monic_basis_same_results(name):
    """The engine makes its basis monic itself: scaling the elements changes nothing."""
    ring, order, gens = GOLDEN_CASES[name]
    gens = [ring.parse(g) for g in gens]
    basis = buchberger(gens, order, DEFAULT_CAPS)
    rng = random.Random(name)
    probes = [g * h for g in gens for h in gens] + [g + ring.one() for g in basis]
    for _ in range(3):
        other = scaled(basis, ring.field, rng)
        assert any(lead_in(b, order)[1] != ring.field.one for b in other)
        assert is_groebner_basis(other, order, DEFAULT_CAPS)
        assert is_groebner_basis(scaled(gens, ring.field, rng), order, DEFAULT_CAPS) == \
            is_groebner_basis(gens, order, DEFAULT_CAPS)
        for p in probes:
            assert normal_form(p, other, order) == normal_form(p, basis, order)
        assert buchberger(scaled(gens, ring.field, rng), order, DEFAULT_CAPS) == basis
