"""Ideal operations: saturation, elimination, intersection, Hilbert data."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import ideals
from conekit.fields import DEFAULT_PRIME, PrimeField, QQ
from conekit.ideals import (
    EngineContext,
    Ideal,
    contains,
    contains_ideal,
    eliminate,
    hilbert_data,
    ideal_equal,
    intersect,
    is_unit_ideal,
    linear_forms_in,
    multisaturate,
    quotient_by_poly,
    radical_equal,
    radical_member,
    saturate,
    saturate_by_poly,
    saturate_block,
)
from conekit.ring import AmbientSpace, GrevlexOrder, LexOrder, PolyRing, substitute_all

FP = PrimeField(DEFAULT_PRIME)
CTX = EngineContext(seed=0)


# exact oracles for the randomized saturations in conekit.ideals


def exact_saturate(I, J, ctx):
    """(I : J^∞) = ∩_g (I : g^∞) over the generators g of J."""
    out = saturate_by_poly(I, J.gens[0], ctx)
    for g in J.gens[1:]:
        out = intersect(out, saturate_by_poly(I, g, ctx), ctx)
    return out


def exact_saturate_block(I, block, ctx):
    """(I : (v_0..v_k)^∞) = ∩_i (I : v_i^∞) over the variables of the block."""
    vs = I.ring.block_vars(block)
    out = saturate_by_poly(I, vs[0], ctx)
    for v in vs[1:]:
        out = intersect(out, saturate_by_poly(I, v, ctx), ctx)
    return out


def saturate_by_poly_iterated(I, g, ctx):
    """(I : g^∞) by iterating the colon until it stabilizes."""
    cur = I
    while True:
        nxt = quotient_by_poly(cur, g, ctx)
        if contains_ideal(cur, nxt, ctx):
            return cur
        cur = nxt


def ring_p3(field=FP):
    return PolyRing(AmbientSpace.product(("x", 4)), field)


def test_membership_and_equality():
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    I = Ideal(R, [x0 * x1, x0 * x2])
    assert contains(I, x0 * x0 * x1 + x0 * x2 * x3, CTX)
    assert not contains(I, x0, CTX)
    J = Ideal(R, [x0 * x2, x0 * x1, x0 * x1 + x0 * x2])
    assert ideal_equal(I, J, CTX)


def test_saturation_bayer_matches_iterated_colon():
    # the divide-out route, through a block of one variable
    R = PolyRing(AmbientSpace.product(("x", 2), ("v", 1), ("w", 1)), FP)
    x0, x1, v, w = R.gens()
    I = Ideal(R, [x0 * v, x1 * v])
    expect = Ideal(R, [x0, x1])
    assert ideal_equal(saturate_block(I, "v", CTX), expect, CTX)
    assert ideal_equal(saturate_by_poly(I, v, CTX), expect, CTX)
    assert ideal_equal(saturate_by_poly_iterated(I, v, CTX), expect, CTX)


def check_block_saturation_by_form(monkeypatch, homogeneous, support):
    # saturate_block with its random form patched to a fixed form, and
    # saturate_by_poly by that form, against the iterated colon, which
    # never takes the divide-out
    R = PolyRing(AmbientSpace.product(("x", 3), ("y", 2)), FP)
    x0, x1, x2, y0, y1 = R.gens()
    extra = x1 * x1 * y0 if homogeneous else x1 * y0
    I = Ideal(R, [x0 * x1 * x2 * y1, x2 * x2 * x0 * y0 - extra * x1, x1 * x0 * x0 * y1])
    form = R.zero()
    for c, i in zip((7, 3, 5), support):
        form = form + R.var_by_index(i).scale(FP.from_int(c))
    monkeypatch.setattr(ideals, "_random_block_linear", lambda ring, block, rng: form)
    assert I.is_homogeneous() == homogeneous
    expect = saturate_by_poly_iterated(I, form, CTX)
    assert not ideal_equal(expect, I, CTX)
    assert ideal_equal(saturate_block(I, "x", CTX), expect, CTX)
    assert ideal_equal(saturate_by_poly(I, form, CTX), expect, CTX)


@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("var", [0, 1, 2])
def test_block_saturation_by_a_one_variable_form(monkeypatch, homogeneous, var):
    # a form 7*v takes the divide-out with no coordinate change (or the
    # elimination, for an ideal that is not homogeneous)
    check_block_saturation_by_form(monkeypatch, homogeneous, (var,))


@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("support", [(0, 2), (1, 2), (0, 1, 2)], ids=["x0,x2", "x1,x2", "x0,x1,x2"])
def test_block_saturation_by_a_linear_form(monkeypatch, homogeneous, support):
    # a form on two or three variables takes the divide-out after a change
    # of coordinates (or the elimination, for an ideal that is not homogeneous)
    check_block_saturation_by_form(monkeypatch, homogeneous, support)


def test_general_saturation_saturates_once(monkeypatch):
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    I = Ideal(R, [x0 * x3, x1 * x3, x2 * x3])
    J = Ideal(R, [x1, x2, x0 + x1])
    calls = []

    def counted(ideal, g, ctx):
        calls.append(g)
        return saturate_by_poly(ideal, g, ctx)

    monkeypatch.setattr(ideals, "saturate_by_poly", counted)
    got = saturate(I, J, EngineContext(seed=0))
    assert len(calls) == 1
    assert ideal_equal(got, Ideal(R, [x3]), CTX)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_block_saturation_linear_matches_exact(seed):
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    ctx = EngineContext(seed=seed)
    I = Ideal(R, [x0 * x1, x0 * x2, x0 * x3 * x3])
    a = saturate_block(I, "x", ctx)
    b = exact_saturate_block(I, "x", ctx)
    assert ideal_equal(a, b, ctx)


def test_general_saturation_random_matches_exact():
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    I = Ideal(R, [x0 * x1, x0 * x2])
    J = Ideal(R, [x1, x2])
    a = saturate(I, J, CTX)
    b = exact_saturate(I, J, CTX)
    expect = Ideal(R, [x0])
    assert ideal_equal(a, expect, CTX) and ideal_equal(b, expect, CTX)


def test_quotient_vs_saturation():
    # (x0^2 x1 : x0) = (x0 x1) but (x0^2 x1 : x0^inf) = (x1)
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    I = Ideal(R, [x0 * x0 * x1])
    assert ideal_equal(quotient_by_poly(I, x0, CTX), Ideal(R, [x0 * x1]), CTX)
    assert ideal_equal(saturate_by_poly(I, x0, CTX), Ideal(R, [x1]), CTX)


R3 = PolyRing(AmbientSpace.product(("x", 3)), FP)


def small_polys(max_terms=3, max_exp=2):
    monos = st.tuples(*[st.integers(0, max_exp)] * R3.nvars)
    pairs = st.lists(st.tuples(monos, st.integers(1, DEFAULT_PRIME - 1)), min_size=1, max_size=max_terms)
    return pairs.map(lambda ps: R3.from_terms(dict(ps))).filter(lambda p: not p.is_zero())


XY_RINGS = [PolyRing(AmbientSpace.product(("x", 3), ("y", 2)), F) for F in (FP, QQ)]


@st.composite
def form_and_gens(draw):
    ring = draw(st.sampled_from(XY_RINGS))
    coeffs = draw(st.lists(st.integers(-40, 40), min_size=3, max_size=3).filter(any))
    form = ring.zero()
    for c, v in zip(coeffs, ring.block_vars("x")):
        form = form + v.scale(ring.field.from_int(c))
    monos = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    terms = st.lists(st.tuples(monos, st.integers(-99, 99)), min_size=1, max_size=5)
    gens = [ring.from_terms({m: ring.field.from_int(c) for m, c in ts})
            for ts in draw(st.lists(terms, min_size=1, max_size=3))]
    return form, gens


@settings(max_examples=60, deadline=None)
@given(case=form_and_gens())
def test_linear_change_round_trip(case):
    """saturate_block's change of coordinates sends the form to its
    last variable, and its forward then back substitution is the identity."""
    form, gens = case
    v, fwd, back = ideals._linear_change(form)
    assert form.substitute({v: fwd}) == form.ring.var(v)
    assert substitute_all(substitute_all(gens, {v: fwd}), {v: back}) == gens
    assert substitute_all(substitute_all(gens, {v: back}), {v: fwd}) == gens


@settings(max_examples=30, deadline=None)
@given(gens=st.lists(small_polys(), min_size=1, max_size=4))
def test_ideal_key_is_the_sorted_printed_generators(gens):
    I = Ideal(R3, gens)
    expect = (R3.key(), tuple(sorted(I.gen_strs())))
    assert I.key() == expect  # first call: built
    assert I.key() == expect  # second call: the cached value
    assert Ideal(R3, gens[::-1]).key() == expect


def test_memo_is_keyed_by_the_generator_set():
    x0, x1, x2 = R3.gens()
    ctx = EngineContext(seed=0)
    basis = ctx.groebner(Ideal(R3, [x0 * x1 - x2 * x2, x1 + x2]))
    assert ctx.groebner(Ideal(R3, [x1 + x2, x1 * x0 - x2 * x2])) is basis
    assert ctx.groebner(Ideal(R3, [x1 + x2]), GrevlexOrder(3)) is not basis
    assert ctx.groebner(Ideal(R3, [x1 + x2, x0 * x1 - x2 * x2]), LexOrder(3)) is not basis
    assert len(ctx._memo) == 3


@st.composite
def factored_ideal(draw):
    """A small ideal whose generators share random factors, and the factors."""
    factors = draw(st.lists(small_polys(), min_size=2, max_size=3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        picked = draw(st.lists(st.sampled_from(factors), min_size=1, max_size=2))
        g = R3.one()
        for f in picked:
            g = g * f
        gens.append(g)
    return Ideal(R3, gens), factors


@st.composite
def ideal_and_probe(draw):
    # h is often one of the shared factors, so both answers of the test occur
    I, factors = draw(factored_ideal())
    return I, draw(st.sampled_from(factors) | small_polys())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=ideal_and_probe())
def test_colon_and_saturation_certify_the_same(case):
    # cur ⊆ cur : h ⊆ cur : h^∞, so cur : h ⊆ cur iff cur : h^∞ ⊆ cur:
    # a colon and a saturation by the same h tell the same about stability
    I, h = case
    ctx = EngineContext(seed=0)
    by_colon = contains_ideal(I, quotient_by_poly(I, h, ctx), ctx)
    by_saturation = contains_ideal(I, saturate_by_poly(I, h, ctx), ctx)
    assert by_colon == by_saturation


def test_colon_and_saturation_certify_the_same_examples():
    x0, x1, x2 = R3.gens()
    for I, h, stable in [
        (Ideal(R3, [x0 * x0 * x1]), x0, False),
        (Ideal(R3, [x0 * x1, x0 * x2]), x1 + x2, False),
        (Ideal(R3, [x0 * x1]), x2, True),
        (Ideal(R3, [x0 * x1 - x2 * x2]), x0 + x1 + x2, True),
    ]:
        assert contains_ideal(I, quotient_by_poly(I, h, CTX), CTX) is stable
        assert contains_ideal(I, saturate_by_poly(I, h, CTX), CTX) is stable


@st.composite
def ideal_and_target(draw):
    # J often lies in (f) for a shared factor f, so the saturation moves I
    I, factors = draw(factored_ideal())
    cofactors = draw(st.lists(small_polys(max_terms=2), min_size=2, max_size=3))
    f = draw(st.sampled_from(factors) | st.just(R3.one()))
    return I, Ideal(R3, [f * c for c in cofactors])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=ideal_and_target())
def test_random_saturation_matches_exact_and_iterated(case):
    I, J = case
    ctx = EngineContext(seed=0)
    rand = saturate(I, J, ctx)
    exact = exact_saturate(I, J, ctx)
    iterated = saturate_by_poly_iterated(I, J.gens[0], ctx)
    for g in J.gens[1:]:
        iterated = intersect(iterated, saturate_by_poly_iterated(I, g, ctx), ctx)
    assert ideal_equal(rand, exact, ctx)
    assert ideal_equal(exact, iterated, ctx)


def test_random_saturation_takes_no_colon(monkeypatch):
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    # (x3) ∩ (x0, x1, x2), and J generates (x0, x1, x2)
    I = Ideal(R, [x0 * x3, x1 * x3, x2 * x3])
    J = Ideal(R, [x1, x2, x0 + x1])
    expect = exact_saturate(I, J, EngineContext(seed=0))

    def forbidden(*args, **kwargs):
        raise AssertionError("the random route must not compute a colon or an intersection")

    monkeypatch.setattr(ideals, "quotient_by_poly", forbidden)
    monkeypatch.setattr(ideals, "intersect", forbidden)
    for seed in range(3):
        got = saturate(I, J, EngineContext(seed=seed))
        assert ideal_equal(got, expect, CTX)
    assert ideal_equal(expect, Ideal(R, [x3]), CTX)


def test_intersection_oracle():
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    got = intersect(Ideal(R, [x0]), Ideal(R, [x1, x2]), CTX)
    expect = Ideal(R, [x0 * x1, x0 * x2])
    assert ideal_equal(got, expect, CTX)


def test_eliminate_twisted_cubic_image():
    # image of P1 -> P3 by (s^3, s^2 t, s t^2, t^3): the classical minors
    amb = AmbientSpace.product(("s", 2), ("x", 4))
    R = PolyRing(amb, FP)
    s0, s1 = R.block_vars("s")
    x = R.block_vars("x")
    I = Ideal(R, [x[0] - s0 ** 3, x[1] - s0 ** 2 * s1,
                  x[2] - s0 * s1 ** 2, x[3] - s1 ** 3])
    # affine graph forms suffice here: eliminate the parameter block
    out = eliminate(I, ["s"], CTX)
    Rx = out.ring
    y = Rx.gens()
    for m in (y[1] * y[1] - y[0] * y[2], y[2] * y[2] - y[1] * y[3],
              y[1] * y[2] - y[0] * y[3]):
        assert contains(out, m, CTX)


def test_projective_elimination_requires_presaturation():
    # graph of identity P1 -> P1; dropping the source without saturating
    # would pick up the irrelevant cone
    amb = AmbientSpace.product(("s", 2), ("y", 2))
    R = PolyRing(amb, FP)
    s0, s1 = R.block_vars("s")
    y0, y1 = R.block_vars("y")
    I = Ideal(R, [s0 * y1 - s1 * y0])
    sat = multisaturate(I, CTX, blocks=["s"])
    out = eliminate(sat, ["s"], CTX)
    assert not out.gens  # the image is all of P1


def test_radical_membership():
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    I = Ideal(R, [x0 * x0, x1 ** 3])
    assert radical_member(x0, I, CTX)
    assert radical_member(x0 + x1, I, CTX)
    assert not radical_member(x2, I, CTX)
    assert radical_equal(I, Ideal(R, [x0, x1]), CTX)


def test_unit_ideal():
    R = ring_p3()
    x0, x1, x2, x3 = R.gens()
    assert is_unit_ideal(Ideal(R, [x0, x0 + R.one()]), CTX)
    assert not is_unit_ideal(Ideal(R, [x0]), CTX)


@pytest.mark.parametrize("gens,dim,deg", [
    (["x0^2 - x1*x2"], 1, 2),          # conic in P2 (uses x0,x1,x2)
    (["x0", "x1"], 0, 1),              # point
    (["x1^2 - x0*x2", "x2^2 - x1*x0"], 0, 4),  # two conics meet in 4 points
])
def test_hilbert_dimension_degree(gens, dim, deg):
    R = PolyRing(AmbientSpace.product(("x", 3)), FP)
    I = Ideal(R, [R.parse(g) for g in gens])
    hd = hilbert_data(I, CTX)
    assert (hd.dimension, hd.degree) == (dim, deg)


def test_hilbert_twisted_cubic():
    R = ring_p3()
    I = Ideal(R, [R.parse(g) for g in
                  ("x1^2 - x0*x2", "x2^2 - x1*x3", "x1*x2 - x0*x3")])
    hd = hilbert_data(I, CTX)
    assert (hd.dimension, hd.degree) == (1, 3)


def test_hilbert_unit_and_zero():
    R = ring_p3()
    assert hilbert_data(Ideal(R, [R.one()]), CTX).dimension == -1
    hd = hilbert_data(Ideal(R, []), CTX)
    assert (hd.dimension, hd.degree) == (3, 1)


def test_hilbert_multiplicity_counts():
    # a double point in P2
    R = PolyRing(AmbientSpace.product(("x", 3)), FP)
    I = Ideal(R, [R.parse("x1^2"), R.parse("x2")])
    hd = hilbert_data(I, CTX)
    assert (hd.dimension, hd.degree) == (0, 2)


def test_linear_forms_in_block():
    amb = AmbientSpace.product(("x", 3), ("y", 2))
    R = PolyRing(amb, FP)
    x = R.block_vars("x")
    y = R.block_vars("y")
    I = Ideal(R, [x[0] + x[1], x[2] * y[0]])
    forms = linear_forms_in(I, "x", CTX)
    assert len(forms) == 1
    assert contains(I, forms[0], CTX)


def test_contains_ideal_and_multisaturate():
    amb = AmbientSpace.product(("x", 2), ("y", 2))
    R = PolyRing(amb, FP)
    x = R.block_vars("x")
    y = R.block_vars("y")
    # irrelevant-supported junk disappears under multisaturation
    I = Ideal(R, [x[0] * y[0], x[0] * y[1]])
    sat = multisaturate(I, CTX)
    assert ideal_equal(sat, Ideal(R, [x[0]]), CTX)
    assert contains_ideal(sat, I, CTX)
