"""Subschemes: graph closures, fibers, components, multiplicities, joins."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conekit import cone, ideals, scheme as scheme_mod
from conekit.checks import run_check
from conekit.cone import preset as preset_data
from conekit.fields import DEFAULT_PRIME, SECOND_PRIME, FieldConfig, PrimeField
from conekit.ideals import EngineContext, Ideal, contains, hilbert_data, ideal_equal
from conekit.ring import AmbientSpace, Block, PolyRing, poly_str
from conekit.scheme import (
    RationalMapSpec,
    SchemeError,
    Subscheme,
    at_point,
    component_multiplicity,
    fiber,
    graph_closure,
    join,
    random_point,
    union_certify,
    _line_points,
    _univariate_roots,
)
from oracles import (
    exact_block_saturation,
    fiber_by_elimination,
    incidence_join,
    is_component,
    random_point_by_charts,
)

FP = PrimeField(DEFAULT_PRIME)
CTX = EngineContext(seed=0)


def scheme(ring, *texts):
    return Subscheme.saturated(Ideal(ring, [ring.parse(t) for t in texts]), CTX)


def test_subscheme_saturation_removes_irrelevant_junk():
    amb = AmbientSpace.product(("x", 2), ("y", 2))
    R = PolyRing(amb, FP)
    S = scheme(R, "x0*y0", "x0*y1")
    assert ideal_equal(S.ideal, Ideal(R, [R.parse("x0")]), CTX)


def test_graph_closure_of_identity_is_diagonal():
    amb = AmbientSpace.product(("x", 2))
    R = PolyRing(amb, FP)
    src = scheme(R)  # all of P1
    spec = RationalMapSpec(src, Block("y", 2, projective=True),
                           [R.parse("x0"), R.parse("x1")])
    G = graph_closure(spec, CTX)
    assert contains(G.ideal, G.ring.parse("x0*y1 - x1*y0"), CTX)
    assert G.dimension(CTX) == 1


def test_graph_closure_saturates_base_locus():
    # projection P2 --> P1 away from (0:0:1); the graph over the base point
    # must not contain the whole fiber plane
    amb = AmbientSpace.product(("x", 3))
    R = PolyRing(amb, FP)
    src = scheme(R)
    spec = RationalMapSpec(src, Block("y", 2, projective=True),
                           [R.parse("x0"), R.parse("x1")])
    G = graph_closure(spec, CTX)
    hd = G.hilbert(CTX)
    assert (hd.dimension, hd.degree) == (2, 2)  # blow-up of P2 at a point


def test_fiber_with_projection():
    # graph of the squaring map P1 -> P1; fiber over y=(1:1) projects to
    # the two square roots x0^2 = x1^2
    amb = AmbientSpace.product(("x", 2), ("y", 2))
    R = PolyRing(amb, FP)
    G = scheme(R, "x0^2*y1 - x1^2*y0")
    F = fiber(G.ideal, {"y": (1, 1)}, CTX)
    assert F.dimension(CTX) == 0
    assert F.degree(CTX) == 2
    assert contains(F.ideal, F.ring.parse("x0^2 - x1^2"), CTX)


def test_fiber_keeps_other_blocks():
    amb = AmbientSpace.product(("x", 2), ("y", 2))
    R = PolyRing(amb, FP)
    G = scheme(R, "x0*y1 - x1*y0")
    F = fiber(G.ideal, {"x": (1, 2)}, CTX)
    assert F.ambient == AmbientSpace.product(("y", 2))
    assert contains(F.ideal, F.ring.parse("y1 - 2*y0"), CTX)


def test_fiber_rejects_bad_points():
    R = PolyRing(AmbientSpace.product(("x", 2), ("y", 2)), FP)
    G = scheme(R, "x0*y1 - x1*y0")
    with pytest.raises(SchemeError, match="point has 3 coordinates"):
        fiber(G.ideal, {"x": (1, 2, 3)}, CTX)
    with pytest.raises(SchemeError, match="all-zero projective point"):
        fiber(G.ideal, {"x": (0, 0)}, CTX)


F7_RING = PolyRing(AmbientSpace.product(("a", 2), ("b", 3)), PrimeField(7))


def _monomials(nvars, deg):
    if nvars == 1:
        yield (deg,)
        return
    for e in range(deg + 1):
        for rest in _monomials(nvars - 1, deg - e):
            yield (e,) + rest


@st.composite
def bihomogeneous_ideals(draw):
    """Up to three forms of bidegree at most (2, 2) in P^1 x P^2 over F_7."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        da, db = draw(st.sampled_from([(a, b) for a in range(3) for b in range(3) if a or b]))
        terms = {ma + mb: draw(st.integers(0, 6))
                 for ma in _monomials(2, da) for mb in _monomials(3, db)}
        gens.append(F7_RING.from_terms(terms))
    return Ideal(F7_RING, gens)


@st.composite
def block_points(draw):
    """A point of one of the two blocks (a ring keeps at least one block)."""
    block = draw(st.sampled_from(["a", "b"]))
    size = F7_RING.ambient.block(block).size
    return {block: tuple(draw(st.lists(st.integers(0, 6), min_size=size, max_size=size).filter(any)))}


@settings(max_examples=100, deadline=None)
@given(bihomogeneous_ideals(), block_points())
def test_at_point_matches_elimination_over_f7(ideal, at):
    # and at_point reads the same ideal off I saturated in the assigned block
    ctx = EngineContext(seed=0)
    fib = at_point(ideal, at)
    assert ideal_equal(fib, fiber_by_elimination(ideal, at, ctx), ctx)
    (block,) = at
    assert ideal_equal(fib, at_point(exact_block_saturation(ideal, block, ctx), at), ctx)


F7_PLANE = PolyRing(AmbientSpace.product(("v", 3)), PrimeField(7))


@st.composite
def plane_ideals(draw):
    """Up to three forms of degree 1-3 in P^2 over F_7, each either kept or
    replaced by its products with the three variables (which adds an
    irrelevant component)."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = F7_PLANE.from_terms({m: draw(st.integers(0, 6))
                                 for m in _monomials(3, draw(st.integers(1, 3)))})
        gens += [g * v for v in F7_PLANE.gens()] if draw(st.booleans()) else [g]
    return Ideal(F7_PLANE, [g for g in gens if not g.is_zero()] or [F7_PLANE.gens()[0]])


@settings(max_examples=100, deadline=None)
@given(plane_ideals())
def test_hilbert_data_ignores_saturation_in_one_block(ideal):
    # (h) of Subscheme: I and I : m^∞ share their Hilbert polynomial
    ctx = EngineContext(seed=0)
    sat = hilbert_data(exact_block_saturation(ideal, "v", ctx), ctx)
    if sat.dimension >= 0:
        assert hilbert_data(ideal, ctx) == sat
    else:
        assert hilbert_data(ideal, ctx).dimension == -1


def test_is_component():
    R = PolyRing(AmbientSpace.product(("x", 3)), FP)
    S = scheme(R, "x0*x1")  # union of two lines in P2
    line0 = scheme(R, "x0")
    line2 = scheme(R, "x2")
    assert is_component(S, line0, CTX)
    assert not is_component(S, line2, CTX)
    # a point on V(x0) lies in S but is not a maximal piece
    point = scheme(R, "x0", "x1")
    assert not is_component(S, point, CTX)


def test_union_certify():
    R = PolyRing(AmbientSpace.product(("x", 3)), FP)
    S = scheme(R, "x0*x1")
    a, b = scheme(R, "x0"), scheme(R, "x1")
    assert union_certify(S, [a, b], CTX)
    assert not union_certify(S, [a], CTX)
    # radical comparison: the doubled line still unions correctly
    thick = scheme(R, "x0^2*x1")
    assert union_certify(thick, [a, b], CTX)


def test_component_multiplicity_double_line():
    R = PolyRing(AmbientSpace.product(("x", 3)), FP)
    S = Subscheme(Ideal(R, [R.parse("x0^2*x1")]))
    line = scheme(R, "x0")
    other = scheme(R, "x1")
    assert component_multiplicity(S, line, [other], CTX) == Fraction(2)


def test_component_multiplicity_reduced():
    R = PolyRing(AmbientSpace.product(("x", 3)), FP)
    S = scheme(R, "x0*x1")
    assert component_multiplicity(S, scheme(R, "x0"), [scheme(R, "x1")], CTX) == Fraction(1)


def test_join_two_points_is_their_line():
    R = PolyRing(AmbientSpace.product(("x", 4)), FP)
    p = scheme(R, "x1", "x2", "x3")          # (1:0:0:0)
    q = scheme(R, "x0", "x2", "x3")          # (0:1:0:0)
    L = join(p, q)
    assert ideal_equal(L.ideal, Ideal(R, [R.parse("x2"), R.parse("x3")]), CTX)


def test_join_line_and_point_is_plane():
    R = PolyRing(AmbientSpace.product(("x", 4)), FP)
    L = scheme(R, "x2", "x3")
    p = scheme(R, "x0", "x1", "x2")          # (0:0:0:1)
    P = join(L, p)
    assert ideal_equal(P.ideal, Ideal(R, [R.parse("x2")]), CTX)


def linear_subspace(ring, rows):
    return Subscheme(Ideal(ring, [ring.from_terms({tuple(int(i == j) for j in range(ring.nvars)): c
                                                   for i, c in enumerate(row)})
                                  for row in rows]))  # (c)


def subspace_pairs():
    # forms with small coefficients (often dependent, often sharing zeros),
    # so that the two subspaces meet, nest or coincide as well as not
    def pair(n):
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        forms = st.lists(row, min_size=1, max_size=n - 1)
        return st.tuples(st.just(n), forms, forms)
    return st.sampled_from([4, 5]).flatmap(pair)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_join_is_the_incidence_join(case):
    # over DEFAULT_PRIME: the oracle's diagonal saturation is Monte Carlo,
    # and over a small field its random combination misses
    n, rows_a, rows_b = case
    R = PolyRing(AmbientSpace.product(("x", n)), FP)
    A, B = linear_subspace(R, rows_a), linear_subspace(R, rows_b)
    assume(A.dimension(CTX) >= 0 and B.dimension(CTX) >= 0)
    # one point joined with itself: the span is the point, the incidence
    # route, which drops coincident endpoints, is empty
    assume(not (A.dimension(CTX) == 0 and ideal_equal(A.ideal, B.ideal, CTX)))
    assert ideal_equal(join(A, B).ideal, incidence_join(A, B, CTX).ideal, CTX)


@pytest.mark.parametrize("preset", ["cubic-3f-h1", "quadric-s2-h1"])
@pytest.mark.parametrize("prime", [DEFAULT_PRIME, SECOND_PRIME])
def test_join_of_example_3_2_inputs_is_the_incidence_join(monkeypatch, preset, prime):
    # the delta and twist line that example-3-2 passes on the preset, seed 0
    seen = []

    def recording(A, B):
        seen.append((A, B))
        return join(A, B)

    monkeypatch.setattr(cone, "join", recording)
    cd = preset_data(preset, FieldConfig(p=prime))
    ctx = EngineContext(seed=0)
    assert run_check("example-3-2", cd, ctx).status == "PASS"
    assert len(seen) == 1
    A, B = seen[0]
    assert ideal_equal(join(A, B).ideal, incidence_join(A, B, ctx).ideal, ctx)


def test_join_rejects_a_form_that_is_not_linear():
    R = PolyRing(AmbientSpace.product(("x", 4)), FP)
    with pytest.raises(SchemeError, match="linear"):
        join(scheme(R, "x0*x3 - x1*x2"), scheme(R, "x2", "x3"))


def test_random_point_lands_on_scheme():
    R = PolyRing(AmbientSpace.product(("x", 4)), FP)
    S = scheme(R, "x0*x3 - x1*x2")
    w = random_point(S, CTX)
    assert w is not None
    subs = {"x%d" % i: R.const(FP.from_int(c)) for i, c in enumerate(w.coords)}
    for g in S.ideal.gens:
        assert g.substitute(subs).is_zero()
    assert any(c % DEFAULT_PRIME for c in w.coords)


def test_random_point_is_deterministic():
    R = PolyRing(AmbientSpace.product(("x", 4)), FP)
    S = scheme(R, "x0*x3 - x1*x2")
    a = random_point(S, EngineContext(seed=7))
    b = random_point(S, EngineContext(seed=7))
    assert a == b


@pytest.mark.parametrize("p", [2, 3, 101, 7919])
def test_univariate_roots_match_scan(p):
    # oracle: evaluate at every field element; inputs are random cofactors
    # times random (possibly repeated) linear factors
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(60):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 4)):
            r = rng.randrange(p)
            shifted = [0] + coeffs
            coeffs = [(a - r * b) % p for a, b in zip(shifted, coeffs + [0])]
        if not any(coeffs):
            continue
        scan = [v for v in range(p)
                if sum(c * pow(v, i, p) for i, c in enumerate(coeffs)) % p == 0]
        assert _univariate_roots(F, coeffs) == scan
    with pytest.raises(SchemeError):
        _univariate_roots(F, [0, 0])


@st.composite
def small_field_schemes(draw):
    """A hypersurface of degree 1 to 3 in P^2, P^3 or P^4 over F_5, F_7 or
    F_11, cut by up to two random hyperplanes, with a context seed."""
    p = draw(st.sampled_from([5, 7, 11]))
    n = draw(st.integers(3, 5))
    R = PolyRing(AmbientSpace.product(("x", n)), PrimeField(p))
    coeff = st.integers(0, p - 1)
    deg = draw(st.integers(1, 3))
    f = R.from_terms({m: draw(coeff) for m in _monomials(n, deg)})
    planes = [R.from_terms({m: draw(coeff) for m in _monomials(n, 1)})
              for _ in range(draw(st.integers(0, min(2, n - 2))))]
    gens = [g for g in [f] + planes if not g.is_zero()]
    return Subscheme(Ideal(R, gens)), draw(st.integers(0, 7))


@settings(max_examples=150, deadline=None)
@given(small_field_schemes())
def test_random_point_matches_charts_over_small_fields(case):
    # small primes draw points with x0 = 0, roots at (1:0) and dependent slices
    S, seed = case
    assert random_point(S, EngineContext(seed=seed)) == \
        random_point_by_charts(S, EngineContext(seed=seed))


def test_random_point_skips_a_slice_on_the_scheme(monkeypatch):
    # over F_2 the slice x0 is drawn often; it lies on S, gives no point,
    # and the next slicing answers as the charts do
    F = PrimeField(2)
    R = PolyRing(AmbientSpace.product(("x", 3)), F)
    S = Subscheme(Ideal(R, [R.parse("x0*x1")]))
    lines = []

    def recorded(*args):
        lines.append(_line_points(*args))
        return lines[-1]

    monkeypatch.setattr(scheme_mod, "_line_points", recorded)
    for seed in range(64):
        assert random_point(S, EngineContext(seed=seed)) == \
            random_point_by_charts(S, EngineContext(seed=seed))
        if None in lines:
            break
    assert None in lines


def test_line_points_constant_gcd():
    F = PrimeField(7)
    R = PolyRing(AmbientSpace.product(("x", 3)), F)
    u, w = [1, 0, 0], [0, 1, 0]
    # on (s:t:0) the restrictions s*t and s^2 + t^2 have a constant gcd at t = 1
    assert _line_points([R.parse("x0*x1"), R.parse("x0^2 + x1^2")], u, w, F) == []
    # s*t and s*t + t^2 share only the root (1:0)
    assert _line_points([R.parse("x0*x1"), R.parse("x0*x1 + x1^2")], u, w, F) == [u]


@pytest.mark.parametrize("p", [5, DEFAULT_PRIME])
def test_random_point_with_linear_generators(p):
    # a conic in the plane x3 = x0 + x1 of P^3: the linear generator and one
    # slice cut the line
    F = PrimeField(p)
    R = PolyRing(AmbientSpace.product(("x", 4)), F)
    S = Subscheme(Ideal(R, [R.parse("x3 - x0 - x1"), R.parse("x0*x1 - x2^2")]))
    for seed in range(8):
        w = random_point(S, EngineContext(seed=seed))
        assert w == random_point_by_charts(S, EngineContext(seed=seed))
        subs = {"x%d" % i: R.const(c) for i, c in enumerate(w.coords)}
        assert all(g.substitute(subs).is_zero() for g in S.ideal.gens)


def test_random_point_on_a_line_computes_no_basis(monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    R = PolyRing(AmbientSpace.product(("x", 5)), FP)
    for gens in (["x0*x3 - x1*x2 + x4^2"], ["x0^3 + x1^3 + x2^3 + x3^3", "x4 - x0"]):
        S = Subscheme(Ideal(R, [R.parse(g) for g in gens]))
        ctx = EngineContext(seed=0)
        S.hilbert(ctx)  # the only bases the search may need
        with monkeypatch.context() as m:
            m.setattr(ideals.EngineContext, "groebner", no_basis)
            assert random_point(S, ctx) is not None


def test_random_point_empty_scheme():
    R = PolyRing(AmbientSpace.product(("x", 3)), FP)
    S = Subscheme(Ideal(R, [R.one()]))
    assert random_point(S, CTX) is None


def test_join_rejects_multi_factor_ambient():
    amb = AmbientSpace.product(("x", 2), ("y", 2))
    R = PolyRing(amb, FP)
    S = scheme(R, "x0")
    with pytest.raises(SchemeError):
        join(S, S)
