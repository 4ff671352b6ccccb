"""Polynomial ring: arithmetic laws, orders, parser/printer, taylor shift."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit.fields import DEFAULT_PRIME, PrimeField, QQ
from conekit.ring import (
    AmbientMismatch,
    AmbientSpace,
    BlockElimOrder,
    GrevlexOrder,
    LexOrder,
    PermutedGrevlexOrder,
    PolyRing,
    RingError,
    poly_str,
    substitute_all,
)
from oracles import packed_key, taylor_shift_coefficient

FP = PrimeField(DEFAULT_PRIME)
R3 = PolyRing(AmbientSpace.product(("x", 3)), FP)
RQ = PolyRing(AmbientSpace.product(("x", 3)), QQ)


def polys(ring=R3, max_terms=6, max_exp=4):
    monos = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    coeffs = st.integers(1, DEFAULT_PRIME - 1) if ring.field is FP else st.fractions(min_value=-100, max_value=100, max_denominator=20)
    pairs = st.lists(st.tuples(monos, coeffs), max_size=max_terms)

    def build(ps):
        acc = ring.zero()
        for m, c in ps:
            acc = acc + ring.from_terms({m: c})
        return acc

    return pairs.map(build)


@given(p=polys(), q=polys(), r=polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == R3.zero()
    assert p * R3.one() == p


@given(p=polys())
def test_parse_print_round_trip(p):
    assert R3.parse(poly_str(p)) == p


@given(p=polys(ring=RQ))
def test_parse_print_round_trip_rationals(p):
    assert RQ.parse(poly_str(p)) == p


def test_parse_grammar():
    x0, x1, x2 = R3.gens()
    assert R3.parse("x0^2 - 2*x1*x2") == x0 * x0 - x1 * x2 - x1 * x2
    assert R3.parse("(x0 + x1)*(x0 - x1)") == x0 * x0 - x1 * x1
    assert RQ.parse("1/2*x0") + RQ.parse("1/2*x0") == RQ.parse("x0")
    with pytest.raises(RingError):
        R3.parse("x9")
    with pytest.raises(RingError):
        R3.parse("x0 +")


RB = PolyRing(AmbientSpace.product(("z", 2), ("x", 3), affine=("z",)), FP)
RBQ = PolyRing(AmbientSpace.product(("z", 2), ("x", 3), affine=("z",)), QQ)


@pytest.mark.parametrize("ring", [RB, RBQ], ids=["Fp", "Q"])
@given(data=st.data())
def test_parse_print_round_trip_blocks(ring, data):
    p = data.draw(polys(ring=ring, max_terms=10, max_exp=12))
    assert ring.parse(poly_str(p)) == p


def expressions(ring):
    """(text, value) pairs from the full grammar: signs, products, powers,
    integer and a/b coefficients, nested parentheses, spacing."""
    F = ring.field

    def const(k, d=1):
        return ring.const(F.from_int(k) * F.inv(F.from_int(d)))

    atoms = st.one_of(
        st.sampled_from(ring.ambient.varnames).map(lambda n: (n, ring.var(n))),
        st.integers(0, 40).map(lambda k: (str(k), const(k))),
        st.tuples(st.integers(0, 40), st.integers(1, 9)).map(
            lambda kd: ("%d/%d" % kd, const(*kd))
        ),
    )

    def powered(factors):
        return st.tuples(factors, st.integers(0, 2)).map(
            lambda fe: ("%s^%d" % (fe[0][0], fe[1]), fe[0][1] ** fe[1])
        )

    def expr_of(factors):
        def product(fs):
            value = ring.one()
            for _, v in fs:
                value = value * v
            return "*".join(t for t, _ in fs), value

        term = st.lists(factors | powered(factors), min_size=1, max_size=3).map(product)

        def build(parts):
            lead, first, rest = parts
            text, value = lead + first[0], -first[1] if lead == "-" else first[1]
            for (op, space), (t, v) in rest:
                text += (" %s " if space else "%s") % op + t
                value = value + v if op == "+" else value - v
            return text, value

        ops = st.tuples(st.sampled_from("+-"), st.booleans())
        return st.tuples(
            st.sampled_from(["", "-", "+"]), term, st.lists(st.tuples(ops, term), max_size=3)
        ).map(build)

    factors = st.recursive(
        atoms, lambda inner: expr_of(inner).map(lambda e: ("(%s)" % e[0], e[1])), max_leaves=6
    )
    return expr_of(factors)


@pytest.mark.parametrize("ring", [RB, RBQ], ids=["Fp", "Q"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_matches_poly_arithmetic(ring, data):
    text, value = data.draw(expressions(ring))
    assert ring.parse(text) == value


def test_parse_grammar_cases():
    x0, x1, x2 = R3.gens()
    one = R3.one()
    # unary minus binds to the whole first term, then + and - are left-assoc
    assert R3.parse("-x0*x1 + x2") == x2 - x0 * x1
    assert R3.parse("-x0 - x1 - x2") == -(x0 + x1 + x2)
    assert R3.parse("+x0") == x0
    # powers of variables, numbers and parenthesised sums
    assert R3.parse("x0^3*x0^2") == x0 ** 5
    assert R3.parse("2^5*x1") == x1.scale(FP.from_int(32))
    assert R3.parse("x0^0") == one and R3.parse("0^0") == one
    assert R3.parse("(x0 - x1)^2") == x0 * x0 - x1.scale(FP.from_int(2)) * x0 + x1 * x1
    assert R3.parse("-(x0 + (x1 - (x2)))*x2") == -(x0 + x1 - x2) * x2
    assert R3.parse("(x0)^0*(x1 + 1)") == x1 + one
    # coefficients reduce in the field; cancelling terms vanish
    assert R3.parse("%d*x0 + x1" % DEFAULT_PRIME) == x1
    assert R3.parse("x0*x1 - x1*x0").is_zero()
    assert R3.parse("0") == R3.zero() and R3.parse("0*x0 + 0").is_zero()
    assert R3.parse("1/2*x0 + 1/2*x0") == x0
    # rationals are exact over Q
    q0, q1, _ = RQ.gens()
    assert RQ.parse("3/4*x0 - 1/4*x0") == q0.scale(Fraction(1, 2))
    assert RQ.parse("-2/6*x1^2") == (q1 * q1).scale(Fraction(-1, 3))
    assert RQ.parse("(1/2*x0 + 1)^2") == (q0 * q0).scale(Fraction(1, 4)) + q0 + RQ.one()
    assert RQ.parse(" x0 +\tx1\n") == q0 + q1


@pytest.mark.parametrize(
    "text, message",
    [
        ("x9", "unknown variable"),
        ("x0 + y", "unknown variable"),
        ("x0 +", "unexpected token"),
        ("", "unexpected token"),
        ("x0*-x1", "unexpected token"),
        ("--x0", "unexpected token"),
        ("x0*)", "unexpected token"),
        ("x0^-1", "exponent must be a nonnegative integer"),
        ("x0^1/2", "exponent must be a nonnegative integer"),
        ("x0^x1", "exponent must be a nonnegative integer"),
        ("x0^", "exponent must be a nonnegative integer"),
        ("(x0 + x1", "missing closing parenthesis"),
        ("(x0 + x1)^", "exponent must be a nonnegative integer"),
        ("x0)", "trailing input"),
        ("x0 x1", "trailing input"),
        ("x0^2^3", "trailing input"),
        ("x0 $ x1", "cannot tokenize ' \\$ x1'"),
        ("x0 + 3/", "cannot tokenize '/'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(RingError, match=message):
        R3.parse(text)


def test_parse_division_by_zero_coefficient():
    # bad input, like any other unreadable literal, so callers that map
    # RingError to a config error need no second except clause
    with pytest.raises(RingError, match="zero denominator"):
        R3.parse("x0 + 1/%d*x1" % DEFAULT_PRIME)
    with pytest.raises(RingError, match="zero denominator"):
        RQ.parse("1/0*x0")
    with pytest.raises(RingError, match="zero denominator"):
        RQ.parse("(x0 + 1/0)*x1")


def spec_key(order, nvars):
    """The order as MonomialOrder's docstring states it: per grevlex block,
    most significant first, the total degree, then the exponents from the
    last slot to the first, each negated (a smaller one is larger)."""

    def key(m):
        out = []
        for block in order.grevlex_blocks(nvars):
            out.append(sum(m[i] for i in block))
            out.extend(-m[i] for i in reversed(block))
        return tuple(out)

    return key


@given(p=polys())
def test_heapkey_matches_packed_key(p):
    # the engine's packed key m ^ EXP must sort like the order's statement,
    # and grevlex's heapkey (the print and lead order) like grevlex's packed key
    for order in (GrevlexOrder(3), LexOrder(3), PermutedGrevlexOrder.with_last(3, 0),
                  PermutedGrevlexOrder([2, 0, 1]), BlockElimOrder([0], 3),
                  BlockElimOrder([1, 2], 3)):
        monos = list(p.terms)
        a = sorted(monos, key=packed_key(order, 3), reverse=True)
        assert a == sorted(monos, key=spec_key(order, 3), reverse=True)
        if order.name == "grevlex":
            assert a == sorted(monos, key=GrevlexOrder.heapkey)


def test_grevlex_vs_lex_disagree():
    # x0*x2^2 vs x1^2*x2: grevlex prefers lower last exponent at equal degree,
    # lex looks at x0 first (a larger packed key is a larger monomial)
    g, l = packed_key(GrevlexOrder(3), 3), packed_key(LexOrder(3), 3)
    a, b = (1, 0, 2), (0, 2, 1)
    assert g(b) > g(a)
    assert l(a) > l(b)
    assert GrevlexOrder.heapkey(b) < GrevlexOrder.heapkey(a)


def test_block_elim_order_separates():
    amb = AmbientSpace.product(("u", 1), ("x", 2))
    key = packed_key(BlockElimOrder.for_blocks(amb, ["u"]), amb.nvars)
    # any monomial containing u beats any u-free monomial
    assert key((1, 0, 0)) > key((0, 5, 5))


def test_multidegree_blocks():
    amb = AmbientSpace.product(("x", 2), ("y", 2))
    ring = PolyRing(amb, FP)
    x0, x1, y0, y1 = ring.gens()
    p = x0 * y1 - x1 * y0
    assert p.multidegree() == {"x": 1, "y": 1}
    assert p.is_multihomogeneous()
    assert not (x0 + y0).is_multihomogeneous()


def test_substitute_and_map_vars():
    x0, x1, x2 = R3.gens()
    p = x0 * x0 + x1 * x2
    assert p.substitute({"x1": 0}) == x0 * x0
    small = PolyRing(AmbientSpace.product(("y", 2)), FP)
    q = small.convert(x0 * x0, {"x0": "y1"})
    assert poly_str(q) == "y1^2"


def naive_substitute(p, assignment):
    """Term by term with Poly arithmetic: c * (unsubstituted part) * prod value^e."""
    ring = p.ring
    values = {ring.ambient.var_index(n): v for n, v in assignment.items()}
    acc = ring.zero()
    for m, c in p.terms.items():
        term = ring.from_terms({tuple(0 if i in values else e for i, e in enumerate(m)): c})
        for i, v in values.items():
            term = term * v ** m[i]
        acc = acc + term
    return acc


def check_substitute_matches_naive(ring, p, q, v0, v1):
    assignment = {"x1": v0, "x2": v1}
    got = substitute_all([p, q], assignment)
    assert got == [naive_substitute(p, assignment), naive_substitute(q, assignment)]
    assert p.substitute(assignment) == got[0]
    assert p.substitute({"x0": 3}) == naive_substitute(p, {"x0": ring.const(ring.field.from_int(3))})
    assert all(c != ring.field.zero for c in got[0].terms.values())


@given(p=polys(), q=polys(), v0=polys(max_terms=3, max_exp=2), v1=polys(max_terms=3, max_exp=2))
def test_substitute_matches_naive_expansion(p, q, v0, v1):
    check_substitute_matches_naive(R3, p, q, v0, v1)


@given(p=polys(ring=RQ), q=polys(ring=RQ), v0=polys(ring=RQ, max_terms=3, max_exp=2),
       v1=polys(ring=RQ, max_terms=3, max_exp=2))
def test_substitute_matches_naive_expansion_rationals(p, q, v0, v1):
    check_substitute_matches_naive(RQ, p, q, v0, v1)


def test_substitute_converts_values_and_rejects_mixed_rings():
    small = PolyRing(AmbientSpace.product(("x", 2)), FP)
    x0, x1, x2 = R3.gens()
    assert (x2 * x2).substitute({"x2": small.parse("x0 + x1")}) == (x0 + x1) * (x0 + x1)
    with pytest.raises(RingError):
        substitute_all([x0, small.var("x0")], {"x0": x1})


def test_printed_form_and_monic_are_computed_once():
    p = R3.parse("x0^2 + 3*x1")
    s = poly_str(p)
    assert poly_str(p) is s
    assert p.monic() is p
    q = R3.parse("2*x0^2 + x1")
    assert q.monic() == q.scale(FP.inv(2))
    # equal rings compare equal whether or not they are one object
    assert PolyRing(AmbientSpace.product(("x", 3)), FP) == R3
    assert PolyRing(AmbientSpace.product(("x", 3)), QQ) != R3


def test_taylor_shift_oracle():
    """Coefficients at t-1 agree with direct expansion of (t-1+1)^k."""
    amb = AmbientSpace.product(("t", 1), ("x", 1), affine=("t",))
    ring = PolyRing(amb, QQ)
    t, x = ring.var("t0"), ring.var("x0")
    p = t * t * x + t + ring.one()
    # p = (s+1)^2 x + (s+1) + 1 with s = t-1
    assert taylor_shift_coefficient(p, "t0", 0) == x + ring.from_terms({(0, 0): QQ.from_int(2)})
    assert taylor_shift_coefficient(p, "t0", 1) == x + x + ring.one()
    assert taylor_shift_coefficient(p, "t0", 2) == x
    assert taylor_shift_coefficient(p, "t0", 3) == ring.zero()


def test_ambient_without_and_convert():
    amb = AmbientSpace.product(("x", 2), ("y", 2))
    sub = amb.without(["y"])
    assert sub.varnames == ("x0", "x1")
    big = PolyRing(amb, FP)
    small = PolyRing(sub, FP)
    p = small.parse("x0*x1")
    assert poly_str(big.convert(p)) == "x0*x1"


def test_convert_renames_only_the_variables_it_uses():
    big = PolyRing(AmbientSpace.product(("x", 2), ("y", 2)), FP)
    small = PolyRing(AmbientSpace.product(("y", 2)), FP)
    # x1 has no place in `small`, but the polynomial does not use it
    assert small.convert(big.parse("x0^2 + 3*y1"), {"x0": "y0"}) == small.parse("y0^2 + 3*y1")
    with pytest.raises(RingError):
        small.convert(big.parse("x1*y0"))
    # two variables sent to one: their terms add, and a zero sum drops out
    assert small.convert(big.parse("x0*y1 - x1*y1 + y0"), {"x0": "y0", "x1": "y0"}) == small.parse("y0")


@pytest.mark.parametrize("renames", [None, {"x0": "y1"}])
def test_convert_across_fields_raises(renames):
    # a Fraction coefficient must not reach a prime field's ring, renamed or not
    src = PolyRing(AmbientSpace.product(("x", 2)), QQ)
    target = PolyRing(AmbientSpace.product(("x", 2), ("y", 2)), PrimeField(7))
    with pytest.raises(AmbientMismatch):
        target.convert(src.parse("1/2*x0 + x1"), renames)
    with pytest.raises(AmbientMismatch):
        target.convert(src.zero(), renames)
