"""Test-only routes to results the library computes another way.

Imported by the test modules (pytest puts this directory on sys.path).
"""

from functools import reduce
from math import comb

from conekit import groebner
from conekit.ideals import (
    Ideal,
    contains_ideal,
    eliminate,
    fresh_block_name,
    hilbert_data,
    intersect,
    radical_member,
    saturate,
    saturate_by_poly,
)
from conekit.ring import AmbientSpace, Block, PolyRing, RingError
from conekit.scheme import (
    POINT_TRIALS,
    PointWitness,
    SchemeError,
    Subscheme,
    _zero_dim_point,
    point_forms,
)


def packed_key(order, nvars):
    """The Groebner engine's order key of an exponent tuple under `order`:
    the packed monomial `m` as `m ^ EXP`, larger for larger monomials."""
    layout = groebner._layout(order, nvars, 16)

    def key(m):
        return sum(e * w for e, w in zip(m, layout.weights)) ^ layout.exp

    return key


def lead_in(p, order):
    """(monomial, coefficient) of p's largest term under `order`."""
    m = max(p.terms, key=packed_key(order, p.ring.nvars))
    return m, p.terms[m]


def monic_in(p, order):
    """p scaled so that its lead coefficient under `order` is 1."""
    if not p.terms:
        return p
    return p.scale(p.ring.field.inv(lead_in(p, order)[1]))


def taylor_shift_coefficient(p, tvar, r):
    """Exact coefficient of (t-1)^r when p is expanded around t = 1.

    `tvar` is the affine chart coordinate; p must be polynomial in it.
    """
    if r < 0:
        raise RingError("negative expansion order")
    ring = p.ring
    i = ring.ambient.var_index(tvar)
    # p(t) = sum_e c_e(x) t^e ;  substitute t = 1 + s, expand, read coeff of s^r
    out = {}
    for m, c in p.terms.items():
        e = m[i]
        if e < r:
            continue
        nm = list(m)
        nm[i] = 0
        key = tuple(nm)
        out[key] = out.get(key, 0) + c * comb(e, r)
    return ring.from_terms(out)


def expansion_pencil_taylor(cd):
    """Oracle route to cone.expansion_pencil: the literal (t-1)-coefficient
    of f(twist(x)) pushed through the decomposition, z-cleared.

    Returned in the affine (t, w, x) ring, for cross-checking
    expansion_pencil up to a unit and powers of the twisted hyperplane
    combination.
    """
    amb = AmbientSpace.product(("t", 1), ("w", 1), ("x", cd.nx), affine=("t", "w"))
    ring = cd.ring(amb)
    t = ring.var("t0")
    w = ring.var("w0")
    x = ring.block_vars("x")
    p = cd.pivot
    # the direct coordinate images of the twist at affine (t, w)
    sub = {"x0": x[0] - t * x[p], ("x%d" % p): t * w * x[p]}
    for i in range(p + 1, cd.nx):
        sub["x%d" % i] = t * x[i]
    return taylor_shift_coefficient(cd.f_in(ring).substitute(sub), "t0", 1)


def is_component(S, C, ctx):
    """True when V(C) is a maximal-dimensional piece of V(S) inside V(C).

    Certified by: V(C) ⊆ V(S) (radical membership of generators),
    saturation by C actually removes something, and what is removed has
    the dimension of C itself.  The oracle for prop-2-1's degree
    certificate (cone.verify_diagonal_is_component).
    """
    if S.ambient != C.ambient:
        raise SchemeError("component test across different ambients")
    for g in S.ideal.gens:
        if not radical_member(g, C.ideal, ctx):
            return False
    kept = saturate(S.ideal, C.ideal, ctx)
    if contains_ideal(S.ideal, kept, ctx):
        return False  # saturation removed nothing
    removed = saturate(S.ideal, kept, ctx) if kept.gens else S.ideal
    return hilbert_data(removed, ctx).dimension == C.dimension(ctx)


def exact_block_saturation(ideal, block, ctx):
    """I : m_b^∞ with no random form: the intersection of the divide-outs
    I : v^∞ over the block's variables v."""
    parts = [saturate_by_poly(ideal, v, ctx) for v in ideal.ring.block_vars(block)]
    return reduce(lambda a, b: intersect(a, b, ctx), parts)


def fiber_by_elimination(ideal, at, ctx):
    """Oracle route to scheme.at_point: the cut by the point forms of each
    assigned block, saturated exactly by each assigned projective block's
    irrelevant ideal, then with the assigned blocks eliminated.
    """
    ring = ideal.ring
    cut = ideal.with_extra([g for block, coords in at.items()
                            for g in point_forms(ring, block, coords)])
    for block in at:
        if ring.ambient.block(block).projective:
            cut = exact_block_saturation(cut, block, ctx)
    return eliminate(cut, list(at), ctx)


def random_point_by_charts(S, ctx):
    """Oracle route to scheme.random_point: every slicing solved chart by
    chart, x_c = 1 for c = 0, 1, ..., through a lex basis each, with the
    first point `_points` yields in the first chart that has one.
    """
    amb = S.ambient
    if len(amb.projective_blocks) != 1 or len(amb.blocks) != 1:
        raise SchemeError("point search needs a single projective factor")
    blk = amb.blocks[0]
    ring = S.ring
    F = ring.field
    if not F.p:
        raise SchemeError("point search needs a prime field")
    dim = S.dimension(ctx)
    if dim < 0:
        return None
    n = blk.size
    for trial in range(POINT_TRIALS):
        rng = ctx.rng("random-point", S.ideal.key(), trial)
        slices = []
        for _ in range(dim):
            coeffs = [F.sample(rng) for _ in range(n)]
            form = ring.zero()
            for i, c in enumerate(coeffs):
                form = form + ring.var_by_index(amb.block_range(blk.name)[i]).scale(c)
            if not form.is_zero():
                slices.append(form)
        sliced = S.ideal.with_extra(slices)
        for chart in range(n):
            vname = blk.name + str(chart)
            chart_ideal = sliced.with_extra([ring.var(vname) - ring.one()])
            sol = _zero_dim_point(chart_ideal, ctx)
            if sol is not None:
                coords = tuple(
                    sol.get(amb.block_range(blk.name)[i], 0) for i in range(n)
                )
                return PointWitness(block=blk.name, coords=coords)
    return None


def incidence_join(A, B, ctx):
    """Oracle route to scheme.join, for any A and B in one projective space:
    the closure of the union of lines through p ∈ A and q ∈ B, p ≠ q.

    x is collinear with p and q where the 3x3 minors of the stacked
    coordinate matrix vanish; saturating by the endpoint diagonal drops the
    pairs p = q, where every x satisfies the minors (a Monte Carlo
    saturation, so use a large prime), and eliminating p and q leaves the
    join.  One point joined with itself is therefore empty here.
    """
    amb = A.ambient
    blk = amb.blocks[0]
    n = blk.size
    p_name = fresh_block_name(amb, "jp")
    q_name = fresh_block_name(amb, "jq")
    big = AmbientSpace((blk, Block(p_name, n, projective=True), Block(q_name, n, projective=True)))
    ring = PolyRing(big, A.ring.field)
    x, p, q = (ring.block_vars(b) for b in (blk.name, p_name, q_name))
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                gens.append(x[i] * (p[j] * q[k] - p[k] * q[j])
                            - x[j] * (p[i] * q[k] - p[k] * q[i])
                            + x[k] * (p[i] * q[j] - p[j] * q[i]))
    for name, S in ((p_name, A), (q_name, B)):
        rename = {blk.name + str(i): name + str(i) for i in range(n)}
        gens += [ring.convert(g, rename) for g in S.ideal.gens]
    diag = Ideal(ring, [p[i] * q[j] - p[j] * q[i] for i in range(n) for j in range(i + 1, n)])
    incidence = saturate(Ideal(ring, gens), diag, ctx)
    return Subscheme.saturated(eliminate(incidence, [p_name, q_name], ctx), ctx)
