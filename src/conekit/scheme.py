"""Geometry vocabulary over the engine: subschemes of products of
projective spaces, graph closures of rational maps, fibers, unions,
multiplicities, joins, and point search.  A fibre over a point substitutes
the point (`at_point`) rather than cutting, saturating and eliminating.  A
point search whose slices cut a line reads the points from one binary form
(`_line_points`) rather than from a lex basis for each affine chart.  The
join of two linear spaces is their span, by row reduction (`join`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Field
from .ideals import (
    EngineContext,
    HilbertData,
    Ideal,
    hilbert_data,
    intersect,
    multisaturate,
    radical_equal,
    saturate,
    saturate_by_poly,
)
from .linalg import kernel_basis, rref
from .ring import AmbientSpace, Block, LexOrder, Poly, PolyRing, substitute_all


class SchemeError(Exception):
    pass


class Subscheme:
    """A closed subscheme of a product of projective spaces.

    The ideal is multihomogeneous and saturated by the irrelevant ideal m_b
    of every projective block b; Hilbert data is cached on the instance.
    `Subscheme(I)` wraps I as it is.  `Subscheme.saturated` saturates every
    block first, and is called only where an operation can leave irrelevant
    components: equation systems, sums, cuts, projections, point fibres.
    Every other site wraps directly and names its case (I : c^∞ is
    m_b-saturated when c lies in m_b; Cox, Little & O'Shea, ch. 4 §4):
    (a) a graph closure I : c^∞, c a combination of the forms: c lies in m_b
        for each source block where the forms have positive degree, and at
        a nonzero form the target coordinate is a nonzerodivisor; only
        source blocks of form degree 0 are saturated.  Over a full product
        ring (no source generators) I : c^∞ is the graph's prime P for
        every nonzero c: localized at a form f_j the minors give
        y_i = y_j·f_i/f_j, so they cut the domain k[source][1/f_j][y_j] and
        equal P there; every other associated prime of I thus contains
        every f_j, hence c, and c ∉ P as P ∩ k[source] = 0 (the graph maps
        onto its source).  So the saturation drops exactly the components
        over the base locus and cannot miss, and a further saturation by a
        nonzero source form is exact for the same reason.  `graph_closure`
        there takes a monomial form when one exists, variable by variable;
    (b) one form in one projective block, (c) a linear ideal, (d) generic
        2x2 minors plus linear forms in other variables: each has prime
        associated primes that contain no m_b;
    (e) I : c^∞ with c in m_b, for each such block b;
    (f) blocks an earlier step already saturated (saturations commute).
    Three lemmas let a caller skip a saturation whose result only feeds a
    fibre, a Hilbert polynomial, a radical or a further saturation:
    (g) fixing a block at a point ignores that block's saturation:
        at_point(I, b = p) = at_point(I : m_b^∞, b = p) (see `at_point`);
    (h) in one projective block, I and I : m^∞ agree in high degrees, so
        their Hilbert polynomials are equal: `hilbert_data` reads the same
        dimension and degree on both when the saturation has dimension
        >= 0, and dimension -1 on both when the saturation is the unit
        ideal;
    (i) in one projective block, with V(I) nonempty, `hilbert_data` (by
        (h)), `radical_equal` (m is no minimal prime of I, so √I = √(I : m^∞))
        and a saturation by J ⊆ m ((I : m^∞) : J^∞ = I : J^∞, as
        g·J^k·m^N ⊆ I gives g·J^(k+N) ⊆ I) read I as they read I : m^∞.
        The random element `saturate` draws is tagged by the ideal, so it
        differs, but it can miss only at an associated prime that does not
        contain J, and m, the one prime I may add, contains J.
    Two more hold in several blocks, with m = ∏ m_b:
    (j) let C be a multihomogeneous prime containing no m_b, and S0 an ideal
        whose irrelevant loci V(S0) ∩ V(m_b) all have Krull dimension below
        dim R/C.  Then every J with S0 ⊆ J ⊆ S0 : m^∞ is read as S0 is:
        J ⊆ √C iff S0 ⊆ √C (g·m^N ⊆ S0 ⊆ C, C is prime and m ⊄ C), and when
        V(C) ⊆ V(J), `hilbert_data(J)` = `hilbert_data(S0)`: J/S0 is
        m-torsion, so it lives in those loci and changes the Hilbert series
        only below the top dimension.  As C is prime, √C = C, so the first
        reading is S0 ⊆ C: one basis of C and a normal form per generator
        (`contains_ideal`), with no radical-membership basis.  So S0 itself
        is read, with no saturation and no random form (prop-2-1: S0 is
        `sigma_fiber`, the bare graph equations with f(x) and f(y) at
        t = 1, read by `verify_diagonal_is_component`);
    (k) an elimination read up to saturation ignores a saturation before it:
        with J ∩ k[y] the elimination of the other blocks,
        (J ∩ k[y]) : m_y^∞ = ((J : m_y^∞) ∩ k[y]) : m_y^∞, since
        g·m_y^N ⊆ J with g in k[y] puts g·m_y^N in J ∩ k[y] (prop-2-6's end
        fibre, `cone_family_end`).
    Three equalities decide a comparison, or a fibre, before any saturation:
    (l) an ideal E equal to a saturated G is saturated: E : m^∞ = G : m^∞ = G,
        and E ⊄ G gives E : m^∞ ⊄ G; only E ⊊ G is left open (omega-consistency,
        `verify_graph_consistency`, with G the twist's map-graph closure,
        saturated in every block by (a));
    (m) for distinct primes P1, P2 containing no m_b, P1 ∩ P2 is radical and
        saturated, and (P1 ∩ P2) : P2^∞ = P1 when P2 ⊄ P1 (P1 : P2^∞ = P1,
        P2 : P2^∞ = R); so an ideal equal to P1 ∩ P2 is the union of the two,
        each a component of multiplicity 1, and as in (l) an ideal not inside
        P1 ∩ P2 is not their union (digamma, `verify_split_components`);
    (n) let B be the forms' ideal of a map whose source is cut by f, with
        m_x ⊆ √(B + (f)).  Then I = (f) + minors and the closure J = I : B^∞
        have I ⊆ J ⊆ I : m_x^∞: they agree where some form is a unit, and f,
        in I, kills J/I elsewhere.  Fixing the target block at a point keeps
        this (g·m_x^N ⊆ I survives the substitution), so by (h) the fibres
        of I and J have one `hilbert_data` (w-covering,
        `covering_degree_report`: V(B) is the centre c_z, f(c_z) != 0).
    """

    __slots__ = ("ideal", "_hilbert")

    def __init__(self, ideal: Ideal):
        if not ideal.is_multihomogeneous():
            raise SchemeError("subscheme ideal must be multihomogeneous")
        self.ideal = ideal
        self._hilbert: Optional[HilbertData] = None

    @classmethod
    def saturated(cls, ideal: Ideal, ctx: EngineContext) -> "Subscheme":
        """Saturate by every projective block's irrelevant ideal, then wrap."""
        return cls(multisaturate(ideal, ctx))

    @property
    def ring(self) -> PolyRing:
        return self.ideal.ring

    @property
    def ambient(self) -> AmbientSpace:
        return self.ideal.ambient

    def hilbert(self, ctx: EngineContext) -> HilbertData:
        if self._hilbert is None:
            self._hilbert = hilbert_data(self.ideal, ctx)
        return self._hilbert

    def dimension(self, ctx: EngineContext) -> int:
        return self.hilbert(ctx).dimension

    def degree(self, ctx: EngineContext) -> int:
        return self.hilbert(ctx).degree

    def __repr__(self):
        return "Subscheme(%d gens in %r)" % (len(self.ideal.gens), self.ambient)


@dataclass(frozen=True)
class RationalMapSpec:
    """A rational map to a projective space, one form per target coordinate."""

    source: object  # PolyRing, or a Subscheme to restrict the graph to
    target_block: Block
    forms: Tuple[Poly, ...]

    @property
    def source_ring(self) -> PolyRing:
        return self.source if isinstance(self.source, PolyRing) else self.source.ring

    @property
    def source_gens(self) -> Tuple[Poly, ...]:
        if isinstance(self.source, PolyRing):
            return ()
        return tuple(self.source.ideal.gens)

    def __post_init__(self):
        if len(self.forms) != self.target_block.size:
            raise SchemeError("need one form per target coordinate")
        if all(f.is_zero() for f in self.forms):
            raise SchemeError("map forms are all zero")
        degs = [f.multidegree() for f in self.forms if not f.is_zero()]
        if any(d is None for d in degs) or any(d != degs[0] for d in degs):
            raise SchemeError("map forms must share one multidegree")


# ---------------------------------------------------------------------------
# graph closure


def graph_minors(spec: RationalMapSpec) -> Ideal:
    """The graph before its base locus is saturated away: the source's
    generators and the 2x2 minors of [target coords; forms], in the source
    ring extended by the target block."""
    src = spec.source_ring
    ring = PolyRing(src.ambient.extend(spec.target_block), src.field)
    forms = [ring.convert(f) for f in spec.forms]
    tvars = ring.block_vars(spec.target_block.name)
    gens = [ring.convert(g) for g in spec.source_gens]
    k = len(forms)
    for i in range(k):
        for j in range(i + 1, k):
            g = tvars[i] * forms[j] - tvars[j] * forms[i]
            if not g.is_zero():
                gens.append(g)
    return Ideal(ring, gens)


def graph_closure(spec: RationalMapSpec, ctx: EngineContext) -> Subscheme:
    """Closure of the graph of the map over its regular locus.

    The graph ideal is generated by the 2x2 minors of [target coords;
    forms] (`graph_minors`); saturating by the base-locus ideal removes
    everything the minors pick up where all forms vanish, and with it every
    irrelevant component over a block where the forms have positive degree.
    Over a full product ring any nonzero element of the base-locus ideal
    gives the closure, case (a) of `Subscheme`: a form that is a monomial
    is taken when there is one, which needs no random draw and no
    auxiliary variable.  Otherwise the saturation is by a random
    combination of the forms (`saturate`).
    """
    graph = graph_minors(spec)
    ring = graph.ring
    forms = [ring.convert(f) for f in spec.forms]
    monomial = next((f for f in forms if len(f.terms) == 1), None)
    if spec.source_gens or monomial is None:
        sat = saturate(graph, Ideal(ring, forms), ctx)
    else:
        # (a): every nonzero form gives the graph's prime, and a monomial
        # form one divide-out per variable: I : (v·w)^∞ = (I : v^∞) : w^∞
        sat = graph
        for v, e in zip(ring.gens(), next(iter(monomial.terms))):
            if e:
                sat = saturate_by_poly(sat, v, ctx)
    # (a): only a source block where the forms have degree 0 needs saturating
    degs = next(f for f in spec.forms if not f.is_zero()).multidegree()
    flat = [b.name for b in spec.source_ring.ambient.projective_blocks if degs[b.name] == 0]
    return Subscheme(multisaturate(sat, ctx, blocks=flat))


# ---------------------------------------------------------------------------
# fibers


def _point_values(ring: PolyRing, block: str, coords: Sequence) -> List:
    """The coordinates of a point of the named block as field elements; a
    wrong length or an all-zero projective point raises SchemeError."""
    blk = ring.ambient.block(block)
    vals = [ring.field.from_int(c) if isinstance(c, int) else c for c in coords]
    if len(vals) != blk.size:
        raise SchemeError("point has %d coordinates, block %r has %d" % (len(vals), block, blk.size))
    if blk.projective and not any(vals):
        raise SchemeError("all-zero projective point")
    return vals


def point_forms(ring: PolyRing, block: str, coords: Sequence) -> List[Poly]:
    """Linear forms cutting out one point of the named block."""
    vals = _point_values(ring, block, coords)
    v = ring.block_vars(block)
    if not ring.ambient.block(block).projective:
        return [v[a] - ring.const(vals[a]) for a in range(len(v))]
    out = []
    for a in range(len(v)):
        for b in range(a + 1, len(v)):
            g = v[a].scale(vals[b]) - v[b].scale(vals[a])
            if not g.is_zero():
                out.append(g)
    return out


def at_point(ideal: Ideal, at: Dict[str, Sequence]) -> Ideal:
    """I with each assigned block set to its point, in the ring without
    those blocks: the cut by the point forms, saturated and eliminated.

    Take a projective point p of block b with p_k != 0.  Modulo the point
    forms every variable v_i of b is (p_i/p_k)·v_k, so a generator g of
    b-degree d becomes (v_k/p_k)^d·g(p), and m_b is v_k up to radical.
    Hence (I + forms) : m_b^∞ = (I + forms) : v_k^∞ = I(p) + forms, as v_k
    is a nonzerodivisor on (R'/I(p))[v_k], R' omitting b; eliminating b
    leaves I(p) (Cox, Little & O'Shea, ch. 4 §4).  An affine point is a
    plain substitution.

    So I need not be saturated in b: any J with I ⊆ J ⊆ I : m_b^∞ has
    J(p) = I(p).  With F the point forms, I + F ⊆ J + F ⊆ (I + F) : m_b^∞,
    so both sums have the saturation (I + F) : m_b^∞; by the above that is
    I(p) + F and J(p) + F, and eliminating b gives I(p) = J(p).  Fixing
    another block at a point keeps I ⊆ J ⊆ I : m_b^∞ (g·m_b^N ⊆ I survives
    the substitution), so no assigned block's saturation is needed.
    """
    ring = ideal.ring
    values = {ring.ambient.varnames[i]: ring.const(c) for block, coords in at.items()
              for i, c in zip(ring.ambient.block_range(block), _point_values(ring, block, coords))}
    target = PolyRing(ring.ambient.without(at), ring.field)
    return Ideal(target, [target.convert(g) for g in substitute_all(ideal.gens, values)])


def fiber(ideal: Ideal, at: Dict[str, Sequence], ctx: EngineContext) -> Subscheme:
    """Fiber of V(I) over assigned block points, in the other blocks,
    saturated: setting a block to a point can leave irrelevant components in
    the others.  I need not be saturated in the assigned blocks (`at_point`)."""
    return Subscheme.saturated(at_point(ideal, at), ctx)


# ---------------------------------------------------------------------------
# components and multiplicities


def union_certify(S: Subscheme, parts: Sequence[Subscheme], ctx: EngineContext) -> bool:
    """True iff S and the union of the parts agree up to radical."""
    if not parts:
        raise SchemeError("empty part list")
    meet = parts[0].ideal
    for p in parts[1:]:
        meet = intersect(meet, p.ideal, ctx)
    return radical_equal(S.ideal, meet, ctx)


def component_multiplicity(
    S: Subscheme,
    C: Subscheme,
    others: Sequence[Subscheme],
    ctx: EngineContext,
) -> Fraction:
    """Multiplicity of C in S: degree of S minus all other parts, over deg C.

    The division is exact for generically reduced components; a
    non-integral value is returned as-is so callers can flag it.
    """
    if others:
        rest = others[0].ideal
        for p in others[1:]:
            rest = intersect(rest, p.ideal, ctx)
        part = saturate(S.ideal, rest, ctx)
    else:
        part = S.ideal
    part_h = hilbert_data(part, ctx)
    c_h = C.hilbert(ctx)
    if c_h.degree == 0:
        raise SchemeError("component has degree 0")
    if part_h.dimension != c_h.dimension:
        raise SchemeError(
            "isolated part has dimension %d, component has %d"
            % (part_h.dimension, c_h.dimension)
        )
    return Fraction(part_h.degree, c_h.degree)


# ---------------------------------------------------------------------------
# join


def join(A: Subscheme, B: Subscheme) -> Subscheme:
    """The join of two linear subspaces of one projective space: their span
    (Harris, *Algebraic Geometry: A First Course*, GTM 133).

    Its ideal is generated by the linear forms vanishing on both kernels,
    in reduced row echelon form: with x0 > x1 > ... the pivots are the lead
    terms, so the rows are the reduced grevlex basis, case (c).  A generator that is not
    linear raises SchemeError.  The incidence route, lines through p ∈ A
    and q ∈ B with p ≠ q (`tests/oracles.py::incidence_join`), is empty on
    one point joined with itself, where the span is the point; where A
    meets B it gives the same ideal with other generators, which would
    print differently in a slice of the join.  No checked seed draws delta
    on the twist line.
    """
    if A.ambient != B.ambient:
        raise SchemeError("join across different ambients")
    amb = A.ambient
    if len(amb.blocks) != 1 or not amb.blocks[0].projective:
        raise SchemeError("join needs a single projective factor")
    ring = A.ring
    F = ring.field
    n = ring.nvars
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    points: List[List] = []
    for S in (A, B):
        if any(g.total_degree() != 1 for g in S.ideal.gens):
            raise SchemeError("join needs linear subspaces")
        points += kernel_basis(F, [[g.terms.get(m, F.zero) for m in units] for g in S.ideal.gens], n)
    forms, _ = rref(F, kernel_basis(F, points, n))
    return Subscheme(Ideal(ring, [ring.from_terms(dict(zip(units, row))) for row in forms]))  # (c)


# ---------------------------------------------------------------------------
# point search over a prime field


@dataclass(frozen=True)
class PointWitness:
    """A rational point, as projective coordinates in the block's order."""

    block: str
    coords: Tuple[int, ...]


def _poly_divmod(a: List[int], m: List[int], p: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of a by m over F_p (coefficients low to high,
    m with a nonzero leading coefficient)."""
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    quot = [0] * max(len(a) - dm, 0)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * inv % p
        if c:
            quot[i - dm] = c
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    rem = a[:dm]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _poly_mulmod(a: List[int], b: List[int], m: List[int], p: int) -> List[int]:
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _poly_divmod(prod, m, p)[1]


def _poly_powmod(base: List[int], e: int, m: List[int], p: int) -> List[int]:
    out = _poly_divmod([1], m, p)[1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        e >>= 1
    return out


def _poly_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_sub(a: List[int], b: List[int], p: int) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _split_linear_factors(g: List[int], p: int, start: int, out: List[int]) -> None:
    """Roots of a monic g that is a product of distinct linear factors.

    Cantor-Zassenhaus with deterministic shifts: gcd(g, (v+a)^((p-1)/2) - 1)
    keeps the roots r with r+a a nonzero square, which splits g for some
    small a when p is odd; a scan over F_p covers the rest (p = 2).
    """
    deg = len(g) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append(-g[0] % p)
        return
    for a in range(start, p):
        probe = _poly_sub(_poly_powmod([a, 1], (p - 1) // 2, g, p), [1], p)
        h = _poly_gcd(g, probe, p)
        if 0 < len(h) - 1 < deg:
            _split_linear_factors(h, p, a + 1, out)
            _split_linear_factors(_poly_divmod(g, h, p)[0], p, a + 1, out)
            return
    for v in range(p):
        acc = 0
        for c in reversed(g):
            acc = (acc * v + c) % p
        if acc == 0:
            out.append(v)


def _univariate_roots(field: Field, coeffs: List[int]) -> List[int]:
    """Roots in F_p of sum coeffs[i] * v^i, ascending and without repeats.

    The roots are those of gcd(f, v^p - v), which is then split into its
    linear factors.
    """
    p = field.p
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        raise SchemeError("zero polynomial has every root")
    if len(f) == 1:
        return []
    if len(f) == 2:
        return [-f[0] * pow(f[1], p - 2, p) % p]
    frob = _poly_sub(_poly_powmod([0, 1], p, f, p), [0, 1], p)
    g = _poly_gcd(f, frob, p)
    roots: List[int] = []
    _split_linear_factors(g, p, 0, roots)
    return sorted(roots)


def _zero_dim_point(ideal: Ideal, ctx: EngineContext) -> Optional[Dict[int, int]]:
    """The first F_p point of a zero-dimensional affine-chart system, or None.

    Back-substitutes through a lex basis: in lex, every variable owns a
    basis element using only that variable and later ones, so repeated
    substitution always yields univariate conditions.  Points come in
    ascending order of the last variable, then the one before it, and so on.
    """
    ring = ideal.ring
    if not ring.field.p:
        raise SchemeError("point solving needs a prime field")
    basis = ctx.groebner(ideal, LexOrder(ring.nvars))
    if any(b.is_constant() and not b.is_zero() for b in basis):
        return None
    return next(_points(basis, ring.nvars - 1, {}), None)


def _points(basis: Sequence[Poly], var: int, known: Dict[int, int]):
    """The points of the lex basis that extend `known`, a solution for the
    variables after `var`.

    A module-level generator, not a closure: a recursive closure is a
    reference cycle, which keeps the basis alive until the cyclic collector
    runs.
    """
    if var < 0:
        yield dict(known)
        return
    ring = basis[0].ring
    names = ring.ambient.varnames
    candidates: Optional[set] = None
    # the basis with the known coordinates substituted
    for b in substitute_all(basis, {names[i]: v for i, v in known.items()}):
        if b.is_zero():
            continue
        support = b.variables()
        if not support:
            return  # nonzero constant: dead branch
        if support == {var}:
            coeffs = [0] * (max(m[var] for m in b.terms) + 1)
            for m, c in b.terms.items():
                coeffs[m[var]] = c
            roots = set(_univariate_roots(ring.field, coeffs))
            candidates = roots if candidates is None else candidates & roots
    if candidates is None:
        return  # free variable: system is not zero-dimensional here
    for r in sorted(candidates):
        known[var] = r
        yield from _points(basis, var - 1, known)
        del known[var]


# slicings random_point tries before it gives up
POINT_TRIALS = 40


def _on_line(g: Poly, u: Sequence[int], w: Sequence[int], p: int) -> List[int]:
    """g(s·u + w) as coefficients in s, low to high, one for each degree up
    to g's; for a form g the last is g(u)."""
    out = [0] * (g.total_degree() + 1)
    for m, c in g.terms.items():
        f = [c]
        for i, e in enumerate(m):
            for _ in range(e):
                f = [(a * w[i] + b * u[i]) % p for a, b in zip(f + [0], [0] + f)]
        for k, a in enumerate(f):
            out[k] += a
    return [a % p for a in out]


def _line_points(gens: Sequence[Poly], u: List[int], w: List[int],
                 field: Field) -> Optional[List[List[int]]]:
    """The F_p-points of V(gens) on the line {s·u + t·w}, or None when the
    line lies in V(gens).

    A point (s:t) lies on V(gens) iff every restriction g(s·u + t·w), a
    binary form, vanishes there: (s:1) for the roots s of the gcd of the
    restrictions at t = 1, and (1:0) when every g(u) is 0.
    """
    p = field.p
    common: Optional[List[int]] = None
    at_infinity = True
    for g in gens:
        r = _on_line(g, u, w, p)
        at_infinity = at_infinity and r[-1] == 0
        while r and r[-1] == 0:
            r.pop()
        if r:
            common = r if common is None else _poly_gcd(common, r, p)
    if common is None:
        return None
    points = [[(s * a + b) % p for a, b in zip(u, w)] for s in _univariate_roots(field, common)]
    if at_infinity:
        points.append(list(u))
    return points


def _first_in_charts(points: List[List[int]], field: Field) -> Tuple[int, ...]:
    """The point the chart loop returns: in the least chart x_c = 1 that
    holds one of the points, the least of them by (x_{n−1}, ..., x_0)."""
    c = min(next(i for i, v in enumerate(pt) if v) for pt in points)
    scaled = []
    for pt in points:
        if pt[c]:
            inv = field.inv(pt[c])
            scaled.append(tuple(v * inv % field.p for v in pt))
    return min(scaled, key=lambda pt: pt[::-1])


def random_point(S: Subscheme, ctx: EngineContext) -> Optional[PointWitness]:
    """A rational point of S over its prime field, or None after POINT_TRIALS slicings.

    Each trial draws dim S random hyperplanes; deterministic under the
    context seed.  Where the slices and S's linear generators cut a line L
    = {s·u + t·w} (a 2-dimensional kernel, u and w its basis), the trial
    reads L ∩ S from the restrictions of S's other generators to L
    (`_line_points`), with no Groebner basis.  Any other slicing (dependent
    slices, or S of codimension 2 or more past its linear generators) is
    solved chart by chart: the first chart x_c = 1, c = 0, 1, ..., whose
    system has an F_p-point gives the first point `_points` yields.

    The line route returns what the charts return.  With L ⊄ S the set
    L ∩ S is finite, so each chart system S + slices + (x_c − 1) is
    zero-dimensional, and its F_p-points are exactly the F_p-points of
    L ∩ S with x_c ≠ 0, scaled to x_c = 1.  On a zero-dimensional lex basis
    `_points` yields every F_p-point, in ascending order of (x_{n−1}, ...,
    x_0), so a chart returns None exactly when it has no such point, and
    else the least of them by that key.  The first chart to answer is
    therefore the least c where some point of L ∩ S has x_c ≠ 0, and its
    answer is the least of those points scaled to x_c = 1, which is what
    the line route returns.  With L ⊆ S every chart system is an affine
    line or empty; on the line `_points` meets a free variable, so no chart
    answers, and the line route gives no point either.
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
    key = S.ideal.key()
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    linear = [[g.terms.get(m, 0) for m in units] for g in S.ideal.gens if g.total_degree() == 1]
    others = [g for g in S.ideal.gens if g.total_degree() != 1]
    for trial in range(POINT_TRIALS):
        rng = ctx.rng("random-point", key, trial)
        rows = [[F.sample(rng) for _ in range(n)] for _ in range(dim)]
        line = kernel_basis(F, rows + linear, n)
        if len(line) == 2:
            points = _line_points(others, line[0], line[1], F)
            if points:
                return PointWitness(block=blk.name, coords=_first_in_charts(points, F))
            continue
        slices = [ring.from_terms(dict(zip(units, r))) for r in rows if any(r)]
        sliced = S.ideal.with_extra(slices)
        for chart in range(n):
            sol = _zero_dim_point(sliced.with_extra([ring.var_by_index(chart) - ring.one()]), ctx)
            if sol is not None:
                return PointWitness(block=blk.name, coords=tuple(sol.get(i, 0) for i in range(n)))
    return None

