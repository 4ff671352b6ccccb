"""The degeneration-specific layer: instance data (a smooth hypersurface
plus a twisting subspace family), the named schemes built from it, and
the certification routines the verification checks call into.

Coordinate conventions used throughout:
  t block (size 2): family parameter, affine t = t1/t0, so t=1 is (1:1),
      t=0 is (1:0), t=infinity is (0:1).
  z block (size 2): subspace parameter, affine z = z1/z0; the exceptional
      ("unsteady") z=0 is (1:0).
  x, y blocks (size n+2): source and target copies of P^{n+1}.
The twisted hyperplane combination is pi_x = z1*x0 + z0*x_{n+2-h}.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import FieldConfig
from .ideals import (
    EngineContext,
    Ideal,
    contains_ideal,
    eliminate,
    hilbert_data,
    ideal_equal,
    intersect,
    linear_forms_in,
    multisaturate,
    radical_equal,
    saturate,
    saturate_by_poly,
)
from .ring import AmbientSpace, Block, Poly, PolyRing, RingError
from .scheme import (
    RationalMapSpec,
    SchemeError,
    Subscheme,
    at_point,
    component_multiplicity,
    fiber,
    graph_closure,
    graph_minors,
    join,
    point_forms,
    random_point,
    union_certify,
    _zero_dim_point,
)


class ConeDataError(Exception):
    pass


@dataclass(frozen=True)
class ConeData:
    """One verification instance: dimensions, the hypersurface, the field."""

    n: int
    h: int
    f_text: str
    field_cfg: FieldConfig
    label: str = "custom"

    def __post_init__(self):
        if self.n < 2:
            raise ConeDataError("need n >= 2")
        if not 1 <= self.h <= self.n:
            raise ConeDataError("need 1 <= h <= n")
        try:
            f = self.f
        except RingError as exc:
            raise ConeDataError("f: %s" % exc)
        if f.is_zero() or not f.is_multihomogeneous():
            raise ConeDataError("f must be a nonzero homogeneous form in x0..x%d" % (self.nx - 1))

    # ambient spaces -------------------------------------------------------

    @property
    def nx(self) -> int:
        return self.n + 2  # x/y block size

    @property
    def pivot(self) -> int:
        """Index of the twisted coordinate x_{n+2-h}."""
        return self.n + 2 - self.h

    def ambient_master(self) -> AmbientSpace:
        return AmbientSpace.product(("t", 2), ("z", 2), ("x", self.nx), ("y", self.nx))

    def ambient_xy(self) -> AmbientSpace:
        return AmbientSpace.product(("x", self.nx), ("y", self.nx))

    def ambient_x(self) -> AmbientSpace:
        return AmbientSpace.product(("x", self.nx))

    def ambient_zx(self) -> AmbientSpace:
        return AmbientSpace.product(("z", 2), ("x", self.nx))

    def ring(self, ambient: AmbientSpace) -> PolyRing:
        return PolyRing(ambient, self.field_cfg.field())

    @cached_property
    def f(self) -> Poly:
        """f in the x ring, parsed once; every other ring converts it."""
        return self.ring(self.ambient_x()).parse(self.f_text)

    def f_in(self, ring: PolyRing) -> Poly:
        """f in the x block of `ring`."""
        return ring.convert(self.f)

    def f_deg(self) -> int:
        return self.f.total_degree()

    def section_form(self, ring: PolyRing, block: str, kept: Sequence[int]) -> Poly:
        """f restricted to the subspace where every x_i with i not in `kept`
        is 0, with the k-th kept coordinate renamed to the k-th variable of
        `block`."""
        zeroed = self.f.substitute({"x%d" % i: 0 for i in range(self.nx) if i not in kept})
        renames = {"x%d" % i: "%s%d" % (block, k) for k, i in enumerate(kept)}
        return ring.convert(zeroed, renames)


PRESETS: Dict[str, dict] = {
    "quadric-s2-h1": dict(n=2, h=1, f_text="x0*x3 - x1*x2"),
    "cubic-3f-h1": dict(n=3, h=1, f_text="x0^3 + x1^3 + x2^3 + x3^3 + x4^3"),
    "cubic-3f-h2": dict(n=3, h=2, f_text="x0^3 + x1^3 + x2^3 + x3^3 + x4^3"),
}


def preset(name: str, field_cfg: Optional[FieldConfig] = None) -> ConeData:
    if name not in PRESETS:
        raise ConeDataError("unknown preset %r (have: %s)" % (name, ", ".join(sorted(PRESETS))))
    cfg = field_cfg if field_cfg is not None else FieldConfig()
    return ConeData(field_cfg=cfg, label=name, **PRESETS[name])


# ---------------------------------------------------------------------------
# the one-parameter linear twist


def twist_map_spec(cd: ConeData, ring_tzx: Optional[PolyRing] = None) -> RationalMapSpec:
    """The rational map (t, z, x) -> twisted x, as graph-closure input."""
    ring = ring_tzx if ring_tzx is not None else cd.ring(
        AmbientSpace.product(("t", 2), ("z", 2), ("x", cd.nx))
    )
    t0, t1 = ring.block_vars("t")
    z0, z1 = ring.block_vars("z")
    x = ring.block_vars("x")
    p = cd.pivot
    forms = [t0 * z1 * x[0] + (t0 - t1) * z0 * x[p]]
    for i in range(1, p):
        forms.append(t0 * z1 * x[i])
    forms.append(t1 * z1 * x[p])
    for i in range(p + 1, cd.nx):
        forms.append(t1 * z1 * x[i])
    return RationalMapSpec(ring, Block("y", cd.nx), tuple(forms))


def projection_map_spec(cd: ConeData, ring_zx: Optional[PolyRing] = None) -> RationalMapSpec:
    """The z-twisted projection (z, x) -> first factor of the decomposition."""
    ring = ring_zx if ring_zx is not None else cd.ring(cd.ambient_zx())
    z0, z1 = ring.block_vars("z")
    x = ring.block_vars("x")
    p = cd.pivot
    forms = [z1 * x[0] + z0 * x[p]]
    for i in range(1, p):
        forms.append(z1 * x[i])
    return RationalMapSpec(ring, Block("y", cd.nx - cd.h), tuple(forms))


# ---------------------------------------------------------------------------
# named scheme builders


def graph_equations(cd: ConeData, ring: PolyRing) -> List[Poly]:
    """The explicit multihomogeneous system cutting the twist's graph
    closure in t x z x x x y (before saturation)."""
    t0, t1 = ring.block_vars("t")
    z0, z1 = ring.block_vars("z")
    x = ring.block_vars("x")
    y = ring.block_vars("y")
    p = cd.pivot
    m = cd.nx
    pix = z1 * x[0] + z0 * x[p]
    piy = z1 * y[0] + z0 * y[p]
    gens: List[Poly] = []
    for i in range(1, p):
        for j in range(i + 1, p):
            gens.append(x[i] * y[j] - x[j] * y[i])
    for i in range(p, m):
        for j in range(i + 1, m):
            gens.append(x[i] * y[j] - x[j] * y[i])
    for i in range(p, m):
        for j in range(1, p):
            gens.append(x[i] * y[j] * t1 - y[i] * x[j] * t0)
    for j in range(1, p):
        gens.append(pix * y[j] - piy * x[j])
    for j in range(p, m):
        gens.append(x[j] * piy * t1 - y[j] * pix * t0)
    return [g for g in gens if not g.is_zero()]


def build_fiber_product_scheme(cd: ConeData) -> Subscheme:
    """Closure of the doubled projection-from-e0 fiber product: the minors
    x_i*y_j - x_j*y_i with 1 <= i < j <= n+1."""
    ring = cd.ring(cd.ambient_xy())
    x = ring.block_vars("x")
    y = ring.block_vars("y")
    gens = [x[i] * y[j] - x[j] * y[i] for i in range(1, cd.nx) for j in range(i + 1, cd.nx)]
    return Subscheme(Ideal(ring, gens))  # (d): generic 2x2 minors


def diagonal_component_ideal(cd: ConeData, ring: PolyRing) -> Ideal:
    """Ideal of {t=1} x (z line) x (diagonal of the hypersurface)."""
    t0, t1 = ring.block_vars("t")
    x = ring.block_vars("x")
    y = ring.block_vars("y")
    gens = [t0 - t1]
    for i in range(cd.nx):
        for j in range(i + 1, cd.nx):
            gens.append(x[i] * y[j] - x[j] * y[i])
    gens.append(cd.f_in(ring))
    return Ideal(ring, gens)


@dataclass
class PencilReport:
    """First-order data of the twisted family along t at t=1."""

    first_order: Poly  # z-homogenized first expansion coefficient, in (z, x)
    nonzero: bool
    z_dependent: bool

    @property
    def degenerate(self) -> bool:
        return not (self.nonzero and self.z_dependent)


def expansion_pencil(cd: ConeData) -> PencilReport:
    """The t-derivative of f along the twist at t=1, as a pencil in z.

    In the decomposition coordinates it is (up to sign)
    x_{n+2-h} * df/dx_0 / z  -  sum_{i >= n+2-h} x_i * df/dx_i,
    cleared to the z-homogeneous  z0*A - z1*B  with
    A = x_{n+2-h} * df/dx_0 and B = sum x_i * df/dx_i.
    """
    ring = cd.ring(cd.ambient_zx())
    z0, z1 = ring.block_vars("z")
    x = ring.block_vars("x")
    f = cd.f_in(ring)
    p = cd.pivot
    x0 = ring.ambient.var_index("x0")
    A = x[p] * _partial(ring, f, x0)
    B = ring.zero()
    for i in range(p, cd.nx):
        B = B + x[i] * _partial(ring, f, x0 + i)
    pencil = z0 * A - z1 * B
    nonzero = not pencil.is_zero()
    if A.is_zero() or B.is_zero():
        z_dep = False
    else:
        z_dep = A.monic() != B.monic()
    return PencilReport(first_order=pencil, nonzero=nonzero, z_dependent=z_dep)


@dataclass
class GenericityReport:
    hypersurface_smooth: bool
    section_h_smooth: bool
    section_rest_smooth: bool
    pencil: PencilReport
    # hard gate: smooth hypersurface + nondegenerate pencil
    rejected: bool
    notes: List[str] = dc_field(default_factory=list)


def _section_smooth(cd: ConeData, kept: Sequence[int], ctx: EngineContext) -> bool:
    """Smoothness of f restricted to the subspace of the kept coordinates."""
    ring = cd.ring(AmbientSpace.product(("x", len(kept))))
    g = cd.section_form(ring, "x", kept)
    if g.is_zero():
        return False
    gens = [g]
    for i in range(len(kept)):
        gens.append(_partial(ring, g, i))
    return hilbert_data(Ideal(ring, gens), ctx).dimension < 0


def _partial(ring: PolyRing, g: Poly, idx: int) -> Poly:
    out = {}
    for m, c in g.terms.items():
        e = m[idx]
        if e:
            nm = list(m)
            nm[idx] = e - 1
            key = tuple(nm)
            out[key] = out.get(key, 0) + c * e
    return ring.from_terms(out)


def certify_genericity(cd: ConeData, ctx: EngineContext) -> GenericityReport:
    """Gate the instance: the hypersurface must be smooth and the twist's
    first-order behaviour nondegenerate; the two plane sections are
    checked and recorded but only noted when they fail."""
    smooth = _section_smooth(cd, range(cd.nx), ctx)
    sec_h = _section_smooth(cd, list(range(cd.pivot)), ctx)
    sec_rest = _section_smooth(cd, [0] + list(range(cd.pivot, cd.nx)), ctx)
    pencil = expansion_pencil(cd)
    notes = []
    if not sec_h:
        notes.append("codim-h plane section is singular or degenerate")
    if not sec_rest:
        notes.append("complementary plane section is singular or degenerate")
    # small characteristics dividing deg f break the multiplicity accounting
    bad_char = False
    p = cd.field_cfg.field().p
    if p and cd.f_deg() % p == 0:
        bad_char = True
        notes.append("field characteristic divides the hypersurface degree")
    return GenericityReport(
        hypersurface_smooth=smooth,
        section_h_smooth=sec_h,
        section_rest_smooth=sec_rest,
        pencil=pencil,
        rejected=(not smooth) or pencil.degenerate or bad_char,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# lazily built scheme collection


class ConeSchemes:
    """Shared, lazily computed schemes for one instance + engine context."""

    def __init__(self, cd: ConeData, ctx: EngineContext):
        self.cd = cd
        self.ctx = ctx
        self._cache: Dict[str, object] = {}

    def _get(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def omega(self) -> Subscheme:
        """The twist's graph closure from its explicit equations E, saturated
        in every block by random forms.  No check reads it: omega-consistency
        and `projected_fiber_matches_fiber_product` read E itself (cases (l)
        and (d)), and sigma is built from E (see `sigma`).  Like `theta`, it
        stays because perfbench/tracer.py looks it up by name."""

        def build():
            ring = self.cd.ring(self.cd.ambient_master())
            return Subscheme.saturated(Ideal(ring, graph_equations(self.cd, ring)), self.ctx)

        return self._get("omega", build)

    @property
    def omega_from_map(self) -> Subscheme:
        """The same scheme, independently, as a rational-map graph closure."""
        return self._get("omega_map", lambda: graph_closure(twist_map_spec(self.cd), self.ctx))

    @property
    def sigma(self) -> Ideal:
        """E + f(x) + f(y), E the bare `graph_equations`, unsaturated, like
        operator_ideal.

        omega is E : M^∞, M = m_t·m_z·m_x·m_y the product of the blocks'
        irrelevant ideals, so sigma ⊆ omega + f(x) + f(y) ⊆ sigma : M^∞, and
        no reader needs omega's four random saturations: theta saturates by
        M; prop-2-6 saturates by K ⊆ M (see cone_family_end), and g·M^N ⊆
        sigma gives g·K^N ⊆ sigma; prop-2-1 reads sigma's t = 1 fibre by
        case (j) of `Subscheme` (see verify_diagonal_is_component)."""

        def build():
            ring = self.cd.ring(self.cd.ambient_master())
            fx = self.cd.f_in(ring)
            fy = self.cd.section_form(ring, "y", range(self.cd.nx))
            return Ideal(ring, graph_equations(self.cd, ring) + [fx, fy])

        return self._get("sigma", build)

    @property
    def diagonal_part(self) -> Subscheme:
        """P, the prime of {t = 1} x (z line) x {x ∝ y, [x] ∈ X}: the
        diagonal ideal D0 = (t0 - t1) + I2(x, y) + f(x) saturated by x0.

        R/I2 is a Cohen-Macaulay domain (Eagon & Northcott, Proc. Roy. Soc.
        A 269, 1962), and f(x) is a nonzerodivisor on it (I2 lives in
        bidegree (1, 1)), so D0 is unmixed with two minimal primes: P and
        (t0 - t1) + m_x.  D0 is reduced along P, since the genericity gate
        certifies X smooth, so D0 = P ∩ Q with Q primary to (t0 - t1) + m_x.
        P meets k[x] in (f) and deg f >= 2, so no nonzero linear x-form ℓ
        lies in P, while ℓ lies in √Q: D0 : ℓ^∞ = P for every nonzero
        linear x-form ℓ, so x0 serves and no form is drawn.  P is a prime
        that contains no m_b, so P : m_b^∞ = P for every block b.  D0 itself
        is not saturated: it holds f(y)·m_x^deg(f), not f(y)."""

        def build():
            D0 = diagonal_component_ideal(self.cd, self.cd.ring(self.cd.ambient_master()))
            return Subscheme(saturate_by_poly(D0, D0.ring.var("x0"), self.ctx))

        return self._get("diag", build)

    @property
    def theta(self) -> Subscheme:
        """sigma saturated in every block, then by the diagonal part:
        (sigma : M^∞) : diag^∞, the same ideal whether sigma is built from E
        or from omega (see `sigma`).  No check reads it (see
        cone_family_end); the oracle tests compare with it, and
        perfbench/tracer.py looks it up by name."""
        return self._get("theta", lambda: Subscheme(saturate(
            multisaturate(self.sigma, self.ctx), self.diagonal_part.ideal, self.ctx)))

    @property
    def projection_graph(self) -> Subscheme:
        return self._get(
            "proj_graph", lambda: graph_closure(projection_map_spec(self.cd), self.ctx)
        )

    @property
    def operator_ideal(self) -> Ideal:
        def build():
            G = self.projection_graph
            ring = G.ring
            fx = self.cd.f_in(ring)
            fy = self.cd.section_form(ring, "y", range(self.cd.pivot))
            return G.ideal.with_extra([fx, fy])

        return self._get("operator_ideal", build)


# ---------------------------------------------------------------------------
# verification computations


def _inside_or_equal(A: Ideal, B: Ideal, ctx: EngineContext) -> Optional[bool]:
    """True when A = B, False when A ⊄ B, None when A ⊊ B."""
    if not contains_ideal(B, A, ctx):
        return False
    return True if contains_ideal(A, B, ctx) else None


def verify_graph_consistency(schemes: ConeSchemes) -> Tuple[Optional[bool], Ideal, Ideal]:
    """Whether E, the explicit equation system, cuts the map-graph closure
    G (exact by case (a) of `Subscheme`), decided by case (l): True when
    E = G, False when E ⊄ G (an equation does not vanish on the graph),
    None when E ⊊ G, which only a saturation of E could decide; and E, G."""
    ctx = schemes.ctx
    G = schemes.omega_from_map.ideal
    E = Ideal(G.ring, graph_equations(schemes.cd, G.ring))
    return _inside_or_equal(E, G, ctx), E, G


def projected_fiber_matches_fiber_product(schemes: ConeSchemes) -> bool:
    """The graph's fiber over (t, z) = (1, unsteady), projected to x x y,
    equals the r=0 fiber-product scheme.  Read from E, the bare graph
    equations, which are the closure where omega-consistency passes (case
    (l)): E at the point is, term for term, the minors x_i·y_j - x_j·y_i,
    1 <= i < j <= n+1, a prime with no m_b (case (d)), so no saturation."""
    cd = schemes.cd
    ring = cd.ring(cd.ambient_master())
    fib = at_point(Ideal(ring, graph_equations(cd, ring)), {"t": (1, 1), "z": (1, 0)})
    return ideal_equal(fib, build_fiber_product_scheme(cd).ideal, schemes.ctx)


def sigma_fiber(schemes: ConeSchemes) -> Subscheme:
    """S, sigma at t = 1 in z x x x y, unsaturated: the bare graph equations
    with f(x) and f(y) at t = 1, with no block saturation and no random
    form.  S is the S0 of case (j) of `Subscheme`, so prop-2-1 reads it as
    it reads the fully saturated fibre (see verify_diagonal_is_component),
    though S is not saturated itself: at x = 0 only f(y) survives, and
    S : m_x^∞ is larger than S."""
    return Subscheme(at_point(schemes.sigma, {"t": (1, 1)}))  # (j)


def verify_diagonal_is_component(schemes: ConeSchemes) -> Optional[Tuple[Tuple[int, int], ...]]:
    """(dim, deg) of S and C, the t = 1 fibres of sigma and of the diagonal
    part (as for the cuts by t0 - t1: R/(J + (t0 - t1)) is (R'/J(1))[t0]);
    None when V(C) is not in V(S).  C is irreducible, as the genericity gate
    certifies X smooth, so equal pairs certify C as the only top-dimensional
    component of S, with multiplicity 1: deg S sums length times degree over
    the top-dimensional components.

    C = at_point(P, t = 1) for the prime P of `diagonal_part` = (t0 - t1) +
    P', P' in k[z, x, y], so C = P' is prime and contains no m_b: it needs
    no saturation.  dim R/C = n + 4, as V(C) = P^1 x Δ_X.  S is S0 =
    at_point(graph equations + f(x) + f(y), t = 1) of case (j) of
    `Subscheme`.  Every graph equation is bilinear in x and y, so the
    irrelevant loci of S0 have Krull dimension at most n + 3:
      x = 0: only f(y) survives, in k[z, y];
      y = 0: only f(x) survives, in k[z, x];
      z = 0: the minors x_i·y_j - x_j·y_i, 1 <= i < j <= n+1, survive with
        f(x) and f(y); the minors cut a Cohen-Macaulay domain of dimension
        n + 4 in k[x, y], on which f(x) is a nonzerodivisor (e0 ∈ X or not).
    So prop-2-1 reads S as it reads the fully saturated fibre S0 : m^∞, and
    needs no saturation of S.  As C is prime, √C = C, so V(C) ⊆ V(S) is
    S ⊆ C: one basis of C and a normal form per generator of S, where a
    radical test would compute one basis per generator."""
    ctx = schemes.ctx
    S, C = sigma_fiber(schemes), Subscheme(at_point(schemes.diagonal_part.ideal, {"t": (1, 1)}))
    if not contains_ideal(C.ideal, S.ideal, ctx):
        return None
    return tuple((T.dimension(ctx), T.degree(ctx)) for T in (S, C))


@dataclass
class CoveringReport:
    expected: int
    counts: List[int]
    parameters: List[Tuple[int, int]]  # the steady z = (z0 : z1) of each sample
    points: List[Tuple[int, ...]]

    @property
    def agree(self) -> bool:
        return bool(self.counts) and all(c == self.expected for c in self.counts)


def _value_at(form: Poly, coords: Sequence) -> object:
    """Value of a form in the bare x ring at a point given by its coordinates."""
    const = form.substitute({"x%d" % i: c for i, c in enumerate(coords)})
    # a constant polynomial has at most one term
    return next(iter(const.terms.values()), form.ring.field.zero)


# the number of fibres w-covering counts
COVERING_SAMPLES = 3


def projection_centre(cd: ConeData, z: Tuple[int, int]) -> List[int]:
    """c_z = (z0 : 0 : ... : 0 : -z1), -z1 at the pivot: the base locus of
    pi_z for h = 1."""
    return [z[0]] + [0] * (cd.pivot - 1) + [-z[1]]


def covering_draws(cd: ConeData, ctx: EngineContext):
    """The samples `covering_degree_report` reads, drawn lazily: for draw k
    a random steady z, a random point of X, pi_z with X as its source, and
    the point's image.  A draw with no point, or whose point is c_z, yields
    nothing."""
    ring_x = cd.ring(cd.ambient_x())
    F = ring_x.field
    X = Subscheme(Ideal(ring_x, [cd.f_in(ring_x)]))  # (b)
    twisted = projection_map_spec(cd)
    for k in range(COVERING_SAMPLES * 6):
        rng = ctx.rng("w-covering", k)
        z = (F.sample_nonzero(rng), F.sample_nonzero(rng))
        at_z = {"z0": twisted.source_ring.const(z[0]), "z1": twisted.source_ring.const(z[1])}
        forms = tuple(ring_x.convert(g.substitute(at_z)) for g in twisted.forms)
        probe_ctx = EngineContext(caps=ctx.caps, cache=ctx.cache, seed=ctx.seed + 1000 + k)
        pt = random_point(X, probe_ctx)
        if pt is None:
            continue
        image = [_value_at(g, pt.coords) for g in forms]
        if any(image):  # else the sample is the centre itself
            yield z, pt.coords, RationalMapSpec(X, twisted.target_block, forms), image


def covering_degree_report(cd: ConeData, ctx: EngineContext) -> Optional[CoveringReport]:
    """Fibre lengths of the z-twisted projection pi_z restricted to X.

    For h = 1 the first-order pencil factors as
    x_{n+1} * (z0*df/dx_0 - z1*df/dx_{n+1}): the second factor is the polar
    of X with respect to the centre c_z = (z0 : 0 : ... : 0 : -z1) of pi_z,
    so the first-order locus is the plane section plus the ramification
    divisor of pi_z: X -> P^n.  Each sample draws a random steady z, takes
    the graph of pi_z with X as its source and reads the length of its
    fibre over pi_z of a random point of X (`covering_draws`).  The base
    locus of pi_z is c_z alone.  When f(c_z) != 0 the graph is the bare
    ideal f + the 2x2 minors (`graph_minors`): by case (n) of `Subscheme`
    its fibre has the same saturation as the closure's, and no saturation
    or random form is needed.  When c_z lies on X the graph is the closure,
    where f is imposed before the base locus is saturated away, so c_z
    itself is never counted.  The fibre is read unsaturated: it lives in
    the x block alone, where (h) of `Subscheme` gives the saturation's
    dimension and degree, or dimension -1 when the fibre is empty.

    Returns None when not enough rational sample points were found.
    """
    if cd.h != 1:
        raise ConeDataError("the projection centre is a point only for h = 1")
    counts: List[int] = []
    params: List[Tuple[int, int]] = []
    pts: List[Tuple[int, ...]] = []
    for z, point, spec, image in covering_draws(cd, ctx):
        f = spec.source_gens[0]
        if _value_at(f, projection_centre(cd, z)):
            graph = graph_minors(spec)  # (n)
        else:
            graph = graph_closure(spec, ctx).ideal
        hd = hilbert_data(at_point(graph, {"y": image}), ctx)
        if hd.dimension != 0:
            continue  # degenerate sample: fiber not finite
        counts.append(hd.degree)
        params.append(z)
        pts.append(point)
        if len(counts) == COVERING_SAMPLES:
            return CoveringReport(expected=cd.f_deg(), counts=counts, parameters=params, points=pts)
    return None


@dataclass
class FamilyEndResult:
    support: Subscheme  # in the final y-block copy of P^{n+1}
    dominance_residual: Ideal  # in the t-block; must be zero for validity
    dominant: bool


def cone_family_end(schemes: ConeSchemes, point: Sequence) -> FamilyEndResult:
    """End of the one-parameter family through delta, the point p = `point`
    of the source copy: intersect the moved family with delta, keep only the
    part dominating the t-line, specialize t to 0, project to the target copy.

    The moved family (theta + delta) : K^∞, K = t1·(t0 - t1)·t0·m_z·m_x·m_y,
    equals (sigma + delta) : K^∞: with M the product of the blocks'
    irrelevant ideals, sigma ⊆ theta ⊆ sigma : (M·diag)^∞, and
    K ⊆ √(M·diag) since t0 - t1 ∈ diag and K lies in every m_b.  That is
    (sigma(p) : K'^∞) + delta, K' = t1·(t0 - t1)·t0·m_z·m_y, sigma(p) =
    at_point(sigma, x = p) in R' = t x z x y: modulo delta each x_i is a
    multiple of x_k (p_k != 0), a nonzerodivisor on (R'/sigma(p))[x_k].  So
    the x block never enters the computation.  sigma is built from the
    bare graph equations E, not from omega (see `sigma`); theta is still
    (sigma : M^∞) : diag^∞, so sigma ⊆ theta ⊆ sigma : (M·diag)^∞ holds
    as stated.

    The end fibre at t = 0 keeps its z saturation.  sat_all is saturated
    in z, but its cut at t = 0 need not be, and m_z ∩ k[y] = 0: a component
    of the fibre on z0 = z1 = 0, primary to m_z + P_y with P_y ⊆ k[y],
    would survive the elimination of z as a component V(P_y) of the
    support, all of P^{n+1} when P_y = 0, though no point of the family
    lies over it.  No proof that the cut has no such component is known.
    """
    ctx = schemes.ctx
    moved = at_point(schemes.sigma, {"x": point})
    t0, t1 = moved.ring.block_vars("t")
    # drop the parts sitting inside the three distinguished parameter fibers;
    # (e): t1, t0 - t1 and t0 lie in m_t, so what is left is m_t-saturated
    for form in (t1, t0 - t1, t0):
        moved = saturate_by_poly(moved, form, ctx)
    # certify what is left dominates the parameter line
    sat_all = multisaturate(moved, ctx, blocks=["z", "y"])
    residual = eliminate(sat_all, ["z", "y"], ctx)
    dominant = not residual.gens
    # (k): the support is y-saturated after z is eliminated, so the end
    # fibre needs its z saturation only
    fib = multisaturate(at_point(sat_all, {"t": (1, 0)}), ctx, blocks=["z"])
    support = Subscheme.saturated(eliminate(fib, ["z"], ctx), ctx)
    return FamilyEndResult(support=support, dominance_residual=residual, dominant=dominant)


def operator_correspondence(schemes: ConeSchemes, delta_y: Ideal) -> Ideal:
    """The correspondence Gamma_delta in z x x x y: the operator ideal cut
    down to delta (given in the target subspace coordinates
    y0..y_{n+1-h}), saturated in the z and y blocks."""
    I = schemes.operator_ideal
    ring = I.ring
    combined = I.with_extra([ring.convert(g) for g in delta_y.gens])
    return multisaturate(combined, schemes.ctx, blocks=["z", "y"])


def cone_operator_image(gamma: Ideal, ctx: EngineContext) -> Subscheme:
    """Image in the x copy of the correspondence Gamma_delta (see
    operator_correspondence): its scheme-theoretic image, which forgets the
    degree of Gamma_delta over it (see pushforward_degree)."""
    return Subscheme.saturated(eliminate(gamma, ["z", "y"], ctx), ctx)


def pushforward_degree(gamma: Ideal, image: Subscheme, ctx: EngineContext) -> Optional[int]:
    """Degree of the projection gamma -> image onto the x block, i.e. the
    factor by which the cycle pushforward exceeds the scheme-theoretic image.

    Read as the least fibre length over random image points: where the
    fibres are finite their length is upper semicontinuous, so the least
    sampled length is the generic one.  None when no sampled fibre is finite.
    Only fibres over x-points are read, so gamma need not be saturated in
    the x block ((g) of `Subscheme`); each fibre, in z x y, is saturated.
    """
    lengths: List[int] = []
    for k in range(2):
        probe_ctx = EngineContext(caps=ctx.caps, cache=ctx.cache, seed=ctx.seed + 2000 + k)
        pt = random_point(image, probe_ctx)
        if pt is None:
            continue
        hd = fiber(gamma, {"x": pt.coords}, ctx).hilbert(ctx)
        if hd.dimension == 0:
            lengths.append(hd.degree)
    return min(lengths) if lengths else None


@dataclass
class SplitReport:
    certified: Optional[bool]  # None: undecided (see verify_split_components)
    gamma_dim_ok: bool
    mult_diag: Optional[Fraction]
    mult_special: Optional[Fraction]
    dims: Tuple[int, int]


def split_components(cd: ConeData, ring: PolyRing) -> Tuple[List[Poly], Subscheme, Subscheme]:
    """The cut x_{n+2-h} = ... = x_{n+1} = 0 of the projection graph's ring
    and the two components expected in it: gamma1, the cut with the 2x2
    minors of x, y in indices 0..n+1-h, and gamma2, z1 with the cut and the
    minors in indices 1..n+1-h."""
    x = ring.block_vars("x")
    y = ring.block_vars("y")
    z1 = ring.block_vars("z")[1]
    p = cd.pivot
    cut = [x[i] for i in range(p, cd.nx)]
    g1_gens = list(cut)
    for i in range(0, p):
        for j in range(i + 1, p):
            g1_gens.append(x[i] * y[j] - x[j] * y[i])
    g2_gens = [z1] + list(cut)
    for i in range(1, p):
        for j in range(i + 1, p):
            g2_gens.append(x[i] * y[j] - x[j] * y[i])
    return cut, Subscheme(Ideal(ring, g1_gens)), Subscheme(Ideal(ring, g2_gens))  # (d)


def verify_split_components(schemes: ConeSchemes) -> SplitReport:
    """The projection graph restricted to the smaller source subspace
    splits into the parameter-line diagonal piece and the unsteady-fiber
    piece, both reduced of the right dimension.

    gamma1 and gamma2 are distinct primes with no m_b, case (d); z1 lies in
    gamma2 and not in gamma1, and x0*y1 - x1*y0 in gamma1 and not in
    gamma2.  So case (m) decides from the cut graph G + cut and gamma1 ∩
    gamma2, with no saturation and no draw: equal certifies the union and
    both multiplicities 1 (certified True), not inside misses a component
    (False), and strictly inside is left open (None, multiplicities None).

    The dominance pattern over the z line holds by construction, so
    check_split_components writes it and nothing computes it: gamma1 is
    generated in k[x, y], so it meets k[z] in (0) and dominates the line;
    gamma2 is (z1) plus an ideal of k[x, y], so it meets k[z] in (z1) and
    lies over z = 0 only."""
    cd, ctx = schemes.cd, schemes.ctx
    G = schemes.projection_graph
    cut, gamma1, gamma2 = split_components(cd, G.ring)
    certified = _inside_or_equal(G.ideal.with_extra(cut),
                                 intersect(gamma1.ideal, gamma2.ideal, ctx), ctx)
    m1 = m2 = Fraction(1) if certified else None  # (m)
    want = cd.n + 2 - cd.h
    d1, d2 = gamma1.dimension(ctx), gamma2.dimension(ctx)
    return SplitReport(
        certified=certified,
        gamma_dim_ok=d1 == want and d2 == want,
        mult_diag=m1,
        mult_special=m2,
        dims=(d1, d2),
    )


@dataclass
class OperatorDegreeReport:
    total_degree: int
    pushforward_degree: Optional[int]
    # the part of the intersection off delta, when it has a component of
    # dimension > dim delta (the intersection is then improper)
    excess: Optional[Subscheme] = None
    delta_multiplicity: Optional[Fraction] = None
    residual_degree: int = 0
    residual_in_plane_section: Optional[bool] = None
    split_ok: bool = False
    witness: Optional[str] = None


def _delta_in_x(cd: ConeData, delta_y: Ideal, ring: PolyRing) -> List[Poly]:
    """delta, given in the plane section's coordinates y0..y_{n+1-h}, as
    generators in the x block of `ring`: each y_i renamed x_i, and the
    section's equations x_{n+2-h} = ... = x_{n+1} = 0 appended."""
    renames = {"y%d" % i: "x%d" % i for i in range(cd.pivot)}
    x = ring.block_vars("x")
    return [ring.convert(g, renames) for g in delta_y.gens] + x[cd.pivot:]


def verify_operator_degree_split(
    schemes: ConeSchemes, delta_y: Ideal
) -> OperatorDegreeReport:
    """Intersect the operator image with the codim-h plane section and
    split it into the delta part (expected multiplicity deg f) and a
    residual supported in a linear section.

    The multiplicity is only defined when the intersection is proper; when
    it has a component of dimension > dim delta, that component is returned
    as `excess` and nothing is split.

    Gamma_delta is built once; the image and the pushforward degree both
    read it.  S, the image cut by the plane section, is read unsaturated,
    by case (i) of `Subscheme`: through its dimension and degree, radicals,
    and saturations by D and the residual, both inside m_x; delta keeps
    the cut nonempty.
    D is delta's linear ideal in x, case (c) of `Subscheme`.  It leaves f
    out: delta lies in the plane section V^h ⊆ X, so f is in I(delta), and
    with f among D's generators the random combination that saturates S by
    D would have degree deg f, not 1, and take the 1 - u*g route."""
    cd, ctx = schemes.cd, schemes.ctx
    gamma = operator_correspondence(schemes, delta_y)
    img = cone_operator_image(gamma, ctx)
    push = pushforward_degree(gamma, img, ctx)
    ring = img.ring
    x = ring.block_vars("x")
    p = cd.pivot
    cut = [x[i] for i in range(p, cd.nx)]
    S = Subscheme(img.ideal.with_extra(cut))  # (i)
    D = Subscheme(Ideal(ring, _delta_in_x(cd, delta_y, ring)))  # (c)
    # (e): the generators of D are x-forms, so every combination lies in m_x
    res_scheme = Subscheme(saturate(S.ideal, D.ideal, ctx))
    report = OperatorDegreeReport(total_degree=S.degree(ctx), pushforward_degree=push)
    if S.dimension(ctx) > D.dimension(ctx):
        # a component of dimension > dim delta is not inside delta, so it
        # survives the saturation by delta
        report.excess = res_scheme
        return report
    res_h = res_scheme.hilbert(ctx)
    report.residual_degree = res_h.degree if res_h.dimension >= 0 else 0
    others = [res_scheme] if res_h.dimension >= 0 else []
    report.split_ok = union_certify(S, [D] + others, ctx)
    try:
        report.delta_multiplicity = component_multiplicity(S, D, others, ctx)
    except SchemeError as exc:
        report.witness = str(exc)
    if res_h.dimension >= 0:
        # codimension of the residual inside the ambient projective space
        need = (cd.nx - 1) - res_h.dimension - 1  # linear forms to pin a plane of dim+1
        forms = linear_forms_in(res_scheme.ideal, "x", ctx)
        report.residual_in_plane_section = len(forms) >= max(need, 0)
    return report


def verify_image_in_linear_section(
    schemes: ConeSchemes, point: Sequence, codim: int
) -> Tuple[bool, Ideal]:
    """Push delta, the point `point` of the source copy, through the r=0
    correspondence E0 and certify the image's support sits inside a linear
    section of matching codimension.  The image, (E0 + delta) : m_x^∞ with
    x eliminated, is E0 at x = point (see at_point), as its reduced basis."""
    img = at_point(build_fiber_product_scheme(schemes.cd).ideal, {"x": point})
    forms = linear_forms_in(img, "y", schemes.ctx)
    return len(forms) >= codim, Ideal(img.ring, schemes.ctx.groebner(img))


def join_support_matches_operator(
    schemes: ConeSchemes, delta_y: Ideal
) -> Tuple[bool, Subscheme, Subscheme]:
    """Operator image of delta vs the hypersurface sliced with the join of
    (delta inside projective space) and the twist line: same support."""
    cd, ctx = schemes.cd, schemes.ctx
    img = cone_operator_image(operator_correspondence(schemes, delta_y), ctx)
    ring_x = cd.ring(cd.ambient_x())
    x = ring_x.gens()
    p = cd.pivot
    delta_big = Subscheme(Ideal(ring_x, _delta_in_x(cd, delta_y, ring_x)))  # (c)
    # the twist line: closure of the span of e0 and the pivot directions
    line_gens = [x[i] for i in range(1, cd.nx) if i != p]
    if cd.h != 1:
        raise ConeDataError("join comparison is defined for h = 1")
    line = Subscheme(Ideal(ring_x, line_gens))  # (c)
    joined = join(delta_big, line)
    sliced = Subscheme.saturated(
        joined.ideal.with_extra([cd.f_in(ring_x)]), ctx
    )
    same = radical_equal(img.ideal, sliced.ideal, ctx)
    return same, img, sliced


# ---------------------------------------------------------------------------
# concrete delta builders


def delta_point_on(S: Subscheme, ctx: EngineContext) -> Optional[Ideal]:
    """Ideal of one rational point of S, in S's own ring."""
    pt = random_point(S, ctx)
    if pt is None:
        return None
    return Ideal(S.ring, point_forms(S.ring, pt.block, pt.coords))


def line_on_surface(S: Subscheme, ctx: EngineContext) -> Optional[Ideal]:
    """A line contained in a hypersurface S = V(g) in P^3, or None.

    Searches lines of the shape {v_i - a*v_j = v_k - b*v_l = 0} over all
    coordinate pairings.  Such a line lies on S iff every coefficient of
    g(a*s, s, b*t, t), a form in (s, t), vanishes at (a, b); that system is
    solved over the prime field with a lex basis, smallest a first, then
    smallest b.  Sufficient for the diagonal-type surfaces used in the
    preset scenarios; returns None when no such line exists.
    """
    ring = S.ring
    F = ring.field
    if ring.nvars != 4 or len(S.ideal.gens) != 1 or not F.p:
        return None
    g = S.ideal.gens[0]
    # a is the last variable, so the solver tries its values first
    work = PolyRing(AmbientSpace.product(("b", 1), ("a", 1), affine=("b", "a")), F)
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    for (i, j), (k, l) in pairings:
        # the term c*v^m of g contributes c * b^m_k * a^m_i to the
        # coefficient of s^(m_i + m_j) * t^(m_k + m_l)
        coeffs: Dict[Tuple[int, int], Dict] = {}
        for m, c in g.terms.items():
            coeffs.setdefault((m[i] + m[j], m[k] + m[l]), {})[(m[k], m[i])] = c
        sol = _zero_dim_point(Ideal(work, [work.from_terms(t) for t in coeffs.values()]), ctx)
        if sol is not None:
            v = ring.gens()
            return Ideal(ring, [v[i] - v[j].scale(sol[1]), v[k] - v[l].scale(sol[0])])
    return None


def section_scheme(cd: ConeData) -> Subscheme:
    """The codim-h plane section of the hypersurface, inside its own
    projective subspace x_{n+2-h} = ... = x_{n+1} = 0."""
    ring = cd.ring(AmbientSpace.product(("y", cd.pivot)))
    g = cd.section_form(ring, "y", range(cd.pivot))
    return Subscheme(Ideal(ring, [g]))  # (b)
