"""Ideal-level operations: elimination, saturation, intersection, Hilbert data.

An Ideal is a ring plus a generator tuple.  All derived computations go
through an EngineContext, which owns the resource caps, the seeded RNG
streams for randomized reductions, an in-process memo, and (optionally)
the on-disk basis cache.

Every saturation ends in saturate_by_poly, the one saturation by a single
element: the divide-out of Bayer & Stillman for a linear form over a
homogeneous ideal, one 1 - u*g elimination otherwise.  saturate_block
saturates by a seeded random linear form of the block, and saturate by
one random combination of J's generators; both are Monte Carlo, exact
unless the random element lies in an associated prime it should avoid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import BasisCache, basis_request_key
from .fields import seeded_rng
from .groebner import (
    DEFAULT_CAPS,
    ResourceCaps,
    buchberger,
    normal_form,
)
from .linalg import kernel_basis
from .ring import (
    AmbientSpace,
    Block,
    BlockElimOrder,
    GrevlexOrder,
    MonomialOrder,
    PermutedGrevlexOrder,
    Poly,
    PolyRing,
    poly_str,
    substitute_all,
)


class IdealError(Exception):
    pass


class Ideal:
    """Finitely generated ideal in a PolyRing; zero generators are dropped."""

    __slots__ = ("ring", "gens", "_key")

    def __init__(self, ring: PolyRing, gens: Iterable[Poly]):
        clean = []
        for g in gens:
            if g.ring != ring:
                raise IdealError("generator lives in a different ring")
            if not g.is_zero():
                clean.append(g)
        # normalize to monic and dedupe, preserving first occurrence
        seen = set()
        uniq = []
        for g in clean:
            g = g.monic()
            if g not in seen:
                seen.add(g)
                uniq.append(g)
        self.ring = ring
        self.gens: Tuple[Poly, ...] = tuple(uniq)
        self._key = None

    @property
    def ambient(self) -> AmbientSpace:
        return self.ring.ambient

    def with_extra(self, extra: Iterable[Poly]) -> "Ideal":
        return Ideal(self.ring, self.gens + tuple(extra))

    def is_zero(self) -> bool:
        return not self.gens

    def is_multihomogeneous(self) -> bool:
        return all(g.is_multihomogeneous() for g in self.gens)

    def is_homogeneous(self) -> bool:
        """Homogeneous for the total grading."""
        for g in self.gens:
            degs = {sum(m) for m in g.terms}
            if len(degs) > 1:
                return False
        return True

    def gen_strs(self) -> List[str]:
        return [poly_str(g) for g in self.gens]

    def key(self) -> tuple:
        """The ring's key and the sorted printed generators; RNG tags hash its repr."""
        if self._key is None:
            self._key = (self.ring.key(), tuple(sorted(self.gen_strs())))
        return self._key

    def __repr__(self):
        return "Ideal(%d gens in %r)" % (len(self.gens), self.ring.ambient)


@dataclass
class EngineContext:
    """Caps + deterministic randomness + caching for one verification run."""

    caps: ResourceCaps = DEFAULT_CAPS
    cache: Optional[BasisCache] = None
    seed: int = 0
    _memo: Dict[tuple, List[Poly]] = dc_field(default_factory=dict, repr=False)
    # per memo key, the packed basis of each field width that normal_form used
    _packed: Dict[tuple, dict] = dc_field(default_factory=dict, repr=False)

    def rng(self, *tag) -> random.Random:
        return seeded_rng(self.seed, *tag)

    @staticmethod
    def _memo_key(ideal: Ideal, order: MonomialOrder) -> tuple:
        # the generator set, not its printed form: both name the same ideals,
        # and the set needs no printing
        return (ideal.ring.key(), frozenset(ideal.gens), order.name)

    def groebner(self, ideal: Ideal, order: Optional[MonomialOrder] = None) -> List[Poly]:
        """Reduced Groebner basis, memoized in-process and on disk."""
        ring = ideal.ring
        if order is None:
            order = GrevlexOrder(ring.nvars)
        memo_key = self._memo_key(ideal, order)
        hit = self._memo.get(memo_key)
        if hit is not None:
            return hit
        disk_key = None
        if self.cache is not None:
            disk_key = basis_request_key(ring, order.name, ideal.gen_strs())
            cached = self.cache.get(disk_key, ring)
            if cached is not None:
                self._memo[memo_key] = cached
                return cached
        basis = buchberger(ideal.gens, order, self.caps)
        self._memo[memo_key] = basis
        if self.cache is not None:
            self.cache.put(disk_key, [poly_str(b) for b in basis])
        return basis

    def nf(self, p: Poly, ideal: Ideal, order: Optional[MonomialOrder] = None) -> Poly:
        if order is None:
            order = GrevlexOrder(ideal.ring.nvars)
        basis = self.groebner(ideal, order)
        packed = self._packed.setdefault(self._memo_key(ideal, order), {})
        return normal_form(p, basis, order, self.caps, packed)


# ---------------------------------------------------------------------------
# membership / equality


def contains(ideal: Ideal, p: Poly, ctx: EngineContext) -> bool:
    if p.is_zero():
        return True
    return ctx.nf(p, ideal).is_zero()


def contains_ideal(big: Ideal, small: Ideal, ctx: EngineContext) -> bool:
    return all(contains(big, g, ctx) for g in small.gens)


def ideal_equal(a: Ideal, b: Ideal, ctx: EngineContext) -> bool:
    return contains_ideal(a, b, ctx) and contains_ideal(b, a, ctx)


def is_unit_ideal(ideal: Ideal, ctx: EngineContext) -> bool:
    basis = ctx.groebner(ideal)
    return any(b.is_constant() and not b.is_zero() for b in basis)


# ---------------------------------------------------------------------------
# ring plumbing: fresh auxiliary variables


def fresh_block_name(ambient: AmbientSpace, base: str) -> str:
    names = {b.name for b in ambient.blocks}
    name = base
    while name in names:
        name += "_"
    return name


def _with_aux_var(ring: PolyRing, base: str) -> Tuple[PolyRing, Poly, str]:
    """Extend by one affine auxiliary variable; return (ring, var, block name)."""
    name = fresh_block_name(ring.ambient, base)
    ext = ring.ambient.extend(Block(name, 1, projective=False))
    ring2 = PolyRing(ext, ring.field)
    return ring2, ring2.var(name + "0"), name


def _with_inverse(ideal: Ideal, g: Poly) -> Tuple[Ideal, str]:
    """I + (1 - u*g) in the ring with a fresh affine variable u, and u's block."""
    ring2, u, block = _with_aux_var(ideal.ring, "u")
    gens = [ring2.convert(h) for h in ideal.gens]
    gens.append(ring2.one() - u * ring2.convert(g))
    return Ideal(ring2, gens), block


# ---------------------------------------------------------------------------
# elimination


def eliminate(
    ideal: Ideal, drop_blocks: Sequence[str], ctx: EngineContext
) -> Ideal:
    """Intersect with the subring omitting the named blocks."""
    ring = ideal.ring
    order = BlockElimOrder.for_blocks(ring.ambient, drop_blocks)
    basis = ctx.groebner(ideal, order)
    drop_idx = set(order.elim)
    sub_ambient = ring.ambient.without(drop_blocks)
    sub_ring = PolyRing(sub_ambient, ring.field)
    keep_idx = [i for i in range(ring.nvars) if i not in drop_idx]
    kept = []
    for b in basis:
        if all(m[i] == 0 for m in b.terms for i in drop_idx):
            terms = {tuple(m[i] for i in keep_idx): c for m, c in b.terms.items()}
            kept.append(Poly(sub_ring, terms))
    return Ideal(sub_ring, kept)


# ---------------------------------------------------------------------------
# intersection and quotients


def intersect(a: Ideal, b: Ideal, ctx: EngineContext) -> Ideal:
    """a ∩ b via the one-variable trick: eliminate u from u*a + (1-u)*b."""
    if a.ring != b.ring:
        raise IdealError("intersection across different rings")
    ring = a.ring
    ring2, u, block = _with_aux_var(ring, "u")
    gens = [u * ring2.convert(g) for g in a.gens]
    one_minus_u = ring2.one() - u
    gens += [one_minus_u * ring2.convert(g) for g in b.gens]
    elim = eliminate(Ideal(ring2, gens), [block], ctx)
    return Ideal(ring, [ring.convert(g) for g in elim.gens])


def exact_div(p: Poly, g: Poly) -> Poly:
    """Quotient p/g when g divides p exactly; raises IdealError otherwise."""
    if g.is_zero():
        raise IdealError("division by the zero polynomial")
    ring = p.ring
    lg_m, lg_c = g.lead()
    inv_lg = ring.field.inv(lg_c)
    q = ring.zero()
    rem = p
    while not rem.is_zero():
        lm, lc = rem.lead()
        if any(a < b for a, b in zip(lm, lg_m)):
            raise IdealError("polynomial is not divisible")
        qm = tuple(a - b for a, b in zip(lm, lg_m))
        qt = ring.from_terms({qm: lc * inv_lg})
        q = q + qt
        rem = rem - qt * g
    return q


def quotient_by_poly(ideal: Ideal, g: Poly, ctx: EngineContext) -> Ideal:
    """Colon ideal (I : g) = (I ∩ (g)) / g.

    No library code calls it: the tests' iterated-colon oracle does, and
    perfbench/tracer.py wraps it by name.
    """
    if g.is_zero():
        raise IdealError("colon by zero")
    meet = intersect(ideal, Ideal(ideal.ring, [g]), ctx)
    return Ideal(ideal.ring, [exact_div(h, g) for h in meet.gens])


def _random_block_linear(ring: PolyRing, block: str, rng: random.Random) -> Poly:
    terms = {}
    for i in ring.ambient.block_range(block):
        m = [0] * ring.nvars
        m[i] = 1
        terms[tuple(m)] = ring.field.sample(rng)
    p = ring.from_terms(terms)
    if p.is_zero():
        return _random_block_linear(ring, block, rng)
    return p


def _linear_change(form: Poly) -> Tuple[str, Poly, Poly]:
    """(v, fwd, back) for a linear form ℓ whose last variable is v.

    Substituting fwd for v sends ℓ to v; substituting back for v undoes
    that substitution.
    """
    ring = form.ring
    support = sorted(form.variables())
    pivot = support[-1]
    pname = ring.ambient.varnames[pivot]
    coeffs = {i: form.coeff_of_var_power(i, 1).terms.get(ring._zero_mono) for i in support}
    c_p = coeffs[pivot]
    # fwd sends v_p to (v_p - sum_{i != p} c_i v_i)/c_p
    inv_cp = ring.field.inv(c_p)
    fwd = ring.var(pname).scale(inv_cp)
    back = ring.var(pname).scale(c_p)
    for i in support[:-1]:
        vi = ring.var_by_index(i)
        fwd = fwd - vi.scale(coeffs[i] * inv_cp)
        back = back + vi.scale(coeffs[i])
    return pname, fwd, back


def saturate_by_poly(ideal: Ideal, g: Poly, ctx: EngineContext) -> Ideal:
    """(I : g^∞), the one saturation by a single element.

    For a linear form g with no constant term and an ideal homogeneous in
    the total grading, this is the divide-out of Bayer & Stillman: a
    change of coordinates makes g its last variable v (a multiple of one
    variable needs none), and a basis under grevlex with v globally
    smallest, each element stripped of its v-power content, generates
    I : v^∞.  Anything else drops u from I + (1 - u*g) in one elimination.
    """
    if g.is_zero():
        raise IdealError("saturation by zero")
    ring = ideal.ring
    if any(sum(m) != 1 for m in g.terms) or not ideal.is_homogeneous():
        extended, block = _with_inverse(ideal, g)
        elim = eliminate(extended, [block], ctx)
        return Ideal(ring, [ring.convert(h) for h in elim.gens])
    support = sorted(g.variables())
    idx = support[-1]
    back = None
    moved = ideal
    if len(support) > 1:
        name, fwd, back = _linear_change(g)
        moved = Ideal(ring, substitute_all(ideal.gens, {name: fwd}))
    order = PermutedGrevlexOrder.with_last(ring.nvars, idx)
    sat = []
    for b in ctx.groebner(moved, order):
        power = min(m[idx] for m in b.terms)
        if power:
            b = Poly(ring, {m[:idx] + (m[idx] - power,) + m[idx + 1:]: c
                            for m, c in b.terms.items()})
        sat.append(b)
    if back is not None:
        sat = substitute_all(sat, {name: back})
    return Ideal(ring, sat)


def saturate_block(ideal: Ideal, block: str, ctx: EngineContext) -> Ideal:
    """Saturation by the irrelevant ideal of one block, (I : (v_0..v_k)^∞).

    Computed as saturate_by_poly(I, ℓ) for a seeded random linear form ℓ
    of the block (a block of one variable takes the variable): equal to
    the true block saturation with high probability (ℓ must avoid every
    associated prime that does not contain the whole block).
    """
    block_idx = ideal.ambient.block_range(block)
    if len(block_idx) == 1:
        form = ideal.ring.var_by_index(block_idx[0])
    else:
        form = _random_block_linear(ideal.ring, block, ctx.rng("saturate-block", block, ideal.key()))
    return saturate_by_poly(ideal, form, ctx)


def multisaturate(
    ideal: Ideal,
    ctx: EngineContext,
    blocks: Optional[Sequence[str]] = None,
) -> Ideal:
    """Saturate by the irrelevant ideal of every (listed) projective block."""
    if blocks is None:
        blocks = [b.name for b in ideal.ambient.projective_blocks]
    cur = ideal
    for b in blocks:
        cur = saturate_block(cur, b, ctx)
    return cur


def _equalize_multidegree(
    gens: Sequence[Poly], ctx: EngineContext, tag: tuple
) -> Optional[List[Poly]]:
    """Raise each generator to a common multidegree with random block-linear factors."""
    ring = gens[0].ring
    degs = [g.multidegree() for g in gens]
    if any(d is None for d in degs):
        return None
    target = {b.name: max(d[b.name] for d in degs) for b in ring.ambient.blocks}
    out = []
    for k, (g, d) in enumerate(zip(gens, degs)):
        for b in ring.ambient.blocks:
            deficit = target[b.name] - d[b.name]
            if deficit == 0:
                continue
            if not b.projective and b.size == 1:
                return None  # cannot homogeneously raise degree in an affine line
            rng = ctx.rng(*(tag + ("equalize", k, b.name)))
            for _ in range(deficit):
                g = g * _random_block_linear(ring, b.name, rng)
        out.append(g)
    return out


def saturate(ideal: Ideal, target: Ideal, ctx: EngineContext) -> Ideal:
    """(I : J^∞) for an arbitrary finitely generated J, as I : c^∞.

    c is J's generator when J has one, else a random combination of J's
    generators raised to a common multidegree, and saturate_by_poly takes
    it.  I : c^∞ contains I : J^∞, with equality unless c lies in an
    associated prime of I that does not contain J: a Monte Carlo result.
    No test on the result can detect that case, since the lost component
    is not associated to I : c^∞; and a further saturation by any h in J
    changes nothing, since every associated prime of I : c^∞ avoids c and
    so does not contain J (Cox, Little & O'Shea, ch. 4 §4).
    """
    if target.is_zero():
        raise IdealError("saturation by the zero ideal")
    gens = list(target.gens)
    if len(gens) == 1:
        return saturate_by_poly(ideal, gens[0], ctx)
    F = ideal.ring.field
    tag = ("saturate", ideal.key(), target.key())
    raised = _equalize_multidegree(gens, ctx, tag + (0,))
    rng = ctx.rng(*(tag + ("combo", 0)))
    combo = ideal.ring.zero()
    for g in raised if raised is not None else gens:
        combo = combo + g.scale(F.sample_nonzero(rng))
    return saturate_by_poly(ideal, combo, ctx)


# ---------------------------------------------------------------------------
# radical membership


def radical_member(p: Poly, ideal: Ideal, ctx: EngineContext) -> bool:
    """p ∈ √I, tested by forcing 1 - u*p to be a unit modulo I."""
    if p.is_zero():
        return True
    extended, _ = _with_inverse(ideal, p)
    return is_unit_ideal(extended, ctx)


def radical_contains_ideal(
    big: Ideal, small: Ideal, ctx: EngineContext
) -> bool:
    """small ⊆ √big, generator by generator."""
    return all(radical_member(g, big, ctx) for g in small.gens)


def radical_equal(a: Ideal, b: Ideal, ctx: EngineContext) -> bool:
    """√a = √b via mutual radical membership of generators."""
    return radical_contains_ideal(a, b, ctx) and radical_contains_ideal(b, a, ctx)


# ---------------------------------------------------------------------------
# Hilbert series data: dimension and degree


@dataclass(frozen=True)
class HilbertData:
    """Summary of the total-degree Hilbert series of R/I.

    dimension is the product-projective dimension (the Krull dimension of
    R/I minus one per projective block); degree is the numerator of the
    reduced series evaluated at 1.
    """

    dimension: int
    degree: int


def _poly1_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly1_add_shifted(a: List[int], b: List[int], shift: int) -> List[int]:
    n = max(len(a), shift + len(b))
    out = a + [0] * (n - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    return out


def _trim(a: List[int]) -> List[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _minimalize_monomials(leads: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    leads = sorted(set(leads), key=sum)
    out: List[Tuple[int, ...]] = []
    for m in leads:
        if not any(all(x <= y for x, y in zip(o, m)) for o in out):
            out.append(m)
    return out


def hilbert_numerator(leads: Sequence[Tuple[int, ...]], nvars: int) -> List[int]:
    """Numerator of the Hilbert series of R/(lead monomials) over (1-t)^nvars."""
    return _hilbert_rec(_minimalize_monomials(leads), nvars, {})


def _hilbert_rec(mons: List[Tuple[int, ...]], nvars: int,
                 memo: Dict[frozenset, Tuple[int, ...]]) -> List[int]:
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle, and its memo would live until the cyclic collector ran
    if not mons:
        return [1]
    if any(sum(m) == 0 for m in mons):
        return [0]
    key = frozenset(mons)
    hit = memo.get(key)
    if hit is not None:
        return list(hit)
    # pairwise-coprime monomials form a regular sequence: product formula
    supports = [tuple(i for i, e in enumerate(m) if e) for m in mons]
    flat = [i for s in supports for i in s]
    if len(flat) == len(set(flat)):
        acc = [1]
        for m in mons:
            acc = _poly1_mul(acc, _one_minus_t_pow(sum(m)))
        memo[key] = tuple(acc)
        return acc
    # pivot on the most shared variable
    counts = [0] * nvars
    for m in mons:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    v = max(range(nvars), key=lambda i: counts[i])
    # I + (v): generators divisible by v become redundant
    plus = _minimalize_monomials(
        [m for m in mons if m[v] == 0] + [_unit_at(nvars, v)]
    )
    # I : v -- drop one power of v where present
    colon = _minimalize_monomials([_dec_at(m, v) if m[v] else m for m in mons])
    n_plus = _hilbert_rec(plus, nvars, memo)
    n_colon = _hilbert_rec(colon, nvars, memo)
    acc = _trim(_poly1_add_shifted(n_plus, n_colon, 1))
    memo[key] = tuple(acc)
    return acc


def _one_minus_t_pow(d: int) -> List[int]:
    out = [0] * (d + 1)
    out[0] = 1
    out[d] = -1
    return out


def _unit_at(n: int, i: int) -> Tuple[int, ...]:
    lm = [0] * n
    lm[i] = 1
    return tuple(lm)


def _dec_at(m: Tuple[int, ...], i: int) -> Tuple[int, ...]:
    lm = list(m)
    lm[i] -= 1
    return tuple(lm)


def hilbert_data(ideal: Ideal, ctx: EngineContext) -> HilbertData:
    """Dimension and total-grading degree of R/I from the lead-term ideal.

    Requires I homogeneous in the total grading (so the series is the
    honest Hilbert series, not just a staircase statistic).
    """
    if not ideal.is_homogeneous():
        raise IdealError("hilbert data needs a homogeneous ideal")
    ring = ideal.ring
    nproj = len(ring.ambient.projective_blocks)
    leads = [b.lead()[0] for b in ctx.groebner(ideal)]
    num = hilbert_numerator(leads, ring.nvars)
    # cancel (1 - t) factors against the (1-t)^nvars denominator
    cancels = 0
    num = _trim(list(num))
    while len(num) > 1 or num[0] != 0:
        if sum(num) != 0:
            break
        # divide by (1 - t): q[i] = sum_{j<=i} num[j]
        q = []
        acc = 0
        for c in num[:-1]:
            acc += c
            q.append(acc)
        num = _trim(q if q else [0])
        cancels += 1
    if num == [0]:
        return HilbertData(dimension=-1, degree=0)
    krull = ring.nvars - cancels  # remaining denominator power = Krull dim of R/I
    return HilbertData(dimension=krull - nproj, degree=sum(num))


# ---------------------------------------------------------------------------
# linear part of an ideal inside one block


def linear_forms_in(
    ideal: Ideal, block: str, ctx: EngineContext
) -> List[Poly]:
    """Basis of the space of block-linear forms contained in the ideal."""
    ring = ideal.ring
    F = ring.field
    idx = list(ring.ambient.block_range(block))
    nfs = [ctx.nf(ring.var_by_index(i), ideal) for i in idx]
    monos = sorted({m for p in nfs for m in p.terms})
    rows = [[p.terms.get(m, F.zero) for p in nfs] for m in monos]
    forms = []
    for vec in kernel_basis(F, rows, len(idx)):
        acc = ring.zero()
        for c, i in zip(vec, idx):
            acc = acc + ring.var_by_index(i).scale(c)
        forms.append(acc)
    return forms
