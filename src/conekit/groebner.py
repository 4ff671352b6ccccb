"""Buchberger's algorithm with the Gebauer-Moeller pair update, on packed monomials.

The public functions take and return the sparse Poly type.  Inside one run
of `buchberger`, `normal_form` or `is_groebner_basis` each monomial is a
single Python int (Monagan & Pearce, "Sparse polynomial division using a
heap", JSC 2011), and a polynomial is a list of (monomial, coefficient)
pairs with its lead term first.  Monomials are packed when they enter the
run and unpacked when they leave it.

Packing (`_Layout`).  Each variable gets a bit field of `width` bits whose
top bit is a guard, so every exponent stays below 2**(width-1).  The
order's grevlex blocks (`MonomialOrder.grevlex_blocks`) fix where the
fields go: the most significant block is highest; within a block the last
slot is highest, and above the block's exponents sits one more field that
holds the block's total degree.  While no guard bit is set:

- the product of two monomials is `a + b`, and the quotient is `b - a`;
- `a` divides `b` iff `not ((b - a) & GUARD)`;
- the lcm is the per-field maximum, under a mask read off the guard bits
  of `(a | GUARD) - b`, with the degree fields of blocks of several
  variables summed again;
- two monomials are coprime iff their variable-support masks are disjoint;
- the order key `(m & DEG) + EXP - (m & EXP)` keeps the degree fields and
  replaces each exponent by its complement, so larger keys are larger
  monomials.  For a packed monomial this is `m ^ EXP`.

No key is stored with a monomial; each S-pair keeps the key of its lcm.

The basis (`_Basis`).  Every basis element is stored monic, so reducing a
term `c*m` by an element with lead `lm` subtracts `c * (m/lm) * g`, and the
S-polynomial of two elements is the difference of their shifted tails.  A
lead can divide `m` only if its variable support lies inside `m`'s, so the
basis keeps, for each support mask the reducer has met, the list of
elements whose lead support lies inside it, in basis order (Bachmann &
Schoenemann, "Monomial representations for Groebner bases computations",
ISSAC 1998).  A list is made when its mask is first met, and an element
appended later joins every list whose mask holds its lead support; so the
first dividing lead in basis order is the one chosen, as a scan of all
leads would choose it.

Coefficients are plain Python numbers under Python operators, the rule of
the whole package (see `ring`): `_Work.p` is the field's characteristic
`Field.p`.  Over F_p a pending coefficient may be any int; it is reduced by
one `% p` when its term is popped, and the reducer's output is reduced.
Over Q (p = 0) the values are `Fraction`s, which are always canonical, and
no `%` is taken.  The only field operation the engine calls is `inv`, to
make an element monic.

Exponents never overflow silently.  A polynomial is packed only if its
total degree fits in a field.  Each basis element keeps the bitwise OR of its
terms, which bounds every field of every term; a product whose bound, or an
lcm, sets a guard bit raises `_Overflow`, and the run starts again with
fields twice as wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import mul, or_
from typing import Dict, List, Optional, Sequence, Tuple

from .ring import Monomial, MonomialOrder, Poly, PolyRing


class ResourceCapExceeded(Exception):
    """A computation outgrew its configured ceiling; never a verdict."""

    def __init__(self, what: str, detail: str = ""):
        self.what = what
        self.detail = detail
        super().__init__("%s cap exceeded%s" % (what, (": " + detail) if detail else ""))


@dataclass(frozen=True)
class ResourceCaps:
    max_basis: int = 4000
    max_pairs: int = 200000
    max_coeff_bits: int = 100000
    max_reduction_steps: int = 4_000_000


DEFAULT_CAPS = ResourceCaps()

# bits per field in a run's first attempt: exponents and block degrees up to 32767
_FIRST_WIDTH = 16

Terms = List[Tuple[int, object]]
# a monic basis element: (lead monomial, tail monomials, tail coefficients,
# hull); two flat tuples take less memory than one tuple per term
Elem = Tuple[int, Tuple[int, ...], tuple, int]


class _Overflow(Exception):
    """A packed exponent or degree would not fit its field."""


class _Layout:
    """Bit fields of the packed monomials of one order, variable count and width."""

    def __init__(self, blocks: Sequence[Sequence[int]], nvars: int, width: int):
        top = 1 << (width - 1)
        self.width = width
        self.limit = top
        self.shifts = [0] * nvars
        # packing adds weights[i] per unit of x_i: its own field and its block's degree field
        self.weights = [0] * nvars
        # (exponent mask, multiplier, degree field) of each block of several
        # variables: (m & mask) * multiplier has the block's degree in that field
        self.degree_sums = []
        guard = exp = 0
        shift = 0
        for block in reversed(blocks):
            base = shift
            for v in block:
                self.shifts[v] = shift
                exp |= (top - 1) << shift
                guard |= top << shift
                shift += width
            for v in block:
                self.weights[v] = (1 << self.shifts[v]) | (1 << shift)
            if len(block) > 1:
                self.degree_sums.append((
                    exp & ~((1 << base) - 1),
                    sum(1 << (k * width) for k in range(1, len(block) + 1)),
                    ((1 << width) - 1) << shift,
                ))
            guard |= top << shift
            shift += width
        self.exp = exp
        self.guard = guard
        self.exp_guard = guard & (exp << 1)

    def unpack(self, m: int) -> Monomial:
        low = self.limit - 1
        return tuple((m >> s) & low for s in self.shifts)

    def lcm(self, a: int, b: int) -> int:
        guard = self.guard
        ge = ((a | guard) - b) & guard  # guard bit set where a's field >= b's
        mask = ge - (ge >> (self.width - 1))
        m = (a & mask) | (b & ~mask)
        for exps, mult, deg in self.degree_sums:
            m = (m & ~deg) | ((m & exps) * mult & deg)
        return m

    def support(self, m: int) -> int:
        """Guard bits of the exponent fields that are nonzero in m."""
        return ((m & self.exp) + self.exp) & self.exp_guard


_LAYOUTS: Dict[Tuple[str, int, int], _Layout] = {}


def _layout(order: MonomialOrder, nvars: int, width: int) -> _Layout:
    key = (order.name, nvars, width)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = _Layout(order.grevlex_blocks(nvars), nvars, width)
    return layout


class _Basis:
    """Monic basis elements in the order they were added, with candidate divisors.

    `table` maps the support mask of a monomial to the elements whose lead
    support lies inside the mask, in basis order.  Elements are only ever
    appended, and each joins the end of every list it belongs to.
    """

    def __init__(self, layout: _Layout):
        self.support = layout.support
        self.elems: List[Elem] = []
        self.supports: List[int] = []
        self.table: Dict[int, List[Elem]] = {}

    def append(self, e: Elem) -> None:
        sup = self.support(e[0])
        self.elems.append(e)
        self.supports.append(sup)
        for s, cands in self.table.items():
            if not sup & ~s:
                cands.append(e)

    def candidates(self, s: int) -> List[Elem]:
        """The list of mask `s`, made and entered in the table on first use."""
        cands = self.table[s] = [e for e, sup in zip(self.elems, self.supports) if not sup & ~s]
        return cands


class _Work:
    """Mutable reduction workspace for one Groebner run at one field width."""

    def __init__(self, ring: PolyRing, order: MonomialOrder, caps: ResourceCaps, width: int):
        self.ring = ring
        self.caps = caps
        self.field = ring.field
        # the modulus of the coefficient arithmetic; 0 over Q, where nothing is reduced
        self.p = self.field.p
        self.layout = _layout(order, ring.nvars, width)
        self.exp = self.layout.exp
        self.guard = self.layout.guard
        self.steps = 0

    def pack(self, p: Poly) -> Terms:
        """Terms of p, packed and sorted descending in the order."""
        if max(map(sum, p.terms)) >= self.layout.limit:
            raise _Overflow
        w = self.layout.weights
        x = self.exp
        return sorted(((sum(map(mul, m, w)), c) for m, c in p.terms.items()),
                      key=lambda t: t[0] ^ x, reverse=True)

    def element(self, terms: Terms) -> Elem:
        """The basis element of `terms`, divided by its lead coefficient."""
        ms, cs = zip(*terms)
        if cs[0] != 1:
            p = self.p
            inv = self.field.inv(cs[0])
            cs = [c * inv % p for c in cs] if p else [c * inv for c in cs]
        return ms[0], ms[1:], tuple(cs[1:]), reduce(or_, ms)

    def pack_basis(self, basis: Sequence[Poly]) -> _Basis:
        """The basis packed for reduce_full, each element made monic."""
        B = _Basis(self.layout)
        for b in basis:
            B.append(self.element(self.pack(b)))
        return B

    def to_polys(self, polys: Sequence[Terms]) -> List[Poly]:
        """Unpacked polynomials; a monomial in several of them is one shared tuple."""
        up = self.layout.unpack
        tuples: Dict[int, Monomial] = {}
        out = []
        for terms in polys:
            d = {}
            for m, c in terms:
                t = tuples.get(m)
                if t is None:
                    t = tuples[m] = up(m)
                d[t] = c
            out.append(Poly(self.ring, d))
        return out

    def check_bits(self, terms):
        F = self.field
        cap = self.caps.max_coeff_bits
        for _, c in terms:
            if F.coeff_bits(c) > cap:
                raise ResourceCapExceeded("coefficient-bits")

    def reduce_full(self, terms, basis: _Basis, skip: int = None) -> Terms:
        """Full normal form of `terms` modulo `basis`, sorted descending; monic not enforced.

        `terms` is any iterable of (monomial, coefficient) pairs; over F_p a
        coefficient may be any int.  The element whose lead is `skip` is
        not used as a divisor.
        """
        p = self.p
        x = self.exp
        guard = self.guard
        exp_guard = self.layout.exp_guard
        cap = self.caps.max_reduction_steps
        steps = self.steps
        table = basis.table
        candidates = basis.candidates
        work: Dict[int, object] = dict(terms)
        out: Terms = []
        # max-heap of the pending monomials as negated keys.  A reduction only
        # adds monomials below the one popped, so each is pushed once.  A
        # coefficient that has cancelled (mod p) is dropped when popped.
        # Pops come in descending order, so `out` is sorted.
        heap = [-(m ^ x) for m in work]
        heapify(heap)
        while heap:
            m = -heappop(heap) ^ x
            c = work.pop(m)
            if p:
                c %= p
            if not c:
                continue
            steps += 1
            if steps > cap:
                raise ResourceCapExceeded("reduction-steps", str(steps))
            s = ((m & x) + x) & exp_guard
            cands = table.get(s)
            if cands is None:
                cands = candidates(s)
            for lm, tm, tc, h in cands:
                q = m - lm
                if q & guard or lm == skip:
                    continue
                if (h + q) & guard:
                    raise _Overflow
                # work -= c * q * g; g is monic, so its lead cancels c*m
                nc = -c
                for gm, gc in zip(tm, tc):
                    mm = gm + q
                    cur = work.get(mm)
                    if cur is None:
                        work[mm] = nc * gc
                        heappush(heap, -(mm ^ x))
                    else:
                        work[mm] = cur + nc * gc
                steps += len(tm) + 1
                if steps > cap:
                    raise ResourceCapExceeded("reduction-steps", str(steps))
                break
            else:
                out.append((m, c))
        self.steps = steps
        if not p:  # a residue mod p counts 1 bit, under every positive cap
            self.check_bits(out)
        return out


def _spoly(f: Elem, g: Elem, lcm: int, guard: int) -> Dict[int, object]:
    """S-polynomial of the monic elements f and g, whose leads have lcm `lcm`.

    The leads cancel and are left out; coefficients over F_p are not reduced.
    Raises _Overflow if a product, the lcm among them, could leave its field.
    """
    lmf, mf, cf, hf = f
    lmg, mg, cg, hg = g
    qf = lcm - lmf
    qg = lcm - lmg
    if ((hf + qf) | (hg + qg)) & guard:
        raise _Overflow
    terms = {m + qf: c for m, c in zip(mf, cf)}
    for m, c in zip(mg, cg):
        mm = m + qg
        terms[mm] = terms.get(mm, 0) - c
    return terms


def _widening(run):
    """Call run(width) from the first width, doubling it after each overflow."""
    width = _FIRST_WIDTH
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


def buchberger(
    gens: Sequence[Poly],
    order: MonomialOrder,
    caps: ResourceCaps = DEFAULT_CAPS,
) -> List[Poly]:
    """Reduced Groebner basis of the ideal generated by `gens` under `order`.

    Returns monic generators sorted descending by lead monomial.
    Raises ResourceCapExceeded when a ceiling is hit.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    return _widening(lambda width: _buchberger(gens, _Work(gens[0].ring, order, caps, width)))


def _buchberger(gens: Sequence[Poly], W: _Work) -> List[Poly]:
    caps = W.caps
    x = W.exp
    guard = W.guard
    lcm_of = W.layout.lcm

    B = _Basis(W.layout)
    G = B.elems
    supports = B.supports
    # heap of (key of lcm, seq, lcm, i, j); seq counts insertions, so among
    # equal lcms the pair installed first is selected first
    pairs: List[Tuple[int, int, int, int, int]] = []
    seq = 0

    def update(new_terms):
        """Gebauer-Moeller: install new element, prune pair set."""
        nonlocal pairs, seq
        t = len(G)
        lm_new = new_terms[0][0]
        # candidate pairs with existing elements; the divisibility tests
        # below are exact only while no lcm sets a guard bit
        lcms = [lcm_of(e[0], lm_new) for e in G]
        for lcm in lcms:
            if lcm & guard:
                raise _Overflow
        B.append(W.element(new_terms))
        # discard old pairs whose lcm is a proper multiple of new lead
        pairs = [
            pr for pr in pairs
            if (pr[2] - lm_new) & guard or lcms[pr[3]] == pr[2] or lcms[pr[4]] == pr[2]
        ]
        # prune candidates: criterion M (lcm strictly divisible by another cand lcm)
        cand = sorted((lcm ^ x, i, lcm) for i, lcm in enumerate(lcms))
        pruned = []
        for _, i, lcm in cand:
            for lcm2, _ in pruned:
                if lcm2 != lcm and not (lcm - lcm2) & guard:
                    break
            else:
                pruned.append((lcm, i))
        # criterion F: among equal lcm keep one
        seen: Dict[int, int] = {}
        for lcm, i in pruned:
            if lcm not in seen:
                seen[lcm] = i
        # criterion B (product criterion): drop coprime-lead pairs
        s_new = supports[t]
        for lcm, i in seen.items():
            if supports[i] & s_new:
                pairs.append((lcm ^ x, seq, lcm, i, t))
                seq += 1
        heapify(pairs)
        if len(G) > caps.max_basis:
            raise ResourceCapExceeded("basis-size", str(len(G)))
        if len(pairs) > caps.max_pairs:
            raise ResourceCapExceeded("pair-count", str(len(pairs)))

    # seed with interreduced inputs (cheap: just normal forms against earlier)
    for terms in sorted((W.pack(g) for g in gens), key=lambda t: t[0][0] ^ x):
        r = W.reduce_full(terms, B)
        if r:
            update(r)

    # normal selection: smallest lcm in the order
    while pairs:
        _, _, lcm, i, j = heappop(pairs)
        s = _spoly(G[i], G[j], lcm, guard)
        if not s:
            continue
        r = W.reduce_full(s.items(), B)
        if r:
            update(r)

    return _interreduce(G, W)


def _interreduce(G: Sequence[Elem], W: _Work) -> List[Poly]:
    """Minimal then reduced basis; monic, sorted descending by lead."""
    x = W.exp
    guard = W.guard
    # minimalize: drop elements whose lead is divisible by another lead
    minimal = _Basis(W.layout)
    for e in sorted(G, key=lambda e: e[0] ^ x):
        if any(not (e[0] - d[0]) & guard for d in minimal.elems):
            continue
        minimal.append(e)
    # tail-reduce each against the others; no other lead divides its lead,
    # so the lead survives with coefficient 1
    one = W.field.one
    reduced = [W.reduce_full(chain([(lm, one)], zip(tm, tc)), minimal, skip=lm)
               for lm, tm, tc, _ in minimal.elems]
    reduced.sort(key=lambda r: r[0][0] ^ x, reverse=True)
    return W.to_polys(reduced)


def normal_form(
    p: Poly,
    basis: Sequence[Poly],
    order: MonomialOrder,
    caps: ResourceCaps = DEFAULT_CAPS,
    packed: Optional[Dict[int, _Basis]] = None,
) -> Poly:
    """Remainder of p modulo `basis` under `order`; no term divisible by a lead.

    `packed`, when given, holds the packed basis of each field width: a
    caller that reduces many polynomials by one basis passes the same dict
    each time, and the basis is packed once per width.
    """
    basis = [b for b in basis if not b.is_zero()]
    if p.is_zero() or not basis:
        return p
    if packed is None:
        packed = {}

    def run(width):
        W = _Work(p.ring, order, caps, width)
        B = packed.get(width)
        if B is None:
            B = packed[width] = W.pack_basis(basis)
        return W.to_polys([W.reduce_full(W.pack(p), B)])[0]

    return _widening(run)


def is_groebner_basis(
    basis: Sequence[Poly], order: MonomialOrder, caps: ResourceCaps = DEFAULT_CAPS
) -> bool:
    """Independent S-pair certificate: every S-polynomial reduces to zero.

    Forms and reduces every S-pair, with no pair criterion, so it shares
    only the reduction with `buchberger`.  The reduction-step cap applies
    to each S-pair on its own.
    """
    basis = [b for b in basis if not b.is_zero()]

    def run(width):
        W = _Work(basis[0].ring, order, caps, width)
        B = W.pack_basis(basis)
        lcm = W.layout.lcm
        for i, f in enumerate(B.elems):
            for g in B.elems[i + 1:]:
                s = _spoly(f, g, lcm(f[0], g[0]), W.guard)
                W.steps = 0
                if s and W.reduce_full(s.items(), B):
                    return False
        return True

    return not basis or _widening(run)
