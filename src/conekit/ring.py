"""Block-structured multivariate polynomials over an exact field.

Variables come in named blocks (t | z | x | y | affine aux blocks), one
block per projective factor of the ambient product.  Monomials are
exponent tuples; polynomials are immutable term dicts tagged with their
ring.  Orders include grevlex, lex, and block elimination orders.

Coefficients are plain Python numbers under Python operators.  A path that
builds a polynomial sums and multiplies raw values and reduces them once,
through `_reduced` (or `_mul_terms`, which ends in it): `% p` over F_p,
nothing over Q, where the values are `Fraction`s and always canonical.
Only `Poly.__add__` reduces as it goes, since it touches only the other
operand's terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .fields import Field

Monomial = Tuple[int, ...]


class RingError(Exception):
    pass


class AmbientMismatch(RingError):
    pass


@dataclass(frozen=True)
class Block:
    name: str
    size: int
    projective: bool = True


class AmbientSpace:
    """An ordered list of variable blocks; projective blocks model P^(size-1)."""

    def __init__(self, blocks: Sequence[Block]):
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise RingError("duplicate block names: %r" % names)
        if any(b.size < 1 for b in blocks):
            raise RingError("blocks need at least one variable")
        self.blocks: Tuple[Block, ...] = tuple(blocks)
        self.varnames: Tuple[str, ...] = tuple(
            "%s%d" % (b.name, i) for b in blocks for i in range(b.size)
        )
        self.nvars = len(self.varnames)
        self._index = {n: i for i, n in enumerate(self.varnames)}
        self._ranges: Dict[str, range] = {}
        start = 0
        for b in blocks:
            self._ranges[b.name] = range(start, start + b.size)
            start += b.size
        self._key = tuple((b.name, b.size, b.projective) for b in self.blocks)

    @classmethod
    def product(cls, *spec: Tuple[str, int], affine: Sequence[str] = ()) -> "AmbientSpace":
        return cls([Block(n, s, projective=n not in affine) for n, s in spec])

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise RingError("no block %r" % name)

    def block_range(self, name: str) -> range:
        return self._ranges[name]

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError("unknown variable %r" % name)

    @property
    def projective_blocks(self) -> Tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.projective)

    def without(self, drop: Iterable[str]) -> "AmbientSpace":
        drop = set(drop)
        kept = [b for b in self.blocks if b.name not in drop]
        if not kept:
            raise RingError("cannot drop every block")
        return AmbientSpace(kept)

    def extend(self, block: Block) -> "AmbientSpace":
        return AmbientSpace(self.blocks + (block,))

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, AmbientSpace) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Ambient(%s)" % " x ".join(
            "%s:%d%s" % (b.name, b.size, "" if b.projective else "(aff)")
            for b in self.blocks
        )


# ---------------------------------------------------------------------------
# Monomial orders


class MonomialOrder:
    """Total multiplicative well-order on monomials: its `name` plus its
    `grevlex_blocks`, which the Groebner engine packs into its order key.

    Every order here is a product of grevlex orders: `grevlex_blocks` lists
    the blocks, most significant first, each as variable indices from the
    first slot to the last.  Monomials compare by total degree in the first
    block, then reverse lexicographically on its slots (a smaller exponent
    in a later slot is larger), then likewise on the next block.
    """

    name = "order"

    def grevlex_blocks(self, nvars: int) -> List[Tuple[int, ...]]:
        raise NotImplementedError


class GrevlexOrder(MonomialOrder):
    def __init__(self, nvars: int):
        self.nvars = nvars
        self.name = "grevlex"

    @staticmethod
    def heapkey(m):
        """The print and lead order: a smaller key is a larger monomial."""
        return (-sum(m), m[::-1])

    def grevlex_blocks(self, nvars):
        return [tuple(range(nvars))]


class LexOrder(MonomialOrder):
    def __init__(self, nvars: int):
        self.nvars = nvars
        self.name = "lex"

    def grevlex_blocks(self, nvars):
        return [(i,) for i in range(nvars)]


class PermutedGrevlexOrder(MonomialOrder):
    """Grevlex after permuting variables; perm[i] = source index of slot i.

    With a chosen variable in the last slot this is the order used by the
    divide-out saturation trick for homogeneous ideals.
    """

    def __init__(self, perm: Sequence[int]):
        self.perm = tuple(perm)
        self.name = "grevlex-perm:%s" % (",".join(map(str, self.perm)))

    @classmethod
    def with_last(cls, nvars: int, last: int) -> "PermutedGrevlexOrder":
        perm = [i for i in range(nvars) if i != last] + [last]
        return cls(perm)

    def grevlex_blocks(self, nvars):
        return [self.perm]


class BlockElimOrder(MonomialOrder):
    """Eliminates a variable subset: any monomial meeting it beats all others."""

    def __init__(self, elim_indices: Sequence[int], nvars: int):
        self.elim = tuple(sorted(elim_indices))
        self.name = "elim:%s" % ",".join(map(str, self.elim))

    @classmethod
    def for_blocks(cls, ambient: AmbientSpace, blocks: Iterable[str]) -> "BlockElimOrder":
        idx = [i for b in blocks for i in ambient.block_range(b)]
        return cls(idx, ambient.nvars)

    def grevlex_blocks(self, nvars):
        return [self.elim, tuple(i for i in range(nvars) if i not in self.elim)]


# ---------------------------------------------------------------------------
# Polynomials


class PolyRing:
    """Polynomial ring over `field` on an AmbientSpace."""

    def __init__(self, ambient: AmbientSpace, field: Field):
        self.ambient = ambient
        self.field = field
        self.nvars = ambient.nvars
        self._zero_mono = (0,) * self.nvars
        self._key = (ambient.key(), field.name)

    def key(self):
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, PolyRing) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "PolyRing(%r, %s)" % (self.ambient, self.field.name)

    # constructors -------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(self.field.one)

    def const(self, c) -> "Poly":
        return self.from_terms({self._zero_mono: c})

    def var(self, name: str) -> "Poly":
        return self.var_by_index(self.ambient.var_index(name))

    def var_by_index(self, i: int) -> "Poly":
        m = [0] * self.nvars
        m[i] = 1
        return Poly(self, {tuple(m): self.field.one})

    def from_terms(self, terms: Dict[Monomial, object]) -> "Poly":
        """The polynomial of `terms`, its coefficients reduced and zeros dropped."""
        return Poly(self, _reduced(terms, self.field.p))

    def gens(self) -> List["Poly"]:
        return [self.var_by_index(i) for i in range(self.nvars)]

    def block_vars(self, block: str) -> List["Poly"]:
        return [self.var_by_index(i) for i in self.ambient.block_range(block)]

    # conversion ---------------------------------------------------------

    def convert(self, p: "Poly", renames: Optional[Dict[str, str]] = None) -> "Poly":
        """p moved to this ring, the one way a polynomial changes rings: each
        variable p uses goes to the variable of the same name here, or of
        the name `renames` gives it.  The fields must agree."""
        if p.ring.field != self.field:
            raise AmbientMismatch("cannot convert between different fields")
        if p.ring == self and not renames:
            return Poly(self, p.terms)
        renames = renames or {}
        index = self.ambient._index
        # -1: the name is not a variable here, an error only if p uses it
        target = [index.get(renames.get(n, n), -1) for n in p.ring.ambient.varnames]
        out: Dict[Monomial, object] = {}
        for m, c in p.terms.items():
            nm = [0] * self.nvars
            for i, e in enumerate(m):
                if e:
                    if target[i] < 0:
                        name = p.ring.ambient.varnames[i]
                        raise RingError("unknown variable %r" % renames.get(name, name))
                    nm[target[i]] += e
            key = tuple(nm)
            out[key] = out.get(key, 0) + c
        return self.from_terms(out)

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)


class Poly:
    """Immutable sparse polynomial: dict monomial -> nonzero coefficient.

    Nothing may change `terms` after construction: the hash and the printed
    form (`poly_str`) are computed once and kept on the object.
    """

    __slots__ = ("ring", "terms", "_hash", "_str")

    def __init__(self, ring: PolyRing, terms: Dict[Monomial, object]):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._str = None

    # predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring._zero_mono in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    # arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise AmbientMismatch("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(self.ring.field.from_int(other))
        self._check(other)
        p = self.ring.field.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = (out[m] + c) % p if p else out[m] + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = c
        return Poly(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.const(self.ring.field.from_int(other))
        self._check(other)
        return Poly(self.ring, _mul_terms(self.terms, other.terms, self.ring.field.p))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise RingError("negative exponent")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c) -> "Poly":
        return self.ring.from_terms({m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.key(), frozenset(self.terms.items())))
        return self._hash

    # structure ----------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, object]]:
        """Terms from the largest monomial down, in the ring's grevlex order."""
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, key=GrevlexOrder.heapkey)]

    def lead(self) -> Tuple[Monomial, object]:
        """The grevlex-largest term."""
        if not self.terms:
            raise RingError("zero polynomial has no lead term")
        m = min(self.terms, key=GrevlexOrder.heapkey)
        return m, self.terms[m]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return out

    def multidegree(self) -> Optional[Dict[str, int]]:
        """Per-block degree vector if every term agrees, else None."""
        amb = self.ring.ambient
        if not self.terms:
            return {b.name: 0 for b in amb.blocks}
        ranges = [(b.name, list(amb.block_range(b.name))) for b in amb.blocks]
        result = None
        for m in self.terms:
            vec = {name: sum(m[i] for i in idx) for name, idx in ranges}
            if result is None:
                result = vec
            elif result != vec:
                return None
        return result

    def is_multihomogeneous(self) -> bool:
        return self.multidegree() is not None

    def coeff_of_var_power(self, var: int, e: int) -> "Poly":
        """Coefficient of var^e, a polynomial not involving var."""
        out = {}
        for m, c in self.terms.items():
            if m[var] == e:
                nm = list(m)
                nm[var] = 0
                out[tuple(nm)] = c
        return Poly(self.ring, out)

    def monic(self) -> "Poly":
        """Scaled so that the grevlex lead coefficient is 1."""
        if not self.terms:
            return self
        _, c = self.lead()
        if c == 1:
            return self
        return self.scale(self.ring.field.inv(c))

    # substitution -------------------------------------------------------

    def substitute(self, assignment: Dict[str, "Poly"]) -> "Poly":
        """Substitute polynomials for variables named in `assignment`."""
        return substitute_all([self], assignment)[0]

    # printing -----------------------------------------------------------

    def __repr__(self):
        return poly_str(self)


# ---------------------------------------------------------------------------
# substitution


def _reduced(terms: Dict[Monomial, object], p: int) -> Dict[Monomial, object]:
    """The nonzero terms, with coefficients reduced mod p (p = 0: over Q)."""
    if p:
        return {m: r for m, c in terms.items() if (r := c % p)}
    return {m: c for m, c in terms.items() if c}


def _mul_terms(a: Dict[Monomial, object], b: Dict[Monomial, object], p: int):
    out: Dict[Monomial, object] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _reduced(out, p)


def substitute_all(polys: Sequence[Poly], assignment: Dict[str, object]) -> List[Poly]:
    """Each of `polys`, which share one ring, with the values in `assignment`
    substituted for the named variables.

    A value is a polynomial (converted to the ring if it lives in another)
    or an int.  For each exponent vector of the substituted variables the
    product of powers of the values is computed once for the whole call;
    each result sums raw coefficients in one dict and reduces them once.
    """
    polys = list(polys)
    if not polys:
        return []
    ring = polys[0].ring
    F = ring.field
    p = F.p
    values: Dict[int, Dict[Monomial, object]] = {}
    for name, val in assignment.items():
        if isinstance(val, int):
            val = ring.const(F.from_int(val))
        elif val.ring != ring:
            val = ring.convert(val)
        values[ring.ambient.var_index(name)] = val.terms
    if not values:
        return polys
    idx = sorted(values)
    one = {ring._zero_mono: 1}
    # powers[i][e - 1] is the e-th power of the value of variable i
    powers: Dict[int, List[Dict[Monomial, object]]] = {i: [values[i]] for i in idx}
    products: Dict[Tuple[int, ...], Dict[Monomial, object]] = {}
    out = []
    for poly in polys:
        if poly.ring != ring:
            raise AmbientMismatch("substitution across different rings")
        acc: Dict[Monomial, object] = {}
        for m, c in poly.terms.items():
            es = tuple(m[i] for i in idx)
            prod = products.get(es)
            if prod is None:
                prod = one
                for i, e in zip(idx, es):
                    if e:
                        pw = powers[i]
                        while len(pw) < e:
                            pw.append(_mul_terms(pw[-1], values[i], p))
                        prod = _mul_terms(prod, pw[e - 1], p)
                products[es] = prod
            base = list(m)
            for i in idx:
                base[i] = 0
            for pm, pc in prod.items():
                mm = tuple(map(add, base, pm))
                acc[mm] = acc.get(mm, 0) + c * pc
        out.append(Poly(ring, _reduced(acc, p)))
    return out


# ---------------------------------------------------------------------------
# text grammar: variables, integer or a/b coefficients, + - * ^, parentheses


_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()])|(\S))")


def _tokenize(text: str):
    tokens = []
    for num, name, op, bad in _TOKEN.findall(text):
        if num:
            tokens.append(("num", num))
        elif name:
            tokens.append(("var", name))
        elif op:
            tokens.append(("op", op))
        else:
            pos = next(m.start() for m in _TOKEN.finditer(text) if m.group(4))
            raise RingError("cannot tokenize %r" % text[pos : pos + 20])
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, tokens):
        self.ring = ring
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def coeff(self, literal: str):
        try:  # a zero denominator is bad input, as an unreadable literal is
            return self.ring.field.coeff_parse(literal)
        except ZeroDivisionError:
            raise RingError("zero denominator in coefficient %r" % literal) from None

    def parse_expr(self) -> Poly:
        # expr := ['+'|'-'] term (('+'|'-') term)*, summed into one terms dict
        out: Dict[Monomial, object] = {}
        op = "+"
        if self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
        while True:
            for m, c in self.parse_term():
                if op == "-":
                    c = -c
                out[m] = out[m] + c if m in out else c
            kind, val = self.peek()
            if kind != "op" or val not in ("+", "-"):
                return self.ring.from_terms(out)
            op = self.next()[1]

    def parse_term(self) -> Iterable[Tuple[Monomial, object]]:
        # term := factor ('*' factor)*, as its (monomial, coefficient) pairs.
        # A product of numbers, variables and their powers is read straight
        # into one pair, its coefficient left for parse_expr to reduce; a
        # product with a parenthesised factor is re-read from its start with
        # Poly arithmetic.
        start = self.i
        F = self.ring.field
        p = F.p
        coeff = F.one
        mono = [0] * self.ring.nvars
        while True:
            kind, val = self.next()
            if kind == "num":
                c = self.coeff(val)
                e = self.parse_exponent()
                coeff = coeff * (pow(c, e, p) if p else c ** e)
            elif kind == "var":
                i = self.ring.ambient.var_index(val)
                mono[i] += self.parse_exponent()
            elif (kind, val) == ("op", "("):
                self.i = start
                return self.parse_product().terms.items()
            else:
                raise RingError("unexpected token %r" % ((kind, val),))
            if self.peek() != ("op", "*"):
                break
            self.next()
        return ((tuple(mono), coeff),)

    def parse_product(self) -> Poly:
        acc = self.parse_factor()
        while self.peek() == ("op", "*"):
            self.next()
            acc = acc * self.parse_factor()
        return acc

    def parse_exponent(self) -> int:
        # the optional '^' e after an atom; 1 when absent
        if self.peek() != ("op", "^"):
            return 1
        self.next()
        kind, val = self.next()
        if kind != "num" or "/" in val:
            raise RingError("exponent must be a nonnegative integer")
        return int(val)

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            return base ** self.parse_exponent()
        return base

    def parse_atom(self) -> Poly:
        kind, val = self.next()
        if kind == "num":
            return self.ring.const(self.coeff(val))
        if kind == "var":
            return self.ring.var(val)
        if (kind, val) == ("op", "("):
            inner = self.parse_expr()
            if self.next() != ("op", ")"):
                raise RingError("missing closing parenthesis")
            return inner
        raise RingError("unexpected token %r" % ((kind, val),))


def parse_poly(ring: PolyRing, text: str) -> Poly:
    parser = _Parser(ring, _tokenize(text))
    p = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise RingError("trailing input at token %d" % parser.i)
    return p


def poly_str(p: Poly) -> str:
    """Canonical printing; parse(poly_str(p)) == p bit-exactly.

    The string is kept on p, so each polynomial is printed once.
    """
    if p._str is None:
        p._str = _format_poly(p)
    return p._str


def _format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    F = p.ring.field
    names = p.ring.ambient.varnames
    parts = []
    for m, c in p.sorted_terms():
        cs = F.coeff_str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        factors = []
        if cs != "1" or not any(m):
            factors.append(cs)
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s^%d" % (names[i], e))
        body = "*".join(factors)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)
