"""Property checks on conekit's outputs, independent of conekit's code.

Nothing here imports conekit.  The checks test properties the method must
have, not copies of earlier output:

- report witnesses: the w-covering fibre counts equal deg f; every sample
  point satisfies f = 0 mod p in plain integer arithmetic; on a proper cut
  formula-3-5's total degree is deg X * deg delta and equals
  multiplicity * deg delta + residual degree; both digamma component
  dimensions are n+2-h;
- Groebner bases: monic and reduced under the requested order; every
  input generator and a sample of the S-pairs reduce to zero under the
  reducer below.

Polynomials are dicts {exponent tuple: coefficient mod p}.
"""

from __future__ import annotations

import heapq
import random
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Mono = Tuple[int, ...]
Poly = Dict[Mono, int]

_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text: str, varnames: Sequence[str], p: Optional[int]) -> Poly:
    """Parse conekit's printed form: signed terms of '*'-joined factors
    `c`, `v` or `v^e`.  Coefficients are reduced mod p unless p is None."""
    index = {v: i for i, v in enumerate(varnames)}
    out: Poly = {}
    for sign, body in _TERM.findall(text.strip()):
        coeff = -1 if sign == "-" else 1
        mono = [0] * len(varnames)
        for factor in body.strip().split("*"):
            base, _, exp = factor.strip().partition("^")
            if base in index:
                mono[index[base]] += int(exp) if exp else 1
            else:
                coeff *= int(base) ** (int(exp) if exp else 1)
        m = tuple(mono)
        out[m] = out.get(m, 0) + coeff
    if p is not None:
        out = {m: c % p for m, c in out.items()}
    return {m: c for m, c in out.items() if c}


def total_degree(f: Poly) -> int:
    return max(sum(m) for m in f)


def evaluate(f: Poly, point: Sequence[int]) -> int:
    acc = 0
    for m, c in f.items():
        term = c
        for x, e in zip(point, m):
            term *= x ** e
        acc += term
    return acc


# ---------------------------------------------------------------------------
# monomial orders, as ranks: the larger monomial has the smaller rank, so
# min() finds the lead and a heap pops terms in descending order


def order_rank(name: str, nvars: int):
    """Rank function for conekit's order names: grevlex, grevlex-perm:<perm>
    (grevlex after permuting variables) and elim:<indices> (the listed
    variables first by grevlex, then the rest by grevlex).  Grevlex: the
    higher total degree is larger; on a tie, the smaller exponent in the
    last variable where they differ is larger."""
    if name == "grevlex":
        return lambda m: (-sum(m), m[::-1])
    if name.startswith("grevlex-perm:"):
        perm = [int(i) for i in name.split(":", 1)[1].split(",")]

        def perm_rank(m):
            pm = tuple([m[i] for i in perm])
            return (-sum(pm), pm[::-1])

        return perm_rank
    if name.startswith("elim:"):
        elim = [int(i) for i in name.split(":", 1)[1].split(",")]
        rest = [i for i in range(nvars) if i not in set(elim)]

        def elim_rank(m):
            a = tuple([m[i] for i in elim])
            b = tuple([m[i] for i in rest])
            return (-sum(a), a[::-1], -sum(b), b[::-1])

        return elim_rank
    raise ValueError("unknown order %r" % name)


def lead(f: Poly, rank) -> Mono:
    return min(f, key=rank)


def _divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


class Reducer:
    """Normal forms modulo a fixed polynomial list over F_p."""

    def __init__(self, basis: Sequence[Poly], rank, p: int):
        self.rank, self.p = rank, p
        self.basis = []
        for g in basis:
            lm = lead(g, rank)
            inv = pow(g[lm], p - 2, p)
            self.basis.append((lm, [(m, c * inv % p) for m, c in g.items()]))

    def normal_form(self, f: Poly) -> Poly:
        p, rank = self.p, self.rank
        work = dict(f)
        heap = [(rank(m), m) for m in work]
        heapq.heapify(heap)
        rem: Poly = {}
        while heap:
            _, m = heapq.heappop(heap)
            c = work.pop(m, 0)
            if not c:
                continue
            for lm, terms in self.basis:
                if _divides(lm, m):
                    q = tuple(x - y for x, y in zip(m, lm))
                    for gm, gc in terms:
                        mm = tuple(x + y for x, y in zip(gm, q))
                        if mm == m:
                            continue
                        old = work.get(mm)
                        new = ((old or 0) - c * gc) % p
                        if old is None:
                            heapq.heappush(heap, (rank(mm), mm))
                        if new:
                            work[mm] = new
                        else:
                            work.pop(mm, None)
                    break
            else:
                rem[m] = c
        return rem


def spoly(f: Poly, g: Poly, rank, p: int) -> Poly:
    lf, lg = lead(f, rank), lead(g, rank)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    out: Poly = {}
    for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
        q = tuple(x - y for x, y in zip(lcm, lh))
        scale = sign * pow(h[lh], p - 2, p)
        for m, c in h.items():
            mm = tuple(x + y for x, y in zip(m, q))
            out[mm] = (out.get(mm, 0) + scale * c) % p
    return {m: c for m, c in out.items() if c}


def basis_problems(basis: List[Poly], gens: List[Poly], rank, p: int,
                   rng: random.Random, pairs: int) -> List[str]:
    """Why `basis` is not the reduced Groebner basis of `gens`; [] if no
    fault was found.  Checks: monic, reduced (no term other than its own
    lead is divisible by a lead), every generator reduces to zero, and
    `pairs` S-pairs drawn with `rng` among those whose leads share a
    variable reduce to zero."""
    import numpy as np

    if not basis:
        return ["empty basis"]
    leads = [lead(g, rank) for g in basis]
    out = []
    if any(g[lm] != 1 for g, lm in zip(basis, leads)):
        out.append("not monic")
    terms = np.array([m for g in basis for m in g], dtype=np.int64)
    lead_rows, row = [], 0
    for g, lm in zip(basis, leads):
        lead_rows.append(row + list(g).index(lm))
        row += len(g)
    for k, lm in enumerate(leads):
        hit = (terms >= np.array(lm, dtype=np.int64)).all(axis=1)
        hit[lead_rows[k]] = False
        if hit.any():
            out.append("not reduced: lead %d divides another term" % k)
            break
    red = Reducer(basis, rank, p)
    bad = [i for i, g in enumerate(gens) if red.normal_form(g)]
    if bad:
        out.append("generators %s do not reduce to zero" % bad[:5])
    cand = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
            if any(x and y for x, y in zip(leads[i], leads[j]))]
    for i, j in rng.sample(cand, min(pairs, len(cand))):
        if red.normal_form(spoly(basis[i], basis[j], rank, p)):
            out.append("S-pair (%d, %d) does not reduce to zero" % (i, j))
    return out


# ---------------------------------------------------------------------------
# report witnesses


def check_record_problems(rec: dict, instance: dict) -> List[str]:
    """Property checks on one check record of a conekit report."""
    name, w = rec["name"], rec["witnesses"]
    n, h = instance["n"], instance["h"]
    nx = n + 2
    f = parse_poly(instance["f"], ["x%d" % i for i in range(nx)], None)
    deg_x = total_degree(f)
    out = []
    if rec["status"] == "INCONCLUSIVE":
        out.append("INCONCLUSIVE")
    if name == "w-covering" and "fiber-counts" in w:
        if not w["fiber-counts"] or any(c != deg_x for c in w["fiber-counts"]):
            out.append("fiber-counts %s != deg f = %d" % (w["fiber-counts"], deg_x))
    if "sample-points" in w:
        p = int(instance["field"].split(":")[1])
        for pt in w["sample-points"]:
            if len(pt) != nx or not any(c % p for c in pt) or evaluate(f, pt) % p:
                out.append("sample point %s is not on f = 0 mod %d" % (pt, p))
    # a PASS or FAIL verdict of formula-3-5 is made only on a proper cut
    if name == "formula-3-5" and rec["status"] in ("PASS", "FAIL"):
        deg_delta = 1  # delta is a point or a line
        total = w.get("total-intersection-degree")
        mult = w.get("delta-part-multiplicity")
        resid = w.get("residual-degree")
        if total != deg_x * deg_delta:
            out.append("total-intersection-degree %s != deg X * deg delta = %d"
                       % (total, deg_x * deg_delta))
        if mult is None or resid is None or Fraction(mult) * deg_delta + resid != total:
            out.append("multiplicity %s * deg delta + residual %s != total %s"
                       % (mult, resid, total))
    if name == "digamma":
        dims = w.get("component-dimensions")
        if dims is None or len(dims) != 2 or any(d != n + 2 - h for d in dims):
            out.append("component-dimensions %s != two of n+2-h = %d" % (dims, n + 2 - h))
    return out
