"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

All arithmetic is exact.  Elements are plain Python values (``Fraction``
for the rationals, ``int`` residues for prime fields) under Python's own
operators.  A field object holds only what differs between the two: its
characteristic ``p`` (0 for Q), inverses, conversion from ints, sampling
and the printed form of a coefficient.  Code that computes with
coefficients reduces its result once by ``% p`` when ``p`` is nonzero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# hashlib loads libcrypto, several MiB per process, for a few short digests;
# the interpreter's builtin module gives the same bytes
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


class FieldError(Exception):
    pass


def seeded_rng(seed: int, *tag) -> random.Random:
    """Deterministic per-purpose stream, decoupled from other draws."""
    # hash() on strings is salted per process; derive a stable seed
    digest = sha256(repr((seed,) + tag).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """What differs between Q and F_p; the arithmetic itself is Python's.

    `p` is the characteristic: 0 for Q, where values are `Fraction`s and
    nothing is reduced, and the modulus for F_p, where values are int
    residues and a result is reduced by one `% p`.
    """

    name: str
    p = 0

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def sample_nonzero(self, rng: random.Random):
        while True:
            a = self.sample(rng)
            if a:
                return a

    def coeff_str(self, a) -> str:
        return str(a)

    def coeff_parse(self, s: str):
        """The value of an integer or `a/b` literal."""
        if "/" not in s:
            return self.from_int(int(s))
        num, den = s.split("/")
        q = self.from_int(int(num)) * self.inv(self.from_int(int(den)))
        return q % self.p if self.p else q

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class RationalField(Field):
    """Q with Fraction elements (auto-canonical: gcd-reduced, positive denominator)."""

    name = "Q"

    # height bound for sampled rationals, |num|,|den| <= 2**16
    SAMPLE_HEIGHT = 1 << 16

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def sample(self, rng):
        num = rng.randint(-self.SAMPLE_HEIGHT, self.SAMPLE_HEIGHT)
        den = rng.randint(1, self.SAMPLE_HEIGHT)
        return Fraction(num, den)

    def coeff_str(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def coeff_bits(self, a):
        return a.numerator.bit_length() + a.denominator.bit_length()


class PrimeField(Field):
    """F_p with int residues in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError("modulus %d is not prime" % p)
        self.p = p
        self.name = "Fp:%d" % p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def sample(self, rng):
        return rng.randrange(self.p)


DEFAULT_PRIME = 31991
SECOND_PRIME = 32003

QQ = RationalField()


@dataclass(frozen=True)
class FieldConfig:
    """Scenario-level field selection plus the RNG seed for sampling."""

    kind: str = "prime-field"  # "rationals" | "prime-field"
    p: int = DEFAULT_PRIME
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("rationals", "prime-field"):
            raise FieldError("unknown field kind %r" % self.kind)
        if self.kind == "prime-field" and not is_prime(self.p):
            raise FieldError("modulus %d is not prime" % self.p)

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FieldConfig":
        """Parse 'Q' or 'Fp:31991'."""
        if spec == "Q":
            return cls(kind="rationals", seed=seed)
        if spec.startswith("Fp:") and spec[3:].isdigit():
            return cls(kind="prime-field", p=int(spec[3:]), seed=seed)
        raise FieldError("unknown field spec %r" % spec)

    def field(self) -> Field:
        if self.kind == "rationals":
            return QQ
        return PrimeField(self.p)

    def rng(self, *tag) -> random.Random:
        return seeded_rng(self.seed, *tag)

    @property
    def spec(self) -> str:
        return "Q" if self.kind == "rationals" else "Fp:%d" % self.p

