"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

All arithmetic is exact.  Elements are plain Python values (``Fraction``
for the rationals, ``int`` residues for prime fields) and the field
objects carry the operations, so polynomials stay lightweight.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction


class FieldError(Exception):
    pass


def seeded_rng(seed: int, *tag) -> random.Random:
    """Deterministic per-purpose stream, decoupled from other draws."""
    # hash() on strings is salted per process; derive a stable seed
    digest = hashlib.sha256(repr((seed,) + tag).encode()).digest()
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
    """Common interface; concrete fields below."""

    name: str

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero in %s" % self.name)
        return self.mul(a, self.inv(b))

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, fr: Fraction):
        return self.div(self.from_int(fr.numerator), self.from_int(fr.denominator))

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
            if not self.is_zero(a):
                return a

    def coeff_str(self, a) -> str:
        return str(a)

    def coeff_parse(self, s: str):
        if "/" in s:
            num, den = s.split("/")
            return self.from_fraction(Fraction(int(num), int(den)))
        return self.from_int(int(s))

    def coeff_bits(self, a) -> int:
        return 1

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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, fr):
        return Fraction(fr)

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

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n % self.p

    def sample(self, rng):
        return rng.randrange(self.p)

    def coeff_parse(self, s):
        if "/" in s:
            num, den = s.split("/")
            return self.div(self.from_int(int(num)), self.from_int(int(den)))
        return self.from_int(int(s))


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

