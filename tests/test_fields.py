"""The field objects: inverses, conversion from ints, literals and sampling.

The arithmetic itself is Python's; these tests cover what differs between
Q and F_p.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import fields
from conekit.fields import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    FieldConfig,
    FieldError,
    PrimeField,
    QQ,
    is_prime,
)

FP = PrimeField(DEFAULT_PRIME)


def fp_elems():
    return st.integers(min_value=0, max_value=DEFAULT_PRIME - 1)


def qq_elems():
    return st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@pytest.mark.parametrize("n,expected", [
    (2, True), (3, True), (4, False), (31991, True), (32003, True),
    (1, False), (0, False), (561, False), (7919, True), (2**61 - 1, True),
])
def test_is_prime(n, expected):
    assert is_prime(n) == expected


@given(a=fp_elems())
def test_prime_field_inverse(a):
    F = FP
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
    else:
        assert a * F.inv(a) % F.p == F.one
        assert 0 < F.inv(a) < F.p


@given(a=qq_elems(), b=qq_elems())
def test_rational_field_exactness(a, b):
    F = QQ
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            F.inv(b)
    else:
        assert a * F.inv(b) * b == a
        assert isinstance(F.inv(b), Fraction)


@given(n=st.integers(-10**12, 10**12))
def test_from_int(n):
    assert FP.from_int(n) == n % DEFAULT_PRIME
    assert 0 <= FP.from_int(n) < DEFAULT_PRIME
    q = QQ.from_int(n)
    assert isinstance(q, Fraction) and q == n
    assert (FP.p, QQ.p) == (DEFAULT_PRIME, 0)


@given(a=fp_elems())
def test_coeff_str_round_trip_fp(a):
    assert FP.coeff_parse(FP.coeff_str(a)) == a


@given(a=qq_elems())
def test_coeff_str_round_trip_qq(a):
    assert QQ.coeff_parse(QQ.coeff_str(a)) == a


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, DEFAULT_PRIME - 1))
def test_coeff_parse_fraction(num, den):
    text = "%d/%d" % (num, den)
    q = QQ.coeff_parse(text)
    assert isinstance(q, Fraction) and q == Fraction(num, den)
    v = FP.coeff_parse(text)
    assert 0 <= v < DEFAULT_PRIME
    assert v * den % DEFAULT_PRIME == num % DEFAULT_PRIME


def test_coeff_parse_by_zero():
    with pytest.raises(ZeroDivisionError):
        FP.coeff_parse("1/%d" % DEFAULT_PRIME)
    with pytest.raises(ZeroDivisionError):
        QQ.coeff_parse("1/0")


def test_field_config_parse():
    assert FieldConfig.parse("Q").field() is QQ
    cfg = FieldConfig.parse("Fp:32003")
    assert isinstance(cfg.field(), PrimeField)
    assert cfg.field().p == SECOND_PRIME
    with pytest.raises(FieldError):
        FieldConfig.parse("Fp:32004")  # not prime


def test_field_config_rng_is_process_stable():
    # same seed and tag must give the same stream in any process
    cfg = FieldConfig.parse("Fp:31991")
    a = cfg.rng("tag", 1).randrange(10**9)
    b = cfg.rng("tag", 1).randrange(10**9)
    c = cfg.rng("tag", 2).randrange(10**9)
    assert a == b
    assert a != c


def test_sample_nonzero_never_zero():
    rng = random.Random(0)
    for _ in range(50):
        a = FP.sample_nonzero(rng)
        assert 0 < a < DEFAULT_PRIME
        q = QQ.sample_nonzero(rng)
        assert isinstance(q, Fraction) and q != 0


RNG_TAGS = ((0, ()), (7, ("combo", 0)), (1, ("e0", 31991)))

# seeded_rng draws at RNG_TAGS, a cache digest, and whether hashlib was
# loaded, as JSON; its %s takes a patch of sys.modules
DIGESTS_RUN = """
import json, sys
%s
from conekit import cache, fields
print(json.dumps([[fields.seeded_rng(seed, *tag).randrange(10**9) for seed, tag in %r],
                  cache._digest('{"field":"Fp:31991"}'), "hashlib" in sys.modules]))
"""


def test_sha256_fallback_gives_hashlib_digests():
    # with neither builtin module (_sha2 from 3.12, _sha256 before), fields
    # takes hashlib's sha256, whose digests and draws are the same
    src = os.path.dirname(os.path.dirname(os.path.abspath(fields.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs = []
    for patch in ("", 'sys.modules["_sha2"] = sys.modules["_sha256"] = None'):
        proc = subprocess.run([sys.executable, "-c", DIGESTS_RUN % (patch, RNG_TAGS)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    (builtin_draws, builtin_digest, builtin_hashlib), (draws, digest, fallback_hashlib) = runs
    expected = [random.Random(int.from_bytes(
        hashlib.sha256(repr((seed,) + tag).encode()).digest()[:8], "big")).randrange(10**9)
        for seed, tag in RNG_TAGS]
    assert builtin_draws == draws == expected
    assert builtin_digest == digest == hashlib.sha256(b'{"field":"Fp:31991"}').hexdigest()
    assert (builtin_hashlib, fallback_hashlib) == (False, True)
