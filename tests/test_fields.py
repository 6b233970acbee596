import copy
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diadeform.errors import BadScalar, MixedFields
from diadeform.fields import GFElement, PrimeField, QQ, _is_prime, parse_field


def test_rationals_basics():
    half = QQ.parse("1/2")
    assert half + half == QQ.one
    assert QQ.parse("-3/6") == QQ.parse("-1/2")
    assert QQ.format(QQ.parse("4/6")) == "2/3"
    assert QQ.from_int(7) == Fraction(7)
    assert QQ.owns(QQ.zero) and QQ.owns(Fraction(1, 3))
    assert QQ.owns(1) and not QQ.owns(True) and not QQ.owns(0.5)


def test_rationals_bad_scalar():
    # the messages are the workbench's own, whatever the rational type;
    # a scalar is "p" or "p/q", so decimal, exponent and underscore forms
    # are refused from their text, without building 10 ** 1000000000
    for field, kind in ((QQ, "rational"), (PrimeField(7), "scalar")):
        for text, why in (("1/0", "zero denominator"),
                          ("pi", "not a rational"),
                          ("1e5", "not a rational"),
                          ("0.5", "not a rational"),
                          ("1_0", "not a rational"),
                          ("1e1000000000", "not a rational")):
            start = time.perf_counter()
            with pytest.raises(BadScalar) as exc:
                field.parse(text)
            assert time.perf_counter() - start < 1.0
            assert str(exc.value) == "bad %s %r: %s" % (kind, text, why)


def test_gf_arithmetic():
    F = PrimeField(7)
    a, b = F.from_int(3), F.from_int(5)
    assert a + b == F.from_int(1)
    assert a * b == F.from_int(1)
    assert -a == F.from_int(4)
    assert a - b == F.from_int(5)
    assert (a / b) * b == a
    assert F.from_int(10) == F.from_int(3)
    assert F.parse("5/3") == b / a
    assert F.parse("7/7") == F.one and F.parse("+14/7") == F.from_int(2)
    with pytest.raises(BadScalar, match=r"'1/14' is 0 in GF\(7\)"):
        F.parse("1/14")
    assert F.format(F.from_int(-1)) == "6"


@given(st.integers(-50, 50))
def test_gf_inverse(n):
    F = PrimeField(11)
    x = F.from_int(n)
    if x != F.zero:
        assert x * (F.one / x) == F.one


def test_gf_compares_to_int():
    F = PrimeField(5)
    assert F.from_int(0) == 0
    assert F.from_int(1) == 1
    assert F.from_int(3) != 0


@pytest.mark.parametrize("p", [5, 32003])
def test_gf_int_equality_agrees_with_hash(p):
    # an element equals one int only, its residue in [0, p), so that sets
    # and dicts mixing elements and ints find what == finds
    F = PrimeField(p)
    ints = (-p - 1, -p, -1, 0, 1, 2, p - 1, p, p + 1, 2 * p)
    for x in map(F.from_int, ints):
        for n in ints:
            assert (x == n) == (n == x.v)
            if x == n:
                assert hash(x) == hash(n)
            assert (n in {x}) == (x == n) == (x in {n})
            assert {x: True}.get(n, False) == (x == n)


def test_gf_element_is_immutable():
    a = PrimeField(5).from_int(3)
    for act in (lambda: setattr(a, "v", 1), lambda: delattr(a, "p")):
        with pytest.raises(AttributeError):
            act()
    assert a.v == 3 and repr(a) == "3"
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert hash(GFElement(5, 3)) == hash(a)


def test_mixed_primes_rejected():
    a = GFElement(5, 2)
    b = GFElement(7, 2)
    with pytest.raises(MixedFields):
        a + b


def test_prime_required():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_parse_field():
    assert parse_field("rationals") == QQ
    assert parse_field("gf 7") == PrimeField(7)
    assert parse_field("gf:13") == PrimeField(13)
    with pytest.raises(BadScalar):
        parse_field("reals")
    with pytest.raises(BadScalar):
        parse_field("gf:4")


def test_primality_is_exact_and_fast():
    # 2^61 - 1 is prime; trial division would need about 10^9 steps
    assert parse_field("gf:2305843009213693951").p == 2 ** 61 - 1
    # 3 divides 2^61 + 1; 561 = 3 * 11 * 17 is a Carmichael number;
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (2 ** 61 + 1, 561, 3215031751):
        with pytest.raises(BadScalar):
            parse_field("gf:%d" % n)
    small = [n for n in range(200) if n > 1
             and all(n % d for d in range(2, n))]
    assert [n for n in range(200) if _is_prime(n)] == small
    with pytest.raises(ValueError):
        PrimeField(3317044064679887385961981 + 2)
