"""Exact base fields: the rationals and prime fields GF(p).

A rational scalar is a plain ``int`` when it is integral, and otherwise a
``gmpy2.mpq`` when gmpy2 is installed or a ``fractions.Fraction`` when it
is not.  The types interoperate, compare equal and hash alike, so dict
keys and ``==`` do not depend on which one a value has.  GF(p) scalars are
``GFElement``.  All scalar types support ``+ - *``, compare equal to
``0``/``1`` where appropriate, and are hashable, so all linear algebra
code is written field-agnostically.  Divide only through ``field.inv(x)``:
``/`` on two ints gives a float.  ``Series`` scalars of the truncated
power-series ring K[t]/(t^{N+1}) support the same except division, so
products, axiom checks and matrix arithmetic also run over that ring.
"""

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = Fraction

from .errors import BadScalar, MixedFields

_RATIONAL_TYPES = (Fraction,) if _mpq is Fraction else (Fraction, type(_mpq(0)))


# an integer token: ASCII digits with an optional sign
INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")
# a scalar token: an integer p, or p/q with a natural number q
_SCALAR = re.compile(r"(%s)(?:/([0-9]+))?" % INTEGER_TOKEN.pattern)


def _parse_ratio(text, kind):
    """(p, q) in lowest terms with q > 0 for a token "p" or "p/q"; ``kind``
    names the scalar in error messages.  Nothing else is read, so no token
    makes an integer longer than itself."""
    bad = "bad %s %r: " % (kind, text)
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise BadScalar(bad + "not a rational")
    try:
        p, q = map(int, match.groups("1"))
    except ValueError:  # more digits than int() converts
        raise BadScalar(bad + "not a rational") from None
    if q == 0:
        raise BadScalar(bad + "zero denominator")
    g = math.gcd(p, q)
    return p // g, q // g


# Miller-Rabin to these bases is exact below the bound (Sorenson-Webster)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for n < _MR_BOUND."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1
               or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _MR_BASES)


class GFElement:
    """Canonical representative in [0, p-1] of a residue mod p; immutable."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        _set_p(self, p)
        _set_v(self, v)

    def __setattr__(self, name, value):
        raise AttributeError("GFElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("GFElement is immutable")

    def __reduce__(self):
        return GFElement, (self.p, self.v)

    def _value(self, other):
        """other's residue mod p as an int (not yet reduced for an int), or
        None if other is no scalar of GF(p)."""
        if other.__class__ is GFElement:
            if other.p != self.p:
                raise MixedFields("GF(%d) vs GF(%d)" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        w = self._value(other)
        if w is None:
            return NotImplemented
        return _gf(self.p, (self.v + w) % self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._value(other)
        if w is None:
            return NotImplemented
        return _gf(self.p, (self.v - w) % self.p)

    def __rsub__(self, other):
        w = self._value(other)
        if w is None:
            return NotImplemented
        return _gf(self.p, (w - self.v) % self.p)

    def __mul__(self, other):
        w = self._value(other)
        if w is None:
            return NotImplemented
        return _gf(self.p, (self.v * w) % self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._value(other)
        if w is None:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return _gf(self.p, self.v * pow(w, -1, self.p) % self.p)

    def __neg__(self):
        return _gf(self.p, (-self.v) % self.p)

    def __eq__(self, other):
        if other.__class__ is GFElement:
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            # the canonical residue only, so that equal values hash alike
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


_set_p, _set_v = GFElement.p.__set__, GFElement.v.__set__


def _gf(p, v):
    """GFElement(p, v) without the __init__ call, for results of arithmetic."""
    x = object.__new__(GFElement)
    _set_p(x, p)
    _set_v(x, v)
    return x


def canonical(x):
    """An integral rational as an int; any other scalar as it is."""
    if x.__class__ in _RATIONAL_TYPES and x.denominator == 1:
        return int(x)
    return x


class Rationals:
    """Field descriptor for exact rationals: an integral scalar is an int,
    any other a Fraction (or mpq)."""

    name = "rationals"
    zero = 0
    one = 1

    def from_int(self, n):
        return operator.index(n)

    def parse(self, text):
        p, q = _parse_ratio(text, "rational")
        return p if q == 1 else _mpq(p, q)

    def inv(self, x):
        return canonical(1 / _mpq(x))

    def format(self, x):
        return str(x)

    def owns(self, x):
        return type(x) is int or isinstance(x, _RATIONAL_TYPES)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Field descriptor for GF(p), p prime."""

    def __init__(self, p):
        if p >= _MR_BOUND:
            raise ValueError("GF order %d is too large to prove prime" % p)
        if not _is_prime(p):
            raise ValueError("GF order must be prime, got %d" % p)
        self.p = p
        self.name = "gf %d" % p
        self.zero, self.one = _gf(p, 0), _gf(p, 1)

    def from_int(self, n):
        return _gf(self.p, n % self.p)

    def parse(self, text):
        # accept "a" or "a/b" with b invertible mod p
        num, den = _parse_ratio(text, "scalar")
        if den % self.p == 0:
            raise BadScalar("denominator of %r is 0 in GF(%d)" % (text, self.p))
        return self.from_int(num) / self.from_int(den)

    def inv(self, x):
        return self.one / x

    def format(self, x):
        return str(x.v)

    def owns(self, x):
        return isinstance(x, GFElement) and x.p == self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class Series:
    """A truncated power series c_0 + c_1 t + ... + c_N t^N over a field.

    The coefficients are exact and products are truncated at t^N.  There
    is no division: eliminating a matrix over the ring fails loudly.
    """

    __slots__ = ("ring", "c")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.c = tuple(coeffs)

    def __add__(self, other):
        return Series(self.ring, [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        return Series(self.ring, [a - b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        n = len(self.c)
        out = [self.ring.field.zero] * n
        theirs = [(j, b) for j, b in enumerate(other.c) if b]
        for i, a in enumerate(self.c):
            if a:
                for j, b in theirs:
                    if i + j < n:
                        out[i + j] = out[i + j] + a * b
        return Series(self.ring, out)

    def __eq__(self, other):
        return isinstance(other, Series) and self.c == other.c

    def __hash__(self):
        return hash(self.c)


@dataclass(frozen=True)
class SeriesRing:
    """Ring descriptor for K[t]/(t^{N+1}) over a base field K."""

    field: object
    order: int

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return Series(self, [self.field.from_int(n)]
                      + [self.field.zero] * self.order)

    def inv(self, x):
        raise TypeError("K[t]/(t^%d) is not a field: no division"
                        % (self.order + 1))

    def owns(self, x):
        return isinstance(x, Series) and x.ring == self


QQ = Rationals()


def format_scalars(field, values):
    """A coordinate tuple as "(a, b)", each scalar through field.format, so
    that reports do not depend on the scalar type."""
    return "(%s)" % ", ".join(field.format(x) for x in values)


def parse_field(text):
    """Parse a field descriptor: "rationals" or "gf <p>" / "gf:<p>"."""
    words = text.replace(":", " ").split()
    if words == ["rationals"]:
        return QQ
    if len(words) == 2 and words[0] == "gf":
        try:
            p = int(words[1])
        except ValueError:
            raise BadScalar("bad prime %r" % words[1])
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise BadScalar(str(exc)) from None
    raise BadScalar("unknown field %r" % text)
