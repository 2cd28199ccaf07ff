"""Exact Laurent polynomial arithmetic over the rationals.

A filter F(z) = sum_n f(n) z^(-n) is stored as a finite map from the
impulse-response index n to a nonzero integer numerator, over one shared
positive denominator: f(n) = num[n] / den.  Note the sign convention:
the stored index n is the exponent of z^(-n), so multiplying by z^(-1)
*increases* indices by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import EmptySupport

Rational = Union[int, Fraction]

_set = object.__setattr__


def _canonical(num: Dict[int, int], den: int) -> Tuple[Dict[int, int], int]:
    """num / den with the zero numerators dropped and gcd(den, *num) divided out."""
    if 0 in num.values():
        num = {n: v for n, v in num.items() if v}
    if not num:
        return num, 1
    g = gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        num = {n: v // g for n, v in num.items()}
        den //= g
    return num, den


# Exact rationals <-> text, for str() here and for the file formats and the
# CLI.  CPython refuses int <-> decimal str conversions past a process-wide
# digit limit (4300 by default, never below 640); factorization coefficients
# can be longer.  Numbers are converted in pieces of at most _CHUNK_DIGITS
# digits, which every allowed limit admits, without touching the limit.
_CHUNK_DIGITS = 512
_CHUNK_BITS = 1700      # 2**1700 < 10**512


def _int_str(n: int) -> str:
    """str(n) for an int of any length."""
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    low = int(n.bit_length() * 0.30103) // 2   # about half the digits
    high, rest = divmod(n, 10 ** low)
    return _int_str(high) + _int_str(rest).zfill(low)


def _str_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _str_int(digits[:-low]) * 10 ** low + _str_int(digits[-low:])


def _fmt_fraction(v: Fraction) -> str:
    """`p` or `p/q`, for a rational of any length."""
    num = _int_str(v.numerator)
    return num if v.denominator == 1 else f"{num}/{_int_str(v.denominator)}"


def is_dyadic(q: Rational) -> bool:
    """True iff q has a power-of-two denominator (integers included)."""
    den = Fraction(q).denominator
    return den & (den - 1) == 0


@dataclass(frozen=True)
class SymmetryTag:
    """Linear phase classification of a scalar filter.

    kind is one of WS, HS, WA, HA, NONE; axis is the symmetry center
    (an integer for WS/WA, an odd multiple of 1/2 for HS/HA, None for NONE).
    """

    kind: str
    axis: Optional[Fraction] = None


class LaurentPoly:
    """Immutable Laurent polynomial with exact rational coefficients.

    `_num` maps each index with a nonzero coefficient to that coefficient's
    integer numerator over the shared denominator `_den` > 0, and
    gcd(den, *numerators) == 1 (den == 1 for the zero polynomial).  The
    form is canonical, so equal polynomials have equal `_num` and `_den`.
    Storage grows with the number of nonzero taps, not with the index
    span.  Arithmetic results are built by `_make` (already canonical) or
    `_reduced` (integer numerators that may hold zeros or a common factor);
    only the public constructor converts values through `Fraction`.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Union[Mapping[int, Rational], Iterable[Tuple[int, Rational]], None] = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else (coeffs or ())
        terms = []
        for n, v in items:
            v = v if type(v) is int else Fraction(v)
            if v:
                terms.append((int(n), v))
        den = lcm(*{v.denominator for _, v in terms})
        num: Dict[int, int] = {}
        for n, v in terms:
            num[n] = num.get(n, 0) + v.numerator * (den // v.denominator)
        num, den = _canonical(num, den)
        _set(self, "_num", num)
        _set(self, "_den", den)

    @classmethod
    def _make(cls, num: Dict[int, int], den: int) -> "LaurentPoly":
        """Trusted constructor: num has no zeros and gcd(den, *num) == 1."""
        p = object.__new__(cls)
        _set(p, "_num", num)
        _set(p, "_den", den)
        return p

    @classmethod
    def _reduced(cls, num: Dict[int, int], den: int) -> "LaurentPoly":
        """num / den for any integer numerators and den > 0."""
        return cls._make(*_canonical(num, den))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, v: Rational) -> "LaurentPoly":
        return cls({0: v})

    @classmethod
    def monomial(cls, n: int, v: Rational = 1) -> "LaurentPoly":
        """The monomial v * z^(-n)."""
        return cls({n: v})

    # -- mapping access ----------------------------------------------------

    def coeff(self, n: int) -> Fraction:
        v = self._num.get(n)
        return Fraction(v, self._den) if v else Fraction(0)

    def items(self):
        den = self._den
        return {n: Fraction(v, den) for n, v in self._num.items()}.items()

    def indices(self):
        return self._num.keys()

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def is_dyadic(self) -> bool:
        # The shared denominator is the lcm of the coefficients' own.
        return self._den & (self._den - 1) == 0

    @property
    def is_integer(self) -> bool:
        return self._den == 1

    # -- measures ----------------------------------------------------------

    def support(self) -> Tuple[int, int]:
        """Support interval [a, b]; raises EmptySupport on the zero polynomial."""
        if not self._num:
            raise EmptySupport("zero polynomial has empty support")
        return min(self._num), max(self._num)

    def order(self) -> int:
        a, b = self.support()
        return b - a

    def supprad(self) -> int:
        a, b = self.support()
        return (b - a + 1) // 2

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, -1)

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other over the lcm of the two denominators."""
        da, db = self._den, other._den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        c = dict(self._num) if fa == 1 else {n: v * fa for n, v in self._num.items()}
        get = c.get
        for n, v in other._num.items():
            c[n] = get(n, 0) + v * fb
        return LaurentPoly._reduced(c, den)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({n: -v for n, v in self._num.items()}, self._den)

    def __mul__(self, other: Union["LaurentPoly", Rational]) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        long, short = self._num, other._num
        if len(long) < len(short):
            long, short = short, long
        c: Dict[int, int] = {}
        get = c.get
        for m, w in short.items():
            for n, v in long.items():
                k = n + m
                c[k] = get(k, 0) + v * w
        return LaurentPoly._reduced(c, self._den * other._den)

    def __rmul__(self, other: Rational) -> "LaurentPoly":
        return self.scale(other)

    def scale(self, k: Rational) -> "LaurentPoly":
        k = Fraction(k)
        p = k.numerator
        return LaurentPoly._reduced({n: v * p for n, v in self._num.items()},
                                    self._den * k.denominator)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^(-k), i.e. delay the impulse response by k."""
        return LaurentPoly._make({n + k: v for n, v in self._num.items()}, self._den)

    def reflect(self) -> "LaurentPoly":
        """F(z) -> F(z^(-1)), i.e. f(n) -> f(-n).  An involution."""
        return LaurentPoly._make({-n: v for n, v in self._num.items()}, self._den)

    def _phases(self) -> Tuple["LaurentPoly", "LaurentPoly"]:
        """(E, O) with F(z) = E(z^2) + z^(-1) O(z^2): E(n) = f(2n) and
        O(n) = f(2n + 1)."""
        even: Dict[int, int] = {}
        odd: Dict[int, int] = {}
        for n, v in self._num.items():
            (odd if n & 1 else even)[n >> 1] = v
        return LaurentPoly._reduced(even, self._den), LaurentPoly._reduced(odd, self._den)

    @staticmethod
    def _interleave(even: "LaurentPoly", odd: "LaurentPoly") -> "LaurentPoly":
        """Inverse of _phases: E(z^2) + z^(-1) O(z^2)."""
        den = lcm(even._den, odd._den)
        fe, fo = den // even._den, den // odd._den
        c = {2 * n: v * fe for n, v in even._num.items()}
        c.update({2 * n + 1: v * fo for n, v in odd._num.items()})
        # Canonical already: the keys are disjoint, and a prime that divides
        # den to its full power divides one input's den to that power, so
        # some numerator of that input stays prime to it after scaling.
        return LaurentPoly._make(c, den)

    def __call__(self, z0: Rational) -> Fraction:
        """Exact evaluation at a nonzero rational point."""
        z0 = Fraction(z0)
        if not z0:
            raise ZeroDivisionError("cannot evaluate at z = 0")
        total = sum((v * z0 ** (-n) for n, v in self._num.items()), Fraction(0))
        return total / self._den

    # -- symmetry ----------------------------------------------------------

    def symmetry(self) -> SymmetryTag:
        """Classify WS/HS/WA/HA about the forced axis (a + b) / 2."""
        a, b = self.support()
        two_axis = a + b  # axis = (a + b)/2; reflected index is 2*axis - n
        num = self._num
        if all(num.get(two_axis - n) == v for n, v in num.items()):
            kind = "WS" if two_axis % 2 == 0 else "HS"
        elif all(num.get(two_axis - n) == -v for n, v in num.items()):
            kind = "WA" if two_axis % 2 == 0 else "HA"
        else:
            return SymmetryTag("NONE")
        return SymmetryTag(kind, Fraction(two_axis, 2))

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for n in sorted(self._num):
            v = _fmt_fraction(Fraction(self._num[n], self._den))
            if n == 0:
                parts.append(v)
            else:
                e = -n
                parts.append(f"{v}*z^{e}" if e != 1 else f"{v}*z")
        return " + ".join(parts)


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.constant(1)
