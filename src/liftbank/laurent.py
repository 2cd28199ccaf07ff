"""Exact Laurent polynomial arithmetic over the rationals.

A filter F(z) = sum_n f(n) z^(-n) is stored as a finite map from the
impulse-response index n to a nonzero integer numerator, over one shared
positive denominator: f(n) = num[n] / den.  Note the sign convention:
the stored index n is the exponent of z^(-n), so multiplying by z^(-1)
*increases* indices by one.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, index
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .errors import EmptySupport, InvalidArgument

Rational = Union[int, Fraction]

_set = object.__setattr__


def _canonical(num: Dict[int, int], den: int) -> Tuple[Dict[int, int], int]:
    """num / den with the zero numerators dropped and gcd(den, *num) divided out."""
    g = gcd(den, *num.values()) if den != 1 else 1  # zeros do not change it
    if g != 1:
        num = {n: v // g for n, v in num.items() if v}
        den //= g
    elif 0 in num.values():
        num = {n: v for n, v in num.items() if v}
    return (num, den) if num else (num, 1)


def _lowest(vals: List[int], den: int, part: int) -> Tuple[List[int], int]:
    """vals / den in lowest terms, given a divisor part of den that gcd(den, *vals) divides."""
    g = gcd(part, *vals) if part > 1 else 1
    return (list(map(floordiv, vals, repeat(g))), den // g) if g > 1 else (vals, den)


def _muladd(c: Dict[int, int], a: Dict[int, int], b: Dict[int, int], f: int) -> Dict[int, int]:
    """c += f * a * b on integer numerator dicts, in place; zero numerators
    stay in c for the caller's _canonical.  Returns c."""
    if len(a) < len(b):
        a, b = b, a
    get = c.get
    for m, w in b.items():
        w *= f
        for n, v in a.items():
            k = n + m
            c[k] = get(k, 0) + v * w
    return c


def _split(num: Dict[int, int], up: int = 0) -> Tuple[dict, dict]:
    """num's even and odd taps, tap n at index (n + up) >> 1 (see LaurentPoly._phases)."""
    out: Tuple[dict, dict] = ({}, {})
    for n, v in num.items():
        out[n & 1][(n + up) >> 1] = v
    return out


def _span(num: Dict[int, int]) -> Tuple[int, int]:
    if not num:
        raise EmptySupport("zero polynomial has empty support")
    return min(num), max(num)


# Exact rationals <-> text, for str() here and for the file formats and the
# CLI.  CPython refuses int <-> decimal str conversions past a process-wide
# digit limit (4300 by default, never below 640); factorization coefficients
# can be longer.  Numbers are converted in pieces of at most _CHUNK_DIGITS
# digits, which every allowed limit admits, without touching the limit.
_CHUNK_DIGITS = 512
_CHUNK_BITS = 1700      # 2**1700 < 10**512


def _int_str(n: int) -> str:
    """str(n) for an int of any length.  A long n is split by bits, hi * 2**w
    + lo with a floor shift (n may be negative), and put back together in exact
    decimal arithmetic, as CPython 3.12's _pylong does: no step is quadratic."""
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    pow2 = cache(lambda w: Decimal(2) ** w)
    def dec(n: int, bits: int) -> Decimal:
        if bits <= _CHUNK_BITS:
            return Decimal(n)
        w = bits >> 1
        return dec(n >> w, bits - w) * pow2(w) + dec(n & (1 << w) - 1, w)
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])):
        return str(dec(n, n.bit_length()))


def _str_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _str_int(digits[:-low]) * 10 ** low + _str_int(digits[-low:])


def _fmt_ratio(p: int, q: int) -> str:
    """`p` or `p/q` for the rational p / q, q > 0, in lowest terms, of any length."""
    g = gcd(p, q)
    num = _int_str(p // g)
    return num if q == g else f"{num}/{_int_str(q // g)}"


def _fmt_fraction(v: Fraction) -> str:
    return _fmt_ratio(v.numerator, v.denominator)


# Evaluating at z0 != +-1 builds each z0 ** -n exactly, about |n| * bits(z0)
# bits, so a large index makes the value huge and its computation endless.
# Evaluations whose powers would pass this many bits are refused instead.
_EVAL_MAX_BITS = 1 << 20


def _rational(v, tap: Optional[int] = None) -> Fraction:
    """v as a Fraction, or InvalidArgument unless v is a finite number: a str
    (which Fraction would parse), None, NaN or an infinity; tap is v's tap."""
    if type(v) is Fraction:   # immutable: no copy
        return v
    if not isinstance(v, str):
        try:
            return Fraction(v)
        except (TypeError, ValueError, OverflowError):
            pass
    what = f"scalar {v!r}" if tap is None else f"coefficient {v!r} at tap {tap}"
    raise InvalidArgument(f"{what} is not a finite number")


def _trials(v, who: str) -> int:
    """v as a trial count, an int >= 1 (True counts as 1), or InvalidArgument
    naming the caller who: no sample is no evidence."""
    try:
        v = index(v)
    except TypeError:
        raise InvalidArgument(f"{who}'s trials must be an integer, got {type(v).__name__}") from None
    if v < 1:
        raise InvalidArgument(f"{who} needs at least one trial, got {v}")
    return v


def is_dyadic(q: Rational) -> bool:
    """True iff q has a power-of-two denominator (integers included)."""
    den = _rational(q).denominator
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
    only the public constructor converts values through `Fraction`.  It
    takes each index through `operator.index`, so `int` and `bool` pass,
    and refuses any other (`1.5`, `2.0`, `'7'`, `None`) with
    InvalidArgument, because the keys of `_num` are read as ints.  So is
    a coefficient that is a str, None, NaN or infinite, and an argument
    that is neither a mapping nor an iterable of (index, coefficient) pairs.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Union[Mapping[int, Rational], Iterable[Tuple[int, Rational]], None] = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else (coeffs or ())
        terms = []
        try:
            for n, v in items:
                try:
                    n = index(n)
                except TypeError:
                    raise InvalidArgument(f"tap index {n!r} is not an integer") from None
                if type(v) is not int:
                    v = _rational(v, n)
                if v:
                    terms.append((n, v))
        except (TypeError, ValueError):     # not iterable, or an item not a pair
            raise InvalidArgument(f"LaurentPoly takes a mapping or (index, coefficient) pairs, "
                                  f"got {type(coeffs).__name__} {reprlib.repr(coeffs)}") from None
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

    @classmethod
    def _from_ratios(cls, taps: Mapping[int, Tuple[int, int]]) -> "LaurentPoly":
        """Tap n = p/q for each n -> (p, q), q > 0, over one lcm of the q's."""
        den = lcm(*{q for _, q in taps.values()})
        return cls._reduced({n: p * (den // q) for n, (p, q) in taps.items()}, den)

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

    def _taps(self) -> List[Tuple[int, str]]:
        """(n, tap n as `p` or `p/q`) in increasing n: one gcd per tap, no Fraction."""
        return [(n, _fmt_ratio(self._num[n], self._den)) for n in sorted(self._num)]

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
        return _span(self._num)

    def order(self) -> int:
        a, b = self.support()
        return b - a

    def supprad(self) -> int:
        a, b = self.support()
        return (b - a + 1) // 2

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._add_product(other, ONE._num, 1, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._add_product(other, ONE._num, 1, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({n: -v for n, v in self._num.items()}, self._den)

    def __mul__(self, other: Union["LaurentPoly", Rational]) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        return ZERO._add_product(self, other._num, other._den, 1)

    def _add_product(self, a: "LaurentPoly", b: Dict[int, int], b_den: int, sign: int) -> "LaurentPoly":
        """self + sign * a * b / b_den, for integer numerators b, by one
        _muladd over lcm(den, den_a * b_den)."""
        if not a._num or not b:
            return self
        dp = a._den * b_den
        den = lcm(self._den, dp)
        fs = den // self._den
        c = dict(self._num) if fs == 1 else {n: v * fs for n, v in self._num.items()}
        return LaurentPoly._reduced(_muladd(c, a._num, b, sign * (den // dp)), den)

    def __rmul__(self, other: Rational) -> "LaurentPoly":
        return self.scale(other)

    def scale(self, k: Rational) -> "LaurentPoly":
        k = _rational(k)
        p = k.numerator
        return LaurentPoly._reduced({n: v * p for n, v in self._num.items()},
                                    self._den * k.denominator)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^(-k), i.e. delay the impulse response by an integer k."""
        try:
            k = index(k)
        except TypeError:
            raise InvalidArgument(f"shift {k!r} is not an integer") from None
        return LaurentPoly._make({n + k: v for n, v in self._num.items()}, self._den)

    def reflect(self) -> "LaurentPoly":
        """F(z) -> F(z^(-1)), i.e. f(n) -> f(-n).  An involution."""
        return LaurentPoly._make({-n: v for n, v in self._num.items()}, self._den)

    def _phases(self, up: int = 0) -> Tuple["LaurentPoly", "LaurentPoly"]:
        """(E, O) with F(z) = E(z^2) + z^(-1) O(z^2): E(n) = f(2n) and
        O(n) = f(2n + 1); with up = 1, O(n) = f(2n - 1) instead."""
        return tuple(LaurentPoly._reduced(p, self._den) for p in _split(self._num, up))

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
        z0 = _rational(z0)
        if not z0:
            raise ZeroDivisionError("cannot evaluate at z = 0")
        if self._num and abs(z0) != 1:
            span = max(-min(self._num), max(self._num))
            bits = span * max(z0.numerator.bit_length(), z0.denominator.bit_length())
            if bits > _EVAL_MAX_BITS:
                raise InvalidArgument(f"evaluation at {z0} needs about {bits} bits "
                                      f"per power, more than {_EVAL_MAX_BITS}")
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
        terms = (v if n == 0 else f"{v}*z" if n == -1 else f"{v}*z^{-n}" for n, v in self._taps())
        return " + ".join(terms) or "0"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.constant(1)
