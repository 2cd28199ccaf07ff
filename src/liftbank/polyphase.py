"""Polyphase-with-advance vectors and 2x2 matrices.

Analysis convention: a scalar filter F(z) splits into components
f_j(n) = f(2n - j), so that F(z) = F0(z^2) + z F1(z^2).  Signals use the
plain even/odd split x_i(n) = x(2n + i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import EmptySupport, NotUnimodular
from .laurent import LaurentPoly, SymmetryTag, _muladd, _set, _split


def _hull(spans, what: str) -> Tuple[int, int]:
    """Smallest interval holding the spans (lo, hi, ...) that are not falsy,
    such as the supports `p and p.support()` of the nonzero polys p."""
    spans = [s for s in spans if s]
    if not spans:
        raise EmptySupport(what)
    return min(s[0] for s in spans), max(s[1] for s in spans)


# ---------------------------------------------------------------------------
# Polyphase vectors


@dataclass(frozen=True)
class PolyphaseVector:
    comp0: LaurentPoly
    comp1: LaurentPoly

    def support(self) -> Tuple[int, int]:
        """Vector-valued support interval [c, d] (union of the components)."""
        return _hull([p and p.support() for p in (self.comp0, self.comp1)], "zero polyphase vector")

    def is_zero(self) -> bool:
        return self.comp0.is_zero() and self.comp1.is_zero()

    def __mul__(self, s) -> "PolyphaseVector":
        """Both components times s, a LaurentPoly or a rational."""
        return PolyphaseVector(self.comp0 * s, self.comp1 * s)


def analyze_filter(f: LaurentPoly) -> PolyphaseVector:
    """Scalar filter -> analysis polyphase vector, f_j(n) = f(2n - j)."""
    return PolyphaseVector(*f._phases(1))


def _row_support(a: int, b: int) -> Tuple[int, int]:
    """Support of analyze_filter(f) for a filter f on [a, b]: tap a lands at
    n = ceil(a/2), tap b at n = floor((b + 1)/2), every other tap between."""
    return -(-a // 2), (b + 1) // 2


def synthesize_filter(v: PolyphaseVector) -> LaurentPoly:
    """Inverse of analyze_filter: F(z) = F0(z^2) + z F1(z^2)."""
    return LaurentPoly._interleave(v.comp0, v.comp1.shift(-1))


def split_signal(x: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Even/odd split of a signal, x_i(n) = x(2n + i)."""
    return x._phases()


def merge_signal(x0: LaurentPoly, x1: LaurentPoly) -> LaurentPoly:
    """Interleave the two phases back into one signal."""
    return LaurentPoly._interleave(x0, x1)


# ---------------------------------------------------------------------------
# Polyphase matrices


@dataclass(frozen=True)
class DetInfo:
    """Determinant diagnostics: det H(z) = amplitude * z^(-delay) when monomial."""

    monomial: bool
    amplitude: Optional[Fraction] = None
    delay: Optional[int] = None

    @property
    def unimodular(self) -> bool:
        return self.monomial and self.amplitude == 1 and self.delay == 0


@dataclass(frozen=True)
class BankClass:
    """Most specific linear phase class of a filter bank.  kind is one of
    WS_DELAY_MINIMIZED, WS_GENERAL, HS_CONCENTRIC, OTHER_PR, NON_PR; d0/d1 are
    the group delays when defined; equal_length_base only for HS_CONCENTRIC."""

    kind: str
    d0: Optional[Fraction] = None
    d1: Optional[Fraction] = None
    equal_length_base: bool = False


@dataclass(frozen=True, init=False, slots=True)
class PolyphaseMatrix:
    """2x2 Laurent polynomial matrix; row 0 = lowpass, row 1 = highpass.  Stored
    as the scalar analysis filters h0, h1 of its rows, which are derived."""

    h0: LaurentPoly
    h1: LaurentPoly

    def __init__(self, row0: PolyphaseVector, row1: PolyphaseVector):
        _set(self, "h0", synthesize_filter(row0))
        _set(self, "h1", synthesize_filter(row1))

    @classmethod
    def from_entries(cls, e00, e01, e10, e11) -> "PolyphaseMatrix":
        conv = lambda e: e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e)
        return cls(PolyphaseVector(conv(e00), conv(e01)), PolyphaseVector(conv(e10), conv(e11)))

    @classmethod
    def identity(cls) -> "PolyphaseMatrix":
        return cls.from_entries(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, a, d) -> "PolyphaseMatrix":
        return cls.from_entries(a, 0, 0, d)

    row0 = property(lambda self: analyze_filter(self.h0))
    row1 = property(lambda self: analyze_filter(self.h1))

    def entries(self):
        return tuple(p for r in (self.row0, self.row1) for p in (r.comp0, r.comp1))

    def row(self, i: int) -> PolyphaseVector:
        return analyze_filter(self.scalar_filter(i))

    def scalar_filter(self, i: int) -> LaurentPoly:
        """The scalar analysis filter of row i."""
        return self.h1 if i else self.h0

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "PolyphaseMatrix") -> "PolyphaseMatrix":
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return PolyphaseMatrix.from_entries(a * e + b * g, a * f + b * h,
                                            c * e + d * g, c * f + d * h)

    def apply(self, v: PolyphaseVector) -> PolyphaseVector:
        a, b, c, d = self.entries()
        return PolyphaseVector(a * v.comp0 + b * v.comp1, c * v.comp0 + d * v.comp1)

    def det(self) -> LaurentPoly:
        """a d - b c, on the entries' numerators split off the filters."""
        (a, b), (c, d) = _split(self.h0._num, 1), _split(self.h1._num, 1)
        return LaurentPoly._reduced(_muladd(_muladd({}, a, d, 1), b, c, -1), self.h0._den * self.h1._den)

    def support(self) -> Tuple[int, int]:
        """Matrix impulse-response support interval (union over entries)."""
        return _hull([f and _row_support(*f.support()) for f in (self.h0, self.h1)], "zero matrix")

    def order(self) -> int:
        c, d = self.support()
        return d - c

    @property
    def is_dyadic(self) -> bool:
        return self.h0.is_dyadic and self.h1.is_dyadic

    # -- diagnostics -------------------------------------------------------

    def det_info(self) -> DetInfo:
        det = self.det()
        if len(det._num) != 1:
            return DetInfo(monomial=False)
        (a,) = det._num
        return DetInfo(monomial=True, amplitude=det.coeff(a), delay=a)

    @property
    def is_unimodular(self) -> bool:
        return self.det_info().unimodular

    def inverse(self) -> "PolyphaseMatrix":
        """Adjugate inverse; requires determinant identically 1."""
        if not self.is_unimodular:
            raise NotUnimodular("inverse requires det H(z) = 1")
        a, b, c, d = self.entries()
        return PolyphaseMatrix.from_entries(d, -b, -c, a)

    def classify(self) -> BankClass:
        return classify_bank(self)

    def __str__(self) -> str:
        return "[[{}, {}], [{}, {}]]".format(*self.entries())


# Named constant matrices.
LAMBDA = PolyphaseMatrix.from_entries(1, 0, 0, LaurentPoly.monomial(1))       # diag(1, z^-1)
LAMBDA_INV = PolyphaseMatrix.from_entries(1, 0, 0, LaurentPoly.monomial(-1))  # diag(1, z)
J = PolyphaseMatrix.from_entries(0, 1, 1, 0)
L = PolyphaseMatrix.from_entries(1, 0, 0, -1)
IDENTITY = PolyphaseMatrix.identity()


# The filter symmetries (h0, h1) that place a bank in a class.
_DELAY_MINIMIZED_WS = (SymmetryTag("WS", Fraction(0)), SymmetryTag("WS", Fraction(-1)))
_CONCENTRIC_HS = (SymmetryTag("HS", Fraction(-1, 2)), SymmetryTag("HA", Fraction(-1, 2)))


def classify_bank(h: PolyphaseMatrix) -> BankClass:
    """Most specific WS/HS classification of an analysis bank, read from
    the linear phase symmetries of its two scalar filters; a zero filter
    fits every symmetry.

    Checks, in order: delay-minimized WS (h0 WS about 0, h1 WS about -1),
    general WS (both filters nonzero and WS; the group delays are their
    axes), concentric HS (h0 HS and h1 HA, both about -1/2), then falls
    back on the determinant.
    """
    f0, f1 = h.scalar_filter(0), h.scalar_filter(1)
    tags = [f.symmetry() if f else None for f in (f0, f1)]

    def fits(want) -> bool:
        return all(t is None or t == w for t, w in zip(tags, want))

    if fits(_DELAY_MINIMIZED_WS):
        return BankClass("WS_DELAY_MINIMIZED", *(w.axis for w in _DELAY_MINIMIZED_WS))
    if all(t is not None and t.kind == "WS" for t in tags):
        return BankClass("WS_GENERAL", *(t.axis for t in tags))
    if fits(_CONCENTRIC_HS):
        equal = bool(f0 and f1) and f0.order() == f1.order()
        return BankClass("HS_CONCENTRIC", *(w.axis for w in _CONCENTRIC_HS),
                         equal_length_base=equal)
    if h.det_info().monomial:
        return BankClass("OTHER_PR")
    return BankClass("NON_PR")


def make_bank(h0: LaurentPoly, h1: LaurentPoly) -> PolyphaseMatrix:
    """Polyphase matrix from the two scalar analysis filters, kept as given."""
    h = object.__new__(PolyphaseMatrix)
    _set(h, "h0", h0)
    _set(h, "h1", h1)
    return h


def haar_bank() -> PolyphaseMatrix:
    """The Haar analysis bank [[1/2, 1/2], [-1, 1]]."""
    return PolyphaseMatrix.from_entries(Fraction(1, 2), Fraction(1, 2), -1, 1)
