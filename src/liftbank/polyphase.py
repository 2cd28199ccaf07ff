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
from .laurent import LaurentPoly, Rational


def _hull(polys, what: str) -> Tuple[int, int]:
    """Smallest interval holding the supports of the nonzero polys."""
    spans = [p.support() for p in polys if p]
    if not spans:
        raise EmptySupport(what)
    return min(a for a, _ in spans), max(b for _, b in spans)


# ---------------------------------------------------------------------------
# Polyphase vectors


@dataclass(frozen=True)
class PolyphaseVector:
    comp0: LaurentPoly
    comp1: LaurentPoly

    def support(self) -> Tuple[int, int]:
        """Vector-valued support interval [c, d] (union of the components)."""
        return _hull((self.comp0, self.comp1), "zero polyphase vector")

    def order(self) -> int:
        c, d = self.support()
        return d - c

    def is_zero(self) -> bool:
        return self.comp0.is_zero() and self.comp1.is_zero()

    def reflect(self) -> "PolyphaseVector":
        return PolyphaseVector(self.comp0.reflect(), self.comp1.reflect())

    def shift(self, k: int) -> "PolyphaseVector":
        return PolyphaseVector(self.comp0.shift(k), self.comp1.shift(k))

    def __add__(self, other: "PolyphaseVector") -> "PolyphaseVector":
        return PolyphaseVector(self.comp0 + other.comp0, self.comp1 + other.comp1)

    def __sub__(self, other: "PolyphaseVector") -> "PolyphaseVector":
        return PolyphaseVector(self.comp0 - other.comp0, self.comp1 - other.comp1)

    def scale(self, k: Rational) -> "PolyphaseVector":
        return PolyphaseVector(self.comp0.scale(k), self.comp1.scale(k))

    def filtermul(self, s: LaurentPoly) -> "PolyphaseVector":
        return PolyphaseVector(s * self.comp0, s * self.comp1)


def analyze_filter(f: LaurentPoly) -> PolyphaseVector:
    """Scalar filter -> analysis polyphase vector, f_j(n) = f(2n - j)."""
    even, odd = f._phases()
    return PolyphaseVector(even, odd.shift(1))


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
    """Most specific linear phase class of a filter bank.

    kind is one of WS_DELAY_MINIMIZED, WS_GENERAL, HS_CONCENTRIC, OTHER_PR,
    NON_PR.  d0/d1 are the group delays when defined; equal_length_base is
    meaningful only for HS_CONCENTRIC.
    """

    kind: str
    d0: Optional[Fraction] = None
    d1: Optional[Fraction] = None
    equal_length_base: bool = False


@dataclass(frozen=True)
class PolyphaseMatrix:
    """2x2 Laurent polynomial matrix; row 0 = lowpass, row 1 = highpass."""

    row0: PolyphaseVector
    row1: PolyphaseVector

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

    def entry(self, i: int, j: int) -> LaurentPoly:
        row = self.row0 if i == 0 else self.row1
        return row.comp0 if j == 0 else row.comp1

    def entries(self):
        return (self.entry(0, 0), self.entry(0, 1), self.entry(1, 0), self.entry(1, 1))

    def row(self, i: int) -> PolyphaseVector:
        return self.row0 if i == 0 else self.row1

    def scalar_filter(self, i: int) -> LaurentPoly:
        """The scalar analysis filter carried by row i."""
        return synthesize_filter(self.row(i))

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "PolyphaseMatrix") -> "PolyphaseMatrix":
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return PolyphaseMatrix.from_entries(a * e + b * g, a * f + b * h,
                                            c * e + d * g, c * f + d * h)

    def __add__(self, other: "PolyphaseMatrix") -> "PolyphaseMatrix":
        return PolyphaseMatrix(self.row0 + other.row0, self.row1 + other.row1)

    def __sub__(self, other: "PolyphaseMatrix") -> "PolyphaseMatrix":
        return PolyphaseMatrix(self.row0 - other.row0, self.row1 - other.row1)

    def scale(self, k: Rational) -> "PolyphaseMatrix":
        return PolyphaseMatrix(self.row0.scale(k), self.row1.scale(k))

    def transpose(self) -> "PolyphaseMatrix":
        a, b, c, d = self.entries()
        return PolyphaseMatrix.from_entries(a, c, b, d)

    def reflect(self) -> "PolyphaseMatrix":
        """Entrywise z -> z^(-1)."""
        return PolyphaseMatrix(self.row0.reflect(), self.row1.reflect())

    def apply(self, v: PolyphaseVector) -> PolyphaseVector:
        a, b, c, d = self.entries()
        return PolyphaseVector(a * v.comp0 + b * v.comp1, c * v.comp0 + d * v.comp1)

    def det(self) -> LaurentPoly:
        a, b, c, d = self.entries()
        return a * d - b * c

    def support(self) -> Tuple[int, int]:
        """Matrix impulse-response support interval (union over entries)."""
        return _hull(self.entries(), "zero matrix")

    def order(self) -> int:
        c, d = self.support()
        return d - c

    @property
    def is_dyadic(self) -> bool:
        return all(e.is_dyadic for e in self.entries())

    # -- diagnostics -------------------------------------------------------

    def det_info(self) -> DetInfo:
        det = self.det()
        if det.is_zero():
            return DetInfo(monomial=False)
        a, b = det.support()
        if a != b:
            return DetInfo(monomial=False)
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
        a, b, c, d = self.entries()
        return f"[[{a}, {b}], [{c}, {d}]]"


# Named constant matrices.
LAMBDA = PolyphaseMatrix.from_entries(1, 0, 0, LaurentPoly.monomial(1))       # diag(1, z^-1)
LAMBDA_INV = PolyphaseMatrix.from_entries(1, 0, 0, LaurentPoly.monomial(-1))  # diag(1, z)
J = PolyphaseMatrix.from_entries(0, 1, 1, 0)
L = PolyphaseMatrix.from_entries(1, 0, 0, -1)
IDENTITY = PolyphaseMatrix.identity()


def _row_delay(reflected: PolyphaseVector, target: PolyphaseVector) -> Optional[int]:
    """Find d with reflected = z^d * target, by support alignment."""
    if target.is_zero() or reflected.is_zero():
        return None
    try:
        (c_r, _), (c_t, _) = reflected.support(), target.support()
    except EmptySupport:
        return None
    # z^d shifts stored indices by -d.
    d = c_t - c_r
    return d if target.shift(-d) == reflected else None


def classify_bank(h: PolyphaseMatrix) -> BankClass:
    """Most specific WS/HS classification of an analysis bank.

    Checks, in order: the delay-minimized WS intertwining relation, the
    general WS relation with free group delays, the concentric HS mirror
    relation, then falls back on the determinant.
    """
    href = h.reflect()
    # Delay-minimized WS: H(1/z) = Lambda(z) H(z) Lambda(1/z).
    if href == LAMBDA @ h @ LAMBDA_INV:
        return BankClass("WS_DELAY_MINIMIZED", d0=Fraction(0), d1=Fraction(-1))
    # General WS: H(1/z) = diag(z^d0, z^d1) H(z) Lambda(1/z), rowwise.
    hl = h @ LAMBDA_INV
    d0 = _row_delay(href.row0, hl.row0)
    d1 = _row_delay(href.row1, hl.row1)
    if d0 is not None and d1 is not None:
        return BankClass("WS_GENERAL", d0=Fraction(d0), d1=Fraction(d1))
    # Concentric HS: H(1/z) = L H(z) J.
    if href == L @ h @ J:
        equal = False
        f0, f1 = h.scalar_filter(0), h.scalar_filter(1)
        if f0 and f1 and f0.order() == f1.order():
            equal = True
        return BankClass("HS_CONCENTRIC", d0=Fraction(-1, 2), d1=Fraction(-1, 2),
                         equal_length_base=equal)
    if h.det_info().monomial:
        return BankClass("OTHER_PR")
    return BankClass("NON_PR")


def make_bank(h0: LaurentPoly, h1: LaurentPoly) -> PolyphaseMatrix:
    """Polyphase matrix from the two scalar analysis filters."""
    return PolyphaseMatrix(analyze_filter(h0), analyze_filter(h1))


def haar_bank() -> PolyphaseMatrix:
    """The Haar analysis bank [[1/2, 1/2], [-1, 1]]."""
    return PolyphaseMatrix.from_entries(Fraction(1, 2), Fraction(1, 2), -1, 1)
