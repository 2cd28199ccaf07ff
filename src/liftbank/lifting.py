"""Lifting steps, gain scaling, cascades, and reduced-word algebra.

A cascade stores its steps in application order (S0 first); rendered as a
matrix product it reads D_K * S_{N-1} ... S_0 * B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import BaseNotIdentity, NotIrreducible
from .laurent import LaurentPoly, Rational, is_dyadic
from .polyphase import IDENTITY, PolyphaseMatrix


@dataclass(frozen=True)
class LiftingStep:
    """One lifting update: m = 0 updates the lowpass channel via an
    upper-triangular matrix, m = 1 the highpass via a lower-triangular one."""

    m: int
    filter: LaurentPoly

    def __post_init__(self):
        if self.m not in (0, 1):
            raise ValueError("update characteristic must be 0 or 1")

    def matrix(self) -> PolyphaseMatrix:
        if self.m == 0:
            return PolyphaseMatrix.from_entries(1, self.filter, 0, 1)
        return PolyphaseMatrix.from_entries(1, 0, self.filter, 1)

    def inverse(self) -> "LiftingStep":
        return LiftingStep(self.m, -self.filter)

    def conjugate(self, k: Rational) -> "LiftingStep":
        """gamma_K applied to this step: upper filters scale by K^-2,
        lower by K^2."""
        k = Fraction(k)
        factor = 1 / k ** 2 if self.m == 0 else k ** 2
        return LiftingStep(self.m, self.filter.scale(factor))


def upper(s: Union[LaurentPoly, Rational]) -> LiftingStep:
    s = s if isinstance(s, LaurentPoly) else LaurentPoly.constant(s)
    return LiftingStep(0, s)


def lower(s: Union[LaurentPoly, Rational]) -> LiftingStep:
    s = s if isinstance(s, LaurentPoly) else LaurentPoly.constant(s)
    return LiftingStep(1, s)


def scaling_matrix(k: Rational) -> PolyphaseMatrix:
    """The unimodular gain-scaling matrix D_K = diag(1/K, K)."""
    k = Fraction(k)
    if not k:
        raise ZeroDivisionError("scaling factor must be nonzero")
    return PolyphaseMatrix.diagonal(1 / k, k)


def gamma_conjugate(k: Rational, m: PolyphaseMatrix) -> PolyphaseMatrix:
    """Inner automorphism D_K M D_K^-1: b -> K^-2 b, c -> K^2 c."""
    k = Fraction(k)
    a, b, c, d = m.entries()
    return PolyphaseMatrix.from_entries(a, b.scale(1 / k ** 2), c.scale(k ** 2), d)


@dataclass(frozen=True)
class LiftingCascade:
    """Scale * steps * base decomposition D_K S_{N-1} ... S_0 B."""

    scale: Fraction = Fraction(1)
    steps: Tuple[LiftingStep, ...] = ()
    base: PolyphaseMatrix = field(default_factory=PolyphaseMatrix.identity)

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.scale:
            raise ZeroDivisionError("scaling factor must be nonzero")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def is_irreducible(self) -> bool:
        """All filters nonzero and characteristics strictly alternating."""
        if any(s.filter.is_zero() for s in self.steps):
            return False
        return all(a.m != b.m for a, b in zip(self.steps, self.steps[1:]))

    @property
    def is_dyadic(self) -> bool:
        return (is_dyadic(self.scale) and all(s.filter.is_dyadic for s in self.steps)
                and self.base.is_dyadic)

    def product(self) -> PolyphaseMatrix:
        """Exact matrix product D_K * S_{N-1} ... S_0 * B."""
        acc = self.intermediates()[-1]
        return acc if self.scale == 1 else scaling_matrix(self.scale) @ acc

    def intermediates(self) -> List[PolyphaseMatrix]:
        """Partial products E^(-1) = B, E^(n) = S_n E^(n-1), unscaled."""
        out = [self.base]
        for s in self.steps:
            out.append(s.matrix() @ out[-1])
        return out


def _merge(steps: Iterable[LiftingStep]) -> Tuple[LiftingStep, ...]:
    """Merge same-characteristic neighbors and drop trivial steps,
    cascading at the seams; the product of the steps is preserved exactly."""
    stack: List[LiftingStep] = []
    for s in steps:
        if s.filter.is_zero():
            continue
        while stack and stack[-1].m == s.m:
            s = LiftingStep(s.m, stack.pop().filter + s.filter)
            if s.filter.is_zero():
                s = None
                break
        if s is not None:
            stack.append(s)
    return tuple(stack)


def reduce_to_irreducible(c: LiftingCascade) -> LiftingCascade:
    """Merge same-characteristic neighbors and drop trivial steps; the
    matrix product is preserved exactly."""
    return LiftingCascade(c.scale, _merge(c.steps), c.base)


WordElement = Union[LiftingStep, Fraction, int]


def normalize_semidirect(word: Sequence[WordElement],
                         base: PolyphaseMatrix = IDENTITY) -> LiftingCascade:
    """Unique D_K * (irreducible steps) * base form of a mixed product.

    The word lists factors in matrix product order (leftmost first); each
    element is a LiftingStep or a nonzero rational scaling factor.  Every
    D_K is pushed left through the steps via D_K A = (gamma_K A) D_K.
    """
    k = Fraction(1)
    prod_order: List[LiftingStep] = []  # leftmost factor first
    for el in word:
        if isinstance(el, LiftingStep):
            prod_order.append(el)
        else:
            j = Fraction(el)
            if not j:
                raise ZeroDivisionError("scaling factor must be nonzero")
            # steps * D_J = D_J * gamma_{1/J}(steps)
            prod_order = [s.conjugate(1 / j) for s in prod_order]
            k *= j
    steps = tuple(reversed(prod_order))  # to application order
    return reduce_to_irreducible(LiftingCascade(k, steps, base))


def invert_cascade(c: LiftingCascade) -> LiftingCascade:
    """Group inverse in the scaled lifting group; requires base = I."""
    if c.base != IDENTITY:
        raise BaseNotIdentity("invert_cascade requires base = I")
    word: List[WordElement] = [s.inverse() for s in c.steps]  # S0^-1 ... S_{N-1}^-1
    word.append(1 / c.scale)
    return normalize_semidirect(word)


# ---------------------------------------------------------------------------
# Reduced words over the upper/lower lifting alphabets


@dataclass(frozen=True)
class GroupWord:
    """Reduced word over the two lifting alphabets.

    Letters are LiftingSteps listed in matrix product order (leftmost
    first); no trivial letters, no two neighbors from the same alphabet.
    A word is the free-product view of an irreducible unscaled cascade.
    """

    letters: Tuple[LiftingStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.cascade().is_irreducible:
            raise NotIrreducible("word has an identity letter or is not reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def matrix(self) -> PolyphaseMatrix:
        return self.cascade().product()

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(s.inverse() for s in reversed(self.letters)))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return word_concat(self, other)

    def cascade(self) -> LiftingCascade:
        """The same data as an unscaled cascade over base I."""
        return LiftingCascade(Fraction(1), tuple(reversed(self.letters)), IDENTITY)


def reduce_word(letters: Iterable[LiftingStep]) -> GroupWord:
    """Free-product reduction: merge same-alphabet neighbors, cancel
    identity letters, cascade at the seams."""
    return GroupWord(_merge(letters))


def word_concat(w1: GroupWord, w2: GroupWord) -> GroupWord:
    """Group operation of the free product, on reduced words."""
    return reduce_word(w1.letters + w2.letters)
