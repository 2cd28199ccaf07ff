"""Group lifting structures: admissibility predicates and the hypotheses
behind unique factorization (order increase, support-radius recursion)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import NotAdmissible, NotIrreducible
from .laurent import LaurentPoly, is_dyadic
from .lifting import LiftingCascade, LiftingStep
from .polyphase import IDENTITY, PolyphaseMatrix

# Lifting filter group kinds.
HS_PLUS = "HS_ABOUT_PLUS_HALF"     # symmetric about +1/2 (upper WS steps)
HS_MINUS = "HS_ABOUT_MINUS_HALF"   # symmetric about -1/2 (lower WS steps)
WA_ZERO = "WA_ABOUT_ZERO"          # antisymmetric about 0 (HS steps)
UNRESTRICTED = "UNRESTRICTED"

# Base bank classes.
IDENTITY_ONLY = "IDENTITY_ONLY"
HS_EQUAL_LENGTH_CONCENTRIC = "HS_EQUAL_LENGTH_CONCENTRIC"
UNRESTRICTED_BASE = "UNRESTRICTED"

# Scaling groups.
FULL = "FULL"        # all nonzero rational K
TRIVIAL = "TRIVIAL"  # K = 1 only


@dataclass(frozen=True)
class FilterGroupSpec:
    """An additive group of Laurent polynomials, named by symmetry kind."""

    kind: str
    dyadic_only: bool = False

    def member(self, f: LaurentPoly) -> bool:
        if self.dyadic_only and not f.is_dyadic:
            return False
        if self.kind == UNRESTRICTED or f.is_zero():
            return True
        tag = f.symmetry()
        if self.kind == HS_PLUS:
            return tag.kind == "HS" and tag.axis == Fraction(1, 2)
        if self.kind == HS_MINUS:
            return tag.kind == "HS" and tag.axis == Fraction(-1, 2)
        if self.kind == WA_ZERO:
            return tag.kind == "WA" and tag.axis == 0
        raise ValueError(f"unknown filter group kind {self.kind!r}")

    def basis(self, k: int) -> LaurentPoly:
        """The k-th generator (k >= 1) of the step group, a filter of
        support radius k; the members of support radius t are the rational
        combinations of the first t generators with a nonzero t-th weight."""
        if k < 1:
            raise ValueError(f"generator index must be >= 1, got {k}")
        if self.kind == HS_PLUS:
            return LaurentPoly({k: 1, 1 - k: 1})
        if self.kind == HS_MINUS:
            return LaurentPoly({-k: 1, k - 1: 1})
        if self.kind == WA_ZERO:
            return LaurentPoly({-k: 1, k: -1})
        raise ValueError(f"filter group kind {self.kind!r} has no generators")


@dataclass(frozen=True)
class GroupLiftingStructure:
    """Descriptor (D, U, L, B) selecting scalings, lifting filters, and bases."""

    name: str
    scaling: str
    upper: FilterGroupSpec
    lower: FilterGroupSpec
    base_class: str
    base_dyadic: bool = False

    def filter_spec(self, m: int) -> FilterGroupSpec:
        return self.upper if m == 0 else self.lower


S_W = GroupLiftingStructure("S_W", FULL, FilterGroupSpec(HS_PLUS),
                            FilterGroupSpec(HS_MINUS), IDENTITY_ONLY)
S_WR = GroupLiftingStructure("S_Wr", TRIVIAL, FilterGroupSpec(HS_PLUS, True),
                             FilterGroupSpec(HS_MINUS, True), IDENTITY_ONLY)
S_H = GroupLiftingStructure("S_H", FULL, FilterGroupSpec(WA_ZERO),
                            FilterGroupSpec(WA_ZERO), HS_EQUAL_LENGTH_CONCENTRIC)
S_HR = GroupLiftingStructure("S_Hr", TRIVIAL, FilterGroupSpec(WA_ZERO, True),
                             FilterGroupSpec(WA_ZERO, True),
                             HS_EQUAL_LENGTH_CONCENTRIC, base_dyadic=True)

STRUCTURES = {s.name.lower(): s for s in (S_W, S_WR, S_H, S_HR)}


def step_admissible(g: GroupLiftingStructure, s: LiftingStep) -> bool:
    """True iff the step's filter lies in the matching triangle's group."""
    return g.filter_spec(s.m).member(s.filter)


def base_admissible(g: GroupLiftingStructure, b: PolyphaseMatrix) -> bool:
    if g.base_class == IDENTITY_ONLY:
        return b == IDENTITY
    if g.base_class == HS_EQUAL_LENGTH_CONCENTRIC:
        if g.base_dyadic and not b.is_dyadic:
            return False
        if not b.is_unimodular:
            return False
        cls = b.classify()
        if cls.kind != "HS_CONCENTRIC" or not cls.equal_length_base:
            return False
        # Equal polyphase vector supports (the uniqueness hypothesis).
        return b.row0.support() == b.row1.support()
    if g.base_class == UNRESTRICTED_BASE:
        return b.is_unimodular
    raise ValueError(f"unknown base class {g.base_class!r}")


def cascade_in_structure(g: GroupLiftingStructure, c: LiftingCascade) -> bool:
    """Membership of the cascade in the universe D C B of the structure."""
    if g.scaling == TRIVIAL and c.scale != 1:
        return False
    if all(step_admissible(g, s) for s in c.steps):
        return base_admissible(g, c.base)
    return False


def check_order_increasing(c: LiftingCascade) -> Tuple[bool, List[int]]:
    """Strict polyphase order increase along the partial products.

    Returns (ok, orders) where orders lists order(E^(n)) for n = -1 .. N-1.
    """
    if not c.is_irreducible:
        raise NotIrreducible("order-increase check requires an irreducible cascade")
    orders = [e.order() for e in c.intermediates()]
    ok = all(b > a for a, b in zip(orders, orders[1:]))
    return ok, orders


@dataclass(frozen=True)
class RadiiStep:
    """Predicted vs measured scalar support radii after one WS step."""

    n: int
    t: int
    r0_predicted: int
    r1_predicted: int
    r0_measured: int
    r1_measured: int
    order: int

    @property
    def matches(self) -> bool:
        return (self.r0_predicted == self.r0_measured
                and self.r1_predicted == self.r1_measured)


@dataclass(frozen=True)
class RadiiReport:
    steps: Tuple[RadiiStep, ...]

    @property
    def ok(self) -> bool:
        return all(s.matches for s in self.steps)


def ws_radii(c: LiftingCascade) -> RadiiReport:
    """Support-radius recursion for irreducible WS cascades over base I.

    Predicted radii follow r(lifted) = r(other) + 2t - 1 with the other
    channel carried over from the previous step; measured radii come from
    the scalar filters of the partial products, whose support intervals
    are checked to be centered at 0 and -1.
    """
    if not c.is_irreducible:
        raise NotIrreducible("radius recursion requires an irreducible cascade")
    if c.base != IDENTITY or not all(step_admissible(S_W, s) for s in c.steps):
        raise NotAdmissible("radius recursion requires an S_W cascade over base I")

    r = [0, 0]  # predicted radii per channel
    report = []
    inter = c.intermediates()
    for n, s in enumerate(c.steps):
        t = s.filter.supprad()
        r[s.m] = r[1 - s.m] + 2 * t - 1
        e = inter[n + 1]
        measured = []
        for i in (0, 1):
            f = e.scalar_filter(i)
            a, b = f.support()
            rad = f.supprad()
            if (a, b) != (-rad - i, rad - i):
                raise NotAdmissible(f"intermediate filter {i} not centered at {-i}")
            measured.append(rad)
        report.append(RadiiStep(n, t, r[0], r[1], measured[0], measured[1],
                                e.order()))
    return RadiiReport(tuple(report))


def d_invariance_check(g: GroupLiftingStructure, trials: int = 256,
                       seed: int = 0) -> Optional[bool]:
    """Sampled check that gamma_K maps admissible steps to admissible steps.

    Returns None when the structure has trivial scaling (no D action).
    """
    if g.scaling != FULL:
        return None
    from .randgen import rand_admissible_step, rand_nonzero_fraction

    rng = random.Random(seed)
    for _ in range(trials):
        step = rand_admissible_step(rng, g)
        k = rand_nonzero_fraction(rng)
        if not step_admissible(g, step.conjugate(k)):
            return False
    return True
