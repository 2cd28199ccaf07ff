"""Group lifting structures: admissibility predicates and the hypotheses
behind unique factorization (order increase, support-radius recursion)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from .errors import InvalidArgument, NotAdmissible, NotIrreducible
from .laurent import LaurentPoly, SymmetryTag, _span, _trials
from .lifting import LiftingCascade, LiftingStep
from .polyphase import IDENTITY, PolyphaseMatrix, _hull, _row_support


@dataclass(frozen=True)
class FilterGroupSpec:
    """An additive group of lifting filters: zero and every filter with
    one linear phase symmetry (kind and axis)."""

    symmetry: SymmetryTag

    def member(self, f: LaurentPoly) -> bool:
        """f is zero or has this symmetry: each tap 2 * axis - n is sign
        times tap n, compared on the integer numerators.  That also puts
        the support's ends about the axis."""
        n, mirror, sign = self._taps(1)
        two_axis, num = n + mirror, f._num
        return all(num.get(two_axis - k) == sign * v for k, v in num.items())

    def basis(self, k: int) -> LaurentPoly:
        """The k-th generator (k >= 1) of the step group, a filter of
        support radius k; the members of support radius t are the rational
        combinations of the first t generators with a nonzero t-th weight."""
        n, mirror, sign = self._taps(k)
        return LaurentPoly({n: 1, mirror: sign})

    def _taps(self, k: int) -> Tuple[int, int, int]:
        """(n, mirror, sign) with basis(k) = z^-n + sign * z^-mirror and
        n < mirror, the two taps about the axis."""
        if k < 1:
            raise InvalidArgument(f"generator index must be >= 1, got {k}")
        axis = self.symmetry.axis
        # Integer arithmetic: int(2 * axis) would build a Fraction per call.
        two_axis = axis.numerator * (2 // axis.denominator)
        n = (two_axis + 1) // 2 - k
        return n, two_axis - n, -1 if self.symmetry.kind == "WA" else 1


HS_PLUS = FilterGroupSpec(SymmetryTag("HS", Fraction(1, 2)))    # upper WS steps
HS_MINUS = FilterGroupSpec(SymmetryTag("HS", Fraction(-1, 2)))  # lower WS steps
WA_ZERO = FilterGroupSpec(SymmetryTag("WA", Fraction(0)))       # HS steps


@dataclass(frozen=True)
class GroupLiftingStructure:
    """Descriptor (D, U, L, B): the step groups U = upper and L = lower;
    B is {I}, or with hs_base the unimodular concentric HS banks with
    equal-length filters and equal polyphase row supports; D is every
    nonzero rational gain, or with reversible D = {1}, and then the step
    filters and the base must be dyadic too."""

    name: str
    upper: FilterGroupSpec
    lower: FilterGroupSpec
    hs_base: bool = False
    reversible: bool = False

    def filter_spec(self, m: int) -> FilterGroupSpec:
        return self.upper if m == 0 else self.lower


S_W = GroupLiftingStructure("S_W", HS_PLUS, HS_MINUS)
S_WR = GroupLiftingStructure("S_Wr", HS_PLUS, HS_MINUS, reversible=True)
S_H = GroupLiftingStructure("S_H", WA_ZERO, WA_ZERO, hs_base=True)
S_HR = GroupLiftingStructure("S_Hr", WA_ZERO, WA_ZERO, hs_base=True, reversible=True)

STRUCTURES = {s.name.lower(): s for s in (S_W, S_WR, S_H, S_HR)}


def step_admissible(g: GroupLiftingStructure, s: LiftingStep) -> bool:
    """True iff the step's filter lies in the matching triangle's group."""
    if g.reversible and not s.filter.is_dyadic:
        return False
    return g.filter_spec(s.m).member(s.filter)


def base_admissible(g: GroupLiftingStructure, b: PolyphaseMatrix) -> bool:
    if not g.hs_base:
        return b == IDENTITY
    if g.reversible and not b.is_dyadic:
        return False
    if not b.is_unimodular:
        return False
    cls = b.classify()
    # The paper's equal row supports hold: equal-order filters about -1/2 share one support.
    return cls.kind == "HS_CONCENTRIC" and cls.equal_length_base


def cascade_in_structure(g: GroupLiftingStructure, c: LiftingCascade) -> bool:
    """Membership of the cascade in the universe D C B of the structure."""
    if g.reversible and c.scale != 1:
        return False
    return all(step_admissible(g, s) for s in c.steps) and base_admissible(g, c.base)


def check_order_increasing(c: LiftingCascade) -> Tuple[bool, List[int]]:
    """Strict polyphase order increase along the partial products.

    Returns (ok, orders) where orders lists order(E^(n)) for n = -1 .. N-1.
    """
    if not c.is_irreducible:
        raise NotIrreducible("order-increase check requires an irreducible cascade")
    orders = [_order(e) for e in _partial_ends(c)]
    ok = all(b > a for a, b in zip(orders, orders[1:]))
    return ok, orders


def _tips(num: Dict[int, int], f: int = 1) -> Optional[tuple]:
    """The end taps of the numerators num, times f: (lowest index, highest
    index, numerator at the lowest, numerator at the highest), None for {}."""
    if not num:
        return None
    lo, hi = _span(num)
    return lo, hi, num[lo] * f, num[hi] * f


def _ends(m: PolyphaseMatrix) -> List[Optional[tuple]]:
    """The end taps of m's two scalar filters, over the lcm of their denominators."""
    den = lcm(m.h0._den, m.h1._den)
    return [_tips(x._num, den // x._den) for x in (m.h0, m.h1)]


def _order(e: List[Optional[tuple]]) -> int:
    """The polyphase order of the partial product whose scalar filters have
    end taps e.  Steps are invertible, so only a zero base makes one zero."""
    lo, hi = _hull([x and _row_support(x[0], x[1]) for x in e], "E^(-1) (the base) is the zero matrix")
    return hi - lo


def _meet(d: tuple, p: tuple) -> Optional[tuple]:
    """The end taps of d + p, or None where two ends that meet cancel."""
    lo, hi, a, b = p
    if d[0] < lo:
        lo, a = d[0], d[2]
    elif d[0] == lo:
        a += d[2]
    if d[1] > hi:
        hi, b = d[1], d[3]
    elif d[1] == hi:
        b += d[3]
    return (lo, hi, a, b) if a and b else None


def _partial_ends(c: LiftingCascade) -> List[List[Optional[tuple]]]:
    """_ends(E) for the partial products E of c.intermediates(), unmultiplied.

    Over Q the end taps of a product are the products of the factors' end
    taps, so a step f_m += S(z^2) f_(1-m) moves filter m's ends to
    (2 lo_S + lo, 2 hi_S + hi) in O(1).  Only a sum whose ends meet can
    lose a tap, and then its new end is unknown: on such a cancellation
    the partial products are multiplied out after all."""
    out = [_ends(c.base)]
    for s in c.steps:
        lo, hi, a, b = _tips(s.filter._num)
        f, e = s.filter._den, out[-1]   # S's taps are over f: so is the product with e
        new = [x and (x[0], x[1], x[2] * f, x[3] * f) for x in e] if f != 1 else list(e)
        src = e[1 - s.m]
        if src:
            p = 2 * lo + src[0], 2 * hi + src[1], a * src[2], b * src[3]
            new[s.m] = p if new[s.m] is None else _meet(new[s.m], p)
            if new[s.m] is None:
                return [_ends(m) for m in c.intermediates()]
        out.append(new)
    return out


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
    the partial products' scalar filters' end taps (_partial_ends),
    checked to be centered at 0 and -1.
    """
    if not c.is_irreducible:
        raise NotIrreducible("radius recursion requires an irreducible cascade")
    if c.base != IDENTITY or not all(step_admissible(S_W, s) for s in c.steps):
        raise NotAdmissible("radius recursion requires an S_W cascade over base I")

    r = [0, 0]  # predicted radii per channel
    report = []
    inter = _partial_ends(c)
    for n, s in enumerate(c.steps):
        t = s.filter.supprad()
        r[s.m] = r[1 - s.m] + 2 * t - 1
        e = inter[n + 1]
        measured = []
        for i, (a, b, *_) in enumerate(e):   # unimodular, so neither filter is zero
            rad = (b - a + 1) // 2
            if (a, b) != (-rad - i, rad - i):
                raise NotAdmissible(f"intermediate filter {i} not centered at {-i}")
            measured.append(rad)
        report.append(RadiiStep(n, t, r[0], r[1], measured[0], measured[1], _order(e)))
    return RadiiReport(tuple(report))


def d_invariance_check(g: GroupLiftingStructure, trials: int = 256,
                       seed: int = 0) -> Optional[bool]:
    """Sampled check that gamma_K maps admissible steps to admissible steps.

    gamma_K only scales a step filter and each step group is spanned by its
    generators, so the samples are (channel, generator, K) triples.
    Returns None for a reversible structure (D = {1}, no action).  Raises
    InvalidArgument unless trials is an int >= 1: no sample is no evidence.
    """
    trials = _trials(trials, "d_invariance_check")
    if g.reversible:
        return None
    rng = random.Random(seed)
    for _ in range(trials):
        m = rng.randint(0, 1)
        step = LiftingStep(m, g.filter_spec(m).basis(rng.randint(1, 3)))
        k = Fraction(rng.choice([1, -1]) * rng.randint(1, 12), rng.randint(1, 12))
        if not step_admissible(g, step.conjugate(k)):
            return False
    return True
