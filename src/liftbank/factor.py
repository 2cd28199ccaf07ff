"""Constructive lifting factorization algorithms.

factor_ws and factor_hs are one peel engine driven by the group lifting
structure: factor_ws peels the half-sample symmetric steps of S_W off a
delay-minimized WS bank down to a gain scaling; factor_hs peels the
whole-sample antisymmetric steps of S_H off a concentric HS bank down to
an equal-length base; factor_euclidean is the generic Euclidean-algorithm
oracle with two pivot policies; equivalent_mod_rescaling compares two
irreducible cascades up to a gain rescaling, the one move (_rescale)
that factor_ws and dc_normalize also make.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import List, Optional, Tuple

from .errors import (DCZero, FactorizationStuck, InvalidArgument,
                     LiftbankError, NotHSConcentric, NotIrreducible, NotUnimodular,
                     NotWSDelayMinimized)
from .glstructure import S_H, S_W, GroupLiftingStructure, base_admissible
from .laurent import LaurentPoly, _canonical, _span
from .lifting import (LiftingCascade, LiftingStep, _filter_lift, _gain, _ladder,
                      normalize_semidirect)
from .polyphase import IDENTITY, PolyphaseMatrix, analyze_filter, classify_bank, make_bank

# ---------------------------------------------------------------------------
# Laurent division


def laurent_divmod(num: LaurentPoly, den: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder over the Laurent polynomials.

    Returns (q, r) with num = q*den + r and width(r) < width(den).  Among
    the valid remainders, picks one of minimal support width, breaking
    ties toward lower degree.

    With num on [a, b], the valid remainders are the unique ones on the
    windows [a + kills - t, b - t], t = 0..kills: cancelling the taps
    below window 0 with den's bottom tap reaches it, and cancelling the top
    tap of window t with den's top tap slides it down to window t + 1.
    Only nonzero taps are cancelled (a zero top tap leaves r in the next
    window already), so the cost follows the taps, not the width.
    """
    for p in (num, den):
        if not isinstance(p, LaurentPoly):
            raise InvalidArgument(f"laurent_divmod takes LaurentPoly operands, "
                                  f"got {type(p).__name__}")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.zero()
    d_lo, d_hi = den.support()
    a, b = num.support()
    kills = b - a - (d_hi - d_lo) + 1
    if kills <= 0:
        return LaurentPoly.zero(), num

    q: dict = {}
    r, best = num, None  # best: ((width, top degree), q, r)

    def cancel(n: int, d: int) -> LaurentPoly:
        coef = r.coeff(n) / den.coeff(d)
        q[n - d] = q.get(n - d, 0) + coef
        return r - den.shift(n - d).scale(coef)

    while r and r.support()[0] < a + kills:
        r = cancel(r.support()[0], d_lo)
    while True:
        key = (r.order() + 1, -r.support()[0]) if r else (0, 0)
        if best is None or key < best[0]:
            best = (key, LaurentPoly(q), r)
        if not r or r.support()[1] <= b - kills:
            return best[1], best[2]
        r = cancel(r.support()[1], d_hi)


def _monomial_inverse(f: LaurentPoly) -> LaurentPoly:
    a, b = f.support()
    if a != b:
        raise ValueError("not a monomial")
    return LaurentPoly.monomial(-a, 1 / f.coeff(a))


# ---------------------------------------------------------------------------
# WS and HS factorization: one peel engine driven by the lifting structure


def _stuck(g: GroupLiftingStructure, i: int, orders: List[int],
           why: str) -> FactorizationStuck:
    return FactorizationStuck(f"{g.name} channel {i} (filter orders "
                              f"{orders[0]}, {orders[1]}): {why}")


def _unimodular(h: PolyphaseMatrix, who: str) -> None:
    if not h.det_info().unimodular:
        raise NotUnimodular(f"{who} requires a unimodular bank")


def _unimodular_on_failure(factor):
    """factor, with a failure on a bank whose determinant is not 1 raised
    as NotUnimodular.  A success needs no determinant: it ends in the
    product check, over unimodular steps and gain and a base that is I or
    passed base_admissible, so h = product() has det h = 1."""
    who = factor.__name__

    @wraps(factor)
    def checked(h: PolyphaseMatrix, *args, **kwargs) -> LiftingCascade:
        try:
            return factor(h, *args, **kwargs)
        except (LiftbankError, ZeroDivisionError):
            _unimodular(h, who)
            raise
    return checked


def _checked(out: LiftingCascade, h: PolyphaseMatrix) -> LiftingCascade:
    """The one exit of the factorizers: out, once its product's scalar
    filters are h's."""
    if out._product_filters() != [h.scalar_filter(0), h.scalar_filter(1)]:
        raise FactorizationStuck("product check failed")
    return out


def _peel(g: GroupLiftingStructure, h: PolyphaseMatrix, who: str, kind: str,
          error: type, what: str) -> LiftingCascade:
    """The start of factor_ws and factor_hs: check that h is a bank of
    class kind (else raise error), then peel steps of structure g off it
    until its two scalar filters have equal orders.  Returns the peeled
    steps over the bank that is left, unscaled.

    Filter i stays centred at its group delay d_i from the class: support
    [a, b] with a + b = 2 d_i.  The filter m of larger order was lifted
    last, by a step s of its filter group, so its taps i above the line,
    need = 2i - 2 d_m - order(other) > 0, come from s(z^2) * other alone.
    The top such tap fixes the one generator z^-n + sign z^-mirror that
    reaches it (2 (mirror - n) = need) and, by one division, its weight;
    cancelling it exposes the next.  Only these integer numerators are
    tracked (only a mirror tap's column reaches them), each cancellation
    scaling them, the weights so far and the denominator by otop, the
    other filter's top tap.  The lift-back, minus s(z^2) * other, computes
    only the taps at or above the centre d_m and mirrors them: the step
    keeps the filter's symmetry, whose sign its end taps show.
    """
    cls = classify_bank(h)
    if cls.kind != kind:
        raise error(f"{who} requires {what}")
    # Integer centres: Fraction arithmetic here would slow every peel.
    two_d = (int(2 * cls.d0), int(2 * cls.d1))
    e = [(f._num, f._den) for f in (h.scalar_filter(0), h.scalar_filter(1))]
    spans = [_span(num) for num, _ in e]
    peeled: List[LiftingStep] = []
    while True:
        orders = [b - a for a, b in spans]
        if orders[0] == orders[1]:
            base = make_bank(*(LaurentPoly._make(num, den) for num, den in e))
            return LiftingCascade(Fraction(1), tuple(reversed(peeled)), base)
        m = 0 if orders[0] > orders[1] else 1
        (num, den), (other, oden) = e[m], e[1 - m]
        small = orders[1 - m]
        line = two_d[m] + small     # tap i is above the line iff 2i > line
        otop = other[spans[1 - m][1]]
        a, sgn = (otop, 1) if otop > 0 else (-otop, -1)
        down = sorted(other.items(), reverse=True)
        top = {i: v for i, v in num.items() if 2 * i > line}
        s, scale = {}, 1    # the step's numerators over den * scale / oden
        while top:
            i = max(top)
            need = 2 * i - line
            # need == 1 gives k == 0; generator 1 then fails the check.
            n, mirror, sign = g.filter_spec(m)._taps(max(1, (need // 2 + 1) // 2))
            if 2 * (mirror - n) != need:
                raise _stuck(g, m, orders, "no step of the filter group bridges the order gap")
            b = sgn * top[i]
            if a != 1:
                top = {k: v * a for k, v in top.items()}
                s = {k: v * a for k, v in s.items()}
                scale *= a
            s[n], s[mirror] = sign * b, b
            for k, v in down:
                k += 2 * mirror
                if 2 * k <= line:
                    break
                top[k] = top.get(k, 0) - b * v
            top = {k: v for k, v in top.items() if v}
        den *= scale
        cut = (two_d[m] + 1) // 2   # the lowest tap at or above the centre
        # A new dict even when scale == 1: num may be h's own filter.
        half = {k: v * scale for k, v in num.items() if k >= cut}
        for p, w in s.items():
            for k, v in down:
                k += 2 * p
                if k < cut:
                    break
                half[k] = half.get(k, 0) - w * v
        half, hden = _canonical(half, den)
        flip = 1 if num[spans[m][0]] == num[spans[m][1]] else -1
        half.update({two_d[m] - k: flip * v for k, v in half.items()})
        e[m] = half, hden
        spans[m] = e[m][0] and _span(e[m][0])
        if not spans[m] or spans[m][1] - spans[m][0] > small:
            raise _stuck(g, m, orders, "peel did not reduce the order")
        peeled.append(LiftingStep(m, LaurentPoly._reduced({k: v * oden for k, v in s.items()},
                                                          den)))


def _rescale(c: LiftingCascade, alpha: Fraction) -> LiftingCascade:
    """The alpha-rescaling D_(K/alpha) gamma_alpha(S) D_alpha B of
    c = D_K S B: the same product, with the gain alpha moved onto the base,
    which make_bank builds from its scaled filters, so it keeps them."""
    k = (1 / alpha ** 2, alpha ** 2)    # gamma_alpha's factors on upper, lower steps
    steps = tuple(LiftingStep(s.m, s.filter.scale(k[s.m])) for s in c.steps)
    base = _gain(alpha, [c.base.scalar_filter(0), c.base.scalar_filter(1)])
    return LiftingCascade(c.scale / alpha, steps, make_bank(*base))


@_unimodular_on_failure
def factor_ws(h: PolyphaseMatrix) -> LiftingCascade:
    """The unique irreducible lifting factorization of a delay-minimized
    unimodular WS bank into HS-filter lifting steps and a gain scaling.

    Peels S_W steps (see _peel) down to the constant bank D_K, whose gain
    K is then moved off the base into the scale.
    """
    c = _peel(S_W, h, "factor_ws", "WS_DELAY_MINIMIZED", NotWSDelayMinimized,
              "a delay-minimized WS bank")
    # On a unimodular bank the remainder is single taps, so K is nonzero;
    # on any other this may divide by zero, which is reported as NotUnimodular.
    out = _rescale(c, 1 / c.base.scalar_filter(1).coeff(-1))
    if out.base != IDENTITY:
        raise FactorizationStuck("remainder is not a unimodular scaling")
    return _checked(out, h)


@_unimodular_on_failure
def factor_hs(h: PolyphaseMatrix, normalize_dc: bool = False) -> LiftingCascade:
    """Partial factorization of a concentric unimodular HS bank into WA
    lifting steps over a concentric equal-length HS base.

    Peels S_H steps (see _peel) while the two scalar orders differ; equal
    orders are the terminal condition.  With normalize_dc the result is
    passed through dc_normalize.
    """
    out = _peel(S_H, h, "factor_hs", "HS_CONCENTRIC", NotHSConcentric,
                "a concentric HS bank")
    if not base_admissible(S_H, out.base):
        raise FactorizationStuck("terminal bank is not an equal-length HS base")
    return _checked(dc_normalize(out) if normalize_dc else out, h)


def dc_normalize(c: LiftingCascade) -> LiftingCascade:
    """Canonical representative of a cascade's rescaling class: base
    lowpass DC response rescaled to 1, gain folded into the scale."""
    beta = c.base.scalar_filter(0)(1)
    if beta == 0:
        raise DCZero("base lowpass DC response is zero")
    return _rescale(c, beta)


# ---------------------------------------------------------------------------
# Euclidean oracle


def _antidiag_word(b: LaurentPoly) -> List[LiftingStep]:
    """[[0, b], [-1/b, 0]] = upper(b) * lower(-1/b) * upper(b)."""
    inv = _monomial_inverse(b)
    return [LiftingStep(0, b), LiftingStep(1, -inv), LiftingStep(0, b)]


def factor_euclidean(h: PolyphaseMatrix, policy: str = "A") -> LiftingCascade:
    """General lifting factorization via the Euclidean algorithm.

    No symmetry guarantee.  Policy "A" reduces via the upper-right entry
    first, policy "B" via the lower-left; the two policies exhibit
    nonuniqueness of irreducible lifting factorizations.
    """
    if policy not in ("A", "B"):
        raise InvalidArgument(f"policy must be 'A' or 'B', got {policy!r}")
    _unimodular(h, "factor_euclidean")

    col = 1 if policy == "A" else 0
    target = 0 if policy == "A" else 1
    filters = [h.scalar_filter(0), h.scalar_filter(1)]
    rows = [h.row0, h.row1]     # the divisions read the matrix entries
    ops: List[LiftingStep] = []  # left-applied inverse steps, in order

    def e(i: int, j: int) -> LaurentPoly:
        return rows[i].comp0 if j == 0 else rows[i].comp1

    def apply_step(i: int, filt: LaurentPoly):
        ops.append(LiftingStep(i, filt))
        rows[i] = analyze_filter(_ladder(ops[-1:], filters, _filter_lift)[i])

    while e(0, col) and e(1, col):
        q, _ = laurent_divmod(e(target, col), e(1 - target, col))
        if q.is_zero():
            target = 1 - target
            continue
        apply_step(target, -q)
        target = 1 - target

    # One entry of column col is zero, so by det = 1 the other row's entry
    # in the other column is a monomial: row t clears its other entry
    # against it, leaving a diagonal or an antidiagonal monomial matrix.
    t = 0 if e(0, col) else 1
    if e(t, 1 - col):
        apply_step(t, -(e(t, 1 - col) * _monomial_inverse(e(1 - t, 1 - col))))
    if not e(0, 0):
        rem: List[LiftingStep] = _antidiag_word(e(0, 1))
    elif e(0, 0).support()[0] == 0:
        rem = [Fraction(e(1, 1).coeff(0))]  # constant: plain D_K
    else:
        rem = _antidiag_word(e(0, 0)) + _antidiag_word(LaurentPoly.constant(-1))

    return _checked(normalize_semidirect([op.inverse() for op in ops] + rem), h)


# ---------------------------------------------------------------------------
# Rescaling equivalence


@dataclass(frozen=True)
class RescalingWitness:
    """alpha = K/K' relating two factorizations: B' = D_alpha B and
    S'_i = gamma_alpha S_i."""

    alpha: Fraction


def equivalent_mod_rescaling(c1: LiftingCascade,
                             c2: LiftingCascade) -> Optional[RescalingWitness]:
    """Witness that c2 is the alpha-rescaling of c1, or None."""
    if not (c1.is_irreducible and c2.is_irreducible):
        raise NotIrreducible("rescaling comparison requires irreducible cascades")
    alpha = c1.scale / c2.scale
    return RescalingWitness(alpha) if _rescale(c1, alpha) == c2 else None
