"""Constructive lifting factorization algorithms.

factor_ws and factor_hs are one peel engine driven by the group lifting
structure: factor_ws peels the half-sample symmetric steps of S_W off a
delay-minimized WS bank down to a gain scaling; factor_hs peels the
whole-sample antisymmetric steps of S_H off a concentric HS bank down to
an equal-length base; factor_euclidean is the generic Euclidean-algorithm
oracle with two pivot policies; equivalent_mod_rescaling compares two
irreducible cascades up to a gain rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import List, Optional, Tuple

from .errors import (DCZero, FactorizationStuck, NotHSConcentric,
                     NotIrreducible, NotUnimodular, NotWSDelayMinimized)
from .glstructure import S_H, S_W, GroupLiftingStructure
from .laurent import ZERO, LaurentPoly
from .lifting import (LiftingCascade, LiftingStep, normalize_semidirect,
                      scaling_matrix)
from .linsolve import solve_exact
from .polyphase import BankClass, PolyphaseMatrix, classify_bank, make_bank

# ---------------------------------------------------------------------------
# Laurent division


def laurent_divmod(num: LaurentPoly, den: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder over the Laurent polynomials.

    Returns (q, r) with num = q*den + r and width(r) < width(den).  Among
    the valid remainders, picks one of minimal support width, breaking
    ties toward lower degree.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.zero()
    d_ends = den.support()
    d_order = d_ends[1] - d_ends[0]
    kills = num.order() - d_order + 1
    if kills <= 0:
        return LaurentPoly.zero(), num

    best = None  # (width, top_index, q, r)
    for tops in range(kills + 1):
        q: dict = {}
        r = num
        # Kill the top term of r `tops` times, then bottom terms until r is
        # shorter than den.
        for i in count():
            if r.is_zero() or r.order() < d_order:
                break
            end = 1 if i < tops else 0
            n_r, n_d = r.support()[end], d_ends[end]
            coef = r.coeff(n_r) / den.coeff(n_d)
            q[n_r - n_d] = q.get(n_r - n_d, 0) + coef
            r = r - den.shift(n_r - n_d).scale(coef)
        width = 0 if r.is_zero() else r.order() + 1
        top = 0 if r.is_zero() else -r.support()[0]  # top degree of z
        key = (width, top)
        if best is None or key < best[0]:
            best = (key, LaurentPoly(q), r)
    return best[1], best[2]


def _monomial_inverse(f: LaurentPoly) -> LaurentPoly:
    a, b = f.support()
    if a != b:
        raise ValueError("not a monomial")
    return LaurentPoly.monomial(-a, 1 / f.coeff(a))


# ---------------------------------------------------------------------------
# WS and HS factorization: one peel engine driven by the lifting structure


def _upsample(f: LaurentPoly) -> LaurentPoly:
    """F(z) -> F(z^2): a step filter as it acts on a scalar filter."""
    return LaurentPoly._interleave(f, ZERO)


def _stuck(g: GroupLiftingStructure, i: int, orders: List[int],
           why: str) -> FactorizationStuck:
    return FactorizationStuck(f"{g.name} channel {i} (filter orders "
                              f"{orders[0]}, {orders[1]}): {why}")


def _peel(g: GroupLiftingStructure, h: PolyphaseMatrix,
          cls: BankClass) -> Tuple[List[LaurentPoly], List[LiftingStep]]:
    """Peel steps of structure g off bank h until its two scalar filters
    have equal orders; returns those filters and the steps in product
    order (last-applied first).

    Filter i stays centred at its group delay d_i from cls: support [a, b]
    with a + b = 2 d_i.  The filter m of larger order was lifted last, by
    s = sum_k u_k g_k over the first t generators of its filter group,
    where 2 order(g_t) is the order gap.  The weights u solve the exact
    system that cancels the lifted taps i with |2i - 2 d_m| > order(other).
    """
    # Integer centres: Fraction arithmetic here would slow every peel.
    two_d = (int(2 * cls.d0), int(2 * cls.d1))
    e = [h.scalar_filter(0), h.scalar_filter(1)]
    peeled: List[LiftingStep] = []
    while True:
        spans = [f.support() for f in e]
        orders = [b - a for a, b in spans]
        for i, (a, b) in enumerate(spans):
            if a + b != two_d[i]:
                raise _stuck(g, i, orders, "support not centred at the group delay")
        if orders[0] == orders[1]:
            return e, peeled
        m = 0 if orders[0] > orders[1] else 1
        lifted, other, small = e[m], e[1 - m], orders[1 - m]
        spec = g.filter_spec(m)
        gap = orders[m] - small
        gens = [spec.basis(k) for k in range(1, (gap // 2 + 1) // 2 + 1)]
        if not gens or 2 * gens[-1].order() != gap:
            raise _stuck(g, m, orders, "no step of the filter group bridges the order gap")
        cols = [_upsample(gk) * other for gk in gens]
        a, b = spans[m]
        idxs = [i for i in range(a, b + 1) if abs(2 * i - two_d[m]) > small]
        sol = solve_exact([[col.coeff(i) for col in cols] for i in idxs],
                          [lifted.coeff(i) for i in idxs])
        if sol is None:
            raise _stuck(g, m, orders, "singular cancellation system")
        s = sum((gk.scale(u) for gk, u in zip(gens, sol)), ZERO)
        new = lifted - _upsample(s) * other
        if new.is_zero() or new.order() > small:
            raise _stuck(g, m, orders, "peel did not reduce the order")
        e[m] = new
        peeled.append(LiftingStep(m, s))


def factor_ws(h: PolyphaseMatrix) -> LiftingCascade:
    """The unique irreducible lifting factorization of a delay-minimized
    unimodular WS bank into HS-filter lifting steps and a gain scaling.

    Peels S_W steps (see _peel) down to a constant diagonal remainder,
    which becomes the gain scaling.
    """
    if not h.det_info().unimodular:
        raise NotUnimodular("factor_ws requires a unimodular bank")
    cls = classify_bank(h)
    if cls.kind != "WS_DELAY_MINIMIZED":
        raise NotWSDelayMinimized("factor_ws requires a delay-minimized WS bank")

    e, peeled = _peel(S_W, h, cls)
    if e[0].support() != (0, 0) or e[1].support() != (-1, -1):
        raise FactorizationStuck("non-diagonal constant remainder")
    k = e[1].coeff(-1)
    if e[0].coeff(0) * k != 1:
        raise FactorizationStuck("remainder is not a unimodular scaling")
    out = normalize_semidirect(peeled + [k])
    if out.product() != h:
        raise FactorizationStuck("product check failed")
    return out


def factor_hs(h: PolyphaseMatrix, normalize_dc: bool = False) -> LiftingCascade:
    """Partial factorization of a concentric unimodular HS bank into WA
    lifting steps over a concentric equal-length HS base.

    Peels S_H steps (see _peel) while the two scalar orders differ; equal
    orders are the terminal condition.  With normalize_dc the result is
    passed through dc_normalize.
    """
    if not h.det_info().unimodular:
        raise NotUnimodular("factor_hs requires a unimodular bank")
    cls = classify_bank(h)
    if cls.kind != "HS_CONCENTRIC":
        raise NotHSConcentric("factor_hs requires a concentric HS bank")

    e, peeled = _peel(S_H, h, cls)
    base = make_bank(e[0], e[1])
    cls = classify_bank(base)
    if not (base.is_unimodular and cls.kind == "HS_CONCENTRIC" and cls.equal_length_base):
        raise FactorizationStuck("terminal bank is not an equal-length HS base")
    out = LiftingCascade(Fraction(1), tuple(reversed(peeled)), base)
    if normalize_dc:
        out = dc_normalize(out)
    if out.product() != h:
        raise FactorizationStuck("product check failed")
    return out


def dc_normalize(c: LiftingCascade) -> LiftingCascade:
    """Canonical representative of a cascade's rescaling class: base
    lowpass DC response rescaled to 1, gain folded into the scale."""
    beta = c.base.scalar_filter(0)(1)
    if beta == 0:
        raise DCZero("base lowpass DC response is zero")
    return LiftingCascade(c.scale / beta,
                          tuple(s.conjugate(beta) for s in c.steps),
                          scaling_matrix(beta) @ c.base)


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
        raise ValueError("policy must be 'A' or 'B'")
    if not h.det_info().unimodular:
        raise NotUnimodular("factor_euclidean requires a unimodular bank")

    col = 1 if policy == "A" else 0
    target = 0 if policy == "A" else 1
    rows = [h.row0, h.row1]
    ops: List[LiftingStep] = []  # left-applied inverse steps, in order

    def e(i: int, j: int) -> LaurentPoly:
        return rows[i].comp0 if j == 0 else rows[i].comp1

    def apply_step(i: int, filt: LaurentPoly):
        rows[i] = rows[i] + rows[1 - i].filtermul(filt)
        ops.append(LiftingStep(i, filt))

    while e(0, col) and e(1, col):
        q, _ = laurent_divmod(e(target, col), e(1 - target, col))
        if q.is_zero():
            target = 1 - target
            continue
        apply_step(target, -q)
        target = 1 - target

    # Endgame: one column entry is zero; clear the off-pattern entry and
    # expand the monomial remainder.
    if e(1, 1).is_zero() or e(0, 0).is_zero():
        # heading to an antidiagonal remainder
        if e(1, 1).is_zero() and e(0, 0):
            apply_step(0, -(e(0, 0) * _monomial_inverse(e(1, 0))))
        elif e(0, 0).is_zero() and e(1, 1):
            apply_step(1, -(e(1, 1) * _monomial_inverse(e(0, 1))))
        b = e(0, 1)
        if e(1, 0) != -_monomial_inverse(b):
            raise FactorizationStuck("antidiagonal remainder is not unimodular")
        rem: List[LiftingStep] = _antidiag_word(b)
    else:
        # heading to a diagonal remainder
        if e(1, 0):
            apply_step(1, -(e(1, 0) * _monomial_inverse(e(0, 0))))
        elif e(0, 1):
            apply_step(0, -(e(0, 1) * _monomial_inverse(e(1, 1))))
        m = e(0, 0)
        a, b_idx = m.support()
        if a == 0:
            rem = [Fraction(e(1, 1).coeff(0))]  # constant: plain D_K
        else:
            rem = _antidiag_word(m) + _antidiag_word(LaurentPoly.constant(-1))

    word = [op.inverse() for op in ops] + rem
    out = normalize_semidirect(word)
    if out.product() != h:
        raise FactorizationStuck("product check failed")
    return out


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
    if len(c1) != len(c2):
        return None
    alpha = Fraction(c1.scale) / Fraction(c2.scale)
    if c2.base != scaling_matrix(alpha) @ c1.base:
        return None
    for s, sp in zip(c1.steps, c2.steps):
        if sp.m != s.m or sp != s.conjugate(alpha):
            return None
    return RescalingWitness(alpha)
