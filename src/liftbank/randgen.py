"""Seeded random generators for filters, cascades, bases, and signals.

Defaults follow the desk-scale testing regime: filter support radii
t in [1, 3], dyadic coefficients with denominators up to 2^4, cascades
of at most 8 steps.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from .glstructure import (HS_MINUS, HS_PLUS, S_H, S_W, WA_ZERO, FilterGroupSpec,
                          GroupLiftingStructure, base_admissible)
from .laurent import ZERO, LaurentPoly
from .lifting import GroupWord, LiftingCascade, LiftingStep, reduce_word
from .linsolve import solve_exact
from .polyphase import PolyphaseMatrix, PolyphaseVector


def rand_dyadic(rng: random.Random, max_den_pow: int = 4,
                nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-8, 8)
        if num or not nonzero:
            return Fraction(num, 2 ** rng.randint(0, max_den_pow))


def rand_poly(rng: random.Random, lo: int = -3, hi: int = 3,
              nonzero: bool = True) -> LaurentPoly:
    while True:
        f = LaurentPoly({n: rand_dyadic(rng) for n in range(lo, hi + 1)})
        if f or not nonzero:
            return f


def _rand_group_filter(rng: random.Random, spec: FilterGroupSpec,
                       t: Optional[int] = None) -> LaurentPoly:
    """Nonzero member of the filter group spec with support radius t: a
    dyadic combination of its first t generators."""
    t = t or rng.randint(1, 3)
    half = [rand_dyadic(rng) for _ in range(t)]
    half[-1] = half[-1] or rand_dyadic(rng, nonzero=True)  # keep radius exactly t
    f = ZERO
    for k, u in enumerate(half, start=1):
        f = f + spec.basis(k).scale(u)
    return f


def rand_hs_filter(rng: random.Random, axis_num: int, t: Optional[int] = None) -> LaurentPoly:
    """Nonzero HS filter about axis_num/2 (axis_num is +1 or -1) with
    support radius t."""
    return _rand_group_filter(rng, HS_PLUS if axis_num > 0 else HS_MINUS, t)


def rand_wa_filter(rng: random.Random, t: Optional[int] = None) -> LaurentPoly:
    """Nonzero WA filter about 0 with support radius t."""
    return _rand_group_filter(rng, WA_ZERO, t)


def rand_admissible_step(rng: random.Random, g: GroupLiftingStructure,
                         m: Optional[int] = None) -> LiftingStep:
    m = rng.randint(0, 1) if m is None else m
    return LiftingStep(m, _rand_group_filter(rng, g.filter_spec(m)))


def _alternating_steps(rng: random.Random, g: GroupLiftingStructure,
                       n_steps: int) -> List[LiftingStep]:
    m = rng.randint(0, 1)
    steps = []
    for _ in range(n_steps):
        steps.append(rand_admissible_step(rng, g, m))
        m = 1 - m
    return steps


def rand_ws_cascade(rng: random.Random, n_steps: Optional[int] = None,
                    random_scale: bool = True) -> LiftingCascade:
    """Random irreducible S_W cascade over base I."""
    n_steps = rng.randint(1, 8) if n_steps is None else n_steps
    k = Fraction(1)
    if random_scale:
        k = Fraction(rng.choice([1, -1]) * 2 ** rng.randint(0, 3),
                     2 ** rng.randint(0, 3))
    return LiftingCascade(k, tuple(_alternating_steps(rng, S_W, n_steps)))


def rand_dyadic_ws_cascade(rng: random.Random,
                           n_steps: Optional[int] = None) -> LiftingCascade:
    """Random reversible-style cascade: dyadic filters, K = 1, base I."""
    return rand_ws_cascade(rng, n_steps, random_scale=False)


def rand_equal_length_hs_base(rng: random.Random,
                              width: Optional[int] = None) -> PolyphaseMatrix:
    """Random concentric equal-length HS base bank.

    Parametrized as rows (P(z), P(1/z)) and (Q(z), -Q(1/z)); the
    determinant-1 condition P(z)Q(1/z) + P(1/z)Q(z) = -1 is linear in Q
    given P and is solved exactly, retrying on singular draws.
    """
    while True:
        w = rng.randint(0, 2) if width is None else width
        lo = rng.randint(-1, 0)
        p = {n: rand_dyadic(rng) for n in range(lo, lo + w + 1)}
        p[lo] = p[lo] or rand_dyadic(rng, nonzero=True)
        p[lo + w] = p[lo + w] or rand_dyadic(rng, nonzero=True)
        pp = LaurentPoly(p)
        if pp.is_zero():
            continue
        support = list(range(lo, lo + w + 1))
        rows = []
        rhs = []
        for k in range(w + 1):
            rows.append([pp.coeff(n + k) + pp.coeff(n - k) for n in support])
            rhs.append(Fraction(-1) if k == 0 else Fraction(0))
        sol = solve_exact(rows, rhs)
        if sol is None:
            continue
        qq = LaurentPoly(dict(zip(support, sol)))
        if qq.is_zero() or qq.support() != pp.support():
            continue
        base = PolyphaseMatrix(PolyphaseVector(pp, pp.reflect()),
                               PolyphaseVector(qq, -qq.reflect()))
        if base_admissible(S_H, base):
            return base


def rand_hs_cascade(rng: random.Random, n_steps: Optional[int] = None,
                    base: Optional[PolyphaseMatrix] = None) -> LiftingCascade:
    """Random irreducible S_H cascade over a random equal-length base, K = 1."""
    n_steps = rng.randint(1, 6) if n_steps is None else n_steps
    if base is None:
        base = rand_equal_length_hs_base(rng)
    return LiftingCascade(Fraction(1), tuple(_alternating_steps(rng, S_H, n_steps)), base)


def rand_hs_concentric_bank(rng: random.Random) -> PolyphaseMatrix:
    """Random member of the unimodular HS class (WA steps over a base)."""
    return rand_hs_cascade(rng, n_steps=rng.randint(0, 4)).product()


def rand_word(rng: random.Random, n_letters: Optional[int] = None) -> GroupWord:
    """Random reduced word over the upper/lower alphabets."""
    n_letters = rng.randint(0, 6) if n_letters is None else n_letters
    m = rng.randint(0, 1)
    letters = []
    for _ in range(n_letters):
        letters.append(LiftingStep(m, rand_poly(rng, -2, 2)))
        m = 1 - m
    return reduce_word(letters)


def rand_signal(rng: random.Random, length: int = 16,
                start: Optional[int] = None) -> LaurentPoly:
    start = rng.randint(-8, 8) if start is None else start
    return LaurentPoly({start + i: rand_dyadic(rng) for i in range(length)})


def rand_int_signal(rng: random.Random, length: int = 1024) -> dict:
    start = rng.randint(-32, 32)
    return {start + i: rng.randint(-255, 255) for i in range(length)}
