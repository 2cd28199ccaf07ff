"""Apply lifting cascades to finitely supported signals.

Exact rational transforms run in the polyphase domain; reversible mode
runs the same ladder on integer signals with per-step rounding
round(v) = floor(v + 1/2), giving bit-exact inversion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .errors import InvalidArgument, NonIntegerInput, NotDyadic, NotUnimodular
from .laurent import LaurentPoly
from .lifting import LiftingCascade
from .polyphase import IDENTITY, PolyphaseVector, merge_signal, split_signal

SignalPair = Tuple[LaurentPoly, LaurentPoly]


def _ladder(c: LiftingCascade, y: list, lift, inverse: bool = False) -> list:
    """Run the lifting steps of c on the channel pair y = [y0, y1] and
    return it.  Step (m, S) sets y[m] = lift(y[m], S, y[1 - m], sign):
    forward, first step to last with sign +1; inverse, last step to first
    with sign -1, which undoes each step exactly."""
    sign = -1 if inverse else 1
    for s in (reversed(c.steps) if inverse else c.steps):
        y[s.m] = lift(y[s.m], s.filter, y[1 - s.m], sign)
    return y


def _exact_lift(dst: LaurentPoly, filt: LaurentPoly, src: LaurentPoly,
                sign: int) -> LaurentPoly:
    return dst + filt * src if sign > 0 else dst - filt * src


def apply_analysis(c: LiftingCascade, x: LaurentPoly) -> SignalPair:
    """Polyphase split followed by base, steps, then gain scaling.

    Exactly equal to multiplying the split signal by c.product().
    """
    x0, x1 = split_signal(x)
    v = c.base.apply(PolyphaseVector(x0, x1))
    y0, y1 = _ladder(c, [v.comp0, v.comp1], _exact_lift)
    if c.scale != 1:
        y0 = y0.scale(1 / c.scale)
        y1 = y1.scale(c.scale)
    return y0, y1


def apply_synthesis(c: LiftingCascade, y: SignalPair) -> LaurentPoly:
    """Exact inverse ladder; requires a unimodular base."""
    y0, y1 = y
    if c.scale != 1:
        y0 = y0.scale(c.scale)
        y1 = y1.scale(1 / c.scale)
    y0, y1 = _ladder(c, [y0, y1], _exact_lift, inverse=True)
    v = c.base.inverse().apply(PolyphaseVector(y0, y1))
    return merge_signal(v.comp0, v.comp1)


# ---------------------------------------------------------------------------
# Reversible integer lifting

IntSignal = Dict[int, int]
IntSignalPair = Tuple[IntSignal, IntSignal]


def _int_split(x: Mapping[int, int]) -> IntSignalPair:
    x0: IntSignal = {}
    x1: IntSignal = {}
    for k, v in x.items():
        v = int(v)
        if v:
            (x0 if k % 2 == 0 else x1)[k // 2 if k % 2 == 0 else (k - 1) // 2] = v
    return x0, x1


def _int_merge(x0: IntSignal, x1: IntSignal) -> IntSignal:
    out = {2 * n: v for n, v in x0.items() if v}
    out.update({2 * n + 1: v for n, v in x1.items() if v})
    return out


def _check_reversible(c: LiftingCascade):
    if c.scale != 1 or c.base != IDENTITY:
        raise NotDyadic("reversible mode requires K = 1 and base = I")
    for s in c.steps:
        if not s.filter.is_dyadic:
            raise NotDyadic("reversible mode requires dyadic lifting filters")


def _rounded_update(filt: LaurentPoly, src: IntSignal) -> IntSignal:
    """round(S * src) with round(v) = floor(v + 1/2), in integer arithmetic."""
    den = filt._den
    taps = list(filt._num.items())
    acc: Dict[int, int] = {}
    for k, x in src.items():
        for n, tap in taps:
            acc[k + n] = acc.get(k + n, 0) + tap * x
    out: IntSignal = {}
    for n, num in acc.items():
        r = (2 * num + den) // (2 * den)
        if r:
            out[n] = r
    return out


def _rounded_lift(dst: IntSignal, filt: LaurentPoly, src: IntSignal,
                  sign: int) -> IntSignal:
    """dst += sign * round(S * src), in place."""
    for n, v in _rounded_update(filt, src).items():
        nv = dst.get(n, 0) + sign * v
        if nv:
            dst[n] = nv
        else:
            dst.pop(n, None)
    return dst


def reversible_analysis(c: LiftingCascade, x: Mapping[int, int]) -> IntSignalPair:
    """Integer-to-integer lifting ladder with per-step rounding."""
    _check_reversible(c)
    if any(int(v) != v for v in x.values()):
        raise NonIntegerInput("reversible mode requires integer samples")
    y0, y1 = _ladder(c, list(_int_split(x)), _rounded_lift)
    return y0, y1


def reversible_synthesis(c: LiftingCascade, y: IntSignalPair) -> IntSignal:
    """Bit-exact inverse of reversible_analysis."""
    _check_reversible(c)
    y0, y1 = _ladder(c, [dict(y[0]), dict(y[1])], _rounded_lift, inverse=True)
    return _int_merge(y0, y1)


# ---------------------------------------------------------------------------
# Perfect reconstruction verification


@dataclass(frozen=True)
class PRReport:
    """ok iff every sampled round trip reproduced the input exactly, with
    the a = 1, d = 0 convention: no gain, no delay."""

    ok: bool
    trials: int = 0


def verify_pr(c: LiftingCascade, trials: int = 32, seed: int = 0) -> PRReport:
    """Sampled perfect-reconstruction check with the a = 1, d = 0 convention.

    Raises InvalidArgument when trials < 1: no sample is no evidence."""
    if trials < 1:
        raise InvalidArgument(f"verify_pr needs at least one trial, got {trials}")
    rng = random.Random(seed)
    try:
        for _ in range(trials):
            length = rng.randint(1, 32)
            start = rng.randint(-16, 16)
            x = LaurentPoly({start + i: Fraction(rng.randint(-9, 9))
                             for i in range(length)})
            if apply_synthesis(c, apply_analysis(c, x)) != x:
                return PRReport(ok=False, trials=trials)
    except NotUnimodular:
        return PRReport(ok=False, trials=trials)
    return PRReport(ok=True, trials=trials)
