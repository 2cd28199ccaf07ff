"""Apply lifting cascades to finitely supported signals.

Exact rational transforms run in the polyphase domain; reversible mode
runs the same ladder on integer signals with per-step rounding
round(v) = floor(v + 1/2), giving bit-exact inversion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat, zip_longest
from operator import index, itemgetter
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .errors import InvalidArgument, NonIntegerInput, NotDyadic, NotUnimodular
from .laurent import LaurentPoly
from .lifting import LiftingCascade, LiftingStep, _exact_lift, _gain, _ladder
from .polyphase import IDENTITY, PolyphaseVector, merge_signal, split_signal

SignalPair = Tuple[LaurentPoly, LaurentPoly]


def apply_analysis(c: LiftingCascade, x: LaurentPoly) -> SignalPair:
    """Polyphase split, then base, steps and gain: the ladder c.product()
    runs on the base's rows, so the result is exactly c.product() applied
    to the split signal, by construction."""
    v = c.base.apply(PolyphaseVector(*split_signal(x)))
    y0, y1 = _gain(c.scale, _ladder(c.steps, [v.comp0, v.comp1], _exact_lift))
    return y0, y1


def apply_synthesis(c: LiftingCascade, y: SignalPair) -> LaurentPoly:
    """Exact inverse ladder; requires a unimodular base."""
    y0, y1 = _ladder(reversed(c.steps), _gain(1 / c.scale, list(y)), _exact_lift, -1)
    v = c.base.inverse().apply(PolyphaseVector(y0, y1))
    return merge_signal(v.comp0, v.comp1)


# ---------------------------------------------------------------------------
# Reversible integer lifting
#
# The ladder runs on dense windows: each channel is a list over one shared
# run of indices, and a step is a few list comprehensions over shifted
# slices.  Sparse dicts appear only at the API boundary.

IntSignal = Dict[int, int]
IntSignalPair = Tuple[IntSignal, IntSignal]


def _int_sample(k, v) -> Tuple[int, int]:
    """(k, v) as ints; NonIntegerInput if the index k or the value v is
    not an integer.  Integer-valued floats and Fractions pass."""
    try:
        k = index(k)
    except TypeError:
        raise NonIntegerInput(f"sample index {k!r} is not an integer") from None
    try:
        iv = int(v)
    except (TypeError, ValueError, OverflowError):
        iv = None
    if iv is None or iv != v:
        raise NonIntegerInput(f"reversible mode requires integer samples; "
                              f"sample {k} is {v!r}")
    return k, iv


def _int_samples(x: Mapping[int, int]) -> Mapping[int, int]:
    """x with each index and value checked by _int_sample: x itself when
    they are all ints, else a dict of ints."""
    if {*map(type, x), *map(type, x.values())} <= {int}:
        return x
    return dict(map(_int_sample, x, x.values()))


def _int_split(x: Mapping[int, int]) -> IntSignalPair:
    """The polyphase channels x0[n] = x[2n], x1[n] = x[2n + 1] of x's
    nonzero samples, each checked by _int_sample."""
    x0: IntSignal = {}
    x1: IntSignal = {}
    for k, v in _int_samples(x).items():
        if v:
            (x1 if k & 1 else x0)[k >> 1] = v
    return x0, x1


def _check_reversible(c: LiftingCascade):
    if c.scale != 1 or c.base != IDENTITY:
        raise NotDyadic("reversible mode requires K = 1 and base = I")
    for s in c.steps:
        if not s.filter.is_dyadic:
            raise NotDyadic("reversible mode requires dyadic lifting filters")


def _window_lift(dst: List[int], filt: LaurentPoly, src: List[int],
                 sign: int) -> List[int]:
    """dst + sign * round(S * src), round(v) = floor(v + 1/2), on windows
    over the same indices; src reads as zero past its ends.

    S = num / 2^s, so round(S * src) = (num * src + h) >> s with h = 2^s // 2.
    For sign = -1 the taps are negated and h becomes 2^s - 1 - h, because
    -((v + h) >> s) = (-v + 2^s - 1 - h) >> s.  Taps with equal numerators,
    such as a linear-phase filter's symmetric pairs, share one comprehension
    per pair (a tap left over is paired with zeros); the first one also adds
    dst << s and the last one shifts, since ((dst << s) + v) >> s =
    dst + (v >> s)."""
    num = filt._num
    if not num:
        return dst
    den = filt._den
    s = den.bit_length() - 1
    off = den >> 1 if sign > 0 else den - 1 - (den >> 1)
    r = max(max(num), -min(num))
    size = len(src)
    pad = [0] * r
    ext = pad + src + pad
    starts: Dict[int, List[int]] = {}
    for n, t in num.items():
        starts.setdefault(t * sign, []).append(r - n)
    terms = [(t, i, j) for t, ix in starts.items()
             for i, j in zip_longest(ix[::2], ix[1::2])]

    def col(i):
        # src shifted by one tap, sliced only when its comprehension runs,
        # so that at most two shifted copies are alive at once
        return repeat(0) if i is None else ext[i:i + size]

    t, i, j = terms.pop()
    if not terms:
        return [d + ((t * (x + y) + off) >> s) for d, x, y in zip(dst, col(i), col(j))]
    (t0, i0, j0), *mid = terms
    acc = [(d << s) + t0 * (x + y) + off for d, x, y in zip(dst, col(i0), col(j0))]
    for tk, ik, jk in mid:
        acc = [v + tk * (x + y) for v, x, y in zip(acc, col(ik), col(jk))]
    return [(v + t * (x + y)) >> s for v, x, y in zip(acc, col(i), col(j))]


def _windows(steps: Sequence[LiftingStep], y: IntSignalPair,
             sign: int = 1) -> Iterator[Tuple[int, List[List[int]]]]:
    """_ladder(steps, y, ..., sign) on the integer channel pair y, run on
    one pair of dense windows per run of indices: yields (lo, [w0, w1])
    per run, position p of a window holding the channel's index lo + p.

    A step moves a sample by at most its filter's largest |tap index|, so
    the steps together move it by at most their sum R.  Each window pads
    its run by R on both sides, and runs are cut where neighbouring
    indices are more than 2R apart, so that no index receives
    contributions from two runs: the windows hold the same values as one
    window over everything."""
    reach = sum(max(map(abs, s.filter._num), default=0) for s in steps)
    keys = sorted(y[0].keys() | y[1].keys())
    cuts = [i for i in range(1, len(keys)) if keys[i] - keys[i - 1] > 2 * reach]
    bounds = [0, *cuts, len(keys)] if keys else []
    pad = [0] * reach
    for i, j in zip(bounds, bounds[1:]):
        run = range(keys[i], keys[j - 1] + 1)
        w = [pad + list(map(ch.get, run, repeat(0))) + pad for ch in y]
        yield run.start - reach, _ladder(steps, w, _window_lift, sign)


def _nonzero(w: List[int], start: int, step: int = 1) -> Iterator[Tuple[int, int]]:
    """The (index, value) pairs of window w's nonzero entries, position p
    holding index start + step * p."""
    return filter(itemgetter(1), zip(count(start, step), w))


def _rounded_update(filt: LaurentPoly, src: IntSignal) -> IntSignal:
    """round(S * src) with round(v) = floor(v + 1/2), nonzero entries
    only: one lower step on the pair (src, 0)."""
    out: IntSignal = {}
    for lo, (_, w1) in _windows((LiftingStep(1, filt),), (src, {})):
        out.update(_nonzero(w1, lo))
    return out


def reversible_analysis(c: LiftingCascade, x: Mapping[int, int]) -> IntSignalPair:
    """Integer-to-integer lifting ladder with per-step rounding."""
    _check_reversible(c)
    y0: IntSignal = {}
    y1: IntSignal = {}
    for lo, (w0, w1) in _windows(c.steps, _int_split(x)):
        y0.update(_nonzero(w0, lo))
        y1.update(_nonzero(w1, lo))
    return y0, y1


def reversible_synthesis(c: LiftingCascade, y: IntSignalPair) -> IntSignal:
    """Bit-exact inverse of reversible_analysis."""
    _check_reversible(c)
    y = (_int_samples(y[0]), _int_samples(y[1]))
    out: IntSignal = {}
    for lo, (w0, w1) in _windows(c.steps[::-1], y, -1):
        out.update(_nonzero(w0, 2 * lo, 2))
        out.update(_nonzero(w1, 2 * lo + 1, 2))
    return out


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
