"""Apply lifting cascades to finitely supported signals.

Both ladders run on dense windows: each channel is a Python list over one
shared run of indices, and a step is a few list comprehensions over
shifted slices.  Exact transforms keep each channel as integer numerators
over one positive denominator; reversible mode runs integer channels with
per-step rounding round(v) = floor(v + 1/2), giving bit-exact inversion.
Sparse LaurentPolys and dicts appear only at the API boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from math import gcd, lcm
from operator import index, itemgetter, sub
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import InvalidArgument, NonIntegerInput, NotDyadic, NotUnimodular
from .laurent import LaurentPoly
from .lifting import LiftingCascade, _ladder
from .polyphase import IDENTITY, PolyphaseMatrix

SignalPair = Tuple[LaurentPoly, LaurentPoly]


# ---------------------------------------------------------------------------
# Dense windows


def _radius(f: LaurentPoly) -> int:
    """The largest |tap index| of f: how far f moves a sample."""
    return max(map(abs, f._num), default=0)


def _reach(c: LiftingCascade) -> int:
    """How far c's base and steps together move a sample: the base
    entries' largest radius plus the sum of the step filters' radii."""
    return max(map(_radius, c.base.entries())) + sum(_radius(s.filter) for s in c.steps)


def _windows(y: Tuple[Mapping[int, int], Mapping[int, int]],
             reach: int) -> Iterator[Tuple[int, List[List[int]]]]:
    """The channel pair y as one pair of dense windows [w0, w1] per run of
    its indices: yields (lo, [w0, w1]) per run, position p of a window
    holding the channel's index lo + p.

    Runs are cut where neighbouring indices are more than 2 * reach apart,
    and each window pads its run by reach on both sides.  Whatever then
    runs on the windows, if it moves a sample by at most reach, no index
    receives contributions from two runs: the windows hold the same values
    as one window over everything."""
    keys = sorted(y[0].keys() | y[1].keys())
    gap = 2 * reach
    cuts = [i for i, d in enumerate(map(sub, keys[1:], keys), 1) if d > gap]
    bounds = [0, *cuts, len(keys)] if keys else []
    pad = [0] * reach
    for i, j in zip(bounds, bounds[1:]):
        run = range(keys[i], keys[j - 1] + 1)
        yield run.start - reach, [pad + list(map(ch.get, run, repeat(0))) + pad for ch in y]


Column = Optional[Tuple[List[int], int]]
Terms = List[Tuple[int, Column, Column]]


def _shifts(parts: Iterable[Tuple[Dict[int, int], int, List[int]]]
            ) -> Tuple[Terms, Callable[[Column], Iterable[int]]]:
    """The sum over parts (num, factor, src) and taps n of
    factor * num[n] times src shifted by n (position p reads src[p - n],
    zero past src's ends), as (terms, col); the srcs are windows of one
    length.

    Each term (t, a, b) adds t * (col(a) + col(b)): taps with equal
    products t, such as a linear-phase filter's symmetric pairs or the
    matching entries of a base row, share one term per pair.  A tap left
    over is paired with one left over at -t, such as an antisymmetric
    filter's mirror tap, through a negated copy of that tap's source, or
    else with None, which col reads as zeros.  col slices only when
    called, so that one comprehension per term keeps at most two shifted
    copies alive."""
    taps: Dict[int, List[Tuple[List[int], int]]] = {}
    for num, factor, src in parts:
        size = len(src)
        r = max(max(num), -min(num))
        ext = [0] * r + src + [0] * r
        for n, t in num.items():
            taps.setdefault(t * factor, []).append((ext, r - n))
    terms: Terms = []
    odd = {}
    for t, cols in taps.items():
        terms += [(t, a, b) for a, b in zip(cols[::2], cols[1::2])]
        if len(cols) & 1:
            odd[t] = cols[-1]
    negated: Dict[int, List[int]] = {}
    for t, a in odd.items():
        if -t not in odd:
            terms.append((t, a, None))
        elif t > 0:
            ext, k = odd[-t]
            if id(ext) not in negated:
                negated[id(ext)] = [-v for v in ext]
            terms.append((t, a, (negated[id(ext)], k)))

    def col(c: Column) -> Iterable[int]:
        return repeat(0) if c is None else c[0][c[1]:c[1] + size]

    return terms, col


def _nonzero(w: List[int], start: int, step: int = 1) -> Iterator[Tuple[int, int]]:
    """The (index, value) pairs of window w's nonzero entries, position p
    holding index start + step * p."""
    return filter(itemgetter(1), zip(count(start, step), w))


# ---------------------------------------------------------------------------
# Exact rational transforms
#
# A channel is (w, den): a window w of integer numerators over one
# positive denominator den.

Channel = Tuple[List[int], int]


def _reduced(w: List[int], den: int) -> Channel:
    """The channel w / den with gcd(den, *w) divided out."""
    g = gcd(den, *w)
    return (w, den) if g == 1 else ([v // g for v in w], den // g)


def _accumulate(acc: Iterable[int], fa: int, terms: Terms, col) -> List[int]:
    """fa * acc plus the sum that _shifts gave as (terms, col)."""
    (t, i, j), *rest = terms
    if fa == 1:
        acc = [a + t * (x + y) for a, x, y in zip(acc, col(i), col(j))]
    else:
        acc = [a * fa + t * (x + y) for a, x, y in zip(acc, col(i), col(j))]
    for t, i, j in rest:
        acc = [a + t * (x + y) for a, x, y in zip(acc, col(i), col(j))]
    return acc


def _exact_window_lift(dst: Channel, filt: LaurentPoly, src: Channel,
                       sign: int) -> Channel:
    """dst + sign * S * src, exactly.  With S = num / dS the sum has the
    denominator L = lcm(den_dst, den_src * dS): dst's numerators times
    L / den_dst plus sign * L / (den_src * dS) times num's shifted copies
    of src's numerators."""
    num = filt._num
    if not num:
        return dst
    (w, dd), (v, ds) = dst, src
    ds *= filt._den
    den = lcm(dd, ds)
    return _reduced(_accumulate(w, den // dd, *_shifts([(num, sign * (den // ds), v)])), den)


def _window_apply(m: PolyphaseMatrix, y: List[Channel]) -> List[Channel]:
    """The 2x2 matrix m applied to the channel pair y: each output channel
    is the sum of up to two window convolutions over the lcm of their
    denominators."""
    size = len(y[0][0])
    out = []
    for row in (m.row0, m.row1):
        parts = [(f, w, d * f._den) for f, (w, d) in zip((row.comp0, row.comp1), y) if f]
        den = lcm(*(d for _, _, d in parts))
        acc = [0] * size
        if parts:
            acc = _accumulate(acc, 1, *_shifts([(f._num, den // d, w) for f, w, d in parts]))
        out.append(_reduced(acc, den))
    return out


def _window_gain(k: Fraction, y: List[Channel]) -> List[Channel]:
    """D_K on the channel pair y: channel 0 over K, channel 1 times K."""
    if k == 1:
        return y
    out = []
    for (w, d), q in zip(y, (1 / k, k)):
        n = q.numerator
        out.append(([v * n for v in w], d * q.denominator))
    return out


def _poly(parts: List[Tuple[int, int, Channel]]) -> LaurentPoly:
    """The LaurentPoly whose samples the parts (start, step, (w, den))
    hold, position p of w at index start + step * p; no index is in two
    parts."""
    den = lcm(*(d for _, _, (_, d) in parts))
    num: Dict[int, int] = {}
    for start, step, (w, d) in parts:
        f = den // d
        num.update(_nonzero(w if f == 1 else [v * f for v in w], start, step))
    return LaurentPoly._reduced(num, den)


def _kind(x) -> str:
    """The type of x for an error message; a tuple or list with its items'."""
    if isinstance(x, (tuple, list)):
        return f"{type(x).__name__} of ({', '.join(type(v).__name__ for v in x)})"
    return type(x).__name__


def apply_analysis(c: LiftingCascade, x: LaurentPoly) -> SignalPair:
    """Polyphase split, then base, steps and gain, on dense windows: the
    ladder c.product() runs on the base's rows, so the result is exactly
    c.product() applied to the split signal.  Raises InvalidArgument if x
    is not a LaurentPoly."""
    if not isinstance(x, LaurentPoly):
        raise InvalidArgument(f"apply_analysis takes a LaurentPoly signal, got {_kind(x)}")
    x0, x1 = x._phases()
    base = c.base != IDENTITY
    y0, y1 = [], []
    for lo, (w0, w1) in _windows((x0._num, x1._num), _reach(c)):
        y = [(w0, x0._den), (w1, x1._den)]
        y = _window_apply(c.base, y) if base else y
        v0, v1 = _window_gain(c.scale, _ladder(c.steps, y, _exact_window_lift))
        y0.append((lo, 1, v0))
        y1.append((lo, 1, v1))
    return _poly(y0), _poly(y1)


def apply_synthesis(c: LiftingCascade, y: SignalPair) -> LaurentPoly:
    """Exact inverse of apply_analysis: gain, steps undone in reverse, and
    the base's adjugate inverse, on dense windows.  Requires a unimodular
    base, and raises NotUnimodular before any window is built; y must be a
    pair of LaurentPolys, else InvalidArgument."""
    if not (isinstance(y, (tuple, list)) and len(y) == 2
            and all(isinstance(v, LaurentPoly) for v in y)):
        raise InvalidArgument(f"apply_synthesis takes a pair of LaurentPoly channels, "
                              f"got {_kind(y)}")
    inverse = c.base.inverse()
    base = inverse != IDENTITY
    y0, y1 = y
    out = []
    for lo, (w0, w1) in _windows((y0._num, y1._num), _reach(c)):
        v = _window_gain(1 / c.scale, [(w0, y0._den), (w1, y1._den)])
        v = _ladder(reversed(c.steps), v, _exact_window_lift, -1)
        v0, v1 = _window_apply(inverse, v) if base else v
        out += [(2 * lo, 2, v0), (2 * lo + 1, 2, v1)]
    return _poly(out)


# ---------------------------------------------------------------------------
# Reversible integer lifting

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
    -((v + h) >> s) = (-v + 2^s - 1 - h) >> s.  The sum runs over the
    terms of _shifts; the first one also adds dst << s and the last one
    shifts, since ((dst << s) + v) >> s = dst + (v >> s)."""
    num = filt._num
    if not num:
        return dst
    den = filt._den
    s = den.bit_length() - 1
    off = den >> 1 if sign > 0 else den - 1 - (den >> 1)
    terms, col = _shifts([(num, sign, src)])
    t, i, j = terms.pop()
    if not terms:
        return [d + ((t * (x + y) + off) >> s) for d, x, y in zip(dst, col(i), col(j))]
    (t0, i0, j0), *mid = terms
    acc = [(d << s) + t0 * (x + y) + off for d, x, y in zip(dst, col(i0), col(j0))]
    for tk, ik, jk in mid:
        acc = [v + tk * (x + y) for v, x, y in zip(acc, col(ik), col(jk))]
    return [(v + t * (x + y)) >> s for v, x, y in zip(acc, col(i), col(j))]


def _rounded_update(filt: LaurentPoly, src: IntSignal) -> IntSignal:
    """round(S * src) with round(v) = floor(v + 1/2), nonzero entries
    only: one lower step on the pair (src, 0)."""
    out: IntSignal = {}
    for lo, (w0, w1) in _windows((src, {}), _radius(filt)):
        out.update(_nonzero(_window_lift(w1, filt, w0, 1), lo))
    return out


def reversible_analysis(c: LiftingCascade, x: Mapping[int, int]) -> IntSignalPair:
    """Integer-to-integer lifting ladder with per-step rounding."""
    _check_reversible(c)
    y0: IntSignal = {}
    y1: IntSignal = {}
    for lo, w in _windows(_int_split(x), _reach(c)):
        w0, w1 = _ladder(c.steps, w, _window_lift)
        y0.update(_nonzero(w0, lo))
        y1.update(_nonzero(w1, lo))
    return y0, y1


def reversible_synthesis(c: LiftingCascade, y: IntSignalPair) -> IntSignal:
    """Bit-exact inverse of reversible_analysis."""
    _check_reversible(c)
    y = (_int_samples(y[0]), _int_samples(y[1]))
    out: IntSignal = {}
    for lo, w in _windows(y, _reach(c)):
        w0, w1 = _ladder(reversed(c.steps), w, _window_lift, -1)
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
