"""Apply lifting cascades to finitely supported signals.

Both ladders run on packed windows: a channel window is one int whose
signed digits are its samples (Kronecker substitution), so that a step is
a few big-integer shifts, sums and small multiples, each done in C.  Exact
channels are integer numerators over one positive denominator; reversible
mode floors the same numerators back to denominator 1 at every step,
round(v) = floor(v + 1/2), which inverts bit-exactly.  A window starts
at its inputs' digit width and widens in place.  Dicts and LaurentPolys
appear only at the API boundary.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress, repeat
from math import lcm
from operator import and_, index, lshift, or_, rshift, sub
from struct import pack
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidArgument, NonIntegerInput, NotDyadic, NotUnimodular, WorkBudget
from .laurent import ONE, LaurentPoly, _lowest
from .lifting import LiftingCascade, _ladder, lower
from .polyphase import IDENTITY

SignalPair = Tuple[LaurentPoly, LaurentPoly]
Channel = Tuple[int, int, int]     # (window, denominator, bound on its digits)
_Read = Tuple[Mapping[int, int], List[int], int, Optional[bytes]]     # what _read returns
_MASK = (1 << 64) - 1
MAX_WINDOW_BITS = 1 << 30       # n samples x B digit bits of one transform window


# ---------------------------------------------------------------------------
# Packed windows


def _reach(c: LiftingCascade) -> int:
    """How far c's base and steps together move a sample: the base
    entries' largest radius plus the sum of the step filters' largest |tap index|."""
    base = max(map(abs, c.base.support())) if c.base != IDENTITY and (c.base.h0 or c.base.h1) else 0
    return base + sum(max(map(abs, s.filter._num), default=0) for s in c.steps)


def _read(x: Mapping[int, int], check: bool) -> _Read:
    """(x, keys, top, low): x's keys sorted, its largest |value| and, if
    that fits one signed 64-bit limb, its values in key order packed as
    such limbs (else None); keys and values are each listed in one pass.
    With check, a mapping whose keys and values are not all of type int
    goes through _int_samples, which raises or converts, and is read
    again.  The test is on type, not on what struct takes: struct reads
    any __index__, where _int_sample reads int(v) and compares it to v."""
    keys, vals = list(x), list(x.values())
    if check and [*map(type, keys), *map(type, vals)].count(int) < 2 * len(keys):
        return _read(_int_samples(x), False)
    order = sorted(keys)
    if order != keys:                   # not inserted in key order
        vals = list(map(x.__getitem__, order))
    top = max(max(vals, default=0), -min(vals, default=0))
    return x, order, top, None if top >> 63 else pack(f"<{len(vals)}q", *vals)


def _windows(y: List[List[int]], reach: int) -> Iterator[Tuple[int, int]]:
    """The sorted indices y of one signal or a channel pair as runs (lo, hi) of
    channel indices lo .. hi - 1.  Runs are cut only where channel indices
    lie over 2 * reach apart, and each window pads its run by reach on both
    sides: whatever moves a sample by at most reach then gives the same
    values as one window over all, and no window holds another's index."""
    phases, y = 3 - len(y), [keys for keys in y if keys]
    if not y:
        return
    first, last = min(keys[0] for keys in y), max(keys[-1] for keys in y)
    gap = phases * (2 * reach + 1) - 1
    if last - first + 1 - max(map(len, y)) < gap:   # >= the union's holes; a cut needs gap
        yield first // phases, last // phases + 1
        return
    keys = sorted(y[0] + y[1]) if len(y) > 1 else y[0]     # a merge of two sorted runs
    bounds = [0, *(i for i, d in enumerate(map(sub, keys[1:], keys), 1) if d > gap), len(keys)]
    for i, j in zip(bounds, bounds[1:]):
        yield keys[i] // phases, keys[j - 1] // phases + 1


def _limbs(raw: bytes, code: str) -> Sequence[int]:
    """raw as limbs of typecode code, read little-endian."""
    if sys.byteorder == "little":
        return memoryview(raw).cast(code)
    limbs = array(code, raw)
    limbs.byteswap()
    return limbs


def _fill(keys: List[int], low: bytes, lo: int, hi: int) -> Optional[bytearray]:
    """The one-limb samples low of the sorted keys in lo .. hi - 1 at their
    offsets in zeros, a slice copy per gapless run of keys: a run ends where
    keys[i] - i grows, found by bisection.  None when over (hi - lo) / 64
    keys are missing, as runs would then cost more than a read per index."""
    s, b = bisect_left(keys, lo), bisect_left(keys, hi)
    if s < b and 64 * (keys[b - 1] - keys[s] + 1 - (b - s)) > hi - lo:
        return None
    buf, lead = bytearray(8 * (hi - lo)), lambda i: keys[i] - i     # grows only at a gap
    while s < b:
        e = b if lead(b - 1) == lead(s) else bisect_right(range(b), lead(s), s + 1, b, key=lead)
        o = 8 * (keys[s] - lo)
        buf[o:o + 8 * (e - s)] = low[8 * s:8 * e]
        s = e
    return buf


def _width(top: int) -> int:
    """The fewest 64-bit limbs whose two's complement holds -top .. top."""
    return (top.bit_length() + 64) // 64


class _Window:
    """n samples as the signed digits of one int, sample p at bits [B * p,
    B * (p + 1)): the samples' polynomial at 2^B.  A channel (w, den, m) is
    such a window w of numerators over den > 0, none above m in absolute
    value.  Sums, shifts and multiples of windows are exact whatever the
    digits; reading them needs m <= 2^(B-2), which every stage keeps by
    testing its inputs with _fits first where its growth would pass it.  B
    is 32 when top fits, else 64 * j for the fewest 64-bit limbs j that do.
    Digits shifted out below are zero: the window pads its run by the reach."""

    def __init__(self, n: int, top: int):
        j = (top.bit_length() + 65) // 64
        b = 32 if top.bit_length() + 2 <= 32 else 64 * j
        if n * b > MAX_WINDOW_BITS:
            raise WorkBudget(f"transform window of {n} samples x {b} bits exceeds "
                             f"2^{MAX_WINDOW_BITS.bit_length() - 1} bits")
        self.j, self.bits, self.n = j, b, n
        self.ones = int.from_bytes((b"\1" + bytes(b // 8 - 1)) * n, "little")

    def _pack(self, r: _Read, start: int, phases: int) -> List[int]:
        """The windows of the phases channels that r = (x, keys, top, low)
        of _read interleaves, from channel index start on.  Each of the k =
        _width(top) two's complement limbs of the window's samples is packed
        little-endian and copied strided into the low k limbs of the j-limb
        digits: one limb is copied from low by _fill, and wider samples, or
        gaps _fill declines, read x once over the window and pack each limb
        in one call.  32-bit digits take the low half of each one-limb
        sample.  Flipping each digit's top packed bit, 2^(c-1) for c =
        min(64 k, B), biases it by 2^(c-1), which comes off again."""
        (x, keys, top, low), b, j, n = r, self.bits, self.j, self.n
        k, lo, hi = _width(top), phases * start, phases * (start + n)
        limbs = [_fill(keys, low, lo, hi) if k == 1 else None]
        if limbs[0] is None:
            vals, limbs = list(map(x.get, range(lo, hi), repeat(0))), []
            for i in range(k):
                src = map(rshift, vals, repeat(64 * i)) if i else vals
                limbs.append(pack(f"<{len(vals)}q", *src) if i == k - 1 else
                             pack(f"<{len(vals)}Q", *map(and_, src, repeat(_MASK))))
        code, half = ("I", 2) if b == 32 else ("Q", 1)
        digits = memoryview(bytearray(b // 8 * n * phases)).cast(code)
        for i in range(k):
            limb = memoryview(limbs[i]).cast(code)
            for p in range(phases):
                digits[j * n * p + i:j * n * (p + 1):j] = limb[half * p::half * phases]
        high = self.ones << min(64 * k, b) - 1
        out = []
        for p in range(phases):
            u = int.from_bytes(digits[j * n * p:j * n * (p + 1)], "little")
            u ^= high
            out.append(u - high)
        return out

    def _widen(self, y: List[Channel]) -> List[Channel]:
        """y at twice the digit width, to which the window widens by __init__'s
        rule: the digits biased by 2^(B-1) are B-bit fields, copied strided
        into the low halves of 2B-bit ones; the bias comes off at 2B."""
        b, n, high = self.bits, self.n, self.ones << self.bits - 1
        self.__init__(n, 1 << 2 * b - 3)
        (code, k), out = ("I", 1) if b == 32 else ("Q", b // 64), []
        for i in range(len(y)):     # w, den and m of channel i
            old = memoryview((y[i][0] + high).to_bytes(b // 8 * n, "little")).cast(code)
            new = memoryview(bytearray(b // 4 * n)).cast(code)
            for limb in range(k):
                new[limb::2 * k] = old[limb::k]
            out.append((int.from_bytes(new, "little") - (self.ones << b - 1), *y[i][1:]))
        return out

    def _fits(self, w: int, cap: int) -> int:
        """2^k for the largest k with 2^k <= cap if each digit of w, all in
        (-2^(B-1), 2^(B-1)), lies in [-2^k, 2^k), else OverflowError: adding
        2^k moves those into [0, 2^(k+1)) with no borrow, leaving bits k + 1
        .. B - 1 of each field clear; any other digit sets one of them."""
        k, ones = cap.bit_length() - 1, self.ones
        if cap < 1 or (w + (ones << k)) & ones * ((1 << self.bits) - (2 << k)):
            raise OverflowError
        return 1 << k

    def _room(self, terms: Sequence[Tuple[int, int, int]]) -> int:
        """sum f * m over a stage's terms (w, f, m), where past 2^(B-2) each
        window w is first tested by _fits against its share m * 2^(B-2) / sum."""
        room, total = 1 << self.bits - 2, sum(f * m for _, f, m in terms)
        if total <= room:
            return total
        return sum(f * self._fits(w, m * room // total) for w, f, m in terms if m)

    def _twos(self, w: int, cap: int) -> int:
        """The largest s <= cap <= B - 2 such that 2^s divides every digit
        of w.  The bias 2^(B-2) makes each digit a non-negative field of
        its own, whose low s bits a mask reads all at once."""
        if not cap:
            return 0
        ones = self.ones
        u = w + (ones << self.bits - 2)
        if not u & (ones << cap) - ones:
            return cap
        lo, hi = 0, 0 if u & ones else cap - 1     # an odd digit answers 0 at once
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if u & (ones << mid) - ones:
                hi = mid - 1
            else:
                lo = mid
        return lo

    def _unpack(self, out: List[Channel]) -> List[Tuple[List[int], int]]:
        """The digits of each channel (w, den, m) in out in lowest terms,
        emptying out so that one packed window at a time is read.  The
        largest 2^s <= 2^(B-2) that divides den and every digit is divided
        out first, and only the limbs the reduced bound m / 2^s needs are
        read, the top one signed (a 32-bit digit is one); one gcd with the
        odd part of den / 2^s, or all of it when s is B - 2, then divides
        out the rest."""
        j, n, cap, high = self.j, self.n, self.bits - 2, self.ones << self.bits - 1
        res = []
        for i in range(len(out)):
            w, d, m = out.pop(0)
            t = (d & -d).bit_length() - 1
            s = self._twos(w, min(t, cap))
            if s:
                w >>= s
                d >>= s
            k = _width(m >> s)
            w += high
            w ^= high
            raw = w.to_bytes(self.bits // 8 * n, "little")
            del w
            vals = _limbs(raw, "i" if self.bits == 32 else "q")[k - 1::j]
            for limb in range(k - 2, -1, -1):
                vals = map(or_, map(lshift, vals, repeat(64)), _limbs(raw, "Q")[limb::j])
            res.append(_lowest(list(vals), d, d >> t - s if s < cap else d))
        return res

    def _conv(self, acc: int, num: Dict[int, int], f: int, src: int) -> int:
        """acc plus f * num[n] times src shifted up n digits, over the taps
        n; taps with equal |f * num[n]|, such as a linear-phase filter's
        pairs, share one multiple of src."""
        b = self.bits
        multiples: Dict[int, int] = {1: src}
        for n, t in num.items():
            t *= f
            m = multiples.get(abs(t))
            if m is None:
                m = multiples[abs(t)] = src * abs(t)
            m = m << b * n if n >= 0 else m >> -b * n
            acc = acc + m if t > 0 else acc - m
        return acc

    def _lift(self, dst: Channel, filt: LaurentPoly, src: Channel, sign: int) -> Channel:
        """dst + sign * S * src with S = num / dS, over the denominator
        L = lcm(den_dst, den_src * dS)."""
        num = filt._num
        if not num:
            return dst
        (w, dd, md), (v, ds, ms) = dst, src
        ds *= filt._den
        den = lcm(dd, ds)
        a, b = den // dd, den // ds
        m = self._room(((w, a, md), (v, b * sum(map(abs, num.values())), ms)))
        return self._conv(w * a, num, sign * b, v), den, m

    def _apply(self, rows: Tuple[SignalPair, SignalPair], y: List[Channel]) -> List[Channel]:
        """The 2x2 matrix of rows applied to the channel pair y: each output is
        a sum of up to two window convolutions over their denominators' lcm."""
        out = []
        for row in rows:
            parts = [(f, w, d * f._den, m) for f, (w, d, m) in zip(row, y) if f]
            den = lcm(*(d for _, _, d, _ in parts))
            m = self._room([(w, den // d * sum(map(abs, f._num.values())), m)
                            for f, w, d, m in parts])
            acc = 0
            for f, w, d, _ in parts:
                acc = self._conv(acc, f._num, den // d, w)
            out.append((acc, den, m))
        return out


class _Checked(_Window):
    """The rounding window.  A step adds floor((sign * S * src + h) / den)
    to dst for den = 2^s: h = den // 2 rounds, and h = (den - 1) // 2 for
    sign = -1 undoes that, as -floor((v + h) / 2^s) = floor((-v + 2^s - 1 -
    h) / 2^s).  The floor reads only the update, at most ceil(L1 * m_src /
    den) for L1 = sum |num|: a bias 2^(B-2) makes its digits non-negative
    for one shift and a mask, then comes off.  _fits tests src where L1 *
    m_src + den would pass 2^(B-2), and dst where the output's m would."""

    def _lift(self, dst: Channel, filt: LaurentPoly, src: Channel, sign: int) -> Channel:
        (w, _, md), (v, _, ms), b, ones = dst, src, self.bits, self.ones
        num, den, room = filt._num, filt._den, 1 << b - 2
        l1 = sum(map(abs, num.values()))
        ms = ms if l1 * ms + den <= room else self._fits(v, (room - den) // l1)
        up = -(-l1 * ms // den)
        md = md if md + up <= room else self._fits(w, room - up)
        u = self._conv(0, num, sign, v)
        if den > 1:
            s = den.bit_length() - 1
            u += ones * (room + ((den - (sign < 0)) >> 1))
            u = (u >> s & (ones << b - s) - ones) - (ones << b - 2 - s)
        return w + u, 1, md + up


def _run(c: LiftingCascade, y: Tuple[Mapping[int, int], ...], sign: int, rounding: bool,
         dens: Tuple[int, int] = (1, 1)) -> List[Tuple[Dict[int, int], int]]:
    """c's analysis (sign = 1) of the signal y = (x,), or synthesis of the
    channel pair y, integer numerators over dens: the other side in lowest
    terms, over the lcm of its windows' lowest denominators (the window that
    reaches the lcm's power of a prime has a numerator it does not divide).
    Synthesis undoes the stages in reverse order.  _read checks y when
    rounding, and a singular base raises first.  A window starts at its
    inputs' width; a stage that fails a range test leaves its inputs as
    they were, to be widened for that stage alone."""
    k, plan = c.scale, []
    if c.base != IDENTITY:      # reversible: base I
        a, b, g, d = c.base.entries()   # the adjugate here, not inverse(): no filter round trip
        if sign < 0 and not c.base.is_unimodular:
            raise NotUnimodular("inverse requires det H(z) = 1")
        rows = ((a, b), (g, d)) if sign > 0 else ((d, -b), (-g, a))
        plan.append(lambda win, v: win._apply(rows, v))
    plan += [lambda win, v, s=s: _ladder((s,), v, win._lift, sign) for s in c.steps]
    if k != 1:      # D_K as in lifting._gain: channel 0 times 1 / K, 1 times K
        g0, g1 = [LaurentPoly._make({0: f.numerator}, f.denominator) for f in (1 / k, k)][::sign]
        plan.append(lambda win, v: win._apply(((g0, None), (None, g1)), v))
    plan = plan[::sign]

    q, reach = len(y), _reach(c)     # q channels per output mapping, 3 - q per input one
    reads = [_read(x, rounding) for x in y]
    tops = [t for _, _, t, _ in reads for _ in range(3 - q)]     # one per input channel
    parts: List[list] = [[] for _ in range(0, 2, q)]    # (first index, values, den) per window
    try:
        for lo, hi in _windows([keys for _, keys, _, _ in reads], reach):
            n, start, i = hi - lo + 2 * reach, lo - reach, 0
            win = (_Checked if rounding else _Window)(n, max(tops))
            v = list(zip([w for r in reads for w in win._pack(r, start, 3 - q)], dens, tops))
            while i < len(plan):
                try:
                    v = plan[i](win, v)
                    i += 1
                except OverflowError:
                    v = win._widen(v)
            for i, (vals, d) in enumerate(win._unpack(v)):
                parts[i // q].append((q * start + i % q, vals, d))
    except WorkBudget as e:
        raise WorkBudget(f"{e} (reach {reach})") from None
    res = []
    for windows in parts:
        den, found = lcm(*(d for _, _, d in windows)), {}
        for first, vals, d in windows:
            idx = range(first, first + q * len(vals), q)
            if 0 in vals:
                idx, vals = compress(idx, vals), filter(None, vals)
            found.update(zip(idx, vals if d == den else map((den // d).__mul__, vals)))
        res.append((found, den))
    return res


def _kind(x) -> str:
    """The type of x for an error message; a tuple or list with its items'."""
    if isinstance(x, (tuple, list)):
        return f"{type(x).__name__} of ({', '.join(type(v).__name__ for v in x)})"
    return type(x).__name__


def _check_cascade(c, who: str):
    if not isinstance(c, LiftingCascade):
        raise InvalidArgument(f"{who} takes a LiftingCascade, got {_kind(c)}")


def _is_pair(y, cls) -> bool:
    return isinstance(y, (tuple, list)) and len(y) == 2 and all(isinstance(v, cls) for v in y)


# ---------------------------------------------------------------------------
# Exact rational transforms


def apply_analysis(c: LiftingCascade, x: LaurentPoly) -> SignalPair:
    """Polyphase split, then base, steps and gain, on packed windows: the
    result is exactly c.product() applied to the split signal.  Raises
    InvalidArgument if c is not a LiftingCascade or x not a LaurentPoly."""
    _check_cascade(c, "apply_analysis")
    if not isinstance(x, LaurentPoly):
        raise InvalidArgument(f"apply_analysis takes a LaurentPoly signal, got {_kind(x)}")
    y0, y1 = (LaurentPoly._make(*ch) for ch in _run(c, (x._num,), 1, False, (x._den,) * 2))
    return y0, y1


def apply_synthesis(c: LiftingCascade, y: SignalPair) -> LaurentPoly:
    """Exact inverse of apply_analysis: gain, steps undone in reverse, and
    the base's adjugate inverse, on packed windows.  Requires a unimodular
    base, and raises NotUnimodular before any window is built; y must be a
    pair of LaurentPolys and c a LiftingCascade, else InvalidArgument."""
    _check_cascade(c, "apply_synthesis")
    if not _is_pair(y, LaurentPoly):
        raise InvalidArgument(f"apply_synthesis takes a pair of LaurentPoly channels, "
                              f"got {_kind(y)}")
    (x, den), = _run(c, (y[0]._num, y[1]._num), -1, False, (y[0]._den, y[1]._den))
    return LaurentPoly._make(x, den)


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


def _int_samples(x: Mapping[int, int]) -> Dict[int, int]:
    """x as a dict of ints, each index and value checked by _int_sample."""
    return dict(map(_int_sample, x, x.values()))


def _int_split(x: Mapping[int, int]) -> IntSignalPair:
    """The polyphase channels x0[n] = x[2n], x1[n] = x[2n + 1] of x's
    nonzero samples, each checked by _int_sample."""
    x = _int_samples(x)
    x0, x1 = ({k >> 1: v for k, v in x.items() if v and k & 1 == i} for i in (0, 1))
    return x0, x1


def _check_reversible(c: LiftingCascade):
    if c.scale != 1 or c.base != IDENTITY:
        raise NotDyadic("reversible mode requires K = 1 and base = I")
    for s in c.steps:
        if not s.filter.is_dyadic:
            raise NotDyadic("reversible mode requires dyadic lifting filters")


def _rounded_update(filt: LaurentPoly, src: IntSignal) -> IntSignal:
    """round(S * src) with round(v) = floor(v + 1/2), nonzero entries
    only: one lower step on the pair (src, 0)."""
    return reversible_analysis(LiftingCascade(1, (lower(filt),)),
                               {2 * n: v for n, v in src.items()})[1]


def reversible_analysis(c: LiftingCascade, x: Mapping[int, int]) -> IntSignalPair:
    """Integer-to-integer lifting ladder with per-step rounding.  Raises
    InvalidArgument if c is not a LiftingCascade or x not a mapping of samples."""
    _check_cascade(c, "reversible_analysis")
    if not isinstance(x, Mapping):
        raise InvalidArgument(f"reversible_analysis takes a mapping of integer samples, "
                              f"got {_kind(x)}")
    _check_reversible(c)
    (y0, _), (y1, _) = _run(c, (x,), 1, True)
    return y0, y1


def reversible_synthesis(c: LiftingCascade, y: IntSignalPair) -> IntSignal:
    """Bit-exact inverse of reversible_analysis.  Raises InvalidArgument if
    c is not a LiftingCascade or y not a pair of mappings."""
    _check_cascade(c, "reversible_synthesis")
    if not _is_pair(y, Mapping):
        raise InvalidArgument(f"reversible_synthesis takes a pair of integer channel "
                              f"mappings, got {_kind(y)}")
    _check_reversible(c)
    (x, _), = _run(c, tuple(y), -1, True)
    return x


# ---------------------------------------------------------------------------
# Perfect reconstruction verification


@dataclass(frozen=True)
class PRReport:
    """ok iff the cascade reconstructs perfectly with the a = 1, d = 0
    convention (no gain, no delay), that is iff det = 1.  det is the
    cascade's determinant, which is its base's: every lifting step and
    D_K has determinant 1."""

    ok: bool
    det: LaurentPoly


def verify_pr(c: LiftingCascade) -> PRReport:
    """Perfect reconstruction decided from det B: apply_synthesis inverts
    apply_analysis exactly when det B = 1, and refuses otherwise.  One
    determinant of the base; no window is built, no signal drawn.  Raises
    InvalidArgument if c is not a LiftingCascade."""
    _check_cascade(c, "verify_pr")
    det = c.base.det()
    return PRReport(ok=det == ONE, det=det)
