import hashlib
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftbank import laurent, lifting, transform
from liftbank.errors import (InvalidArgument, LiftbankError, NonIntegerInput, NotDyadic,
                             NotUnimodular, WorkBudget)
from liftbank.laurent import LaurentPoly
from liftbank.lifting import LiftingCascade, LiftingStep, lower, upper
from liftbank.polyphase import (IDENTITY, PolyphaseMatrix, PolyphaseVector, haar_bank,
                                merge_signal, split_signal)
from liftbank.randgen import (rand_dyadic_ws_cascade, rand_equal_length_hs_base,
                              rand_hs_cascade, rand_hs_filter, rand_int_signal, rand_signal,
                              rand_wa_filter, rand_ws_cascade)
from liftbank.transform import (apply_analysis, apply_synthesis,
                                reversible_analysis, reversible_synthesis,
                                verify_pr)

F = Fraction


def haar_cascade():
    return LiftingCascade(F(2), (upper(F(1)), lower(F(-1, 2))))


class TestAnalysis:
    def test_lazy_split(self):
        x = LaurentPoly({0: 1, 1: 2, 2: 3, 3: 4})
        y0, y1 = apply_analysis(LiftingCascade(), x)
        assert y0 == LaurentPoly({0: 1, 1: 3})
        assert y1 == LaurentPoly({0: 2, 1: 4})

    def test_haar_pair(self):
        x = LaurentPoly({0: 1, 1: 1})
        y0, y1 = apply_analysis(haar_cascade(), x)
        assert y0 == LaurentPoly({0: 1})
        assert y1.is_zero()

    def test_matches_matrix_action(self):
        rng = random.Random(0)
        for _ in range(30):
            c = rand_ws_cascade(rng) if rng.random() < 0.5 else rand_hs_cascade(rng)
            x = rand_signal(rng)
            y0, y1 = apply_analysis(c, x)
            from liftbank.polyphase import split_signal
            x0, x1 = split_signal(x)
            ref = c.product().apply(PolyphaseVector(x0, x1))
            assert (y0, y1) == (ref.comp0, ref.comp1)


class TestSynthesis:
    def test_lazy_merge(self):
        y = (LaurentPoly({0: 1}), LaurentPoly({0: 2}))
        assert apply_synthesis(LiftingCascade(), y) == LaurentPoly({0: 1, 1: 2})

    def test_haar_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            x = rand_signal(rng)
            assert apply_synthesis(haar_cascade(),
                                   apply_analysis(haar_cascade(), x)) == x

    def test_single_step_round_trip(self):
        c = LiftingCascade(F(1), (upper(LaurentPoly({0: F(1, 2), 1: F(1, 2)})),))
        rng = random.Random(2)
        for _ in range(10):
            x = rand_signal(rng)
            assert apply_synthesis(c, apply_analysis(c, x)) == x

    def test_random_round_trips(self):
        rng = random.Random(3)
        for _ in range(30):
            c = rand_ws_cascade(rng) if rng.random() < 0.5 else rand_hs_cascade(rng)
            x = rand_signal(rng)
            assert apply_synthesis(c, apply_analysis(c, x)) == x


class TestReversible:
    def test_rounding_of_negative_half(self):
        # lower step with filter -(1 + z)/2: updates round -1/2 up to 0
        s = LaurentPoly({-1: F(-1, 2), 0: F(-1, 2)})
        c = LiftingCascade(F(1), (lower(s),))
        y0, y1 = reversible_analysis(c, {0: 1})
        assert y1 == {}
        assert y0 == {0: 1}

    def test_five_three_style_round_trip(self):
        predict = lower(LaurentPoly({-1: F(-1, 2), 0: F(-1, 2)}))
        update = upper(LaurentPoly({0: F(1, 4), 1: F(1, 4)}))
        c = LiftingCascade(F(1), (predict, update))
        rng = random.Random(4)
        x = rand_int_signal(rng, 1024)
        y = reversible_analysis(c, x)
        assert reversible_synthesis(c, y) == {k: v for k, v in x.items() if v}

    def test_empty_cascade_is_identity(self):
        x = {0: 5, 3: -2}
        assert reversible_synthesis(LiftingCascade(),
                                    reversible_analysis(LiftingCascade(), x)) == x

    @given(st.integers(0, 2 ** 32))
    def test_random_round_trips(self, seed):
        rng = random.Random(seed)
        c = rand_dyadic_ws_cascade(rng)
        x = rand_int_signal(rng, 128)
        y = reversible_analysis(c, x)
        assert reversible_synthesis(c, y) == {k: v for k, v in x.items() if v}

    def test_rounded_updates_within_one(self):
        # each rounded update stays strictly within 1 of the exact update;
        # the end-to-end outputs can drift further because later step
        # filters amplify earlier rounding errors
        from liftbank.transform import _int_split, _rounded_update
        rng = random.Random(6)
        for _ in range(10):
            c = rand_dyadic_ws_cascade(rng)
            x = rand_int_signal(rng, 128)
            y0, y1 = _int_split(x)
            for s in c.steps:
                src = y1 if s.m == 0 else y0
                upd = _rounded_update(s.filter, src)
                exact = s.filter * LaurentPoly({k: F(v) for k, v in src.items()})
                for n in set(upd) | set(exact.indices()):
                    assert abs(upd.get(n, 0) - exact.coeff(n)) < 1
                dst = y0 if s.m == 0 else y1
                for n, v in upd.items():
                    dst[n] = dst.get(n, 0) + v

    def test_requires_dyadic(self):
        c = LiftingCascade(F(1), (upper(LaurentPoly({0: F(1, 3)})),))
        with pytest.raises(NotDyadic):
            reversible_analysis(c, {0: 1})

    def test_requires_unit_scale(self):
        with pytest.raises(NotDyadic):
            reversible_analysis(LiftingCascade(F(2)), {0: 1})

    def test_requires_integer_samples(self):
        with pytest.raises(NonIntegerInput):
            reversible_analysis(LiftingCascade(), {0: F(1, 2)})


# The dict-of-samples integer ladder the library ran before its dense
# windows, kept as the reference the windows must match bit for bit.


def ref_rounded_update(filt, src):
    den = filt._den
    taps = list(filt._num.items())
    acc = {}
    for k, x in src.items():
        for n, tap in taps:
            acc[k + n] = acc.get(k + n, 0) + tap * x
    out = {}
    for n, num in acc.items():
        r = (2 * num + den) // (2 * den)
        if r:
            out[n] = r
    return out


def ref_rounded_lift(dst, filt, src, sign):
    for n, v in ref_rounded_update(filt, src).items():
        nv = dst.get(n, 0) + sign * v
        if nv:
            dst[n] = nv
        else:
            dst.pop(n, None)
    return dst


def ref_ladder(steps, y, sign):
    y = [dict(y[0]), dict(y[1])]
    for s in steps:
        y[s.m] = ref_rounded_lift(y[s.m], s.filter, y[1 - s.m], sign)
    return y


def ref_analysis(c, x):
    x0 = {k // 2: v for k, v in x.items() if v and k % 2 == 0}
    x1 = {k // 2: v for k, v in x.items() if v and k % 2}
    return tuple(ref_ladder(c.steps, (x0, x1), 1))


def ref_synthesis(c, y):
    y0, y1 = ref_ladder(c.steps[::-1], y, -1)
    out = {2 * n: v for n, v in y0.items()}
    out.update({2 * n + 1: v for n, v in y1.items()})
    return out


def reach(c):
    return sum(max((abs(n) for n in s.filter.indices()), default=0) for s in c.steps)


# Small samples, and samples just past 2^65 and 2^129 in magnitude, so
# that packed windows need one, two and three 64-bit limbs per digit.
samples = st.integers(-300, 300) | st.builds(lambda v, e, r: (v << e) + r,
                                             st.integers(-300, 300).filter(bool),
                                             st.sampled_from([65, 129]), st.integers(-300, 300))
nonzero = samples.filter(bool)


@st.composite
def dyadic_cascades(draw):
    """K = 1 cascades of up to six dyadic steps of both characteristics,
    denominators 1..2^6 and 2^100.  Half of them alternate and give every filter
    taps at both ends of its radius: only then does a sample spread by
    the whole reach R, so that two runs 2R apart meet."""
    full = draw(st.booleans())
    m = draw(st.integers(0, 1))
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        if full:
            r = draw(st.integers(1, 3))
            inner = draw(st.lists(st.integers(-40, 40), min_size=2 * r - 1,
                                  max_size=2 * r - 1))
            taps = dict(zip(range(-r, r + 1), [draw(nonzero), *inner, draw(nonzero)]))
        else:
            taps = draw(st.dictionaries(st.integers(-3, 3), st.integers(-40, 40),
                                        max_size=5))
        e = draw(st.integers(0, 6) | st.just(100))
        filt = LaurentPoly({n: F(v, 2 ** e) for n, v in taps.items()})
        steps.append(LiftingStep(m, filt))
        m = 1 - m if full else draw(st.integers(0, 1))
    return LiftingCascade(1, steps)


@st.composite
def signals(draw, r):
    """Dense, sparse and empty signals; dense ones inserted in shuffled key
    order or holding many zero samples, whose keys still have no gap;
    blocks at keys beyond +-2^63; and two blocks whose nearest channel
    indices are exactly 2R or 2R + 1 apart, R being the reach."""
    kind = draw(st.sampled_from(["dense", "shuffled", "zeros", "far", "sparse", "gap"]))
    if kind in ("dense", "shuffled", "zeros"):
        start = draw(st.integers(-40, 40))
        vals = draw(st.lists(st.just(0) | samples if kind == "zeros" else samples, max_size=48))
        items = list(enumerate(vals, start))
        return dict(draw(st.permutations(items)) if kind == "shuffled" else items)
    if kind == "far":
        start = draw(st.sampled_from([2 ** 63 - 9, -2 ** 63 - 9, 2 ** 64, -2 ** 70]))
        x = dict(enumerate(draw(st.lists(samples, max_size=24)), start))
        x.update(draw(st.dictionaries(st.integers(-10, 10), samples, max_size=4)))
        return x
    if kind == "sparse":
        return draw(st.dictionaries(st.integers(-10 ** 6, 10 ** 6), samples, max_size=12))
    a = draw(st.integers(-20, 20))
    b = a + 2 * r + draw(st.integers(0, 1))
    x = {2 * a - i: v for i, v in enumerate(draw(st.lists(samples, max_size=12)), 1)}
    x.update({2 * b + 2 + i: v
              for i, v in enumerate(draw(st.lists(samples, max_size=12)))})
    x.update({k: draw(nonzero) for k in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1)})
    return x


class TestWindowLadder:
    @settings(max_examples=400)
    @given(st.data())
    def test_matches_dict_ladder(self, data):
        c = data.draw(dyadic_cascades())
        x = data.draw(signals(reach(c)))
        y = reversible_analysis(c, x)
        assert y == ref_analysis(c, x)
        assert reversible_synthesis(c, y) == {k: v for k, v in x.items() if v}
        # synthesis on coefficients that no analysis produced
        z = (dict(y[1]), {k - 1: v for k, v in y[0].items()})
        assert reversible_synthesis(c, z) == ref_synthesis(c, z)

    @pytest.mark.parametrize("x", [{0: 1, 10 ** 12: -1},
                                   {-2 ** 40: 5, 0: 1, 2 ** 40: 3}])
    def test_far_apart_samples_stay_cheap(self, x):
        rng = random.Random(7)
        for _ in range(5):
            c = rand_dyadic_ws_cascade(rng)
            t0 = time.perf_counter()
            y = reversible_analysis(c, x)
            assert reversible_synthesis(c, y) == x
            assert time.perf_counter() - t0 < 1


# The LaurentPoly ladder the library ran before its exact dense windows,
# kept as the reference the windows must match.


def ref_exact_ladder(steps, y, sign):
    y = list(y)
    for s in steps:
        y[s.m] = y[s.m] + y[1 - s.m] * (s.filter if sign > 0 else -s.filter)
    return y


def ref_exact_analysis(c, x):
    v = c.base.apply(PolyphaseVector(*split_signal(x)))
    y0, y1 = ref_exact_ladder(c.steps, (v.comp0, v.comp1), 1)
    return y0 * (1 / c.scale), y1 * c.scale


def ref_exact_synthesis(c, y):
    y0, y1 = ref_exact_ladder(c.steps[::-1], (y[0] * c.scale, y[1] * (1 / c.scale)), -1)
    v = c.base.inverse().apply(PolyphaseVector(y0, y1))
    return merge_signal(v.comp0, v.comp1)


def exact_reach(c):
    return max(max((abs(n) for n in e.indices()), default=0) for e in c.base.entries()) \
        + reach(c)


denominators = st.integers(1, 12) | st.just(2 ** 100)
coeffs = st.builds(F, st.integers(-40, 40), denominators)
nonzero_coeffs = st.builds(F, st.integers(1, 40) | st.integers(-40, -1), denominators)
rational_samples = st.builds(F, samples, st.sampled_from([1, 2, 3, 5, 6, 8, 9]))
hs_bases = st.builds(lambda seed, w: rand_equal_length_hs_base(random.Random(seed), width=w),
                     st.integers(0, 2 ** 32), st.integers(0, 2))


@st.composite
def exact_cascades(draw):
    """Cascades of up to five steps whose filters have rational taps with
    denominators 1..12 and 2^100 (zero filters included), a gain K != 1 and base I
    or an equal-length HS base, whose Q is solved for and rarely dyadic.
    Half of them alternate and give every filter taps at both ends of its
    radius, so that a sample spreads by the whole reach."""
    full = draw(st.booleans())
    m = draw(st.integers(0, 1))
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        if full:
            r = draw(st.integers(1, 3))
            inner = draw(st.lists(coeffs, min_size=2 * r - 1, max_size=2 * r - 1))
            taps = dict(zip(range(-r, r + 1),
                            [draw(nonzero_coeffs), *inner, draw(nonzero_coeffs)]))
        else:
            taps = draw(st.dictionaries(st.integers(-3, 3), coeffs, max_size=5))
        steps.append(LiftingStep(m, LaurentPoly(taps)))
        m = 1 - m if full else draw(st.integers(0, 1))
    k = draw(nonzero_coeffs.filter(lambda k: k != 1))
    return LiftingCascade(k, steps, draw(st.just(IDENTITY) | hs_bases))


@st.composite
def rational_signals(draw, r):
    """Dense and empty signals of rational samples with mixed
    denominators, a block at indices beyond +-2^63, and two blocks whose
    nearest channel indices are exactly 2R or 2R + 1 apart, R being the
    reach of base and steps."""
    kind = draw(st.sampled_from(["dense", "empty", "far", "gap"]))
    if kind == "empty":
        return LaurentPoly()
    if kind == "far":       # indices beyond +-2^63
        start = draw(st.sampled_from([2 ** 63 - 9, -2 ** 63 - 9, 2 ** 64, -2 ** 70]))
        return LaurentPoly(dict(enumerate(draw(st.lists(rational_samples, max_size=24)), start)))
    if kind == "dense":
        start = draw(st.integers(-40, 40))
        vals = draw(st.lists(rational_samples, min_size=1, max_size=40))
        return LaurentPoly({start + i: v for i, v in enumerate(vals)})
    a = draw(st.integers(-20, 20))
    b = a + 2 * r + draw(st.integers(0, 1))
    x = {2 * a - i: v for i, v in enumerate(draw(st.lists(rational_samples, max_size=10)), 1)}
    x.update({2 * b + 2 + i: v
              for i, v in enumerate(draw(st.lists(rational_samples, max_size=10)))})
    x.update({k: draw(rational_samples.filter(bool)) for k in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1)})
    return LaurentPoly(x)


class TestExactWindows:
    @settings(max_examples=300)
    @given(st.data())
    def test_matches_matrix_action_and_ladder(self, data):
        c = data.draw(exact_cascades())
        x = data.draw(rational_signals(exact_reach(c)))
        y = apply_analysis(c, x)
        ref = c.product().apply(PolyphaseVector(*split_signal(x)))
        assert y == (ref.comp0, ref.comp1) == ref_exact_analysis(c, x)
        assert apply_synthesis(c, y) == x
        # synthesis on coefficients that no analysis produced
        z = (y[1], y[0].shift(-1))
        assert apply_synthesis(c, z) == ref_exact_synthesis(c, z)

    @pytest.mark.parametrize("x", [{0: 1, 10 ** 12: -1},
                                   {-2 ** 40: F(1, 3), 2 ** 40: 5}])
    def test_far_apart_samples_stay_cheap(self, x):
        rng = random.Random(8)
        x = LaurentPoly(x)
        ws = rand_ws_cascade(rng, n_steps=6)
        while ws.scale == 1:
            ws = rand_ws_cascade(rng, n_steps=6)
        hs = rand_hs_cascade(rng, n_steps=4, base=rand_equal_length_hs_base(rng, width=2))
        assert hs.base != IDENTITY
        for c in (ws, hs):
            t0 = time.perf_counter()
            y = apply_analysis(c, x)
            assert time.perf_counter() - t0 < 1
            t0 = time.perf_counter()
            assert apply_synthesis(c, y) == x
            assert time.perf_counter() - t0 < 1

    def test_singular_base_refused_before_windows(self, monkeypatch):
        def no_windows(*args):
            raise AssertionError("window work before the unimodular check")
        c = LiftingCascade(F(2), (upper(F(1)),), PolyphaseMatrix.from_entries(1, 1, 1, 1))
        assert not verify_pr(c).ok
        y = apply_analysis(c, LaurentPoly({0: 1, 10 ** 12: -1}))
        monkeypatch.setattr(transform, "_windows", no_windows)
        with pytest.raises(NotUnimodular):
            apply_synthesis(c, y)


class TestWideStep:
    """One step with taps at -r and r + 1 spreads a short signal over a
    window of about 4r samples; each direction of either ladder stays well
    inside a second at r = 10^5."""

    def test_round_trips(self):
        r = 10 ** 5
        c = LiftingCascade(F(1), (lower(LaurentPoly({-r: F(1, 2), r + 1: F(1, 2)})),))
        x = {k: (k * 7919) % 23 - 11 for k in range(16)}
        for analysis, synthesis, signal, back in (
                (apply_analysis, apply_synthesis, LaurentPoly(x), LaurentPoly(x)),
                (reversible_analysis, reversible_synthesis, x, {k: v for k, v in x.items() if v})):
            t0 = time.perf_counter()
            y = analysis(c, signal)
            assert time.perf_counter() - t0 < 1
            t0 = time.perf_counter()
            assert synthesis(c, y) == back
            assert time.perf_counter() - t0 < 1


def direct_window(digits, j):
    """digits as a window of j-limb digits, one multiplication per digit."""
    return sum(v << 64 * j * p for p, v in enumerate(digits))


def window_of(n, j):
    """A window of n samples whose digits have j limbs."""
    win = transform._Window(n, 1 << 64 * j - 3)
    assert win.j == j
    return win


def window_32(n):
    """A window of n samples whose digits have 32 bits."""
    win = transform._Window(n, 1 << 28)
    assert (win.bits, win.j) == (32, 1)
    return win


def direct_window_32(digits):
    """digits as a window of 32-bit digits, one shift per digit."""
    return sum(v << 32 * p for p, v in enumerate(digits))


class TestWindowPrimitives:
    @settings(max_examples=300)
    @given(st.data())
    def test_pack_then_spread_is_direct_packing(self, data):
        j, phases = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        n, start = data.draw(st.integers(1, 12)), data.draw(st.integers(-6, 6))
        # Negative, zero and small digits, and digits past 2^65 and 2^129
        # where the window's j limbs hold them.
        shifts = [0] + [e for e in (65, 129) if e + 20 < 64 * j]
        digit = st.builds(lambda v, e, r: (v << e) + r, st.integers(-300, 300),
                          st.sampled_from(shifts), st.integers(-300, 300))
        x = data.draw(st.dictionaries(st.integers(phases * start, phases * (start + n) - 1),
                                      digit))
        win = window_of(n, j)
        want = [direct_window([x.get(phases * (start + i) + p, 0) for i in range(n)], j)
                for p in range(phases)]
        # packed at the samples' own width and at the window's
        x, keys, top, low = transform._read(x, False)
        for top in (top, (1 << 64 * j - 2) - 1):
            assert win._pack((x, keys, top, low), start, phases) == want

    @settings(max_examples=300)
    @given(st.data())
    def test_twos_is_the_least_trailing_zero_count(self, data):
        j = data.draw(st.integers(1, 3))
        digit = st.just(0) | st.builds(lambda v, e: (2 * v + 1) << e, st.integers(-2 ** 20, 2 ** 20),
                                       st.integers(0, 64 * j - 25))
        digits = data.draw(st.lists(digit, min_size=1, max_size=12))
        cap = data.draw(st.integers(0, 64 * j - 2))
        zeros = [(v & -v).bit_length() - 1 for v in digits if v]
        assert window_of(len(digits), j)._twos(direct_window(digits, j), cap) == min([cap, *zeros])

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_twos_of_a_zero_window_is_the_cap(self, j):
        for cap in (0, 1, 64 * j - 2):
            assert window_of(5, j)._twos(0, cap) == cap

    @pytest.mark.parametrize("kind", [transform._Window, transform._Checked])
    def test_digits_take_32_bits_while_the_bound_fits(self, kind):
        for n in (1, 7):
            for top, bits in ((0, 32), (2 ** 30 - 1, 32), (2 ** 30, 64), (2 ** 62 - 1, 64),
                              (2 ** 62, 128)):
                win = kind(n, top)
                assert (win.bits, win.j) == (bits, max(1, bits // 64))

    @settings(max_examples=300)
    @given(st.data())
    def test_pack_at_32_bits_is_direct_packing(self, data):
        phases = data.draw(st.integers(1, 2))
        n, start = data.draw(st.integers(1, 12)), data.draw(st.integers(-6, 6))
        # gapped keys, some outside the window, and digits up to the 2^30 limit
        digit = st.integers(-300, 300) | st.integers(-2 ** 30 + 1, 2 ** 30 - 1)
        x = data.draw(st.dictionaries(st.integers(phases * start - 3, phases * (start + n) + 2),
                                      digit))
        want = [direct_window_32([x.get(phases * (start + i) + p, 0) for i in range(n)])
                for p in range(phases)]
        x, keys, top, low = transform._read(x, False)
        for top in (top, 2 ** 30 - 1):
            assert window_32(n)._pack((x, keys, top, low), start, phases) == want

    @settings(max_examples=100)
    @given(st.data())
    def test_pack_fills_a_few_gaps_run_by_run(self, data):
        # windows long enough that the reader's pack fills them around a
        # few missing keys, with keys on both sides of the window
        phases, n = data.draw(st.integers(1, 2)), data.draw(st.integers(64, 300))
        drop = data.draw(st.sets(st.integers(0, phases * (n + 2) - 1), max_size=phases * n // 64))
        rng = data.draw(st.randoms(use_true_random=False))
        x = {k: rng.randint(-2 ** 29, 2 ** 29) for k in range(phases * (n + 2)) if k not in drop}
        digits = [[x.get(phases * (1 + i) + p, 0) for i in range(n)] for p in range(phases)]
        r = transform._read(x, False)
        assert transform._fill(r[1], r[3], phases, phases * (n + 1)) is not None
        assert window_32(n)._pack(r, 1, phases) == list(map(direct_window_32, digits))
        assert window_of(n, 1)._pack(r, 1, phases) == [direct_window(d, 1) for d in digits]

    @settings(max_examples=300)
    @given(st.data())
    def test_twos_at_32_bits_is_the_least_trailing_zero_count(self, data):
        digit = st.just(0) | st.builds(lambda v, e: (2 * v + 1) << e, st.integers(-2 ** 20, 2 ** 20),
                                       st.integers(0, 8))
        digits = data.draw(st.lists(digit, min_size=1, max_size=12))
        cap = data.draw(st.integers(0, 30))
        zeros = [(v & -v).bit_length() - 1 for v in digits if v]
        win = window_32(len(digits))
        assert win._twos(direct_window_32(digits), cap) == min([cap, *zeros])
        assert win._twos(0, cap) == cap

    @settings(max_examples=300)
    @given(st.data())
    def test_unpack_at_32_bits_is_lowest_terms(self, data):
        digits = data.draw(st.lists(st.integers(-2 ** 30 + 1, 2 ** 30 - 1) | st.integers(-9, 9)
                                    .map(lambda v: v << 20), min_size=1, max_size=12))
        den = data.draw(st.integers(1, 99)) << data.draw(st.integers(0, 40))
        bound = max(map(abs, digits))
        (vals, d), = window_32(len(digits))._unpack([(direct_window_32(digits), den, bound)])
        assert d > 0 and math.gcd(d, *vals) == 1
        assert [F(v, d) for v in vals] == [F(v, den) for v in digits]

    @settings(max_examples=300)
    @given(st.data())
    def test_widen_is_packing_at_twice_the_width(self, data):
        # Digits anywhere in [-2^(B-1), 2^(B-1)), edges included, come out
        # of _widen as the same digits at 2B bits, through __init__'s rule.
        bits = data.draw(st.sampled_from([32, 64, 128]))
        half = 1 << bits - 1
        digit = st.sampled_from([-half, -half + 1, -1, 0, 1, half - 1]) | st.integers(-half, half - 1)
        digits = data.draw(st.lists(digit, min_size=1, max_size=12))
        win = transform._Window(len(digits), 1 << bits - 3 if bits > 32 else 0)
        assert win.bits == bits
        pair = [digits, [-v - 1 for v in digits]]      # -v - 1 keeps each edge in range
        y = win._widen([(direct_window_32(v) if bits == 32 else direct_window(v, bits // 64), d, m)
                        for v, d, m in zip(pair, (3, 1), (7, 5))])
        assert (win.bits, win.j) == (2 * bits, 2 * bits // 64)
        assert y == [(direct_window(v, 2 * bits // 64), d, m) for v, d, m in zip(pair, (3, 1), (7, 5))]


small_signals = (st.dictionaries(st.integers(-40, 40), st.integers(-300, 300), max_size=40)
                 | st.lists(st.integers(-300, 300), max_size=40).map(lambda v: dict(enumerate(v, -9))))


class TestDigitWidthLimit:
    """Both ladders on signals scaled so that the windows' bound lands
    between 2^27 and 2^33, on either side of the largest bound that 32-bit
    digits take, checked against the dict and LaurentPoly ladders.  Random
    S_W and S_H cascades of a few steps keep the unscaled bound small, and
    the scale is taken from it: the bound is close to proportional."""

    @staticmethod
    def scale(data, run, x):
        """A factor that puts the bound of run's windows on x near a drawn target."""
        tops, init = [], transform._Window.__init__

        def spy(win, n, top):
            tops.append(top)
            init(win, n, top)
        with mock.patch.object(transform._Window, "__init__", spy):
            run(x)
        target = data.draw(st.integers(2 ** 27, 2 ** 33))
        return max(1, target // max([1, *tops]))

    @settings(max_examples=200)
    @given(st.data())
    def test_reversible(self, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        c = rand_dyadic_ws_cascade(rng, n_steps=data.draw(st.integers(1, 4)))
        x = data.draw(small_signals)
        f = self.scale(data, lambda v: reversible_analysis(c, v), x)
        x = {k: v * f + rng.randrange(f) for k, v in x.items()}
        y = reversible_analysis(c, x)
        assert y == ref_analysis(c, x)
        assert reversible_synthesis(c, y) == {k: v for k, v in x.items() if v}
        z = (dict(y[1]), {k - 1: v for k, v in y[0].items()})
        assert reversible_synthesis(c, z) == ref_synthesis(c, z)

    @settings(max_examples=100)
    @given(st.data())
    def test_exact(self, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        n = data.draw(st.integers(1, 3))
        c = data.draw(st.sampled_from([
            lambda: rand_ws_cascade(rng, n_steps=n),
            lambda: rand_hs_cascade(rng, n_steps=n, base=rand_equal_length_hs_base(rng, width=n % 3))]))()
        x = LaurentPoly(data.draw(small_signals))
        x = x * self.scale(data, lambda v: apply_analysis(c, v), x)
        y = apply_analysis(c, x)
        assert y == ref_exact_analysis(c, x)
        assert apply_synthesis(c, y) == x
        z = (y[1], y[0].shift(-1))
        assert apply_synthesis(c, z) == ref_exact_synthesis(c, z)


def wide_case(case, scale=1):
    """A cascade and signal whose windows outgrow their digits more than
    once: one step over 2^100, six steps that each multiply by about 2^40,
    or samples near 2^200 through six steps of about 2^60; scale is the
    gain K."""
    rng = random.Random(5)

    def step(m, size, den):
        return LiftingStep(m, LaurentPoly({t: F(rng.choice((1, -1)) * rng.randint(size // 2, size), den)
                                           for t in (-1, 0, 1)}))
    if case == "den 2^100":
        c, size = LiftingCascade(scale, (step(1, 2 ** 95, 2 ** 100),)), 255
    else:
        gain, size = (2 ** 40, 255) if case == "gain 2^40" else (2 ** 60, 2 ** 200)
        c = LiftingCascade(scale, tuple(step(i % 2, gain, 2 ** (i % 3)) for i in range(6)))
    return c, {k: rng.randint(-size, size) for k in range(-20, 44)}


def window_kinds(monkeypatch):
    """The (class name, digit bits) of every window built from here on."""
    made, init = [], transform._Window.__init__

    def spy(win, n, top):
        init(win, n, top)
        made.append((type(win).__name__, win.bits))
    monkeypatch.setattr(transform._Window, "__init__", spy)
    return made


class TestCheckedWindows:
    """Rounding windows as wide as their inputs: the packed range test against
    a digit-by-digit reference, ladders whose digits outgrow 32 bits on the
    way, where the _Checked window widens, and a pool like perfbench's
    transform-reversible-1k, where none does."""

    @settings(max_examples=300)
    @given(st.data())
    def test_fits_is_the_digit_range_test(self, data):
        bits = data.draw(st.sampled_from([32, 64, 128]))
        k = data.draw(st.integers(0, bits - 2))
        edges = [s * (1 << e) + d for s in (1, -1) for e in (k, bits - 1) for d in (-1, 0, 1)]
        digit = (st.sampled_from([v for v in edges if abs(v) < 1 << bits - 1])
                 | st.integers(-(1 << k), (1 << k) - 1)
                 | st.integers(-(1 << bits - 1) + 1, (1 << bits - 1) - 1))
        digits = data.draw(st.lists(digit, min_size=1, max_size=8))
        win = transform._Checked(len(digits), 1 << bits - 3 if bits > 32 else 0)
        assert win.bits == bits
        w = direct_window_32(digits) if bits == 32 else direct_window(digits, bits // 64)
        cap = data.draw(st.integers(1 << k, (2 << k) - 1))     # 2^k is the largest power <= cap
        if all(-(1 << k) <= v < 1 << k for v in digits):
            assert win._fits(w, cap) == 1 << k
        else:
            with pytest.raises(OverflowError):
                win._fits(w, cap)
        with pytest.raises(OverflowError):      # no power of 2 fits under 1
            win._fits(w, 0)

    @settings(max_examples=100)
    @given(st.data())
    def test_digits_past_2_to_the_30_fall_back_to_the_bound(self, data):
        # Inputs under 2^30: channel m near +-2^30 and the other near 2^27,
        # of which two or three steps on m in a row add 5 .. 7 times.  The
        # first step takes m's digits past 2^30, where the 32-bit window
        # overflows, and the next past 2^31; random steps follow.  Synthesis
        # meets the same steps first, on channels of opposite signs.  The
        # 32-bit _Checked window of each call fails its range test and
        # widens to twice the digit width, and so on.
        m, sign = data.draw(st.integers(0, 1)), data.draw(st.sampled_from([1, -1]))
        run = [LiftingStep(m, LaurentPoly({t: g})) for t, g in data.draw(st.lists(
            st.tuples(st.integers(-2, 2), st.integers(5, 7)), min_size=2, max_size=3))]
        rest = data.draw(dyadic_cascades()).steps
        n, start = data.draw(st.integers(5, 12)), data.draw(st.integers(-9, 9))     # n > 4: taps overlap

        def channel(v, spread):
            return [v + data.draw(st.integers(0, spread)) * (1 if v < 0 else -1) for _ in range(n)]
        ch = [None, None]
        ch[m], ch[1 - m] = channel(sign * (2 ** 30 - 1), 2 ** 20), channel(sign * 2 ** 27, 2 ** 20)
        x = {2 * (start + i) + p: ch[p][i] for p in (0, 1) for i in range(n)}
        ch[m] = [-v for v in ch[m]]
        z = [dict(enumerate(v, start)) for v in ch]
        with pytest.MonkeyPatch.context() as monkeypatch:
            made = window_kinds(monkeypatch)
            c = LiftingCascade(1, (*run, *rest))
            y = reversible_analysis(c, x)
            analysis, made[:] = made[:], []
            back = LiftingCascade(1, (*rest, *run))
            assert reversible_synthesis(back, z) == ref_synthesis(back, z)
        for kinds in (analysis, made):     # each window at 32 bits, then doubled
            assert kinds[0] == ("_Checked", 32) and {kind for kind, _ in kinds} == {"_Checked"}
            assert all(b in (32, 2 * a) for (_, a), (_, b) in zip(kinds, kinds[1:]))
            assert any(bits > 32 for _, bits in kinds)
        assert y == ref_analysis(c, x)
        assert reversible_synthesis(c, y) == x

    @pytest.mark.parametrize("case", ["den 2^100", "gain 2^40", "samples 2^200"])
    def test_windows_redone_more_than_once(self, case, monkeypatch):
        # A step over 2^100 breaks the floor's range at 32 and at 64 bits;
        # six steps that each multiply by about 2^40 outgrow 32, 64 and 128
        # bits; and samples near 2^200, through six steps of about 2^60,
        # start at 256 bits and outgrow 256 and 512.  The samples are one
        # window, widened to twice the digit width each time.
        c, x = wide_case(case)
        made = window_kinds(monkeypatch)
        y = reversible_analysis(c, x)
        analysis, made[:] = made[:], []
        z = (dict(y[1]), {k - 1: v for k, v in y[0].items()})
        w = reversible_synthesis(c, z)
        assert len(analysis) > 2 and analysis == [("_Checked", analysis[0][1] << i)
                                                  for i in range(len(analysis))]
        if case == "den 2^100":
            assert analysis == made == [("_Checked", 32), ("_Checked", 64), ("_Checked", 128)]
        assert y == ref_analysis(c, x)
        assert reversible_synthesis(c, y) == {k: v for k, v in x.items() if v}
        assert w == ref_synthesis(c, z)

    def test_reversible_1k_pool_stays_at_32_bits(self, monkeypatch):
        # perfbench's seed-1 transform-reversible-1k pool, drawn the same
        # way: S_W cascades of 4 .. 8 alternating steps whose HS filters'
        # radii cycle through 1 .. 3, on 1,024 samples in +-255.
        rng = random.Random(1)
        made = window_kinds(monkeypatch)
        for j in range(120):
            m, steps = rng.randint(0, 1), []
            for i in range(4 + j % 5):
                steps.append(LiftingStep(m, rand_hs_filter(rng, 1 - 2 * m, 1 + (j + i) % 3)))
                m = 1 - m
            c, x = LiftingCascade(1, tuple(steps)), rand_int_signal(rng, 1024)
            assert reversible_synthesis(c, reversible_analysis(c, x)) == {k: v for k, v in x.items() if v}
        assert made == [("_Checked", 32)] * 240


def window_widths(monkeypatch):
    """The digit widths of every window built from here on, one list per
    window: its first width, then one entry each time it widens."""
    made, init = [], transform._Window.__init__

    def spy(win, n, top):
        init(win, n, top)
        if "widths" not in vars(win):
            win.widths = []
            made.append(win.widths)
        win.widths.append(win.bits)
    monkeypatch.setattr(transform._Window, "__init__", spy)
    return made


def lifts_per_window(monkeypatch):
    """[returned, raised] _lift calls of every window built from here on.  A
    call that raises must do so at its range test, before any _conv."""
    counts, init, conv, convs = [], transform._Window.__init__, transform._Window._conv, [0]

    def spy_init(win, n, top):
        init(win, n, top)
        if "lifts" not in vars(win):
            win.lifts = [0, 0]
            counts.append(win.lifts)

    def spy_conv(win, *args):
        convs[0] += 1
        return conv(win, *args)

    def spy_lift(win, *args, lift):
        before = convs[0]
        try:
            out = lift(win, *args)
        except OverflowError:
            assert convs[0] == before
            win.lifts[1] += 1
            raise
        win.lifts[0] += 1
        return out
    monkeypatch.setattr(transform._Window, "__init__", spy_init)
    monkeypatch.setattr(transform._Window, "_conv", spy_conv)
    for cls in (transform._Window, transform._Checked):
        lift = vars(cls)["_lift"]
        monkeypatch.setattr(cls, "_lift", lambda win, *args, lift=lift: spy_lift(win, *args, lift=lift))
    return counts


def inputs_width(*channels):
    """The digit width of a window over channels' numerators, from __init__'s rule."""
    top = max(abs(v) for ch in channels for v in ch.values())
    return 32 if top < 2 ** 30 else 64 * ((top.bit_length() + 65) // 64)


WIDE_CASES = ["den 2^100", "gain 2^40", "samples 2^200"]


class TestWidening:
    """Both ladders start each window at its inputs' width and widen it in
    place: the exact twins of test_windows_redone_more_than_once, a spy that
    shows no step runs twice in a window, the seed-1 transform-exact pool's
    widths, and the window size past which a transform is refused."""

    @pytest.mark.parametrize("case", WIDE_CASES)
    def test_exact_windows_widen_more_than_once(self, case, monkeypatch):
        c, x = wide_case(case, F(-3, 4) if case == "gain 2^40" else 1)
        x = LaurentPoly(x)
        y = apply_analysis(c, x)
        z = (y[1], y[0].shift(-1))
        firsts = inputs_width(x._num), inputs_width(z[0]._num, z[1]._num)
        made = window_widths(monkeypatch)
        assert apply_analysis(c, x) == y == ref_exact_analysis(c, x)
        analysis, made[:] = made[:], []
        assert apply_synthesis(c, z) == ref_exact_synthesis(c, z)
        for first, windows in zip(firsts, (analysis, made)):     # one window each
            assert windows == [[first << i for i in range(len(windows[0]))]]
        assert len(analysis[0]) > 2
        assert apply_synthesis(c, y) == x

    @pytest.mark.parametrize("case", [None, *WIDE_CASES])
    @pytest.mark.parametrize("exact", [True, False])
    def test_no_stage_runs_twice(self, case, exact, monkeypatch):
        if case is None:    # far apart runs: several windows
            c = rand_ws_cascade(random.Random(3), n_steps=5)
            x = {**rand_int_signal(random.Random(4), 64), **{10 ** 6 + k: 7 - k for k in range(9)}}
            c = c if exact else rand_dyadic_ws_cascade(random.Random(3), n_steps=5)
        else:
            c, x = wide_case(case, F(-3, 4) if exact and case == "gain 2^40" else 1)
        forward, back = ((apply_analysis, apply_synthesis) if exact
                         else (reversible_analysis, reversible_synthesis))
        x = LaurentPoly(x) if exact else x
        counts = lifts_per_window(monkeypatch)
        y = forward(c, x)
        analysis, counts[:] = counts[:], []
        assert back(c, y) == (x if exact else {k: v for k, v in x.items() if v})
        for windows in (analysis, counts):
            assert windows and [done for done, _ in windows] == [len(c.steps)] * len(windows)
        if case is None:
            assert len(analysis) > 1
        else:
            assert analysis[0][1] > 0       # the window widened at a step, which then ran once

    def test_transform_exact_pool_widths(self, monkeypatch):
        # perfbench's seed-1 transform-exact pool, drawn the same way:
        # alternately S_W cascades of 4 .. 8 steps with a gain K != 1 and S_H
        # cascades of 2 .. 6 steps over an equal-length base whose lowpass DC
        # response is nonzero, on 1,024 samples in +-255.  Every analysis
        # window starts at 32 bits; the pins are each window's last width and
        # how often it widened.
        rng = random.Random(1)

        def steps(n_steps, j, draw):
            m, out = rng.randint(0, 1), []
            for i in range(n_steps):
                out.append(LiftingStep(m, draw(m, 1 + (j + i) % 3)))
                m = 1 - m
            return tuple(out)
        made = window_widths(monkeypatch)
        for j in range(40):
            k = j // 2
            if j % 2 == 0:
                gain = 1
                while gain == 1:
                    gain = rand_ws_cascade(rng, n_steps=0).scale
                c = LiftingCascade(gain, steps(4 + k % 5, k, lambda m, t: rand_hs_filter(rng, 1 - 2 * m, t)))
            else:
                base = rand_equal_length_hs_base(rng, width=k % 3)
                while base.scalar_filter(0)(1) == 0:
                    base = rand_equal_length_hs_base(rng, width=k % 3)
                c = LiftingCascade(1, steps(2 + k % 5, k, lambda m, t: rand_wa_filter(rng, t)), base)
            x = LaurentPoly(rand_int_signal(rng, 1024))
            assert apply_synthesis(c, apply_analysis(c, x)) == x
        assert len(made) == 80 and all(widths[0] == 32 for widths in made[::2])
        assert Counter(widths[-1] for widths in made) == {32: 22, 64: 58}
        assert Counter(len(widths) - 1 for widths in made) == {0: 43, 1: 37}

    def test_window_past_the_limit_is_refused(self, monkeypatch):
        # A window of n samples x B bits over MAX_WINDOW_BITS raises before
        # it is built, and so does one that would widen past it; the message
        # names the samples, the bits and the reach.
        monkeypatch.setattr(transform, "MAX_WINDOW_BITS", 64 * 64)
        with pytest.raises(WorkBudget, match=r"^transform window of 65 samples x 64 bits "
                                             r"exceeds 2\^12 bits$"):
            transform._Window(65, 2 ** 40)
        assert transform._Window(64, 2 ** 40).bits == 64
        c, x = wide_case("den 2^100")       # 64 + 2 samples: 32 -> 64 -> 128 bits
        with pytest.raises(WorkBudget, match=r"^transform window of 34 samples x 128 bits "
                                             r"exceeds 2\^12 bits \(reach 1\)$"):
            reversible_analysis(c, x)
        assert reversible_analysis(c, dict(list(x.items())[:8])) == ref_analysis(
            c, dict(list(x.items())[:8]))


class TestWindowReduction:
    """Exact round trips where the window divides out powers of 2 before
    it reads the output, pinned to cases that exercise each part."""

    def test_two_limb_synthesis_reads_one_limb(self, monkeypatch):
        rng = random.Random(8)
        c = rand_hs_cascade(rng, n_steps=3, base=rand_equal_length_hs_base(rng, width=2))
        x = LaurentPoly(rand_int_signal(rng, 64))
        y = apply_analysis(c, x)
        widths, limbs = [], []
        width, unpack = transform._width, transform._Window._unpack
        monkeypatch.setattr(transform, "_width", lambda top: widths.append(width(top)) or widths[-1])
        monkeypatch.setattr(transform._Window, "_unpack",
                            lambda self, *a: limbs.append(self.j) or unpack(self, *a))
        assert apply_synthesis(c, y) == x == ref_exact_synthesis(c, y)
        assert limbs == [2] and set(widths) == {1}

    def test_hs_base_odd_gcd_is_divided_in_the_window(self, monkeypatch):
        rng = random.Random(24)
        c = rand_hs_cascade(rng, n_steps=3, base=rand_equal_length_hs_base(rng, width=2))
        x = LaurentPoly(rand_int_signal(rng, 64))
        y = apply_analysis(c, x)
        found, lowest = [], transform._lowest
        monkeypatch.setattr(transform, "_lowest", lambda vals, den, part: found.append(
            math.gcd(part, *vals)) or lowest(vals, den, part))
        (num, den), = transform._run(c, (y[0]._num, y[1]._num), -1, False, (y[0]._den, y[1]._den))
        assert max(found) > 1 and max(found) % 2 == 1      # the odd factor the window divides out
        assert math.gcd(den, *num.values()) == 1
        assert LaurentPoly._make(num, den) == x == ref_exact_synthesis(c, y)

    def test_zero_channel_over_a_capped_power_of_2_has_den_1(self):
        # y1 = x1 + x0 / 2^100 cancels in every window.  The small numerators
        # of x over 2^200 leave its numerators zero over 2^300, past the
        # mask's cap of B - 2 bits.
        c = LiftingCascade(F(1), (lower(F(1, 2 ** 100)),))
        x = LaurentPoly({**{2 * i: F(i + 1, 2 ** 100) for i in range(8)},
                         **{2 * i + 1: F(-(i + 1), 2 ** 200) for i in range(8)},
                         10 ** 6: F(3, 2 ** 100), 10 ** 6 + 1: F(-3, 2 ** 200)})
        (y0, d0), (y1, d1) = transform._run(c, (x._num,), 1, False, (x._den,) * 2)
        assert (y1, d1) == ({}, 1) and d0 == 2 ** 100
        y = apply_analysis(c, x)
        assert y == ref_exact_analysis(c, x) and y[1]._den == 1
        assert apply_synthesis(c, y) == x

    def test_windows_reduce_by_different_powers(self, monkeypatch):
        rng = random.Random(0)
        c = rand_ws_cascade(rng, n_steps=4)
        x = LaurentPoly({**{i: 2 * rng.randint(-50, 50) + 1 for i in range(16)},
                         **{10 ** 6 + i: 8 * rng.randint(-50, 50) for i in range(16)}})
        found, twos = [], transform._Window._twos
        monkeypatch.setattr(transform._Window, "_twos",
                            lambda self, w, cap: found.append(twos(self, w, cap)) or found[-1])
        y = apply_analysis(c, x)
        assert found[0] != found[2]         # channel 0 in the first and the second window
        assert y == ref_exact_analysis(c, x)
        assert apply_synthesis(c, y) == x
        z = (y[1], y[0].shift(-1))
        assert apply_synthesis(c, z) == ref_exact_synthesis(c, z)


class TestLowestTerms:
    """_run hands out exact channels in lowest terms, built without a
    LaurentPoly, a D_K matrix or the inverse of an identity base."""

    @settings(max_examples=200)
    @given(st.data())
    def test_run_outputs_are_canonical(self, data):
        c = data.draw(exact_cascades())
        x = data.draw(rational_signals(exact_reach(c)))
        y = apply_analysis(c, x)
        outs = transform._run(c, (x._num,), 1, False, (x._den,) * 2)
        # synthesis of an analysis, and of coefficients that no analysis produced
        for v in (y, (y[1], y[0].shift(-1))):
            outs += transform._run(c, (v[0]._num, v[1]._num), -1, False, (v[0]._den, v[1]._den))
        for num, den in outs:
            assert 0 not in num.values()
            assert math.gcd(den, *num.values()) == 1

    def test_ws_round_trip_calls_no_reduction_gain_matrix_or_inverse(self, monkeypatch):
        rng = random.Random(5)
        c = LiftingCascade(F(-3, 7), rand_ws_cascade(rng, n_steps=4).steps)
        x = LaurentPoly({i: F(rng.randint(-99, 99), rng.choice([1, 3, 4])) for i in range(64)})
        calls = []
        for owner, name in ((laurent, "_canonical"), (lifting, "scaling_matrix"),
                            (PolyphaseMatrix, "inverse")):
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        assert apply_synthesis(c, apply_analysis(c, x)) == x
        assert calls == []

    @pytest.mark.parametrize("k", [F(-3, 7), F(6, 5)])
    def test_gain_round_trips(self, k):
        rng = random.Random(11)
        ws = rand_ws_cascade(rng, n_steps=4)
        hs = rand_hs_cascade(rng, n_steps=3, base=rand_equal_length_hs_base(rng, width=2))
        x = LaurentPoly({i: F(rng.randint(-50, 50), rng.choice([1, 3, 7, 10]))
                         for i in range(-20, 40)})
        for c in (LiftingCascade(k, ws.steps), LiftingCascade(k, hs.steps, hs.base)):
            y = apply_analysis(c, x)
            assert y == ref_exact_analysis(c, x)
            assert apply_synthesis(c, y) == x
            z = (y[1], y[0].shift(-1))
            assert apply_synthesis(c, z) == ref_exact_synthesis(c, z)


class TestExactInputs:
    """The exact transforms take LaurentPoly signals and name what else
    they got."""

    @pytest.mark.parametrize("x, got", [({0: 1}, "dict"), (None, "NoneType")])
    def test_analysis_refuses_other_types(self, x, got):
        with pytest.raises(InvalidArgument, match=f"got {got}$"):
            apply_analysis(LiftingCascade(), x)

    @pytest.mark.parametrize("y, got", [
        ({0: 1}, "dict"), (({0: 1}, {1: 2}), r"tuple of \(dict, dict\)"),
        ((LaurentPoly({0: 1}),), r"tuple of \(LaurentPoly\)")])
    def test_synthesis_refuses_other_types(self, y, got):
        with pytest.raises(InvalidArgument, match=f"got {got}$"):
            apply_synthesis(LiftingCascade(), y)


class Index:
    """Not an int, but with the __index__ that struct reads."""
    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


class Integral(Index):
    """An integer of another type: int(v) == v, and it hashes as int(v)."""
    def __int__(self):
        return self.v

    def __eq__(self, other):
        return self.v == other

    def __hash__(self):
        return hash(self.v)


class TestReversibleInputs:
    c = LiftingCascade(F(1), (lower(LaurentPoly({-1: F(-1, 2), 0: F(-1, 2)})),))

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, "x", F(1, 2), 0.5, None])
    def test_analysis_refuses_non_integer_samples(self, v):
        with pytest.raises(NonIntegerInput):
            reversible_analysis(self.c, {0: 1, 1: v})

    @pytest.mark.parametrize("x, got", [([1, 2, 3], r"list of \(int, int, int\)"),
                                        (None, "NoneType")])
    def test_analysis_refuses_other_types(self, x, got):
        with pytest.raises(InvalidArgument, match=f"got {got}$"):
            reversible_analysis(self.c, x)

    @pytest.mark.parametrize("y, got", [
        (({1: 1},), r"tuple of \(dict\)"), (None, "NoneType"), ({0: 1}, "dict"),
        (({0: 1}, [1]), r"tuple of \(dict, list\)")])
    def test_synthesis_refuses_other_types(self, y, got):
        with pytest.raises(InvalidArgument, match=f"got {got}$"):
            reversible_synthesis(self.c, y)

    def test_integer_valued_samples_pass(self):
        y = reversible_analysis(self.c, {0: 2.0, 1: F(6, 2), 2: True})
        assert y == reversible_analysis(self.c, {0: 2, 1: 3, 2: 1})
        assert all(type(v) is int for ch in y for v in ch.values())

    @pytest.mark.parametrize("k", [1.5, 2.0, F(1, 2), "3", None])
    def test_non_integer_indices_are_named(self, k):
        with pytest.raises(LiftbankError, match=re.escape(f"index {k!r}")):
            reversible_analysis(self.c, {0: 1, k: 3})
        with pytest.raises(LiftbankError, match=re.escape(f"index {k!r}")):
            reversible_synthesis(self.c, ({0: 1}, {k: 3}))

    @pytest.mark.parametrize("y", [({0: 0.5}, {}), ({0: F(1, 2)}, {0: 1}),
                                   ({0: "a"}, {}), ({}, {0: math.nan})])
    def test_synthesis_refuses_non_integer_coefficients(self, y):
        with pytest.raises(NonIntegerInput):
            reversible_synthesis(self.c, y)

    # Gap-free 1,024-sample inputs, whose windows fill from the reader's
    # pack of the values: the analysis signal, and a synthesis channel pair.
    dense = {k: (k * 7919) % 23 - 11 for k in range(1024)}
    pair = ({k: v for k, v in dense.items() if k < 512},
            {k - 512: v for k, v in dense.items() if k >= 512})

    @pytest.mark.parametrize("v", [2.0, True, 2 ** 64, Integral(-7)])
    def test_gap_free_mappings_take_integer_valued_samples(self, v):
        y = reversible_analysis(self.c, {**self.dense, 1023: v})
        assert y == ref_analysis(self.c, {**self.dense, 1023: int(v)})
        x = reversible_synthesis(self.c, (self.pair[0], {**self.pair[1], 511: v}))
        assert x == reversible_synthesis(self.c, (self.pair[0], {**self.pair[1], 511: int(v)}))
        assert all(type(w) is int for ch in (*y, x) for w in ch.values())

    @pytest.mark.parametrize("v", [F(1, 2), Index(3)])
    def test_gap_free_mappings_name_a_non_integer_last_sample(self, v):
        with pytest.raises(NonIntegerInput, match=re.escape(f"sample 1023 is {v!r}")):
            reversible_analysis(self.c, {**self.dense, 1023: v})
        with pytest.raises(NonIntegerInput, match=re.escape(f"sample 511 is {v!r}")):
            reversible_synthesis(self.c, (self.pair[0], {**self.pair[1], 511: v}))

    def test_gap_free_mappings_take_integer_keys_of_other_types(self):
        x = {**{k: self.dense[k] for k in range(1023)}, Integral(1023): -7}
        assert reversible_analysis(self.c, x) == ref_analysis(self.c, {**self.dense, 1023: -7})
        first = {k: self.pair[1][k] for k in range(511)}
        assert reversible_synthesis(self.c, (self.pair[0], {**first, Integral(511): -7})) == \
            reversible_synthesis(self.c, (self.pair[0], {**first, 511: -7}))

    def test_mapping_proxies_pass(self):
        y = reversible_analysis(self.c, MappingProxyType(self.dense))
        assert y == reversible_analysis(self.c, self.dense) == ref_analysis(self.c, self.dense)
        assert reversible_synthesis(self.c, tuple(map(MappingProxyType, self.pair))) == \
            reversible_synthesis(self.c, self.pair) == \
            {k: v for k, v in ref_synthesis(self.c, self.pair).items() if v}

    def test_key_past_two_to_the_64_round_trips(self):
        x = {**self.dense, 2 ** 70: 5}
        y = reversible_analysis(self.c, x)
        assert y == ref_analysis(self.c, x) and 2 ** 69 in y[0]
        assert reversible_synthesis(self.c, y) == {k: v for k, v in x.items() if v}

    def test_all_int_mappings_are_not_converted(self, monkeypatch):
        calls = []
        sample = transform._int_sample
        monkeypatch.setattr(transform, "_int_sample", lambda k, v: calls.append(k) or sample(k, v))
        reversible_synthesis(self.c, reversible_analysis(self.c, self.dense))
        reversible_synthesis(self.c, self.pair)
        assert calls == []
        reversible_analysis(self.c, {**self.dense, 5: 2.0})
        assert len(calls) == 1024


class TestPinnedTransforms:
    """The reversible analysis and synthesis outputs, and the exact analysis
    outputs (numerators and denominators), of seeded S_W and S_H cascades
    on dense and gapped integer signals, pinned by their digest: a change
    that alters any output byte fails here.  The samples are scaled so that
    the windows' digits take 32 bits, one limb and two limbs."""

    DIGEST = "7573c05fb7e0ab33b8155462d7fabd958a81400e3c529501e19db4d28b12ad25"

    def test_digest(self):
        digest = hashlib.sha256()
        for seed in range(40):
            rng = random.Random(seed)
            f = rng.randrange(1 << rng.choice([0, 16, 24, 40, 56, 80])) | 1
            dense = {k: f * v for k, v in rand_int_signal(rng, 256).items()}
            gapped = {k: v for k, v in dense.items() if rng.random() < 0.7}
            rev = rand_dyadic_ws_cascade(rng)
            ws = rand_ws_cascade(rng)
            hs = rand_hs_cascade(rng, base=rand_equal_length_hs_base(rng, width=seed % 3))
            for x in (dense, gapped):
                y = reversible_analysis(rev, x)
                outs = [(v, 1) for v in (*y, reversible_synthesis(rev, (y[1], y[0])))]
                for c in (ws, hs):
                    outs += [(v._num, v._den) for v in apply_analysis(c, LaurentPoly(x))]
                digest.update(repr([(sorted(v.items()), d) for v, d in outs]).encode())
        assert digest.hexdigest() == self.DIGEST


class TestVerifyPR:
    def test_haar(self):
        assert verify_pr(haar_cascade()).ok

    def test_lazy(self):
        rep = verify_pr(LiftingCascade())
        assert rep.ok and rep.trials == 32

    def test_singular_base(self):
        c = LiftingCascade(F(1), (), PolyphaseMatrix.from_entries(1, 1, 1, 1))
        assert not verify_pr(c).ok

    @pytest.mark.parametrize("trials", [0, -5, 2.5, "3", None])
    def test_no_trials_is_no_verdict(self, trials):
        with pytest.raises(InvalidArgument):
            verify_pr(haar_cascade(), trials=trials)

    def test_true_is_one_trial(self):
        assert verify_pr(haar_cascade(), trials=True).trials == 1
