import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftbank.errors import InvalidArgument, LiftbankError, NonIntegerInput, NotDyadic
from liftbank.laurent import LaurentPoly
from liftbank.lifting import LiftingCascade, LiftingStep, lower, upper
from liftbank.polyphase import PolyphaseMatrix, PolyphaseVector, haar_bank
from liftbank.randgen import (rand_dyadic_ws_cascade, rand_hs_cascade,
                              rand_int_signal, rand_signal, rand_ws_cascade)
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


samples = st.integers(-300, 300)
nonzero = samples.filter(bool)


@st.composite
def dyadic_cascades(draw):
    """K = 1 cascades of up to six dyadic steps of both characteristics,
    denominators 1..2^6.  Half of them alternate and give every filter
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
        e = draw(st.integers(0, 6))
        filt = LaurentPoly({n: F(v, 2 ** e) for n, v in taps.items()})
        steps.append(LiftingStep(m, filt))
        m = 1 - m if full else draw(st.integers(0, 1))
    return LiftingCascade(1, steps)


@st.composite
def signals(draw, r):
    """Dense, sparse and empty signals, and two blocks whose nearest
    channel indices are exactly 2R or 2R + 1 apart, R being the reach."""
    kind = draw(st.sampled_from(["dense", "sparse", "gap"]))
    if kind == "dense":
        start = draw(st.integers(-40, 40))
        return {start + i: v for i, v in enumerate(draw(st.lists(samples, max_size=48)))}
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


class TestReversibleInputs:
    c = LiftingCascade(F(1), (lower(LaurentPoly({-1: F(-1, 2), 0: F(-1, 2)})),))

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, "x", F(1, 2), 0.5, None])
    def test_analysis_refuses_non_integer_samples(self, v):
        with pytest.raises(NonIntegerInput):
            reversible_analysis(self.c, {0: 1, 1: v})

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


class TestVerifyPR:
    def test_haar(self):
        assert verify_pr(haar_cascade()).ok

    def test_lazy(self):
        rep = verify_pr(LiftingCascade())
        assert rep.ok and rep.trials == 32

    def test_singular_base(self):
        c = LiftingCascade(F(1), (), PolyphaseMatrix.from_entries(1, 1, 1, 1))
        assert not verify_pr(c).ok

    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials_is_no_verdict(self, trials):
        with pytest.raises(InvalidArgument):
            verify_pr(haar_cascade(), trials=trials)
