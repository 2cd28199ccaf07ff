import random
from fractions import Fraction

import pytest

from liftbank.errors import InvalidArgument, NonIntegerInput, NotDyadic
from liftbank.laurent import LaurentPoly
from liftbank.lifting import LiftingCascade, lower, upper
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

    def test_random_round_trips(self):
        rng = random.Random(5)
        for _ in range(20):
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
