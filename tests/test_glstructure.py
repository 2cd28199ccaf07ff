import random
from fractions import Fraction

import pytest

from liftbank.errors import NotAdmissible, NotIrreducible
from liftbank.glstructure import (HS_MINUS, HS_PLUS, S_H, S_HR, S_W, S_WR,
                                  UNRESTRICTED, WA_ZERO, FilterGroupSpec,
                                  base_admissible, cascade_in_structure,
                                  check_order_increasing, d_invariance_check,
                                  step_admissible, ws_radii)
from liftbank.laurent import LaurentPoly
from liftbank.lifting import LiftingCascade, LiftingStep, lower, upper
from liftbank.polyphase import IDENTITY, haar_bank
from liftbank.randgen import (rand_admissible_step, rand_equal_length_hs_base,
                              rand_hs_cascade, rand_hs_concentric_bank,
                              rand_ws_cascade)

F = Fraction


class TestStepAdmissible:
    def test_upper_hs_plus(self):
        s = upper(LaurentPoly({0: F(1, 2), 1: F(1, 2)}))
        assert step_admissible(S_W, s)

    def test_upper_wrong_axis(self):
        s = upper(LaurentPoly({-1: 1, 0: 1}))
        assert not step_admissible(S_W, s)

    def test_lower_hs_minus(self):
        s = lower(LaurentPoly({-1: 1, 0: 1}))
        assert step_admissible(S_W, s)

    def test_wa_step(self):
        s = upper(LaurentPoly({-1: 1, 1: -1}))  # z - z^-1
        assert step_admissible(S_H, s)
        assert not step_admissible(S_W, s)

    def test_dyadic_restriction(self):
        s = upper(LaurentPoly({0: F(1, 3), 1: F(1, 3)}))
        assert step_admissible(S_W, s)
        assert not step_admissible(S_WR, s)

    def test_additive_closure(self):
        rng = random.Random(0)
        for g in (S_W, S_H):
            for m in (0, 1):
                for _ in range(25):
                    a = rand_admissible_step(rng, g, m)
                    b = rand_admissible_step(rng, g, m)
                    spec = g.filter_spec(m)
                    assert spec.member(a.filter + b.filter)
                    assert spec.member(-a.filter)


class TestGenerators:
    @pytest.mark.parametrize("kind", [HS_PLUS, HS_MINUS, WA_ZERO])
    def test_members_of_radius_k(self, kind):
        for spec in (FilterGroupSpec(kind), FilterGroupSpec(kind, True)):
            for k in range(1, 7):
                g = spec.basis(k)
                assert spec.member(g) and g.supprad() == k

    def test_unrestricted_has_none(self):
        with pytest.raises(ValueError):
            FilterGroupSpec(UNRESTRICTED).basis(1)


class TestBaseAdmissible:
    def test_identity_for_ws(self):
        assert base_admissible(S_W, IDENTITY)
        assert not base_admissible(S_W, haar_bank())

    def test_haar_for_hs(self):
        assert base_admissible(S_H, haar_bank())

    def test_unequal_lengths_rejected(self):
        # one antisymmetric lift of an equal-length bank gives unequal orders
        s = LaurentPoly({-1: 1, 1: -1})
        lifted = lower(s).matrix() @ haar_bank()
        assert lifted.classify().kind == "HS_CONCENTRIC"
        assert not base_admissible(S_H, lifted)

    def test_generated_bases(self):
        rng = random.Random(1)
        for _ in range(25):
            b = rand_equal_length_hs_base(rng)
            assert base_admissible(S_H, b)
            assert b.row0.support() == b.row1.support()


class TestCascadeMembership:
    def test_haar_cascade_not_in_ws(self):
        c = LiftingCascade(F(2), (upper(F(1)), lower(F(-1, 2))))
        assert not cascade_in_structure(S_W, c)

    def test_trivial_cascade_in_ws(self):
        assert cascade_in_structure(S_W, LiftingCascade())

    def test_generated_hs_cascades(self):
        rng = random.Random(2)
        for _ in range(20):
            assert cascade_in_structure(S_H, rand_hs_cascade(rng))

    def test_trivial_scaling_restriction(self):
        c = LiftingCascade(F(2))
        assert not cascade_in_structure(S_WR, c)
        assert cascade_in_structure(S_W, c)


class TestOrderIncreasing:
    def test_single_nonconstant_step(self):
        c = LiftingCascade(F(1), (upper(LaurentPoly({0: 1, 1: 1})),))
        ok, orders = check_order_increasing(c)
        assert ok and orders == [0, 1]

    def test_identity_cascade_comes_back_down(self):
        from liftbank.cli import identity_cascade
        ok, orders = check_order_increasing(identity_cascade())
        assert not ok
        assert orders[-1] == 0

    def test_random_ws(self):
        rng = random.Random(3)
        for _ in range(25):
            ok, _ = check_order_increasing(rand_ws_cascade(rng, n_steps=5))
            assert ok

    def test_random_hs(self):
        rng = random.Random(4)
        for _ in range(25):
            c = rand_hs_cascade(rng)
            if len(c):
                ok, _ = check_order_increasing(c)
                assert ok

    def test_requires_irreducible(self):
        c = LiftingCascade(F(1), (upper(F(1)), upper(F(1))))
        with pytest.raises(NotIrreducible):
            check_order_increasing(c)


class TestRadii:
    def test_one_step(self):
        s = upper(LaurentPoly({0: F(1, 2), 1: F(1, 2)}))  # t = 1
        rep = ws_radii(LiftingCascade(F(1), (s,)))
        step = rep.steps[0]
        assert (step.r0_predicted, step.r1_predicted) == (1, 0)
        assert rep.ok

    def test_two_steps(self):
        s0 = upper(LaurentPoly({0: F(1, 2), 1: F(1, 2)}))
        s1 = lower(LaurentPoly({-1: F(1, 4), 0: F(1, 4)}))
        rep = ws_radii(LiftingCascade(F(1), (s0, s1)))
        last = rep.steps[-1]
        assert (last.r0_predicted, last.r1_predicted) == (1, 2)
        assert rep.ok

    def test_random_cascades(self):
        rng = random.Random(5)
        for _ in range(25):
            rep = ws_radii(rand_ws_cascade(rng, n_steps=6))
            assert rep.ok

    def test_rejects_non_ws(self):
        c = LiftingCascade(F(1), (upper(LaurentPoly({-1: 1, 1: -1})),))
        with pytest.raises(NotAdmissible):
            ws_radii(c)


class TestDInvariance:
    def test_full_scaling_structures(self):
        assert d_invariance_check(S_W, trials=64, seed=0) is True
        assert d_invariance_check(S_H, trials=64, seed=0) is True

    def test_trivial_scaling_inapplicable(self):
        assert d_invariance_check(S_WR) is None
        assert d_invariance_check(S_HR) is None


class TestRightLiftObstruction:
    def test_products_leave_the_class(self):
        rng = random.Random(6)
        for _ in range(40):
            h = rand_hs_concentric_bank(rng)
            s = rand_admissible_step(rng, S_H)
            assert (h @ s.matrix()).classify().kind != "HS_CONCENTRIC"
