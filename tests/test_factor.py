import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from liftbank.errors import (DCZero, NotHSConcentric, NotIrreducible,
                             NotUnimodular, NotWSDelayMinimized)
from liftbank.factor import (dc_normalize, equivalent_mod_rescaling,
                             factor_euclidean, factor_hs, factor_ws,
                             laurent_divmod)
from liftbank.glstructure import S_H, S_W, cascade_in_structure, check_order_increasing
from liftbank.laurent import LaurentPoly
from liftbank.lifting import (LiftingCascade, lower, normalize_semidirect,
                              scaling_matrix, upper)
from liftbank.polyphase import IDENTITY, PolyphaseMatrix, haar_bank, make_bank
from liftbank.randgen import (rand_dyadic_ws_cascade, rand_hs_cascade,
                              rand_poly, rand_ws_cascade)

F = Fraction


def legall_bank():
    h0 = LaurentPoly({-2: F(-1, 8), -1: F(1, 4), 0: F(3, 4),
                      1: F(1, 4), 2: F(-1, 8)})
    h1 = LaurentPoly({-2: F(-1, 2), -1: 1, 0: F(-1, 2)})
    return make_bank(h0, h1)


class TestLaurentDivmod:
    def test_division_identity(self):
        rng = random.Random(0)
        for _ in range(60):
            num = rand_poly(rng, -3, 3)
            den = rand_poly(rng, -2, 2)
            q, r = laurent_divmod(num, den)
            assert num == q * den + r
            if r:
                assert r.order() < den.order()

    def test_exact_division(self):
        rng = random.Random(1)
        for _ in range(30):
            q0 = rand_poly(rng, -2, 2)
            den = rand_poly(rng, -2, 2)
            q, r = laurent_divmod(q0 * den, den)
            assert r.is_zero() and q == q0

    def test_zero_numerator(self):
        q, r = laurent_divmod(LaurentPoly.zero(), LaurentPoly.constant(3))
        assert q.is_zero() and r.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            laurent_divmod(LaurentPoly.constant(1), LaurentPoly.zero())


class TestFactorWS:
    def test_single_lifting_matrix(self):
        s = LaurentPoly({0: F(1, 2), 1: F(1, 2)})
        c = factor_ws(upper(s).matrix())
        assert c.scale == 1 and c.steps == (upper(s),) and c.base == IDENTITY

    def test_pure_scaling(self):
        c = factor_ws(scaling_matrix(F(3)))
        assert c.scale == 3 and c.steps == ()

    def test_legall(self):
        h = legall_bank()
        c = factor_ws(h)
        assert c.product() == h
        assert len(c) == 2
        assert cascade_in_structure(S_W, c)
        # cross-check against the generic algorithm
        assert factor_euclidean(h, policy="A").product() == h

    def test_round_trips(self):
        rng = random.Random(2)
        for _ in range(60):
            gen = rand_ws_cascade(rng)
            h = gen.product()
            c = factor_ws(h)
            assert c == normalize_semidirect(
                [gen.scale] + list(reversed(gen.steps)))
            assert c.product() == h
            assert check_order_increasing(c)[0] or not c.steps

    @given(st.integers(0, 2 ** 32))
    def test_recovers_random_cascade(self, seed):
        gen = rand_ws_cascade(random.Random(seed))
        assert factor_ws(gen.product()) == gen

    def test_reversible_closure(self):
        rng = random.Random(3)
        for _ in range(25):
            gen = rand_dyadic_ws_cascade(rng)
            c = factor_ws(gen.product())
            assert c.scale == 1 and c.is_dyadic

    def test_rejects_non_ws(self):
        with pytest.raises(NotWSDelayMinimized):
            factor_ws(haar_bank())

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            factor_ws(PolyphaseMatrix.from_entries(1, 1, 1, 1))


class TestFactorHS:
    def test_equal_length_terminates_immediately(self):
        c = factor_hs(haar_bank())
        assert c.steps == () and c.base == haar_bank() and c.scale == 1

    def test_single_wa_lift_of_haar(self):
        s = LaurentPoly({-1: 1, 1: -1})
        h = lower(s).matrix() @ haar_bank()
        c = factor_hs(h)
        assert c.steps == (lower(s),)
        assert c.base == haar_bank()

    def test_round_trips_mod_rescaling(self):
        rng = random.Random(4)
        for _ in range(50):
            gen = rand_hs_cascade(rng)
            h = gen.product()
            c = factor_hs(h)
            assert c.product() == h
            assert cascade_in_structure(S_H, c)
            assert equivalent_mod_rescaling(c, gen) is not None

    def test_dc_normalized_round_trips_exact(self):
        rng = random.Random(5)
        for _ in range(40):
            gen = rand_hs_cascade(rng)
            assert factor_hs(gen.product(), normalize_dc=True) == dc_normalize(gen)

    @given(st.integers(0, 2 ** 32))
    def test_recovers_random_cascade_dc_normalized(self, seed):
        gen = rand_hs_cascade(random.Random(seed))
        assume(gen.base.scalar_filter(0)(1) != 0)
        assert factor_hs(gen.product(), normalize_dc=True) == dc_normalize(gen)

    def test_dc_normalization_fixes_lowpass(self):
        rng = random.Random(6)
        for _ in range(20):
            c = factor_hs(rand_hs_cascade(rng).product(), normalize_dc=True)
            assert c.base.scalar_filter(0)(1) == 1

    def test_coset_bases_stay_distinct(self):
        rng = random.Random(7)
        hits = 0
        for _ in range(20):
            from liftbank.randgen import rand_equal_length_hs_base, rand_wa_filter
            b1 = rand_equal_length_hs_base(rng)
            b2 = rand_equal_length_hs_base(rng)
            s = lower(rand_wa_filter(rng))
            c1 = factor_hs(LiftingCascade(F(1), (s,), b1).product(), normalize_dc=True)
            c2 = factor_hs(LiftingCascade(F(1), (s,), b2).product(), normalize_dc=True)
            if dc_normalize(LiftingCascade(F(1), (), b1)).base != \
                    dc_normalize(LiftingCascade(F(1), (), b2)).base:
                hits += 1
                assert c1.base != c2.base
        assert hits > 0

    def test_dc_zero_reported(self):
        base = PolyphaseMatrix.from_entries(1, -1, 0, 1)  # lowpass 1 - z
        with pytest.raises(DCZero):
            dc_normalize(LiftingCascade(F(1), (), base))

    def test_rejects_non_hs(self):
        with pytest.raises(NotHSConcentric):
            factor_hs(legall_bank())

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            factor_hs(PolyphaseMatrix.from_entries(1, 1, 1, 1))


class TestFactorEuclidean:
    def test_identity(self):
        c = factor_euclidean(IDENTITY)
        assert c.steps == () and c.scale == 1

    def test_haar_policies_differ(self):
        a = factor_euclidean(haar_bank(), policy="A")
        b = factor_euclidean(haar_bank(), policy="B")
        assert a.product() == haar_bank() == b.product()
        assert a.is_irreducible and b.is_irreducible
        assert a != b

    def test_random_unimodular(self):
        rng = random.Random(8)
        for _ in range(40):
            gen = rand_ws_cascade(rng) if rng.random() < 0.5 else rand_hs_cascade(rng)
            h = gen.product()
            for policy in ("A", "B"):
                assert factor_euclidean(h, policy).product() == h

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            factor_euclidean(PolyphaseMatrix.from_entries(1, 1, 1, 1))


class TestEquivalence:
    def test_self(self):
        c = rand_ws_cascade(random.Random(9))
        w = equivalent_mod_rescaling(c, c)
        assert w is not None and w.alpha == 1

    def test_constructed_witness(self):
        c = rand_hs_cascade(random.Random(10))
        rescaled = LiftingCascade(c.scale / 2,
                                  tuple(s.conjugate(2) for s in c.steps),
                                  scaling_matrix(2) @ c.base)
        assert rescaled.product() == c.product()
        w = equivalent_mod_rescaling(c, rescaled)
        assert w is not None and w.alpha == 2

    def test_haar_factorizations_not_equivalent(self):
        a = LiftingCascade(F(2), (upper(F(1)), lower(F(-1, 2))))
        b = LiftingCascade(F(1), (lower(F(-1)), upper(F(1, 2))))
        assert equivalent_mod_rescaling(a, b) is None

    def test_requires_irreducible(self):
        c = LiftingCascade(F(1), (upper(F(1)), upper(F(1))))
        with pytest.raises(NotIrreducible):
            equivalent_mod_rescaling(c, c)
