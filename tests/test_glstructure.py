import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftbank.errors import InvalidArgument, LiftbankError, NotAdmissible, NotIrreducible
from liftbank.glstructure import (HS_MINUS, HS_PLUS, S_H, S_HR, S_W, S_WR,
                                  WA_ZERO, base_admissible, cascade_in_structure,
                                  check_order_increasing, d_invariance_check,
                                  step_admissible, ws_radii)
from liftbank.laurent import LaurentPoly
from liftbank.lifting import LiftingCascade, LiftingStep, lower, scaling_matrix, upper
from liftbank.polyphase import IDENTITY, PolyphaseMatrix, haar_bank
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
    @pytest.mark.parametrize("spec", [HS_PLUS, HS_MINUS, WA_ZERO], ids=[
        "HS_ABOUT_PLUS_HALF", "HS_ABOUT_MINUS_HALF", "WA_ABOUT_ZERO"])
    def test_members_of_radius_k(self, spec):
        for k in range(1, 7):
            g = spec.basis(k)
            assert spec.member(g) and g.supprad() == k

    @pytest.mark.parametrize("k", [0, -3])
    def test_no_generator_below_one(self, k):
        with pytest.raises(InvalidArgument, match=f"got {k}"):
            HS_PLUS.basis(k)


@st.composite
def _symmetric_filters(draw):
    """A WS, HS, WA, HA, asymmetric or zero filter about an axis of -2..2
    in steps of 1/2; the asymmetric ones are sparse dicts."""
    kind = draw(st.sampled_from(["WS", "HS", "WA", "HA", "NONE", "ZERO"]))
    taps = st.sampled_from([1, -1, 2, F(1, 2), F(-3, 4)])
    if kind == "ZERO":
        return LaurentPoly.zero()
    if kind == "NONE":
        return LaurentPoly(draw(st.dictionaries(st.integers(-4, 4), taps, min_size=1,
                                                max_size=5)))
    two_axis = 2 * draw(st.integers(-2, 2)) + (kind[0] == "H")
    sign = -1 if kind[1] == "A" else 1
    coeffs = {}
    for j, v in enumerate(draw(st.lists(taps, min_size=1, max_size=4))):
        n = (two_axis + 1) // 2 + j
        if n != two_axis - n or sign == 1:
            coeffs[n], coeffs[two_axis - n] = v, sign * v
    return LaurentPoly(coeffs)


class TestMemberParity:
    """member compares integer numerators about 2 * axis; it must say what
    the symmetry tag says."""

    @settings(max_examples=200)
    @given(_symmetric_filters())
    def test_matches_symmetry_tag(self, f):
        for spec in (HS_PLUS, HS_MINUS, WA_ZERO):
            assert spec.member(f) == (f.is_zero() or f.symmetry() == spec.symmetry)


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

    def test_reversible_hs_base_is_dyadic(self):
        assert base_admissible(S_HR, haar_bank())
        scaled = scaling_matrix(3) @ haar_bank()
        assert base_admissible(S_H, scaled)
        assert not base_admissible(S_HR, scaled)

    def test_generated_bases(self):
        rng = random.Random(1)
        for _ in range(25):
            b = rand_equal_length_hs_base(rng)
            assert base_admissible(S_H, b)
            assert b.row0.support() == b.row1.support()


def row_support_admissible(g, b):
    """base_admissible with the row-support test of the uniqueness
    hypothesis spelled out."""
    if not g.hs_base:
        return b == IDENTITY
    if (g.reversible and not b.is_dyadic) or not b.is_unimodular:
        return False
    cls = b.classify()
    return (cls.kind == "HS_CONCENTRIC" and cls.equal_length_base
            and b.row0.support() == b.row1.support())


@st.composite
def bases(draw):
    """Equal-length HS bases as randgen draws them, perturbed copies of
    them (lifted, rescaled, one tap moved, rows swapped), and WS banks."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["base", "lift", "scale", "tap", "swap", "ws"]))
    if kind == "ws":
        return rand_ws_cascade(rng).product()
    b = rand_equal_length_hs_base(rng)
    if kind == "lift":
        return rand_hs_cascade(rng, n_steps=1, base=b).product()
    if kind == "scale":
        return scaling_matrix(draw(st.sampled_from([F(1, 2), 3, -2]))) @ b
    if kind == "tap":
        e = list(b.entries())
        i, n = draw(st.integers(0, 3)), draw(st.integers(-2, 2))
        e[i] = e[i] + LaurentPoly.monomial(n, draw(st.sampled_from([1, -1, F(1, 2)])))
        return PolyphaseMatrix.from_entries(*e)
    return PolyphaseMatrix(b.row1, b.row0) if kind == "swap" else b


class TestRowSupportImplied:
    """Concentric HS with equal-length filters already gives equal row
    supports, so base_admissible needs no row-support test."""

    @given(bases())
    def test_matches_row_support_predicate(self, b):
        for g in (S_W, S_WR, S_H, S_HR):
            assert base_admissible(g, b) == row_support_admissible(g, b)


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

    def test_trivial_scaling_restriction_hs(self):
        c = LiftingCascade(F(2), (), haar_bank())
        assert cascade_in_structure(S_H, c)
        assert not cascade_in_structure(S_HR, c)


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
        with pytest.raises(NotIrreducible):
            ws_radii(c)


def orders_from_products(c):
    """check_order_increasing from the multiplied-out partial products."""
    if not c.is_irreducible:
        raise NotIrreducible
    orders = [e.order() for e in c.intermediates()]
    return all(b > a for a, b in zip(orders, orders[1:])), orders


def radii_from_products(c):
    """ws_radii's measured radii and orders from the multiplied-out
    partial products' scalar filters."""
    if not c.is_irreducible:
        raise NotIrreducible
    if c.base != IDENTITY or not all(step_admissible(S_W, s) for s in c.steps):
        raise NotAdmissible
    out = []
    for e in c.intermediates()[1:]:
        rows = [e.scalar_filter(i) for i in (0, 1)]
        for i, f in enumerate(rows):
            if f.support() != (-f.supprad() - i, f.supprad() - i):
                raise NotAdmissible
        out.append((rows[0].supprad(), rows[1].supprad(), e.order()))
    return out


def measured_radii(c):
    return [(s.r0_measured, s.r1_measured, s.order) for s in ws_radii(c).steps]


def _outcome(fn, c):
    """fn(c), or the class of the LiftbankError it raises."""
    try:
        return fn(c)
    except LiftbankError as exc:
        return type(exc)


def small_polys(min_size):
    # Few taps on few indices, so that the ends of sums often meet and cancel.
    taps = st.sampled_from([1, -1, 2, -2, F(1, 2), F(-3, 4)])
    return st.dictionaries(st.integers(-1, 1), taps, min_size=min_size,
                           max_size=2).map(LaurentPoly)


@st.composite
def cascades(draw):
    """S_W and S_H cascades as randgen draws them, and alternating steps
    with small arbitrary taps over bases whose entries may be zero."""
    kind = draw(st.sampled_from(["ws", "hs", "any", "any"]))
    if kind != "any":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        return rand_ws_cascade(rng) if kind == "ws" else rand_hs_cascade(rng)
    base = PolyphaseMatrix.from_entries(*(draw(small_polys(0)) for _ in range(4)))
    m = draw(st.integers(0, 1))
    steps = []
    for f in draw(st.lists(small_polys(1), max_size=6)):
        steps.append(LiftingStep(m, f))
        m = 1 - m
    return LiftingCascade(F(1), tuple(steps), base)


class TestEndTapOrders:
    """The orders and radii read off the partial products' end taps are
    those of the multiplied-out products, errors included."""

    @settings(max_examples=200)     # about one in twelve cancels
    @given(cascades())
    def test_orders_match_products(self, c):
        assert _outcome(check_order_increasing, c) == _outcome(orders_from_products, c)

    @given(cascades())
    def test_radii_match_products(self, c):
        assert _outcome(measured_radii, c) == _outcome(radii_from_products, c)

    @pytest.fixture
    def multiplied(self, monkeypatch):
        """Counts the calls of LiftingCascade.intermediates."""
        calls = []
        real = LiftingCascade.intermediates
        monkeypatch.setattr(LiftingCascade, "intermediates",
                            lambda c: calls.append(c) or real(c))
        return calls

    def test_generated_cascades_multiply_nothing(self, multiplied):
        rng = random.Random(12)
        for _ in range(40):
            ws = rand_ws_cascade(rng)
            check_order_increasing(ws)
            ws_radii(ws)
            hs = rand_hs_cascade(rng)
            if len(hs):
                check_order_increasing(hs)
        assert multiplied == []

    def test_cancellation_multiplies_out(self, multiplied):
        from liftbank.cli import identity_cascade
        ok, orders = check_order_increasing(identity_cascade())
        assert len(multiplied) == 1 and not ok and orders[-1] == 0


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

    @pytest.mark.parametrize("g, trials", [(S_W, 0), (S_H, -5), (S_W, 2.5), (S_H, "3"),
                                           (S_W, None)])
    def test_no_trials_is_no_evidence(self, g, trials):
        with pytest.raises(InvalidArgument):
            d_invariance_check(g, trials=trials)

    def test_true_is_an_integer_trial_count(self):
        assert d_invariance_check(S_W, trials=True, seed=0) is True


class TestRightLiftObstruction:
    def test_products_leave_the_class(self):
        rng = random.Random(6)
        for _ in range(40):
            h = rand_hs_concentric_bank(rng)
            s = rand_admissible_step(rng, S_H)
            assert (h @ s.matrix()).classify().kind != "HS_CONCENTRIC"
