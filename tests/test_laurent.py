import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftbank.errors import EmptySupport, InvalidArgument
from liftbank.laurent import LaurentPoly, is_dyadic
from liftbank.polyphase import PolyphaseMatrix

F = Fraction


def rand_poly(rng, lo=-4, hi=4):
    return LaurentPoly({n: F(rng.randint(-5, 5), rng.randint(1, 4))
                        for n in range(lo, hi)})


class TestRingOps:
    def test_add_cancellation(self):
        a = LaurentPoly({0: 1, 1: 1})
        b = LaurentPoly({1: -1})
        assert a + b == LaurentPoly({0: 1})

    def test_product(self):
        # (1 + z)(1 - z) = 1 - z^2
        a = LaurentPoly({0: 1, -1: 1})
        b = LaurentPoly({0: 1, -1: -1})
        assert a * b == LaurentPoly({0: 1, -2: -1})

    def test_zero_annihilates(self):
        rng = random.Random(0)
        for _ in range(20):
            assert LaurentPoly.zero() * rand_poly(rng) == LaurentPoly.zero()

    def test_no_stored_zeros(self):
        rng = random.Random(1)
        for _ in range(50):
            f, g = rand_poly(rng), rand_poly(rng)
            for res in (f + g, f - g, f * g, -f, f.scale(F(3, 7))):
                assert all(v != 0 for _, v in res.items())

    def test_support_endpoints_nonzero(self):
        rng = random.Random(2)
        for _ in range(50):
            f = rand_poly(rng) * rand_poly(rng)
            if f:
                a, b = f.support()
                assert f.coeff(a) != 0 and f.coeff(b) != 0

    def test_order_additivity(self):
        rng = random.Random(3)
        for _ in range(50):
            f, g = rand_poly(rng), rand_poly(rng)
            if f and g:
                assert (f * g).order() == f.order() + g.order()

    def test_shift_is_delay(self):
        # multiplying by z^-1 moves the tap at 0 to 1
        assert LaurentPoly({0: 1}).shift(1) == LaurentPoly({1: 1})


class TestMeasures:
    def test_support_examples(self):
        assert LaurentPoly({0: 1, 3: 1}).support() == (0, 3)
        haar_low = LaurentPoly({-1: F(1, 2), 0: F(1, 2)})
        assert haar_low.support() == (-1, 0)

    def test_support_of_zero(self):
        with pytest.raises(EmptySupport):
            LaurentPoly.zero().support()

    def test_order_examples(self):
        assert LaurentPoly({0: 1, 3: 1}).order() == 3
        assert LaurentPoly.constant(5).order() == 0
        assert LaurentPoly({-1: 1, 0: -1}).order() == 1

    def test_supprad(self):
        assert LaurentPoly({-1: 1, 2: 1}).supprad() == 2
        assert LaurentPoly({0: 7}).supprad() == 0
        assert LaurentPoly({-2: 1, 1: 1}).supprad() == 2


class TestEvaluate:
    def test_haar_dc(self):
        h0 = LaurentPoly({-1: F(1, 2), 0: F(1, 2)})
        h1 = LaurentPoly({-1: 1, 0: -1})
        assert h0(1) == 1
        assert h1(1) == 0

    def test_at_two(self):
        f = LaurentPoly({-1: 1, 1: -1})  # z - z^-1
        assert f(2) == F(3, 2)

    def test_rejects_zero_point(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly.constant(1)(0)

    def test_far_index_at_unit_points(self):
        f = LaurentPoly({10 ** 12: 3, -10 ** 12 - 1: 1})
        assert f(1) == 4
        assert f(-1) == 2

    def test_large_power_within_bound(self):
        assert LaurentPoly({-1000: 1})(F(2, 3)) == F(2 ** 1000, 3 ** 1000)

    def test_unbounded_power_refused(self):
        t0 = time.perf_counter()
        with pytest.raises(InvalidArgument):
            LaurentPoly({10 ** 12: 1})(F(2, 3))
        assert time.perf_counter() - t0 < 1


class TestReflect:
    def test_examples(self):
        assert LaurentPoly({0: 1, 1: 1}).reflect() == LaurentPoly({0: 1, -1: 1})
        assert LaurentPoly.constant(3).reflect() == LaurentPoly.constant(3)
        f = LaurentPoly({-1: 1, 1: -1})
        assert f.reflect() == -f

    def test_involution(self):
        rng = random.Random(4)
        for _ in range(30):
            f = rand_poly(rng)
            assert f.reflect().reflect() == f


class TestSymmetry:
    def test_haar_filters(self):
        h0 = LaurentPoly({-1: F(1, 2), 0: F(1, 2)})
        tag = h0.symmetry()
        assert (tag.kind, tag.axis) == ("HS", F(-1, 2))
        h1 = LaurentPoly({-1: 1, 0: -1})
        tag = h1.symmetry()
        assert (tag.kind, tag.axis) == ("HA", F(-1, 2))

    def test_wa(self):
        tag = LaurentPoly({-1: 1, 1: -1}).symmetry()
        assert (tag.kind, tag.axis) == ("WA", 0)

    def test_ws(self):
        tag = LaurentPoly({-1: 1, 0: 5, 1: 1}).symmetry()
        assert (tag.kind, tag.axis) == ("WS", 0)

    def test_none(self):
        assert LaurentPoly({0: 1, 1: 2}).symmetry().kind == "NONE"

    def test_mirrored_halves_classify(self):
        # build filters by mirroring a random half about a chosen axis
        rng = random.Random(5)
        for _ in range(60):
            axis2 = rng.choice([-3, -1, 0, 1, 2, 4])  # twice the axis
            sign = rng.choice([1, -1])
            c = {}
            for k in range(1, rng.randint(2, 4)):
                v = F(rng.randint(1, 9))
                n = (axis2 + k) // 2 + k if axis2 % 2 else axis2 // 2 + k
                c[n] = v
                c[axis2 - n] = sign * v
            f = LaurentPoly(c)
            tag = f.symmetry()
            assert tag.axis == F(axis2, 2)
            if axis2 % 2 == 0:
                assert tag.kind == ("WS" if sign == 1 else "WA")
            else:
                assert tag.kind == ("HS" if sign == 1 else "HA")

    def test_reflect_negates_axis(self):
        f = LaurentPoly({0: 2, 1: 3, 2: 2})
        g = f.reflect()
        assert f.symmetry().kind == g.symmetry().kind
        assert f.symmetry().axis == -g.symmetry().axis


class TestDyadic:
    def test_predicate(self):
        assert is_dyadic(F(3, 8))
        assert is_dyadic(5)
        assert not is_dyadic(F(1, 3))

    def test_poly_flags(self):
        assert LaurentPoly({0: F(1, 4), 1: 2}).is_dyadic
        assert not LaurentPoly({0: F(1, 6)}).is_dyadic
        assert LaurentPoly({0: 3}).is_integer


class TestIndices:
    @pytest.mark.parametrize("n", [1.5, 2.0, "7", None, F(1, 2), F(2)])
    def test_non_integer_index_is_named(self, n):
        with pytest.raises(InvalidArgument, match=re.escape(f"index {n!r} is not an integer")):
            LaurentPoly({0: 1, n: 3})
        with pytest.raises(InvalidArgument):
            LaurentPoly([(n, 0)])

    @pytest.mark.parametrize("coeffs, got", [(5, "int 5"), ("ab", "str 'ab'"),
                                             ([(1, 2, 3)], "list [(1, 2, 3)]"),
                                             ([1, 2], "list [1, 2]")])
    def test_non_pairs_are_named(self, coeffs, got):
        with pytest.raises(InvalidArgument, match=re.escape(f"pairs, got {got}") + "$"):
            LaurentPoly(coeffs)

    def test_int_and_bool_indices_pass(self):
        p = LaurentPoly({True: 2, False: 1, 10 ** 30: -1})
        assert p == LaurentPoly({1: 2, 0: 1, 10 ** 30: -1})
        assert all(type(n) is int for n in p.indices())

    @pytest.mark.parametrize("k", [1.5, 2.0, "1", None, F(1, 2)], ids=repr)
    def test_shift_refuses_non_integers(self, k):
        with pytest.raises(InvalidArgument, match=re.escape(f"shift {k!r} is not an integer")):
            LaurentPoly({0: 1}).shift(k)

    def test_shift_takes_int_and_bool(self):
        p = LaurentPoly({0: 1, 2: F(1, 3)})
        assert p.shift(True) == p.shift(1) == LaurentPoly({1: 1, 3: F(1, 3)})
        assert all(type(n) is int for n in p.shift(True).indices())


class TestStr:
    def test_huge_rationals(self):
        # Past CPython's default 4,300-digit int/str limit.
        p = LaurentPoly({0: F(10 ** 5000 + 1, 3)})
        digits = "1" + "0" * 4999 + "1"
        assert str(p) == digits + "/3"
        assert digits + "/3" in str(PolyphaseMatrix.from_entries(p, 0, 0, 1))


# ---------------------------------------------------------------------------
# Reference model: a plain dict of nonzero Fractions, the storage the
# integer-numerator core replaced.  Every operation is checked against it.


def ref_clean(c):
    return {n: v for n, v in c.items() if v}


def ref_add(a, b, sign=1):
    c = dict(a)
    for n, v in b.items():
        c[n] = c.get(n, 0) + sign * v
    return ref_clean(c)


def ref_mul(a, b):
    c = {}
    for n, v in a.items():
        for m, w in b.items():
            c[n + m] = c.get(n + m, 0) + v * w
    return ref_clean(c)


def ref_symmetry(c):
    t = min(c) + max(c)
    if all(c.get(t - n) == v for n, v in c.items()):
        return ("WS" if t % 2 == 0 else "HS"), F(t, 2)
    if all(c.get(t - n) == -v for n, v in c.items()):
        return ("WA" if t % 2 == 0 else "HA"), F(t, 2)
    return "NONE", None


def ref_eval(c, z0):
    return sum((v * z0 ** -n for n, v in c.items()), F(0))


# Small numerators over mixed denominators; zeros are drawn too, and the
# constructor must drop them.  Gaps between indices reach 10^12.
coefficients = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]))
gaps = st.sampled_from([1, 1, 2, 3, 5, 10 ** 6, 10 ** 12])


@st.composite
def ref_polys(draw, max_terms=6):
    n = draw(st.integers(-3, 3)) * draw(st.sampled_from([1, 10 ** 12]))
    c = {}
    for _ in range(draw(st.integers(0, max_terms))):
        c[n] = draw(coefficients)
        n += draw(gaps)
    return c


@st.composite
def ref_pairs(draw):
    """(a, b) where b often cancels some or all of a, so sums hit zero."""
    a = draw(ref_polys())
    b = draw(ref_polys())
    keep = draw(st.sampled_from(["independent", "negated", "partial"]))
    if keep == "negated":
        b = {n: -v for n, v in a.items()}
    elif keep == "partial":
        b.update({n: -v for n, v in a.items() if draw(st.booleans())})
    return a, b


def check_matches(p, c):
    """p agrees with the reference dict c through the whole public API."""
    c = ref_clean(c)
    assert dict(p.items()) == c
    assert all(type(v) is Fraction for _, v in p.items())
    assert set(p.indices()) == set(c)
    for n in list(c) + [0, 1, -1]:
        got = p.coeff(n)
        assert type(got) is Fraction and got == c.get(n, 0)
    assert bool(p) == bool(c) and p.is_zero() == (not c)
    assert p == LaurentPoly(c) and hash(p) == hash(LaurentPoly(c))
    assert p == LaurentPoly(list(c.items()))
    assert p.is_integer == all(v.denominator == 1 for v in c.values())
    assert p.is_dyadic == all(is_dyadic(v) for v in c.values())
    assert p(1) == ref_eval(c, F(1)) and p(-1) == ref_eval(c, F(-1))
    if c:
        assert p.support() == (min(c), max(c))
        tag = p.symmetry()
        assert (tag.kind, tag.axis) == ref_symmetry(c)
        if max(map(abs, c)) < 100:
            assert p(F(2, 3)) == ref_eval(c, F(2, 3))
    else:
        with pytest.raises(EmptySupport):
            p.support()
    assert str(p) == str(LaurentPoly(c))


class TestAgainstReference:
    @given(ref_polys())
    def test_construct(self, a):
        check_matches(LaurentPoly(a), a)

    @given(st.lists(st.tuples(st.integers(-3, 3), coefficients), max_size=8))
    def test_construct_sums_repeated_indices(self, pairs):
        c = {}
        for n, v in pairs:
            c[n] = c.get(n, 0) + v
        check_matches(LaurentPoly(pairs), c)

    @given(ref_pairs())
    def test_add_sub(self, ab):
        a, b = ab
        p, q = LaurentPoly(a), LaurentPoly(b)
        check_matches(p + q, ref_add(a, b))
        check_matches(p - q, ref_add(a, b, -1))
        check_matches(p - p, {})

    @given(ref_pairs())
    def test_mul(self, ab):
        a, b = ab
        check_matches(LaurentPoly(a) * LaurentPoly(b), ref_mul(a, b))

    @given(ref_polys(), coefficients, st.integers(-10 ** 12, 10 ** 12))
    def test_unary(self, a, k, shift):
        p = LaurentPoly(a)
        check_matches(-p, {n: -v for n, v in a.items()})
        check_matches(p.scale(k), {n: k * v for n, v in a.items()})
        check_matches(k * p, {n: k * v for n, v in a.items()})
        check_matches(p * k, {n: k * v for n, v in a.items()})
        check_matches(p.shift(shift), {n + shift: v for n, v in a.items()})
        check_matches(p.reflect(), {-n: v for n, v in a.items()})

    @given(ref_pairs())
    def test_equal_iff_reference_equal(self, ab):
        a, b = ab
        p, q = LaurentPoly(a), LaurentPoly(b)
        assert (p == q) == (ref_clean(a) == ref_clean(b))
        # The same polynomial reached by another route hashes the same.
        r = (p + q) - q
        assert r == p and hash(r) == hash(p)


def test_huge_index_gap_stays_sparse():
    tracemalloc.start()
    try:
        f = LaurentPoly({0: 1, 10 ** 12: 1})
        g = LaurentPoly({0: 1, -10 ** 12: 1})
        h = f * g
        same = h == LaurentPoly({-10 ** 12: 1, 0: 2, 10 ** 12: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same
    assert h.order() == 2 * 10 ** 12 and len(h.indices()) == 3
    assert peak < 100_000
