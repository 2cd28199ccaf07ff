import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftbank.errors import NotUnimodular
from liftbank.laurent import LaurentPoly
from liftbank.polyphase import (IDENTITY, J, L, LAMBDA, LAMBDA_INV, BankClass,
                                PolyphaseMatrix, PolyphaseVector,
                                analyze_filter, classify_bank, haar_bank,
                                make_bank, merge_signal, split_signal,
                                synthesize_filter)
from liftbank.randgen import (rand_equal_length_hs_base, rand_hs_cascade,
                              rand_hs_concentric_bank, rand_ws_cascade)

F = Fraction


def legall_bank():
    h0 = LaurentPoly({-2: F(-1, 8), -1: F(1, 4), 0: F(3, 4),
                      1: F(1, 4), 2: F(-1, 8)})
    h1 = LaurentPoly({-2: F(-1, 2), -1: 1, 0: F(-1, 2)})
    return make_bank(h0, h1)


def rand_poly(rng, lo=-2, hi=2):
    return LaurentPoly({n: F(rng.randint(-4, 4), rng.randint(1, 3))
                        for n in range(lo, hi + 1)})


def rand_matrix(rng):
    return PolyphaseMatrix.from_entries(*(rand_poly(rng) for _ in range(4)))


class TestConversions:
    def test_analyze_haar(self):
        v = analyze_filter(LaurentPoly({-1: F(1, 2), 0: F(1, 2)}))
        assert v.comp0 == LaurentPoly.constant(F(1, 2))
        assert v.comp1 == LaurentPoly.constant(F(1, 2))
        v = analyze_filter(LaurentPoly({-1: 1, 0: -1}))
        assert v.comp0 == LaurentPoly.constant(-1)
        assert v.comp1 == LaurentPoly.constant(1)

    def test_analyze_zero(self):
        v = analyze_filter(LaurentPoly.zero())
        assert v.is_zero()

    def test_synthesize_examples(self):
        v = PolyphaseVector(LaurentPoly.constant(F(1, 2)),
                            LaurentPoly.constant(F(1, 2)))
        assert synthesize_filter(v) == LaurentPoly({-1: F(1, 2), 0: F(1, 2)})
        assert synthesize_filter(PolyphaseVector(
            LaurentPoly.constant(1), LaurentPoly.zero())) == LaurentPoly.constant(1)
        # odd component at n=0 carries the z term
        assert synthesize_filter(PolyphaseVector(
            LaurentPoly.zero(), LaurentPoly.constant(1))) == LaurentPoly({-1: 1})

    def test_filter_round_trip(self):
        rng = random.Random(0)
        for _ in range(40):
            f = rand_poly(rng, -5, 5)
            assert synthesize_filter(analyze_filter(f)) == f

    def test_split_impulses(self):
        x0, x1 = split_signal(LaurentPoly({0: 1}))
        assert x0 == LaurentPoly({0: 1}) and x1.is_zero()
        x0, x1 = split_signal(LaurentPoly({1: 1}))
        assert x0.is_zero() and x1 == LaurentPoly({0: 1})

    def test_split_merge_round_trip(self):
        rng = random.Random(1)
        for _ in range(30):
            x = LaurentPoly({rng.randint(-20, 20) + i: F(rng.randint(-9, 9))
                             for i in range(16)})
            assert merge_signal(*split_signal(x)) == x


class TestMatrixAlgebra:
    def test_identity(self):
        assert IDENTITY @ haar_bank() == haar_bank()

    def test_lambda_inverse(self):
        assert LAMBDA @ LAMBDA_INV == IDENTITY

    def test_haar_product(self):
        # lower(-1) then upper(1/2), composed as matrices
        up = PolyphaseMatrix.from_entries(1, F(1, 2), 0, 1)
        lo = PolyphaseMatrix.from_entries(1, 0, -1, 1)
        assert up @ lo == haar_bank()

    def test_det_multiplicative(self):
        rng = random.Random(2)
        for _ in range(25):
            a, b = rand_matrix(rng), rand_matrix(rng)
            assert (a @ b).det() == a.det() * b.det()

    def test_det_info_delays_add(self):
        # monomial-determinant samples: step matrices times monomial diagonals
        from liftbank.lifting import upper, lower
        rng = random.Random(3)
        for _ in range(30):
            def sample():
                s = upper(rand_poly(rng)) if rng.random() < 0.5 else lower(rand_poly(rng))
                diag = PolyphaseMatrix.from_entries(
                    LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(1, 3)), 0,
                    0, LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(1, 3)))
                return s.matrix() @ diag
            a, b = sample(), sample()
            da, db, dab = a.det_info(), b.det_info(), (a @ b).det_info()
            assert da.monomial and db.monomial and dab.monomial
            assert dab.amplitude == da.amplitude * db.amplitude
            assert dab.delay == da.delay + db.delay


class TestDetInfo:
    def test_haar_unimodular(self):
        info = haar_bank().det_info()
        assert (info.amplitude, info.delay) == (1, 0)
        assert info.unimodular

    def test_lambda_delay(self):
        info = LAMBDA.det_info()
        assert (info.amplitude, info.delay) == (1, 1)
        assert not info.unimodular

    def test_singular(self):
        m = PolyphaseMatrix.from_entries(1, 1, 1, 1)
        assert not m.det_info().monomial


class TestInverse:
    def test_identity(self):
        assert IDENTITY.inverse() == IDENTITY

    def test_haar(self):
        inv = haar_bank().inverse()
        assert inv == PolyphaseMatrix.from_entries(1, F(-1, 2), 1, F(1, 2))
        assert haar_bank() @ inv == IDENTITY

    def test_singular_rejected(self):
        with pytest.raises(NotUnimodular):
            PolyphaseMatrix.from_entries(1, 1, 1, 1).inverse()


class TestClassify:
    def test_haar_is_hs_concentric(self):
        cls = classify_bank(haar_bank())
        assert cls.kind == "HS_CONCENTRIC"
        assert cls.equal_length_base
        assert (cls.d0, cls.d1) == (F(-1, 2), F(-1, 2))

    def test_lazy_bank(self):
        assert classify_bank(IDENTITY).kind == "WS_DELAY_MINIMIZED"

    def test_legall(self):
        cls = classify_bank(legall_bank())
        assert cls.kind == "WS_DELAY_MINIMIZED"
        assert (cls.d0, cls.d1) == (0, -1)
        assert legall_bank().is_unimodular

    def test_ws_rows_classify_scalar(self):
        h = legall_bank()
        assert h.scalar_filter(0).symmetry().kind == "WS"
        assert h.scalar_filter(0).symmetry().axis == 0
        assert h.scalar_filter(1).symmetry().axis == -1

    def test_delay_minimized_has_zero_det_delay(self):
        from liftbank.randgen import rand_ws_cascade
        rng = random.Random(4)
        for _ in range(20):
            h = rand_ws_cascade(rng).product()
            assert classify_bank(h).kind == "WS_DELAY_MINIMIZED"
            assert h.det_info().delay == 0

    def test_non_pr(self):
        assert classify_bank(
            PolyphaseMatrix.from_entries(1, 1, 1, 1)).kind == "NON_PR"


def reflect(h):
    """Entrywise z -> z^(-1)."""
    return PolyphaseMatrix.from_entries(*(e.reflect() for e in h.entries()))


def row_delay(reflected, target):
    """d with reflected = z^d * target (rowwise), by support alignment."""
    if reflected.is_zero() or target.is_zero():
        return None
    d = target.support()[0] - reflected.support()[0]
    shifted = (target.comp0.shift(-d), target.comp1.shift(-d))
    return d if shifted == (reflected.comp0, reflected.comp1) else None


def relation_classify(h):
    """Reference classifier from the polyphase intertwining relations,
    which classify_bank reads off the filter symmetries instead."""
    href = reflect(h)
    # Delay-minimized WS: H(1/z) = Lambda(z) H(z) Lambda(1/z).
    if href == LAMBDA @ h @ LAMBDA_INV:
        return BankClass("WS_DELAY_MINIMIZED", F(0), F(-1))
    # General WS: H(1/z) = diag(z^d0, z^d1) H(z) Lambda(1/z), rowwise.
    hl = h @ LAMBDA_INV
    d0, d1 = (row_delay(href.row(i), hl.row(i)) for i in (0, 1))
    if d0 is not None and d1 is not None:
        return BankClass("WS_GENERAL", F(d0), F(d1))
    # Concentric HS: H(1/z) = L H(z) J.
    if href == L @ h @ J:
        f0, f1 = h.scalar_filter(0), h.scalar_filter(1)
        return BankClass("HS_CONCENTRIC", F(-1, 2), F(-1, 2),
                         bool(f0 and f1) and f0.order() == f1.order())
    return BankClass("OTHER_PR" if h.det_info().monomial else "NON_PR")


def linear_phase_poly(rng):
    """A random WS, HS, WA or HA filter about a random axis."""
    p = rand_poly(rng, 0, rng.randint(0, 3))
    return p + p.reflect().shift(rng.randint(-4, 4)).scale(rng.choice([1, -1]))


def drawn_bank(rng):
    """A WS or HS product, a linear phase or random bank, with its rows
    then perhaps shifted, zeroed, replaced or swapped."""
    h = rng.choice([lambda: rand_ws_cascade(rng).product(),
                    lambda: rand_hs_cascade(rng).product(),
                    lambda: rand_hs_concentric_bank(rng),
                    lambda: make_bank(linear_phase_poly(rng), linear_phase_poly(rng)),
                    lambda: rand_matrix(rng)])()
    f = [h.scalar_filter(0), h.scalar_filter(1)]
    for i in (0, 1):
        f[i] = rng.choice([lambda g: g, lambda g: g,
                           lambda g: g.shift(rng.randint(-3, 3)),
                           lambda g: LaurentPoly.zero(),
                           lambda g: rand_poly(rng)])(f[i])
    if rng.random() < 0.2:
        f.reverse()
    return make_bank(*f)


class TestClassifyMatchesRelations:
    @pytest.mark.parametrize("h, kind", [
        (IDENTITY, "WS_DELAY_MINIMIZED"),
        (legall_bank(), "WS_DELAY_MINIMIZED"),
        (make_bank(legall_bank().scalar_filter(0).shift(2),
                   legall_bank().scalar_filter(1).shift(-3)), "WS_GENERAL"),
        (haar_bank(), "HS_CONCENTRIC"),
        (make_bank(LaurentPoly.zero(), haar_bank().scalar_filter(1)), "HS_CONCENTRIC"),
        (make_bank(haar_bank().scalar_filter(0).shift(2),
                   haar_bank().scalar_filter(1)), "OTHER_PR"),
        (PolyphaseMatrix.from_entries(1, 1, 1, 1), "NON_PR"),
    ])
    def test_examples(self, h, kind):
        assert classify_bank(h) == relation_classify(h)
        assert classify_bank(h).kind == kind

    @given(st.integers(0, 2 ** 32))
    def test_drawn_banks(self, seed):
        h = drawn_bank(random.Random(seed))
        assert classify_bank(h) == relation_classify(h)


class TestGroupClosure:
    def test_ws_closed_under_product_and_inverse(self):
        from liftbank.randgen import rand_ws_cascade
        rng = random.Random(5)
        for _ in range(25):
            a = rand_ws_cascade(rng).product()
            b = rand_ws_cascade(rng).product()
            assert classify_bank(a @ b).kind == "WS_DELAY_MINIMIZED"
            assert classify_bank(a.inverse()).kind == "WS_DELAY_MINIMIZED"

    def test_hs_not_closed(self):
        from liftbank.randgen import rand_hs_concentric_bank
        rng = random.Random(6)
        found = False
        for _ in range(40):
            a = rand_hs_concentric_bank(rng)
            b = rand_hs_concentric_bank(rng)
            if classify_bank(a @ b).kind != "HS_CONCENTRIC":
                found = True
                break
        assert found


@st.composite
def filter_pairs(draw):
    """(h0, h1): the filters of an S_W or S_H product, of an equal-length HS
    base, of an S_H product with one filter moved by an even delay (a
    monomial determinant off the class axes), or a random pair, often not
    PR, with one filter perhaps zero."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["ws", "hs", "base", "moved", "random"]))
    if kind == "random":
        f = [rand_poly(rng, -rng.randint(0, 4), rng.randint(0, 4)) for _ in (0, 1)]
        if draw(st.booleans()):
            f[draw(st.integers(0, 1))] = LaurentPoly.zero()
        return tuple(f)
    h = {"ws": lambda: rand_ws_cascade(rng).product(),
         "hs": lambda: rand_hs_cascade(rng).product(),
         "base": lambda: rand_equal_length_hs_base(rng),
         "moved": lambda: rand_hs_cascade(rng).product()}[kind]()
    f = [h.scalar_filter(0), h.scalar_filter(1)]
    if kind == "moved":
        i = draw(st.integers(0, 1))
        f[i] = f[i].shift(2 * draw(st.integers(-3, 3).filter(bool)))
    return tuple(f)


class TestFilterStorage:
    """A matrix is stored as its two scalar filters; what the rows said,
    the filters say the same."""

    @given(filter_pairs())
    def test_det_is_the_rows_det(self, f):
        h = make_bank(*f)
        a, b, c, d = h.entries()
        assert h.det() == a * d - b * c

    @given(filter_pairs())
    def test_make_bank_is_the_row_constructor(self, f):
        h = make_bank(*f)
        r = PolyphaseMatrix(analyze_filter(f[0]), analyze_filter(f[1]))
        assert h == r and hash(h) == hash(r)
        assert (h.row0, h.row1) == (r.row0, r.row1) == (analyze_filter(f[0]), analyze_filter(f[1]))
        assert (r.scalar_filter(0), r.scalar_filter(1)) == f

    @given(filter_pairs())
    def test_fallback_classes(self, f):
        """Off the WS and HS classes, a bank is OTHER_PR exactly when the
        rows' determinant is a monomial."""
        h = make_bank(*f)
        a, b, c, d = h.entries()
        det = a * d - b * c
        cls = classify_bank(h)
        if cls.kind in ("OTHER_PR", "NON_PR"):
            assert cls == BankClass("OTHER_PR" if det and det.order() == 0 else "NON_PR")
            assert cls == relation_classify(h)
