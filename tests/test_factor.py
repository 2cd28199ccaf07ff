import hashlib
import random
import time
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liftbank import factor as factor_module
from liftbank.errors import (DCZero, FactorizationStuck, InvalidArgument, LiftbankError,
                             NotHSConcentric, NotIrreducible, NotUnimodular,
                             NotWSDelayMinimized)
from liftbank.factor import (_checked, _peel, _stuck, dc_normalize,
                             equivalent_mod_rescaling, factor_euclidean, factor_hs,
                             factor_ws, laurent_divmod)
from liftbank.formats import parse_bank, print_bank, print_cascade
from liftbank.glstructure import (HS_MINUS, HS_PLUS, S_H, S_W, WA_ZERO,
                                  cascade_in_structure, check_order_increasing)
from liftbank.laurent import ZERO, LaurentPoly, SymmetryTag
from liftbank.linsolve import solve_exact
from liftbank.lifting import (LiftingCascade, LiftingStep, lower, normalize_semidirect,
                              scaling_matrix, upper)
from liftbank.polyphase import (IDENTITY, PolyphaseMatrix, PolyphaseVector,
                                analyze_filter, classify_bank, haar_bank, make_bank,
                                synthesize_filter)
from liftbank.randgen import (rand_dyadic_ws_cascade, rand_hs_cascade,
                              rand_poly, rand_ws_cascade)

F = Fraction


def legall_bank():
    h0 = LaurentPoly({-2: F(-1, 8), -1: F(1, 4), 0: F(3, 4),
                      1: F(1, 4), 2: F(-1, 8)})
    h1 = LaurentPoly({-2: F(-1, 2), -1: 1, 0: F(-1, 2)})
    return make_bank(h0, h1)


def _sparse_polys(lo, hi, size):
    coeffs = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return st.dictionaries(st.integers(lo, hi), coeffs, min_size=1,
                           max_size=size).map(LaurentPoly)


def _window_divmod(num, den):
    """Reference division: with num on [a, b], solve for the q that puts
    num - q*den on each window [a + kills - t, b - t] and keep the first
    remainder of least (width, top degree)."""
    (a, b), (lo, hi) = num.support(), den.support()
    kills = b - a - (hi - lo) + 1
    if kills <= 0:
        return LaurentPoly.zero(), num
    q_idx = range(a - lo, a - lo + kills)
    best = None
    for t in range(kills + 1):
        outside = [n for n in range(a, b + 1) if not a + kills - t <= n <= b - t]
        sol = solve_exact([[den.coeff(n - j) for j in q_idx] for n in outside],
                          [num.coeff(n) for n in outside])
        q = LaurentPoly(dict(zip(q_idx, sol)))
        r = num - q * den
        key = (r.order() + 1, -r.support()[0]) if r else (0, 0)
        if best is None or key < best[0]:
            best = (key, q, r)
    return best[1], best[2]


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

    def test_rejects_non_polynomials(self):
        with pytest.raises(InvalidArgument, match="int"):
            laurent_divmod(1, 2)
        with pytest.raises(InvalidArgument, match="Fraction"):
            laurent_divmod(LaurentPoly.constant(1), F(1, 2))

    def test_narrowest_remainder_past_a_double_cancellation(self):
        # Cancelling the top tap z^-6 leaves z^-1 - 15/2 z^-3, already
        # shorter than den: a division that stops there never cancels the
        # bottom tap to reach the window [3, 5], and returns the width-3
        # remainder -2/3 z^-4 + 5 z^-6 of the window [4, 6] instead.
        num = LaurentPoly({1: 1, 3: -3, 6: 3})
        den = LaurentPoly({3: 3, 6: 2})
        q, r = laurent_divmod(num, den)
        assert q == LaurentPoly({-2: F(1, 3), 0: F(3, 2)})
        assert r == LaurentPoly({3: F(-15, 2), 4: F(-2, 3)})

    @given(_sparse_polys(-8, 8, 6), _sparse_polys(-4, 4, 4))
    def test_matches_window_reference(self, num, den):
        assert laurent_divmod(num, den) == _window_divmod(num, den)


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


@pytest.mark.parametrize("radius", [10 ** 6, 10 ** 9])
class TestWideSteps:
    """A step of support radius 10^6 or 10^9 is read off from its outer
    taps: the peel's cost follows the taps, not the order gap."""

    def check(self, factor, c):
        h = c.product()
        start = time.perf_counter()
        assert factor(h) == c
        assert time.perf_counter() - start < 1

    def test_ws(self, radius):
        self.check(factor_ws, LiftingCascade(F(1), (
            lower(HS_MINUS.basis(1)), upper(HS_PLUS.basis(radius).scale(F(1, 3))))))

    def test_hs_over_haar(self, radius):
        self.check(factor_hs, LiftingCascade(F(1), (
            lower(WA_ZERO.basis(1)), upper(WA_ZERO.basis(radius).scale(F(2, 5)))),
            haar_bank()))

    @pytest.mark.parametrize("policy", ["A", "B"])
    def test_euclidean(self, radius, policy):
        # Upper step first: on the lower-first order policy B finds steps
        # of radius + 1 taps each, so its cost follows the radius.
        self.check(lambda h: factor_euclidean(h, policy), LiftingCascade(F(1), (
            upper(HS_PLUS.basis(radius).scale(F(1, 3))), lower(HS_MINUS.basis(1)))))


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

    def test_unknown_policy(self):
        with pytest.raises(InvalidArgument, match="'C'"):
            factor_euclidean(haar_bank(), "C")


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


# ---------------------------------------------------------------------------
# The integer peel and the deferred determinant


def ref_peel(g, h, who, kind, error, what):
    """The LaurentPoly peel that factor._peel replaced, kept as its
    reference: each cancellation builds the generator, its upsampled
    column and the updated filter as LaurentPolys."""
    cls = classify_bank(h)
    if cls.kind != kind:
        raise error(f"{who} requires {what}")
    two_d = (int(2 * cls.d0), int(2 * cls.d1))
    e = [h.scalar_filter(0), h.scalar_filter(1)]
    peeled = []
    while True:
        spans = [f.support() for f in e]
        orders = [b - a for a, b in spans]
        for i, (a, b) in enumerate(spans):
            if a + b != two_d[i]:
                raise _stuck(g, i, orders, "support not centred at the group delay")
        if orders[0] == orders[1]:
            return LiftingCascade(F(1), tuple(reversed(peeled)), make_bank(*e))
        m = 0 if orders[0] > orders[1] else 1
        lifted, other, small = e[m], e[1 - m], orders[1 - m]
        spec = g.filter_spec(m)
        s = ZERO
        while lifted:
            i = lifted.support()[1]
            need = 2 * i - two_d[m] - small
            if need <= 0:
                break
            gk = spec.basis(max(1, (need // 2 + 1) // 2))
            if 2 * gk.order() != need:
                raise _stuck(g, m, orders, "no step of the filter group bridges the order gap")
            col = LaurentPoly._interleave(gk, ZERO) * other
            u = lifted.coeff(i) / col.coeff(i)
            s = s + gk.scale(u)
            lifted = lifted - col.scale(u)
        if lifted.is_zero() or lifted.order() > small:
            raise _stuck(g, m, orders, "peel did not reduce the order")
        e[m] = lifted
        peeled.append(LiftingStep(m, s))


PEELS = [(S_W, "factor_ws", "WS_DELAY_MINIMIZED", NotWSDelayMinimized,
          "a delay-minimized WS bank"),
         (S_H, "factor_hs", "HS_CONCENTRIC", NotHSConcentric, "a concentric HS bank")]
FACTORIZERS = [factor_ws, factor_hs, lambda h: factor_hs(h, normalize_dc=True)]


def _outcome(fn, *args):
    """fn(*args), or the type and message of the LiftbankError it raised;
    any other exception fails the test."""
    try:
        return fn(*args)
    except LiftbankError as exc:
        return type(exc), str(exc)


def _det_first(fn, h):
    """The reference contract: the determinant is checked before anything."""
    if not h.det_info().unimodular:
        raise NotUnimodular("requires a unimodular bank")
    return fn(h)


@st.composite
def _products(draw, wide=False):
    """The product of a random S_W or S_H cascade; with wide, one step
    may also carry a generator of support radius 4 to 10^6."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ws = draw(st.booleans())
    gen = rand_ws_cascade(rng) if ws else rand_hs_cascade(rng)
    if wide and gen.steps:
        j = draw(st.integers(0, len(gen.steps) - 1))
        s = gen.steps[j]
        spec = (S_W if ws else S_H).filter_spec(s.m)
        radius = draw(st.sampled_from([4, 9, 64, 10 ** 6]))
        weight = F(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
        steps = list(gen.steps)
        steps[j] = LiftingStep(s.m, s.filter + spec.basis(radius).scale(weight))
        gen = LiftingCascade(gen.scale, tuple(steps), gen.base)
    return gen.product()


@st.composite
def _perturbed(draw, bank):
    """bank with one row times c (det c), one row delayed by k (det
    z^-k), one filter zeroed (det 0), or a term of the same symmetry added
    to one filter, which keeps the bank's class."""
    rows = [bank.row0, bank.row1]
    r = draw(st.integers(0, 1))
    row = rows[r]
    how = draw(st.sampled_from(["scale", "delay", "zero", "term"]))
    if how == "scale":
        rows[r] = row * draw(st.sampled_from([F(2), F(-1), F(1, 3), F(-5, 2), F(4, 7)]))
    elif how == "delay":
        k = draw(st.integers(-3, 3).filter(bool))
        rows[r] = PolyphaseVector(row.comp0.shift(k), row.comp1.shift(k))
    elif how == "zero":
        rows[r] = PolyphaseVector(ZERO, ZERO)
    else:
        f = bank.scalar_filter(r)
        a, b = f.support()
        n = draw(st.integers(a - 4, b + 4))
        sign = -1 if f.symmetry().kind in ("WA", "HA") else 1
        u = F(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
        rows[r] = analyze_filter(f + LaurentPoly({n: u}) + LaurentPoly({a + b - n: sign * u}))
    return PolyphaseMatrix(*rows)


class TestIntegerPeel:
    @settings(max_examples=150)
    @given(st.data())
    def test_matches_laurent_peel(self, data):
        """The same peeled steps and base, or the same error and message,
        on products (with wide generators) and on perturbed banks."""
        h = data.draw(_products(wide=True))
        if data.draw(st.booleans()):
            h = data.draw(_perturbed(h))
        for g, *rest in PEELS:
            assert _outcome(_peel, g, h, *rest) == _outcome(ref_peel, g, h, *rest)


class TestHalfLiftBack:
    """The peel computes half of each lifted filter and mirrors it, which is
    exact because every partial product keeps its class's symmetry."""

    TAGS = {True: (SymmetryTag("WS", F(0)), SymmetryTag("WS", F(-1))),
            False: (SymmetryTag("HS", F(-1, 2)), SymmetryTag("HA", F(-1, 2)))}

    @settings(max_examples=100)
    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_partials_keep_their_symmetry(self, seed, ws):
        rng = random.Random(seed)
        h = (rand_ws_cascade(rng) if ws else rand_hs_cascade(rng)).product()
        c = factor_ws(h) if ws else factor_hs(h)
        for e in c.intermediates():     # multiplied out in full
            assert (e.h0.symmetry(), e.h1.symmetry()) == self.TAGS[ws]

    @settings(max_examples=100)
    @given(st.data())
    def test_perturbed_pair(self, data):
        """One symmetric pair of taps moved in one filter keeps the class:
        the bank is refused as not unimodular, or factors exactly."""
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        ws = data.draw(st.booleans())
        h = (rand_ws_cascade(rng) if ws else rand_hs_cascade(rng)).product()
        f = [h.h0, h.h1]
        i = data.draw(st.integers(0, 1))
        a, b = f[i].support()
        n = data.draw(st.integers(a - 2, b + 2))
        u = F(data.draw(st.integers(-3, 3).filter(bool)), data.draw(st.integers(1, 3)))
        f[i] = f[i] + LaurentPoly({n: u}) + LaurentPoly({a + b - n: u if ws or i == 0 else -u})
        p = make_bank(*f)
        assert classify_bank(p).kind == ("WS_DELAY_MINIMIZED" if ws else "HS_CONCENTRIC")
        try:
            c = factor_ws(p) if ws else factor_hs(p)
        except NotUnimodular:
            assert not p.det_info().unimodular
        else:
            assert c.product() == p


class TestDeferredDeterminant:
    """factor_ws and factor_hs check det h = 1 only on failure; every bank
    that is not unimodular still raises NotUnimodular, ahead of the class
    errors, and only LiftbankErrors escape."""

    @settings(max_examples=150)
    @given(st.data())
    def test_same_error_class_as_det_first(self, data):
        h = data.draw(_perturbed(data.draw(_products())))
        assume(not h.det_info().unimodular)
        for fn in FACTORIZERS:
            got, want = _outcome(fn, h), _outcome(_det_first, fn, h)
            assert got[0] is want[0] is NotUnimodular

    @pytest.mark.parametrize("h", [
        PolyphaseMatrix.from_entries(1, 0, 0, 0),        # zero highpass: EmptySupport
        PolyphaseMatrix.from_entries(2, 0, 0, 1),        # WS remainder not I
        make_bank(LaurentPoly({-1: 1, 1: 1}),            # WS remainder, 1 / 0
                  LaurentPoly({-2: 1, 0: 1})),
        make_bank(LaurentPoly({-1: 1, 1: 1}),            # peel cancels h0 to zero
                  LaurentPoly({-1: 1})),
        PolyphaseMatrix.from_entries(0, 0, 0, 0),
        PolyphaseMatrix.from_entries(F(1, 2), F(1, 2), 1, -1),  # Haar, det -1
    ])
    def test_named_cases(self, h):
        for fn in FACTORIZERS:
            with pytest.raises(NotUnimodular):
                fn(h)


# ---------------------------------------------------------------------------
# Kept scalar filters and the scalar-filter exit check


# The 5/3 ladder: lower(-1/2 (1 + z)), then upper(1/4 (1 + z^-1)).
TWO_STEP_WS = LiftingCascade(F(1), (lower(LaurentPoly({-1: F(-1, 2), 0: F(-1, 2)})),
                                    upper(LaurentPoly({0: F(1, 4), 1: F(1, 4)}))))


def _factor_for(c):
    return factor_ws if c.base == IDENTITY else lambda h: factor_hs(h, normalize_dc=True)


class TestBankUntouched:
    """A bank keeps its scalar filters; factoring it must not write into them."""

    def check(self, c):
        text = print_bank(c.product())
        h = parse_bank(text)
        assert _factor_for(c)(h) is not None
        assert h == parse_bank(text) and print_bank(h) == text
        for i in (0, 1):
            f = h.scalar_filter(i)
            assert f == synthesize_filter(h.row(i))
            assert 0 not in f._num.values()

    def test_two_step_ws(self):
        self.check(TWO_STEP_WS)

    def test_other_matrices_keep_nothing(self):
        """A product holds its two filters and no second copy of its taps:
        its rows are derived, not stored."""
        h = TWO_STEP_WS.product()
        assert [h.scalar_filter(0), h.scalar_filter(1)] == TWO_STEP_WS._product_filters()
        assert h.scalar_filter(0) == synthesize_filter(h.row0)
        assert [f.name for f in fields(h)] == ["h0", "h1"] and not hasattr(h, "__dict__")

    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_random(self, seed, ws):
        rng = random.Random(seed)
        self.check(rand_ws_cascade(rng) if ws else rand_hs_cascade(rng))


def _passes(c, h):
    try:
        return _checked(c, h) is c
    except FactorizationStuck:
        return False


class TestExitCheck:
    """The factorizers' exit check on scalar filters says what
    c.product() == h says, on products and on near misses."""

    @settings(max_examples=100)
    @given(st.data())
    def test_agrees_with_product(self, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        kind = data.draw(st.sampled_from(["ws", "hs", "euclid"]))
        if kind == "ws":
            c = rand_ws_cascade(rng)
        elif kind == "hs":
            c = rand_hs_cascade(rng)
        else:
            c = factor_euclidean(rand_ws_cascade(rng, rng.randint(1, 4)).product(),
                                 data.draw(st.sampled_from("AB")))
        h = c.product()
        assert _passes(c, h)
        how = data.draw(st.sampled_from(["tap", "gain", "swap", "base"]))
        if how == "tap":
            i = data.draw(st.integers(0, 1))
            f = h.scalar_filter(i)
            a, b = f.support()
            bump = LaurentPoly({data.draw(st.integers(a - 1, b + 1)): data.draw(
                st.sampled_from([1, -1]))})
            h = make_bank(*(f + bump if j == i else h.scalar_filter(j) for j in (0, 1)))
        elif how == "gain":
            c = LiftingCascade(-c.scale, c.steps, c.base)
        elif how == "swap" and len(c.steps) >= 2:
            i, j = data.draw(st.lists(st.integers(0, len(c.steps) - 1), min_size=2,
                                      max_size=2, unique=True))
            steps = list(c.steps)
            steps[i], steps[j] = steps[j], steps[i]
            c = LiftingCascade(c.scale, tuple(steps), c.base)
        elif how == "base":
            c = LiftingCascade(c.scale, c.steps, PolyphaseMatrix(c.base.row1, c.base.row0))
        assert _passes(c, h) == (c.product() == h)

    def test_wrong_weight_is_caught(self, monkeypatch):
        """A peel that records one generator's weight off by one still
        yields an S_W cascade; only the exit check can catch it."""
        peel = factor_module._peel

        def wrong(g, *args):
            c = peel(g, *args)
            s = c.steps[0]
            bad = LiftingStep(s.m, s.filter + g.filter_spec(s.m).basis(1))
            return LiftingCascade(c.scale, (bad,) + c.steps[1:], c.base)

        monkeypatch.setattr(factor_module, "_peel", wrong)
        with pytest.raises(FactorizationStuck, match="product check failed"):
            factor_ws(TWO_STEP_WS.product())


class TestPinnedOutputs:
    """What factor_ws and factor_hs(normalize_dc=True) print on 100 S_W and
    100 S_H randgen banks, pinned by its digest: a change that alters any
    output byte fails here."""

    DIGEST = "cac0f7584209904ebd485700fde7e5d2fda73235229cc8c250dc3b96985bd30c"

    def test_digest(self):
        digest = hashlib.sha256()
        for seed in range(100):
            rng = random.Random(seed)
            for c in (rand_ws_cascade(rng), rand_hs_cascade(rng)):
                digest.update(print_cascade(_factor_for(c)(c.product())).encode())
        assert digest.hexdigest() == self.DIGEST


class TestPinnedEuclidean:
    """What factor_euclidean prints under policies A and B on 60 S_W and
    S_H randgen banks, Haar, the identity and three monomial banks, pinned
    by its digest: the oracle is not unique, so its choices are pinned."""

    DIGEST = "9b1c98fd2f1a5ebbd48190001f17aafbdd64b9eaedc5042a91a37be70b0c199b"

    def test_digest(self):
        z = LaurentPoly.monomial(-1)
        banks = []
        for seed in range(30):
            rng = random.Random(seed)
            banks += [rand_ws_cascade(rng).product(), rand_hs_cascade(rng).product()]
        banks += [haar_bank(), IDENTITY, PolyphaseMatrix.diagonal(z, z.reflect()),
                  PolyphaseMatrix.diagonal(2, F(1, 2)),
                  PolyphaseMatrix.from_entries(0, z, -z.reflect(), 0)]
        digest = hashlib.sha256()
        for h in banks:
            for policy in ("A", "B"):
                digest.update(print_cascade(factor_euclidean(h, policy)).encode())
        assert digest.hexdigest() == self.DIGEST
