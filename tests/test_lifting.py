import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftbank.errors import BaseNotIdentity, InvalidArgument, NotIrreducible
from liftbank.factor import _rescale, equivalent_mod_rescaling
from liftbank.laurent import LaurentPoly, is_dyadic
from liftbank.lifting import (GroupWord, LiftingCascade, LiftingStep,
                              gamma_conjugate, invert_cascade, lower,
                              normalize_semidirect, reduce_to_irreducible,
                              reduce_word, scaling_matrix, upper, word_concat)
from liftbank.polyphase import IDENTITY, PolyphaseMatrix, haar_bank
from liftbank.randgen import rand_poly, rand_word

F = Fraction


def haar_scaled():
    return LiftingCascade(F(2), (upper(F(1)), lower(F(-1, 2))))


def haar_plain():
    return LiftingCascade(F(1), (lower(F(-1)), upper(F(1, 2))))


class TestStepMatrix:
    def test_upper(self):
        assert upper(F(1)).matrix() == PolyphaseMatrix.from_entries(1, 1, 0, 1)

    def test_lower(self):
        assert lower(F(-1, 2)).matrix() == PolyphaseMatrix.from_entries(
            1, 0, F(-1, 2), 1)

    def test_trivial(self):
        assert upper(LaurentPoly.zero()).matrix() == IDENTITY

    @pytest.mark.parametrize("m", [2, -1, 1.0])
    def test_characteristic_is_0_or_1(self, m):
        with pytest.raises(InvalidArgument, match=f"got {m}"):
            LiftingStep(m, LaurentPoly.constant(1))

    def test_always_unimodular(self):
        rng = random.Random(0)
        for _ in range(30):
            s = LiftingStep(rng.randint(0, 1), rand_poly(rng))
            assert s.matrix().is_unimodular
            assert scaling_matrix(F(rng.randint(1, 9), rng.randint(1, 9))).is_unimodular


# Core constructors refuse what they cannot hold at once, instead of
# failing later (a step's filter in product(), a parsed str scale).
@pytest.mark.parametrize("build", [
    lambda: LaurentPoly({0: "1/2"}),
    lambda: LaurentPoly({0: "x"}),
    lambda: LaurentPoly({0: 1, 1: None}),
    lambda: LaurentPoly([(0, float("nan"))]),
    lambda: LaurentPoly({0: float("inf")}),
    lambda: LaurentPoly({0: -float("inf")}),
    lambda: LiftingStep(0, F(1)),
    lambda: LiftingStep(1, {0: 1}),
    lambda: LiftingCascade("x"),
    lambda: LiftingCascade("1/2"),
    lambda: LiftingCascade(0.5),
    lambda: LiftingCascade(1, (upper(1), "step")),
    lambda: LiftingCascade(1, (), haar_bank().row0),
], ids=["coeff-str", "coeff-text", "coeff-none", "coeff-nan", "coeff-inf",
        "coeff-minus-inf", "step-fraction", "step-dict", "scale-text",
        "scale-ratio-text", "scale-float", "cascade-step-str", "base-row"])
def test_constructors_refuse_wrong_kinds(build):
    with pytest.raises(InvalidArgument):
        build()


# Every scalar argument goes through one reader: text is not a number,
# and None, NaN and the infinities are not finite ones.
SCALAR_CALLS = {
    "scale": lambda k: LaurentPoly({0: 1, 1: 3}).scale(k),
    "mul": lambda k: LaurentPoly({0: 1, 1: 3}) * k,
    "rmul": lambda k: k * LaurentPoly({0: 1, 1: 3}),
    "evaluate": lambda k: LaurentPoly({0: 1, 1: 3})(k),
    "scaling_matrix": lambda k: scaling_matrix(k),
    "gamma_conjugate": lambda k: gamma_conjugate(k, haar_bank()),
    "conjugate": lambda k: upper(1).conjugate(k),
    "normalize_semidirect": lambda k: normalize_semidirect([upper(1), k]),
    "is_dyadic": lambda k: is_dyadic(k),
}


@pytest.mark.parametrize("k", ["2", "1/2", None, float("nan"), float("inf")],
                         ids=["text", "ratio-text", "none", "nan", "inf"])
@pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
def test_scalars_must_be_finite_numbers(call, k):
    with pytest.raises(InvalidArgument, match="is not a finite number"):
        call(k)


@pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
def test_scalars_take_numbers(call):
    assert call(F(1, 2)) == call(0.5) and call(2) == call(F(2))


def test_constructors_take_numbers():
    assert LaurentPoly({0: 0.5, 1: F(1, 3), 2: 2, 3: True}) == \
        LaurentPoly({0: F(1, 2), 1: F(1, 3), 2: 2, 3: 1})
    assert LiftingCascade(2, (upper(1),)).scale == 2
    assert LiftingCascade(F(1, 2), (), haar_bank()).base == haar_bank()


class TestCascadeProduct:
    def test_haar_scaled(self):
        assert haar_scaled().product() == haar_bank()

    def test_haar_plain(self):
        assert haar_plain().product() == haar_bank()

    def test_identity_eight_steps(self):
        from liftbank.cli import identity_cascade
        assert identity_cascade().product() == IDENTITY

    def test_intermediates_haar(self):
        inter = haar_scaled().intermediates()
        assert inter == [IDENTITY,
                         PolyphaseMatrix.from_entries(1, 1, 0, 1),
                         PolyphaseMatrix.from_entries(1, 1, F(-1, 2), F(1, 2))]
        assert scaling_matrix(F(2)) @ inter[-1] == haar_scaled().product()

    def test_intermediates_empty(self):
        assert LiftingCascade().intermediates() == [IDENTITY]

    def test_intermediates_identity_cascade(self):
        from liftbank.cli import identity_cascade
        inter = identity_cascade().intermediates()
        assert len(inter) == 9
        assert inter[-1] == IDENTITY


# Cascades drawn freely: either characteristic at each step (so
# same-characteristic neighbours occur), zero filters, any nonzero gain and
# any base, singular ones included.
_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
_polys = st.dictionaries(st.integers(-3, 3), _rationals, max_size=4).map(LaurentPoly)
_steps = st.builds(LiftingStep, st.integers(0, 1), _polys)
_gains = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))
_bases = st.builds(PolyphaseMatrix.from_entries, _polys, _polys, _polys, _polys)
_cascades = st.builds(LiftingCascade, _gains, st.lists(_steps, max_size=8), _bases)


class TestLadderMatchesMatmul:
    """product() and intermediates() run the filter ladder; the 2x2 matrix
    product of the step matrices is the independent reference."""

    @given(_cascades)
    def test_product_and_partial_products(self, c):
        partial = [c.base]
        for s in c.steps:
            partial.append(s.matrix() @ partial[-1])
        assert c.intermediates() == partial
        assert c.product() == scaling_matrix(c.scale) @ partial[-1]


class TestRescale:
    """_rescale moves a gain alpha from the scale onto the base; the
    matrix product D_alpha B is the reference for the new base."""

    @given(_cascades, _gains, st.data())
    def test_rescale(self, c, alpha, data):
        out = _rescale(c, alpha)
        assert out.product() == c.product()
        assert out.base == scaling_matrix(alpha) @ c.base
        c = reduce_to_irreducible(c)
        out = _rescale(c, alpha)
        assert equivalent_mod_rescaling(c, out).alpha == alpha
        if c.steps:
            i = data.draw(st.integers(0, len(c) - 1))
            s = out.steps[i]
            n = data.draw(st.sampled_from(sorted(s.filter.indices())))
            steps = list(out.steps)
            steps[i] = LiftingStep(s.m, s.filter + LaurentPoly.monomial(n, s.filter.coeff(n)))
            changed = LiftingCascade(out.scale, steps, out.base)
            assert equivalent_mod_rescaling(c, changed) is None


class TestReduce:
    def test_same_characteristic_merge(self):
        s, t = rand_poly(random.Random(1)), rand_poly(random.Random(2))
        c = LiftingCascade(F(1), (LiftingStep(0, s), LiftingStep(0, t)))
        red = reduce_to_irreducible(c)
        assert red.steps == (LiftingStep(0, s + t),)

    def test_cancellation_through_zero_step(self):
        s = rand_poly(random.Random(3))
        c = LiftingCascade(F(1), (LiftingStep(0, s),
                                  LiftingStep(1, LaurentPoly.zero()),
                                  LiftingStep(0, -s)))
        assert reduce_to_irreducible(c).steps == ()

    def test_fixed_point(self):
        c = haar_scaled()
        assert reduce_to_irreducible(c) == c

    def test_product_preserved(self):
        rng = random.Random(4)
        for _ in range(30):
            steps = tuple(LiftingStep(rng.randint(0, 1), rand_poly(rng, -1, 1))
                          for _ in range(rng.randint(0, 6)))
            c = LiftingCascade(F(1), steps)
            assert reduce_to_irreducible(c).product() == c.product()


class TestGamma:
    def test_upper_scaling(self):
        s = LaurentPoly({0: 1, 1: 1})
        assert gamma_conjugate(2, upper(s).matrix()) == upper(s.scale(F(1, 4))).matrix()

    def test_lower_scaling(self):
        s = LaurentPoly({0: 1})
        assert gamma_conjugate(2, lower(s).matrix()) == lower(s.scale(4)).matrix()

    def test_diagonal_fixed(self):
        d = PolyphaseMatrix.diagonal(F(3), F(5))
        assert gamma_conjugate(7, d) == d

    def test_matches_conjugation(self):
        rng = random.Random(5)
        for _ in range(20):
            m = PolyphaseMatrix.from_entries(*(rand_poly(rng, -1, 1) for _ in range(4)))
            k = F(rng.randint(1, 9), rng.randint(1, 9))
            dk = scaling_matrix(k)
            assert gamma_conjugate(k, m) == dk @ m @ scaling_matrix(1 / k)

    def test_homomorphism(self):
        rng = random.Random(6)
        for _ in range(20):
            m = PolyphaseMatrix.from_entries(*(rand_poly(rng, -1, 1) for _ in range(4)))
            n = PolyphaseMatrix.from_entries(*(rand_poly(rng, -1, 1) for _ in range(4)))
            k = F(rng.randint(1, 9), rng.randint(1, 9))
            j = F(rng.randint(1, 9), rng.randint(1, 9))
            assert gamma_conjugate(k, gamma_conjugate(j, m)) == gamma_conjugate(k * j, m)
            assert gamma_conjugate(k, m @ n) == gamma_conjugate(k, m) @ gamma_conjugate(k, n)


class TestNormalizeSemidirect:
    def test_scale_after_step(self):
        s = rand_poly(random.Random(7))
        out = normalize_semidirect([upper(s), F(2)])
        assert out.scale == 2
        assert out.steps == (upper(s.scale(4)),)
        assert out.product() == upper(s).matrix() @ scaling_matrix(F(2))

    def test_scales_multiply(self):
        out = normalize_semidirect([F(2), F(3)])
        assert out.scale == 6 and out.steps == ()

    def test_already_normal(self):
        s = rand_poly(random.Random(8))
        out = normalize_semidirect([F(5), upper(s)])
        assert out.scale == 5 and out.steps == (upper(s),)

    @given(st.integers(0, 2 ** 32))
    def test_preserves_product_and_idempotent(self, seed):
        # A mixed word of steps and gains against the @ product of its factors.
        rng = random.Random(seed)
        word = []
        ref = IDENTITY
        for _ in range(rng.randint(0, 7)):
            if rng.random() < 0.3:
                k = F(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 5))
                word.append(k)
                ref = ref @ scaling_matrix(k)
            else:
                s = LiftingStep(rng.randint(0, 1), rand_poly(rng, -1, 1))
                word.append(s)
                ref = ref @ s.matrix()
        out = normalize_semidirect(word)
        assert out.is_irreducible
        assert out.product() == ref
        again = normalize_semidirect([out.scale] + [s for s in reversed(out.steps)])
        assert again == out


class TestInvert:
    def test_empty(self):
        c = LiftingCascade()
        assert invert_cascade(c) == c

    def test_single_step(self):
        s = rand_poly(random.Random(10))
        c = LiftingCascade(F(1), (upper(s),))
        assert invert_cascade(c).steps == (upper(-s),)

    def test_haar(self):
        c = haar_scaled()
        assert invert_cascade(c).product() @ c.product() == IDENTITY

    def test_base_must_be_identity(self):
        c = LiftingCascade(F(1), (), haar_bank())
        with pytest.raises(BaseNotIdentity):
            invert_cascade(c)


class TestWords:
    def test_rejects_unreduced(self):
        s = LaurentPoly.constant(1)
        with pytest.raises(NotIrreducible):
            GroupWord((upper(s), upper(s)))
        with pytest.raises(NotIrreducible):
            GroupWord((upper(LaurentPoly.zero()),))

    @given(st.integers(0, 2 ** 32))
    def test_inverse_cancels(self, seed):
        w = rand_word(random.Random(seed))
        assert word_concat(w, w.inverse()).is_empty()
        assert word_concat(w.inverse(), w).is_empty()
        assert w.inverse().matrix() @ w.matrix() == IDENTITY

    @given(st.integers(0, 2 ** 32))
    def test_identity(self, seed):
        w, e = rand_word(random.Random(seed)), GroupWord()
        assert word_concat(w, e) == w == word_concat(e, w)
        assert e.matrix() == IDENTITY

    def test_same_alphabet_merge(self):
        s, t = LaurentPoly({0: 1}), LaurentPoly({1: 2})
        assert word_concat(GroupWord((upper(s),)),
                           GroupWord((upper(t),))).letters == (upper(s + t),)
        assert word_concat(GroupWord((upper(s),)),
                           GroupWord((upper(-s),))).is_empty()

    def test_two_stage_boundary_reduction(self):
        s, t, r = (LaurentPoly({0: 2}), LaurentPoly({1: 3}), LaurentPoly({0: 5}))
        w1 = GroupWord((upper(s), lower(t)))
        w2 = GroupWord((lower(-t), upper(r)))
        w = word_concat(w1, w2)
        assert w.letters == (upper(s + r),)
        assert w.matrix() == w1.matrix() @ w2.matrix()
        assert word_concat(w1, GroupWord((lower(-t), upper(-s)))).is_empty()

    @given(st.integers(0, 2 ** 32))
    def test_associativity_and_homomorphism(self, seed):
        rng = random.Random(seed)
        w1, w2, w3 = rand_word(rng), rand_word(rng), rand_word(rng)
        assert word_concat(word_concat(w1, w2), w3) == \
            word_concat(w1, word_concat(w2, w3))
        assert word_concat(w1, w2).matrix() == w1.matrix() @ w2.matrix()
        assert w1 * w2 == word_concat(w1, w2)
        assert len(w1) == len(w1.letters) and len(w1 * w2) <= len(w1) + len(w2)

    def test_cascade_view_round_trip(self):
        rng = random.Random(13)
        for _ in range(20):
            w = rand_word(rng)
            c = w.cascade()
            assert c.product() == w.matrix()
            assert reduce_word(reversed(c.steps)) == w
