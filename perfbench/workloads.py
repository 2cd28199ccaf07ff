"""The benchmark's five workloads.

Each workload builds a seeded input pool in set-up, runs one op per
input, and checks the op's output after the timed region.  Inputs are
drawn with `liftbank.randgen`, multiplied out with
`LiftingCascade.product` and written with `formats.print_bank`; an op
sees only those inputs.  The expected results kept beside each input
are used by `check` alone.

Step counts, support radii, base widths, policies and signal lengths
cycle through their whole range in a fixed order instead of being drawn
at random, so every pool holds every case in the same proportion and two
seeds differ in coefficients, gains and signals.  That keeps the spread
between seeds small where op cost grows with the number of taps.
factor-euclid is the exception: its banks come from
`randgen.rand_ws_cascade` as drawn, so that the rare banks with wide
steps throughout, where coefficient swell is worst, stay in.
"""

from __future__ import annotations

import importlib
from array import array


class Workload:
    """One workload over a loaded liftbank; subclasses fill in the rest."""

    name = ""
    pool_size = 0
    samples_per_op = 0      # signal samples one op round-trips; 0 if none
    period = 1              # inputs after which the pool's mix of cases repeats

    def __init__(self, lb):
        self.randgen = importlib.import_module("liftbank.randgen")
        self.factor = lb.factor
        self.formats = lb.formats
        self.glstructure = lb.glstructure
        self.transform = lb.transform
        self.laurent = lb.laurent
        self.lifting = lb.lifting

    def steps(self, rng, n_steps, j, draw):
        """n_steps alternating steps from a random first channel; draw(m, t)
        gives the filter, with support radius t cycling through 1, 2, 3
        from offset j."""
        m = rng.randint(0, 1)
        out = []
        for i in range(n_steps):
            out.append(self.lifting.LiftingStep(m, draw(m, 1 + (j + i) % 3)))
            m = 1 - m
        return tuple(out)

    def ws_cascade(self, rng, n_steps, j, scale=1):
        """An S_W cascade over base I with dyadic HS filters."""
        hs_filter = self.randgen.rand_hs_filter
        return self.lifting.LiftingCascade(scale, self.steps(
            rng, n_steps, j, lambda m, t: hs_filter(rng, 1 - 2 * m, t)))

    def hs_cascade(self, rng, n_steps, j):
        """An S_H cascade over an equal-length base of width j % 3 whose
        lowpass DC response is nonzero, as DC normalization needs."""
        rg = self.randgen
        while True:
            base = rg.rand_equal_length_hs_base(rng, width=j % 3)
            if base.scalar_filter(0)(1) != 0:
                break
        return self.lifting.LiftingCascade(1, self.steps(
            rng, n_steps, j, lambda m, t: rg.rand_wa_filter(rng, t)), base)

    def random_gain(self, rng):
        """randgen's random S_W gain, +-2^a / 2^b with a, b in 0..3."""
        return self.randgen.rand_ws_cascade(rng, n_steps=0).scale

    def make_inputs(self, rng) -> list:
        return [self.make_input(rng, j) for j in range(self.pool_size)]

    def prepare(self, inp):
        """The op's argument for inp, built outside the timed region."""
        return inp

    def samples(self, inp) -> int:
        return self.samples_per_op


class FactorLP(Workload):
    """`liftbank factor` then `liftbank verify --order-increasing
    --structure`, alternating S_W and S_H bank text."""

    name = "factor-lp"
    pool_size = 130     # 65 S_W banks (13 step counts) + 65 S_H banks (5)
    period = 2

    def make_input(self, rng, j):
        k = j // 2
        if j % 2 == 0:
            gen = self.ws_cascade(rng, 4 + k % 13, k, self.random_gain(rng))
            return "ws", self.formats.print_bank(gen.product()), gen
        gen = self.hs_cascade(rng, 2 + k % 5, k)
        return "hs", self.formats.print_bank(gen.product()), self.factor.dc_normalize(gen)

    def op(self, inp):
        kind, text, _ = inp
        fm, gl = self.formats, self.glstructure
        h = fm.parse_bank(text)
        if kind == "ws":
            c = self.factor.factor_ws(h)
        else:
            c = self.factor.factor_hs(h, normalize_dc=True)
        reparsed = fm.parse_cascade(fm.print_cascade(c))
        increasing, _ = gl.check_order_increasing(reparsed)
        member = gl.cascade_in_structure(gl.S_W if kind == "ws" else gl.S_H, reparsed)
        return c, reparsed, increasing, member

    def check(self, inp, out):
        _, _, expected = inp
        c, reparsed, increasing, member = out
        return c == expected and reparsed == expected and increasing is True \
            and member is True


class FactorEuclid(Workload):
    """`factor_euclidean` on S_W bank text, alternating policy A and B."""

    name = "factor-euclid"
    pool_size = 280     # 7 step counts x 2 policies, 20 times
    period = 14

    def make_input(self, rng, j):
        gen = self.randgen.rand_ws_cascade(rng, n_steps=6 + j % 7)
        bank = gen.product()
        return self.formats.print_bank(bank), "AB"[j % 2], bank

    def op(self, inp):
        text, policy, _ = inp
        c = self.factor.factor_euclidean(self.formats.parse_bank(text), policy)
        return c, self.formats.print_cascade(c)

    def check(self, inp, out):
        _, _, bank = inp
        c, text = out
        return c.is_irreducible and c.product() == bank \
            and self.formats.parse_cascade(text) == c


class TransformExact(Workload):
    """`apply_analysis` then `apply_synthesis` on 1,024-sample integer
    signals, alternating dyadic S_W cascades with K != 1 and S_H cascades
    over an equal-length base."""

    name = "transform-exact"
    pool_size = 40      # 20 S_W cascades (5 step counts) + 20 S_H (5)
    period = 10
    samples_per_op = 1024

    def make_input(self, rng, j):
        k = j // 2
        if j % 2 == 0:
            gain = self.random_gain(rng)
            while gain == 1:
                gain = self.random_gain(rng)
            gen = self.ws_cascade(rng, 4 + k % 5, k, gain)
        else:
            gen = self.hs_cascade(rng, 2 + k % 5, k)
        x = self.randgen.rand_int_signal(rng, self.samples_per_op)
        return gen, self.laurent.LaurentPoly(x)

    def op(self, arg):
        c, x = arg
        tf = self.transform
        return tf.apply_synthesis(c, tf.apply_analysis(c, x))

    def check(self, inp, out):
        return out == inp[1]


class TransformReversible(Workload):
    """`reversible_analysis` then `reversible_synthesis` on integer
    signals through dyadic S_W cascades with K = 1; every 8th signal has
    131,072 samples, the rest 16,384."""

    name = "transform-reversible"
    pool_size = 40      # 5 step counts x 8 lengths: each long signal meets each step count
    period = 40         # op_p90_ms falls among the long signals: keep their mix whole

    def length(self, j):
        return 131072 if j % 8 == 7 else 16384

    def make_input(self, rng, j):
        gen = self.ws_cascade(rng, 4 + j % 5, j)
        x = self.randgen.rand_int_signal(rng, self.length(j))
        # Pooled as a packed array so that peak memory shows the op's
        # working set, not a pool of dicts.
        return gen, min(x), array("h", (x[k] for k in sorted(x)))

    def prepare(self, inp):
        c, start, values = inp
        return c, {start + i: v for i, v in enumerate(values)}

    def op(self, arg):
        c, x = arg
        tf = self.transform
        return tf.reversible_synthesis(c, tf.reversible_analysis(c, x))

    def check(self, inp, out):
        _, start, values = inp
        return out == {start + i: v for i, v in enumerate(values) if v}

    def samples(self, inp):
        return len(inp[2])


class TransformReversible1k(TransformReversible):
    """The same integer ladder on 1,024-sample signals.  Its working set
    stays in the private caches, so other tenants of a shared host move
    it far less than the 16k/131k signals of transform-reversible: this
    is the steady control for `laurent` changes."""

    name = "transform-reversible-1k"
    pool_size = 120     # 5 step counts x 3 radius offsets, 8 times
    period = 15

    def length(self, j):
        return 1024


WORKLOADS = {w.name: w for w in (FactorLP, FactorEuclid, TransformExact,
                                 TransformReversible, TransformReversible1k)}
