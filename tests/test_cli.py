import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftbank.cli import main
from liftbank.errors import DuplicateTap, ParseError, ZeroTap
from liftbank.formats import parse_bank, parse_cascade, print_bank, print_cascade
from liftbank.laurent import LaurentPoly, _int_str, _str_int
from liftbank.lifting import LiftingCascade, LiftingStep, lower, upper
from liftbank.polyphase import haar_bank, make_bank
from liftbank.randgen import rand_hs_cascade, rand_ws_cascade

F = Fraction

HAAR_BANK = """\
bank haar
h0:
tap -1 1/2
tap 0 1/2
h1:
tap -1 1
tap 0 -1
"""


class TestBankFormat:
    def test_parse_haar(self):
        assert parse_bank(HAAR_BANK) == haar_bank()

    def test_comments_and_blanks(self):
        text = "# a comment\n\nh0:\ntap 0 1  # trailing\n\nh1:\ntap 0 1\n"
        parse_bank(text)

    def test_zero_tap_rejected(self):
        with pytest.raises(ZeroTap):
            parse_bank("h0:\ntap 0 0/1\nh1:\ntap 0 1\n")

    def test_duplicate_tap_rejected(self):
        with pytest.raises(DuplicateTap):
            parse_bank("h0:\ntap 0 1\ntap 0 2\nh1:\ntap 0 1\n")

    def test_bad_rational(self):
        with pytest.raises(ParseError) as e:
            parse_bank("h0:\ntap 0 one\nh1:\ntap 0 1\n")
        assert e.value.line == 2

    def test_missing_section(self):
        with pytest.raises(ParseError):
            parse_bank("h0:\ntap 0 1\n")

    def test_print_parse_byte_identical(self):
        canonical = print_bank(haar_bank(), name="haar")
        assert print_bank(parse_bank(canonical), name="haar") == canonical

    @given(st.integers(0, 2 ** 32))
    def test_random_round_trips(self, seed):
        h = rand_hs_cascade(random.Random(seed)).product()
        assert parse_bank(print_bank(h)) == h


class TestCascadeFormat:
    @given(st.integers(0, 2 ** 32))
    def test_round_trips(self, seed):
        rng = random.Random(seed)
        c = rand_ws_cascade(rng) if rng.random() < 0.5 else rand_hs_cascade(rng)
        text = print_cascade(c)
        assert parse_cascade(text) == c
        assert print_cascade(parse_cascade(text)) == text

    def test_scale_must_lead(self):
        with pytest.raises(ParseError):
            parse_cascade("step U\ntap 0 1\nscale 2\n")

    def test_scale_only_once(self):
        with pytest.raises(ParseError, match="scale must come once") as e:
            parse_cascade("scale 2\nscale 3\nstep U\ntap 0 1\n")
        assert e.value.line == 2

    def test_tap_needs_step(self):
        with pytest.raises(ParseError):
            parse_cascade("tap 0 1\n")

    @pytest.mark.parametrize("text, line", [("step U\nstep L\ntap 0 1\n", 1),
                                            ("step U\ntap 0 1\nstep L\n", 3)])
    def test_empty_step_rejected(self, text, line):
        with pytest.raises(ParseError, match="has no taps") as e:
            parse_cascade(text)
        assert e.value.line == line

    def test_empty_base_rejected(self):
        with pytest.raises(ParseError, match="needs both h0: and h1:") as e:
            parse_cascade("step U\ntap 0 1\nbase:\n")
        assert e.value.line == 3


# A keyword followed by more letters is not that keyword, and a `bank`
# header comes at most once, before a bank's (or a base block's) sections.
@pytest.mark.parametrize("parse, text, line", [
    (parse_cascade, "scalez 2\nstep U\ntap 0 1\n", 1),
    (parse_cascade, "step U\ntap 0 1\nstepper U\ntap 0 1\n", 3),
    (parse_bank, "h0:\ntapioca 0 1\nh1:\ntap 0 1\n", 2),
    (parse_bank, "bankrupt\nh0:\ntap 0 1\nh1:\ntap 0 1\n", 1),
    (parse_cascade, "step U\ntapx 0 1\n", 2),
    (parse_cascade, "step U\ntap 0 1\n# base\nbase:\nbankrupt\nh0:\ntap 0 1\n", 5),
    (parse_bank, "h0:\ntap 0 1\nbank x\nh1:\ntap 0 1\n", 3),
    (parse_bank, "bank a\nbank b\nh0:\ntap 0 1\nh1:\ntap 0 1\n", 2),
    (parse_bank, "h0:\ntap 0 1\nh1:\ntap 0 1\nbank late\n", 5),
    (parse_cascade, "step U\ntap 0 1\nbase:\nh0:\ntap 0 1\nbank mid\nh1:\ntap 0 1\n", 6),
])
def test_keywords_match_whole_token(parse, text, line):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.line == line


# Numbers are `p` or `p/q` in decimal digits.  Exponents, decimals and
# digit separators are refused at once: `1e10000000` would otherwise build
# a ten-million-digit integer.
@pytest.mark.parametrize("tok", ["1e10000000", "0.5", "1_0"])
@pytest.mark.parametrize("parse, template, line", [
    (parse_bank, "h0:\ntap 0 {}\nh1:\ntap 0 1\n", 2),
    (parse_cascade, "scale {}\nstep U\ntap 0 1\n", 1),
])
def test_numbers_are_p_or_p_over_q(parse, template, line, tok):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="bad rational") as e:
        parse(template.format(tok))
    assert time.perf_counter() - start < 1
    assert e.value.line == line


# Tap indices follow the same digit rule: `[+-]?[0-9]+` and nothing else,
# so no digit separator, Arabic-Indic 3 or fullwidth 1.
@pytest.mark.parametrize("tok", ["1_0", "\u0663", "\uff11"])
@pytest.mark.parametrize("parse, template, line", [
    (parse_bank, "h0:\ntap {} 1\nh1:\ntap 0 1\n", 2),
    (parse_cascade, "step U\ntap 0 1\nbase:\nh0:\ntap {} 1\nh1:\ntap 0 1\n", 5),
])
def test_tap_indices_are_ascii_integers(parse, template, line, tok):
    with pytest.raises(ParseError, match="bad tap index") as e:
        parse(template.format(tok))
    assert e.value.line == line


# An error echoes at most a prefix of a long token, with its length.
@pytest.mark.parametrize("text, what, line", [
    ("h0:\ntap {} 1\nh1:\ntap 0 1\n", "bad tap index", 2),
    ("h0:\ntap 0 {}x\nh1:\ntap 0 1\n", "bad rational", 2),
    ("h0:\ntap 0 1\n{}\n", "unrecognized line", 3),
], ids=["index", "rational", "line"])
def test_long_tokens_clipped_in_errors(text, what, line):
    with pytest.raises(ParseError, match=what) as e:
        parse_bank(text.format("9" * 10**6))
    assert len(str(e.value)) < 200 and e.value.line == line


@pytest.mark.parametrize("parse, text", [
    (parse_bank, "# c\n\n bank  x y\n\nh0:\ntap 0 1\nh1:\ntap 0 1\n"),
    (parse_cascade, "step U\ntap 0 1\nbase:\nbank b\nh0:\ntap 0 1\nh1:\ntap 0 1\n"),
])
def test_bank_header_before_the_sections(parse, text):
    assert parse(text) == parse(text.replace("bank", "# bank"))


def test_signed_and_padded_tap_indices():
    h0 = parse_bank("h0:\ntap +3 1\ntap -2 1\ntap 007 1\nh1:\ntap 0 1\n").scalar_filter(0)
    assert h0 == LaurentPoly({3: 1, -2: 1, 7: 1})


def ref_rational(tok, line):
    """A number token read through Fraction, as the parser once did."""
    m = re.fullmatch(r"([+-]?)([0-9]+)(?:/([0-9]+))?", tok)
    if m is None:
        raise ParseError("bad rational", line=line)
    sign, p, q = m.groups()
    try:
        v = F(_str_int(p), _str_int(q) if q else 1)
    except ZeroDivisionError:
        raise ParseError("bad rational", line=line) from None
    return -v if sign == "-" else v


def ref_filter(taps, first_line):
    """The filter of (index, token) tap lines numbered from first_line,
    one Fraction per tap."""
    coeffs = {}
    for line, (n, tok) in enumerate(taps, start=first_line):
        v = ref_rational(tok, line)
        if n in coeffs:
            raise DuplicateTap("listed twice", line=line)
        if v == 0:
            raise ZeroTap("zero", line=line)
        coeffs[n] = v
    return LaurentPoly(coeffs)


_NUMBERS = st.one_of(
    st.sampled_from(["2/4", "+3", "007", "-0", "1/0", "0/7", "-6/9", "+12/-3", "x",
                     "1" * 4301, "-" + "3" * 4400 + "/" + "6" * 4305, "0" * 4301 + "5",
                     "3/" + "0" * 4400, "9" * 512, "9" * 513, "1/" + "0" * 600 + "7"]),
    st.builds("{}{}/{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 40),
              st.integers(0, 12)),
    st.builds("{}{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 40)))


@st.composite
def _tap_lines(draw):
    """Tap lines as (index, index token, number token); the small index
    range makes duplicates common, also between `-0`, `+0` and `000`."""
    out = []
    for n in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6)):
        sign = "-" if n < 0 else draw(st.sampled_from(["", "+", "-"]) if n == 0 else
                                      st.sampled_from(["", "+"]))
        pad = draw(st.sampled_from(["", "00"]))
        out.append((n, f"{sign}{pad}{abs(n)}", draw(_NUMBERS)))
    return out


def _outcome(fn):
    """fn(), or the class and line of the ParseError it raised."""
    try:
        return fn()
    except ParseError as exc:
        return type(exc), exc.line


def _block(taps):
    return "".join(f"tap {tok} {num}\n" for _, tok, num in taps)


class TestIntegerTapParsing:
    """parse_bank and parse_cascade read taps as integer pairs; a reader
    that makes one Fraction per tap gives the same filters, or the same
    error class at the same line."""

    @given(_tap_lines(), _tap_lines())
    def test_bank_matches_fraction_reader(self, h0, h1):
        text = "h0:\n" + _block(h0) + "h1:\n" + _block(h1)
        taps0, taps1 = [(n, v) for n, _, v in h0], [(n, v) for n, _, v in h1]
        want = _outcome(lambda: make_bank(ref_filter(taps0, 2),
                                          ref_filter(taps1, len(h0) + 3)))
        assert _outcome(lambda: parse_bank(text)) == want

    @given(_NUMBERS, _tap_lines(), _tap_lines())
    def test_cascade_matches_fraction_reader(self, scale, s0, s1):
        text = f"scale {scale}\nstep U\n" + _block(s0) + "step L\n" + _block(s1)

        def ref():
            k = ref_rational(scale, 1)
            if k == 0:
                raise ParseError("scale must be nonzero", line=1)
            f0 = ref_filter([(n, v) for n, _, v in s0], 3)
            f1 = ref_filter([(n, v) for n, _, v in s1], len(s0) + 4)
            return LiftingCascade(k, (LiftingStep(0, f0), LiftingStep(1, f1)))
        assert _outcome(lambda: parse_cascade(text)) == _outcome(ref)


class TestHugeRationals:
    """Integers past CPython's default 4,300-digit int/str limit."""

    def test_conversions_exact(self):
        for n in (10 ** 5000, -(10 ** 5000) + 1, 7 ** 6000, 0, -12):
            digits = _int_str(n)
            assert _str_int(digits.lstrip("-")) * (-1 if n < 0 else 1) == n
        assert _int_str(10 ** 5000) == "1" + "0" * 5000
        assert _int_str(10 ** 5000 - 1) == "9" * 5000

    def test_million_digit_tap_in_time(self):
        """Text conversion is not quadratic in the digits: a 10^6-digit tap
        is read and printed back in under 2 s each way, the same string,
        with the process-wide digit limit untouched."""
        rng = random.Random(7)
        digits = rng.choice("123456789") + "".join(rng.choices("0123456789", k=10 ** 6 - 1))
        text = f"step U\ntap 0 -{digits}\n"
        limit = sys.get_int_max_str_digits()
        t0 = time.perf_counter()
        c = parse_cascade(text)
        t1 = time.perf_counter()
        out = print_cascade(c)
        t2 = time.perf_counter()
        assert out == text and sys.get_int_max_str_digits() == limit
        assert t1 - t0 < 2 and t2 - t1 < 2, (t1 - t0, t2 - t1)

    def test_cascade_round_trip(self):
        big = F(3 ** 10480 + 1, 2 ** 16610)   # 5,001 digits over 5,001 digits
        c = LiftingCascade(big, (upper(LaurentPoly({0: big, 1: -1})),
                                 lower(F(-1, 2))))
        text = print_cascade(c)
        assert len(text) > 10_000
        assert parse_cascade(text) == c
        assert print_cascade(parse_cascade(text)) == text


def _drawn_file(seed):
    """(parse, printed text, value) for a random bank or cascade."""
    rng = random.Random(seed)
    c = rand_ws_cascade(rng) if rng.random() < 0.5 else rand_hs_cascade(rng)
    if rng.random() < 0.5:
        return parse_bank, print_bank(c.product()), c.product()
    return parse_cascade, print_cascade(c), c


def _decorated(text, rng):
    """text with comments, blank lines, runs of spaces and tabs, `+` signs
    and a choice of line end put in, none of which changes what it says."""
    out = []
    for line in text.splitlines():
        words = line.split(" ")
        words[1:] = [("+" if w[0].isdigit() and rng.random() < 0.5 else "") + w
                     for w in words[1:]]
        out.append(rng.choice(["", " ", "\t"]) + rng.choice([" ", "\t", "  ", " \t "]).join(words)
                   + rng.choice(["", " ", "\t", " # tap 0 1", "#"]))
        if rng.random() < 0.3:
            out.append(rng.choice(["", "  ", "# step U", "\t# h1:"]))
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(out) + rng.choice([eol, ""])


class TestLineReader:
    """The reader takes what the printers write, decorated or not, and
    reports a bad line at its number, in time linear in the file."""

    @given(st.integers(0, 2 ** 32))
    def test_decorated_round_trips(self, seed):
        parse, text, value = _drawn_file(seed)
        text = _decorated(text, random.Random(seed))
        assert parse(text) == value

    @given(st.data())
    def test_corrupted_line_is_reported_there(self, data):
        parse, text, _ = _drawn_file(data.draw(st.integers(0, 2 ** 32)))
        lines = text.splitlines()
        k = data.draw(st.integers(0, len(lines) - 1))
        how = data.draw(st.sampled_from(["suffix", "zero", "index", "repeat"]))
        words = lines[k].split(" ")
        if words[0] != "tap" or how == "suffix":
            lines[k] += " @"                        # one word too many, or not a keyword
        elif how == "zero":
            lines[k] = f"tap {words[1]} 0"
        elif how == "index":
            lines[k] = f"tap \u0663 {words[2]}"     # an Arabic-Indic 3
        else:
            lines.insert(k, lines[k])               # DuplicateTap on the copy
            k += 1
        text = "\n".join(lines) + "\n"
        got = _outcome(lambda: parse(text))
        assert isinstance(got, tuple) and got[1] == k + 1

    # str.splitlines, and so the line reader, also ends a line at these.
    @pytest.mark.parametrize("brk", ["\r", "\v", "\f", "\x1c", "\x85", "\u2028"])
    @pytest.mark.parametrize("parse, template, line", [
        (parse_bank, "bank x{}h0:\nh0:\ntap 0 1\nh1:\n", 3),
        (parse_bank, "h0:\ntap 0 1 # x{}h1:\nh1:\n", 4),
        (parse_cascade, "step U\ntap 0 1 #{}tap 0 2\n", 3),
    ])
    def test_line_breaks_in_comments_end_the_line(self, parse, template, line, brk):
        text = template.format(brk)
        got = _outcome(lambda: parse(text))
        assert isinstance(got, tuple) and got[1] == line

    # A bad last line is found in time linear in the file: no pattern spans
    # more than one line, so a mismatch never retries the lines before it.
    @pytest.mark.parametrize("n", [8, 1000])
    @pytest.mark.parametrize("last", ["tap x 1", "step U", "tap 0 " + "7" * 600],
                             ids=["index", "keyword", "long-number"])
    def test_late_mismatch_costs_linear_time(self, last, n):
        taps = "".join(f"tap {i} {'3' * 40}/{'7' * 40}\n" for i in range(n))
        text = f"h0:\n{taps}h1:\n{taps}{last}\n"
        start = time.perf_counter()
        with pytest.raises(ParseError) as e:
            parse_bank(text)
        assert time.perf_counter() - start < 0.5
        assert e.value.line == 2 * n + 3


class TestCommands:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_classify_haar(self, tmp_path, capsys):
        path = self.write(tmp_path, "haar.bank", HAAR_BANK)
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "HS_CONCENTRIC" in out and "HA axis -1/2" in out

    def test_classify_zero_and_asymmetric_filters(self, tmp_path, capsys):
        path = self.write(tmp_path, "odd.bank", "h0:\nh1:\ntap 0 1\ntap 1 2\n")
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out == ("class NON_PR\ndet non-monomial\n"
                                           "h0 symmetry NONE\nh1 symmetry NONE\n")

    def test_factor_ws_precondition(self, tmp_path):
        path = self.write(tmp_path, "haar.bank", HAAR_BANK)
        assert main(["factor", path, "--structure", "ws"]) == 3

    @pytest.mark.parametrize("dc", [[], ["--normalize-dc"]])
    def test_factor_hs(self, tmp_path, capsys, dc):
        bank = rand_hs_cascade(random.Random(7), n_steps=3).product()
        path = self.write(tmp_path, "hs.bank", print_bank(bank))
        assert main(["factor", path, "--structure", "hs", *dc]) == 0
        c = parse_cascade(capsys.readouterr().out)
        assert c.product() == bank
        assert not dc or c.base.scalar_filter(0)(1) == 1

    def test_factor_hs_precondition(self, tmp_path):
        bank = rand_ws_cascade(random.Random(7)).product()
        path = self.write(tmp_path, "ws.bank", print_bank(bank))
        assert main(["factor", path, "--structure", "hs"]) == 3

    def test_factor_product_round_trip(self, tmp_path, capsys):
        path = self.write(tmp_path, "haar.bank", HAAR_BANK)
        assert main(["factor", path, "--structure", "euclidean"]) == 0
        cas = capsys.readouterr().out
        cpath = self.write(tmp_path, "haar.cas", cas)
        assert main(["product", cpath]) == 0
        bank = capsys.readouterr().out
        assert parse_bank(bank) == haar_bank()

    def test_equiv_haar_policies(self, tmp_path, capsys):
        path = self.write(tmp_path, "haar.bank", HAAR_BANK)
        main(["factor", path, "--structure", "euclidean", "--policy", "A"])
        a = self.write(tmp_path, "a.cas", capsys.readouterr().out)
        main(["factor", path, "--structure", "euclidean", "--policy", "B"])
        b = self.write(tmp_path, "b.cas", capsys.readouterr().out)
        assert main(["equiv", a, b]) == 1
        assert "NOT-EQUIVALENT" in capsys.readouterr().out
        assert main(["equiv", a, a]) == 0
        assert "alpha 1" in capsys.readouterr().out

    def test_verify_and_roundtrip(self, tmp_path, capsys):
        path = self.write(tmp_path, "haar.bank", HAAR_BANK)
        main(["factor", path, "--structure", "euclidean"])
        cpath = self.write(tmp_path, "haar.cas", capsys.readouterr().out)
        assert main(["verify", cpath, "--pr"]) == 0
        assert main(["roundtrip", cpath, "--length", "32", "--seed", "9"]) == 0

    def test_verify_structure_flag(self, tmp_path, capsys):
        c = rand_ws_cascade(random.Random(2))
        cpath = self.write(tmp_path, "ws.cas", print_cascade(c))
        assert main(["verify", cpath, "--structure", "ws",
                     "--order-increasing"]) == 0
        assert main(["verify", cpath, "--structure", "hs"]) == 1

    @pytest.mark.parametrize("args", [["verify", "--pr", "--trials", "0"],
                                      ["verify", "--pr", "--trials", "-5"],
                                      ["roundtrip", "--length", "-3"],
                                      ["roundtrip", "--length", "0", "--reversible"]])
    def test_nonpositive_counts_rejected(self, tmp_path, capsys, args):
        cpath = self.write(tmp_path, "lazy.cas", "step U\ntap 0 1\n")
        with pytest.raises(SystemExit) as e:
            main([args[0], cpath, *args[1:]])
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be at least 1" in err

    def test_verify_without_a_check_is_a_usage_error(self, tmp_path, capsys):
        cpath = self.write(tmp_path, "lazy.cas", "step U\ntap 0 1\n")
        with pytest.raises(SystemExit) as e:
            main(["verify", cpath])
        assert e.value.code == 2
        out, err = capsys.readouterr()
        message = err.splitlines()[-1]   # the line after the usage text
        assert out == "" and message.startswith("liftbank verify: error:")
        assert all(flag in message for flag in ("--order-increasing", "--structure", "--pr"))

    def test_parse_error_exit_code(self, tmp_path, capsys):
        for text, line in (("h0:\ntap 0 0\nh1:\ntap 0 1\n", 2),
                           ("tap 0 1\nh0:\ntap 0 1\nh1:\ntap 0 1\n", 1)):
            with pytest.raises(ParseError) as e:
                parse_bank(text)
            assert e.value.line == line
            path = self.write(tmp_path, "bad.bank", text)
            assert main(["classify", path]) == 2
            assert "parse error" in capsys.readouterr().err

    def test_library_error_exit_code(self, tmp_path, capsys):
        # A zero base bank has no support: EmptySupport, not a failed check,
        # naming the partial product that is zero.
        cpath = self.write(tmp_path, "zero.cas", "step U\ntap 0 1\nbase:\nh0:\nh1:\n")
        assert main(["verify", cpath, "--order-increasing"]) == 3
        err = capsys.readouterr().err
        assert "precondition violation" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err == "precondition violation: E^(-1) (the base) is the zero matrix\n"

    @pytest.mark.parametrize("command", [["roundtrip"], ["roundtrip", "--reversible"],
                                         ["verify", "--pr", "--trials", "1"]])
    def test_window_past_the_limit_exit_code(self, tmp_path, capsys, command):
        # One step with taps at -r and r + 1, r = 10^9, spreads every signal
        # over a window of about 2r samples: refused before it is built.
        r = 10 ** 9
        cpath = self.write(tmp_path, "wide.cas", f"step L\ntap {-r} 1/2\ntap {r + 1} 1/2\n")
        t0 = time.perf_counter()
        assert main([command[0], cpath, *command[1:]]) == 3
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.fullmatch(rf"precondition violation: transform window of \d+ samples x 32 bits "
                            rf"exceeds 2\^30 bits \(reach {r + 1}\)\n", err)

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/x.bank"]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin.bank"
        path.write_bytes(b"h0:\ntap 0 1\xff\nh1:\ntap 0 1\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err and "Traceback" not in err

    def test_demo_haar(self, capsys):
        assert main(["demo", "haar"]) == 0
        out = capsys.readouterr().out
        assert out.count("product matches: yes") == 2

    def test_demo_identity(self, capsys):
        assert main(["demo", "identity"]) == 0
        out = capsys.readouterr().out
        assert "product is identity: yes" in out
        assert "order-increasing no" in out
        assert out.count("step ") == 8

    def test_reversible_roundtrip(self, tmp_path, capsys):
        text = "step L\ntap -1 -1/2\ntap 0 -1/2\nstep U\ntap 0 1/4\ntap 1 1/4\n"
        cpath = self.write(tmp_path, "rev.cas", text)
        assert main(["roundtrip", cpath, "--length", "256", "--seed", "1",
                     "--reversible"]) == 0

    def test_deterministic_reports(self, tmp_path, capsys):
        path = self.write(tmp_path, "haar.bank", HAAR_BANK)
        main(["classify", path])
        first = capsys.readouterr().out
        main(["classify", path])
        assert capsys.readouterr().out == first
