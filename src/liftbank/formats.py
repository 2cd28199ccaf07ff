"""Line-oriented text formats for filter banks and lifting cascades.

Bank file: optional `bank <name>` header, sections `h0:` and `h1:`, tap
lines `tap <n> <p>/<q>` (`/<q>` omitted for integers), `#` comments.
Cascade file: optional `scale <p>/<q>`, blocks `step U` / `step L` with
tap lines in application order (first-applied step first), then an
optional `base:` block embedding a bank.  parse/print round-trip is the
identity on canonical files.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DuplicateTap, ParseError, ZeroTap
from .laurent import LaurentPoly, _fmt_fraction, _int_str, _str_int
from .lifting import LiftingCascade, LiftingStep
from .polyphase import IDENTITY, PolyphaseMatrix, make_bank


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _parse_fraction(tok: str, line_no: int) -> Fraction:
    m = _RATIONAL.fullmatch(tok)
    try:
        if m is None:
            return Fraction(tok)
        sign, num, den = m.groups()
        v = Fraction(_str_int(num), _str_int(den) if den else 1)
        return -v if sign == "-" else v
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", line=line_no) from None


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _parse_tap(line: str, line_no: int, taps: dict):
    parts = line.split()
    if len(parts) != 3:
        raise ParseError("tap line must be `tap <n> <p>[/<q>]`", line=line_no)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad tap index {parts[1]!r}", line=line_no) from None
    v = _parse_fraction(parts[2], line_no)
    if n in taps:
        raise DuplicateTap(f"tap {n} listed twice", line=line_no)
    if v == 0:
        raise ZeroTap(f"tap {n} is zero; canonical files store no zeros", line=line_no)
    taps[n] = v


# ---------------------------------------------------------------------------
# Bank files


def parse_bank(text: str) -> PolyphaseMatrix:
    filters: dict = {}
    current: Optional[dict] = None
    for line_no, line in _lines(text):
        keyword = line.split()[0]
        if keyword == "bank":
            continue
        if line in ("h0:", "h1:"):
            key = line[:2]
            if key in filters:
                raise ParseError(f"section {line!r} repeated", line=line_no)
            current = filters[key] = {}
        elif keyword == "tap":
            if current is None:
                raise ParseError("tap before any h0:/h1: section", line=line_no)
            _parse_tap(line, line_no, current)
        else:
            raise ParseError(f"unrecognized line {line!r}", line=line_no)
    if "h0" not in filters or "h1" not in filters:
        raise ParseError("bank file needs both h0: and h1: sections")
    return make_bank(LaurentPoly(filters["h0"]), LaurentPoly(filters["h1"]))


def print_bank(h: PolyphaseMatrix, name: Optional[str] = None) -> str:
    out: List[str] = []
    if name:
        out.append(f"bank {name}")
    for i in (0, 1):
        out.append(f"h{i}:")
        f = h.scalar_filter(i)
        for n in sorted(f.indices()):
            out.append(f"tap {n} {_fmt_fraction(f.coeff(n))}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Cascade files


def parse_cascade(text: str) -> LiftingCascade:
    scale = Fraction(1)
    steps: List[Tuple[int, dict]] = []
    bank_lines: List[Tuple[int, str]] = []
    mode = "head"  # head -> steps -> base
    for line_no, line in _lines(text):
        if mode == "base":
            bank_lines.append((line_no, line))
            continue
        keyword = line.split()[0]
        if keyword == "scale":
            if mode != "head" or steps:
                raise ParseError("scale must come before the steps", line=line_no)
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("scale line must be `scale <p>[/<q>]`", line=line_no)
            scale = _parse_fraction(parts[1], line_no)
            if scale == 0:
                raise ParseError("scale must be nonzero", line=line_no)
        elif keyword == "step":
            parts = line.split()
            if len(parts) != 2 or parts[1] not in ("U", "L"):
                raise ParseError("step line must be `step U` or `step L`", line=line_no)
            steps.append((0 if parts[1] == "U" else 1, {}))
            mode = "steps"
        elif keyword == "tap":
            if not steps:
                raise ParseError("tap before any step block", line=line_no)
            _parse_tap(line, line_no, steps[-1][1])
        elif line == "base:":
            mode = "base"
        else:
            raise ParseError(f"unrecognized line {line!r}", line=line_no)

    base = IDENTITY
    if bank_lines:
        # Keep each base line at its own line number for parse_bank's errors.
        numbered = [""] * bank_lines[-1][0]
        for line_no, line in bank_lines:
            numbered[line_no - 1] = line
        base = parse_bank("\n".join(numbered))
    lifting_steps = []
    for i, (m, taps) in enumerate(steps):
        if not taps:
            raise ParseError(f"step {i} has no taps")
        lifting_steps.append(LiftingStep(m, LaurentPoly(taps)))
    return LiftingCascade(scale, tuple(lifting_steps), base)


def print_cascade(c: LiftingCascade) -> str:
    out: List[str] = []
    if c.scale != 1:
        out.append(f"scale {_fmt_fraction(c.scale)}")
    for s in c.steps:
        out.append(f"step {'U' if s.m == 0 else 'L'}")
        for n in sorted(s.filter.indices()):
            out.append(f"tap {n} {_fmt_fraction(s.filter.coeff(n))}")
    if c.base != IDENTITY:
        out.append("base:")
        out.append(print_bank(c.base).rstrip("\n"))
    return "\n".join(out) + "\n"
