"""Line-oriented text formats for filter banks and lifting cascades.

Bank file: optional `bank <name>` header (once, before the sections),
sections `h0:` and `h1:`, tap lines `tap <n> <p>/<q>` (`/<q>` omitted for
integers), `#` comments.
Cascade file: optional `scale <p>/<q>`, blocks `step U` / `step L` with
tap lines in application order (first-applied step first), then an
optional `base:` block embedding a bank, which runs to the end of the
file.  Both are read line by line, so every error names its line.
parse/print round-trip is the identity on canonical files.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DuplicateTap, ParseError, ZeroTap
from .laurent import _CHUNK_DIGITS, LaurentPoly, _fmt_fraction, _str_int
from .lifting import LiftingCascade, LiftingStep
from .polyphase import IDENTITY, PolyphaseMatrix, make_bank


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
_INDEX = re.compile(r"[+-]?[0-9]+")
# A tap line that plain int() reads (digit runs up to _CHUNK_DIGITS, a nonzero
# denominator), matched first on every line; _parse_tap takes the match, or checks tokens.
_DIGITS = rf"[0-9]{{1,{_CHUNK_DIGITS}}}"
_TAP = re.compile(rf"tap\s+([+-]?{_DIGITS})\s+([+-]?{_DIGITS})(?:/((?=0*[1-9]){_DIGITS}))?")


def _clip(text: str, keep: int = 40) -> str:
    """text quoted for an error message, cut to a prefix past keep characters."""
    if len(text) <= keep:
        return repr(text)
    return f"{text[:keep]!r}... ({len(text)} characters)"


def _parse_rational(tok: str, line_no: int) -> Tuple[int, int]:
    """tok as integers (p, q), q > 0, not reduced: no Fraction per tap."""
    m = _RATIONAL.fullmatch(tok)
    if m is None:
        raise ParseError(f"bad rational {_clip(tok)}", line=line_no)
    sign, num, den = m.groups()
    q = _str_int(den) if den else 1
    if not q:
        raise ParseError(f"bad rational {_clip(tok)}", line=line_no)
    p = _str_int(num)
    return (-p if sign == "-" else p), q


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield i, line


def _parse_tap(m: Optional[re.Match], line: str, line_no: int, taps: dict):
    if m:
        n, p, q = m.groups()
        n, p = int(n), int(p)
        if p and n not in taps:
            taps[n] = (p, int(q or 1))
            return
    parts = line.split()
    if len(parts) != 3:
        raise ParseError("tap line must be `tap <n> <p>[/<q>]`", line=line_no)
    try:
        n = int(_INDEX.fullmatch(parts[1])[0])
    except (TypeError, ValueError):  # no match, or past CPython's int/str digit limit
        raise ParseError(f"bad tap index {_clip(parts[1])}", line=line_no) from None
    v = _parse_rational(parts[2], line_no)
    if n in taps:
        raise DuplicateTap(f"tap {n} listed twice", line=line_no)
    if v[0] == 0:
        raise ZeroTap(f"tap {n} is zero; canonical files store no zeros", line=line_no)
    taps[n] = v


# ---------------------------------------------------------------------------
# Bank files


def _read_bank(numbered_lines, line: Optional[int] = None) -> PolyphaseMatrix:
    """The bank in (line number, text) pairs; line numbers a missing section."""
    filters: dict = {}
    current: Optional[dict] = None
    named = False
    for line_no, text in numbered_lines:
        tap = _TAP.fullmatch(text)
        keyword = "tap" if tap else text.split(None, 1)[0]
        if keyword == "tap":
            if current is None:
                raise ParseError("tap before any h0:/h1: section", line=line_no)
            _parse_tap(tap, text, line_no, current)
        elif text in ("h0:", "h1:"):
            key = text[:2]
            if key in filters:
                raise ParseError(f"section {text!r} repeated", line=line_no)
            current = filters[key] = {}
        elif keyword == "bank":
            if named or filters:
                raise ParseError("bank must come once, before the sections", line=line_no)
            named = True
        else:
            raise ParseError(f"unrecognized line {_clip(text)}", line=line_no)
    if "h0" not in filters or "h1" not in filters:
        raise ParseError("bank file needs both h0: and h1: sections", line=line)
    return make_bank(*(LaurentPoly._from_ratios(filters[k]) for k in ("h0", "h1")))


def parse_bank(text: str) -> PolyphaseMatrix:
    return _read_bank(_lines(text))


def print_bank(h: PolyphaseMatrix, name: Optional[str] = None) -> str:
    out: List[str] = []
    if name:
        out.append(f"bank {name}")
    for i in (0, 1):
        out.append(f"h{i}:")
        out.extend(f"tap {n} {v}" for n, v in h.scalar_filter(i)._taps())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Cascade files


def parse_cascade(text: str) -> LiftingCascade:
    scale = None
    steps: List[Tuple[int, dict, int]] = []    # (m, taps, line of the step)
    base = IDENTITY
    lines = _lines(text)
    for line_no, line in lines:
        tap = _TAP.fullmatch(line)
        parts = ["tap"] if tap else line.split()
        keyword = parts[0]
        if keyword == "tap":
            if not steps:
                raise ParseError("tap before any step block", line=line_no)
            _parse_tap(tap, line, line_no, steps[-1][1])
        elif keyword == "step":
            if len(parts) != 2 or parts[1] not in ("U", "L"):
                raise ParseError("step line must be `step U` or `step L`", line=line_no)
            steps.append((0 if parts[1] == "U" else 1, {}, line_no))
        elif keyword == "scale":
            if steps or scale is not None:
                raise ParseError("scale must come once, before the steps", line=line_no)
            if len(parts) != 2:
                raise ParseError("scale line must be `scale <p>[/<q>]`", line=line_no)
            p, q = _parse_rational(parts[1], line_no)
            if p == 0:
                raise ParseError("scale must be nonzero", line=line_no)
            scale = Fraction(p, q)
        elif line == "base:":
            base = _read_bank(lines, line_no)  # the rest of the file
        else:
            raise ParseError(f"unrecognized line {_clip(line)}", line=line_no)

    lifting_steps = []
    for i, (m, taps, line_no) in enumerate(steps):
        if not taps:
            raise ParseError(f"step {i} has no taps", line=line_no)
        lifting_steps.append(LiftingStep(m, LaurentPoly._from_ratios(taps)))
    return LiftingCascade(scale or Fraction(1), tuple(lifting_steps), base)


def print_cascade(c: LiftingCascade) -> str:
    out: List[str] = []
    if c.scale != 1:
        out.append(f"scale {_fmt_fraction(c.scale)}")
    for s in c.steps:
        out.append(f"step {'U' if s.m == 0 else 'L'}")
        out.extend(f"tap {n} {v}" for n, v in s.filter._taps())
    if c.base != IDENTITY:
        out.append("base:")
        out.append(print_bank(c.base).rstrip("\n"))
    return "\n".join(out) + "\n"
