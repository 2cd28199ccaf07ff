"""Command line front end.

Exit codes: 0 success, 1 failed verification, 2 parse error (of a bank
or cascade file, or of the command line), 3 precondition violation.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from .errors import (BaseNotIdentity, DCZero, FactorizationStuck,
                     NonIntegerInput, NotAdmissible, NotDyadic,
                     NotHSConcentric, NotIrreducible, NotUnimodular,
                     NotWSDelayMinimized, ParseError)
from .factor import (equivalent_mod_rescaling, factor_euclidean, factor_hs,
                     factor_ws)
from .glstructure import S_H, S_W, cascade_in_structure, check_order_increasing
from .laurent import LaurentPoly, _fmt_fraction
from .lifting import LiftingCascade, lower, upper
from .polyphase import IDENTITY, haar_bank
from .formats import parse_bank, parse_cascade, print_bank, print_cascade
from .transform import (apply_analysis, apply_synthesis, reversible_analysis,
                        reversible_synthesis, verify_pr)

PRECONDITION_ERRORS = (NotUnimodular, NotWSDelayMinimized, NotHSConcentric,
                       NotIrreducible, NotAdmissible, NotDyadic,
                       NonIntegerInput, BaseNotIdentity, DCZero,
                       FactorizationStuck)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_bank(path: str):
    return parse_bank(_read(path))


def _load_cascade(path: str):
    return parse_cascade(_read(path))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    h = _load_bank(args.bank)
    cls = h.classify()
    det = h.det_info()
    print(f"class {cls.kind}")
    if det.monomial:
        print(f"det amplitude {_fmt_fraction(det.amplitude)} delay {det.delay}")
    else:
        print("det non-monomial")
    if cls.d0 is not None:
        print(f"delays d0 {_fmt_fraction(cls.d0)} d1 {_fmt_fraction(cls.d1)}")
    if cls.kind == "HS_CONCENTRIC":
        print(f"equal-length-base {'yes' if cls.equal_length_base else 'no'}")
    for i in (0, 1):
        f = h.scalar_filter(i)
        if f.is_zero():
            print(f"h{i} symmetry NONE")
            continue
        tag = f.symmetry()
        if tag.kind == "NONE":
            print(f"h{i} symmetry NONE")
        else:
            print(f"h{i} symmetry {tag.kind} axis {_fmt_fraction(tag.axis)}")
    return 0


def cmd_factor(args) -> int:
    h = _load_bank(args.bank)
    if args.structure == "ws":
        c = factor_ws(h)
    elif args.structure == "hs":
        c = factor_hs(h, normalize_dc=args.normalize_dc)
    else:
        c = factor_euclidean(h, policy=args.policy)
    sys.stdout.write(print_cascade(c))
    return 0


def cmd_product(args) -> int:
    c = _load_cascade(args.cascade)
    sys.stdout.write(print_bank(c.product()))
    return 0


def cmd_verify(args) -> int:
    c = _load_cascade(args.cascade)
    requested = False
    ok = True
    if args.order_increasing:
        requested = True
        inc, orders = check_order_increasing(c)
        print(f"order-increasing {'yes' if inc else 'no'} "
              f"orders {' '.join(str(o) for o in orders)}")
        ok = ok and inc
    if args.structure:
        requested = True
        g = S_W if args.structure == "ws" else S_H
        member = cascade_in_structure(g, c)
        print(f"structure {args.structure} {'yes' if member else 'no'}")
        ok = ok and member
    if args.pr:
        requested = True
        report = verify_pr(c, trials=args.trials, seed=args.seed)
        print(f"perfect-reconstruction {'yes' if report.ok else 'no'} "
              f"trials {report.trials}")
        ok = ok and report.ok
    if not requested:
        print("no checks requested; cascade parsed", file=sys.stderr)
    return 0 if ok else 1


def cmd_equiv(args) -> int:
    c1 = _load_cascade(args.cascade1)
    c2 = _load_cascade(args.cascade2)
    w = equivalent_mod_rescaling(c1, c2)
    if w is None:
        print("NOT-EQUIVALENT")
        return 1
    print(f"EQUIVALENT alpha {_fmt_fraction(w.alpha)}")
    return 0


def cmd_roundtrip(args) -> int:
    c = _load_cascade(args.cascade)
    rng = random.Random(args.seed)
    if args.reversible:
        x = {i: rng.randint(-255, 255) for i in range(args.length)}
        y = reversible_analysis(c, x)
        back = reversible_synthesis(c, y)
        exact = back == {k: v for k, v in x.items() if v}
    else:
        x = LaurentPoly({i: Fraction(rng.randint(-255, 255))
                         for i in range(args.length)})
        back = apply_synthesis(c, apply_analysis(c, x))
        exact = back == x
    print(f"roundtrip {'exact' if exact else 'FAILED'} length {args.length} "
          f"seed {args.seed}")
    return 0 if exact else 1


# ---------------------------------------------------------------------------
# Worked examples


def haar_cascade_scaled() -> LiftingCascade:
    """Gain 2, lower(-1/2) after upper(1)."""
    return LiftingCascade(Fraction(2), (upper(Fraction(1)), lower(Fraction(-1, 2))))


def haar_cascade_plain() -> LiftingCascade:
    """Gain 1, upper(1/2) after lower(-1)."""
    return LiftingCascade(Fraction(1), (lower(Fraction(-1)), upper(Fraction(1, 2))))


def identity_cascade() -> LiftingCascade:
    """Eight-step irreducible cascade multiplying out to the identity."""
    taps = [(0, Fraction(-1, 2)), (1, Fraction(1)), (0, Fraction(1)),
            (1, Fraction(-1, 2)), (0, Fraction(2)), (1, Fraction(1, 2)),
            (0, Fraction(-1)), (1, Fraction(-1))]
    steps = tuple(upper(v) if m == 0 else lower(v) for m, v in taps)
    return LiftingCascade(Fraction(1), steps)


def cmd_demo(args) -> int:
    if args.which == "haar":
        target = haar_bank()
        print("target bank:")
        sys.stdout.write(print_bank(target, name="haar"))
        ok = True
        for label, c in (("scaled", haar_cascade_scaled()),
                         ("plain", haar_cascade_plain())):
            print(f"factorization {label}:")
            sys.stdout.write(print_cascade(c))
            good = c.product() == target
            print(f"product matches: {'yes' if good else 'no'}")
            ok = ok and good
        w = equivalent_mod_rescaling(haar_cascade_scaled(), haar_cascade_plain())
        print(f"factorizations equivalent mod rescaling: "
              f"{'yes' if w is not None else 'no'}")
        return 0 if ok else 1
    # identity
    c = identity_cascade()
    print("cascade:")
    sys.stdout.write(print_cascade(c))
    good = c.product() == IDENTITY
    print(f"product is identity: {'yes' if good else 'no'}")
    inc, orders = check_order_increasing(c)
    print(f"order-increasing {'yes' if inc else 'no'} "
          f"orders {' '.join(str(o) for o in orders)}")
    return 0 if good else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liftbank",
        description="Exact lifting factorizations of two-channel "
                    "perfect-reconstruction filter banks.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("classify", help="classify a filter bank")
    q.add_argument("bank")
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("factor", help="factor a bank into a lifting cascade")
    q.add_argument("bank")
    q.add_argument("--structure", choices=["ws", "hs", "euclidean"], required=True)
    q.add_argument("--normalize-dc", action="store_true")
    q.add_argument("--policy", choices=["A", "B"], default="A")
    q.set_defaults(func=cmd_factor)

    q = sub.add_parser("product", help="multiply a cascade out to a bank")
    q.add_argument("cascade")
    q.set_defaults(func=cmd_product)

    q = sub.add_parser("verify", help="run checks on a cascade")
    q.add_argument("cascade")
    q.add_argument("--order-increasing", action="store_true")
    q.add_argument("--structure", choices=["ws", "hs"])
    q.add_argument("--pr", action="store_true")
    q.add_argument("--trials", type=positive_int, default=32)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("equiv", help="test equivalence modulo rescaling")
    q.add_argument("cascade1")
    q.add_argument("cascade2")
    q.set_defaults(func=cmd_equiv)

    q = sub.add_parser("roundtrip", help="analysis/synthesis round trip")
    q.add_argument("cascade")
    q.add_argument("--length", type=positive_int, default=64)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--reversible", action="store_true")
    q.set_defaults(func=cmd_roundtrip)

    q = sub.add_parser("demo", help="worked examples")
    q.add_argument("which", choices=["haar", "identity"])
    q.set_defaults(func=cmd_demo)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PRECONDITION_ERRORS as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
