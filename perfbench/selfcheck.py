"""Checks that the benchmark measures what it claims.

    python3 perfbench/selfcheck.py

- interception: traced ops on a hand-built 2-step S_W bank and on the
  Haar bank give call counts derived by hand from the library code, so
  calls through copied `from .x import y` bindings are seen;
- checkers: each workload's output check fails one deliberately wrong
  result and the loop counts that op as failed;
- metric names: BENCHMARK.json lists exactly the metrics the runs print;
- repeat: the counts later changes may cite repeat exactly across two
  traced runs of each workload with the same seed (one process each).

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction as F

import run

REPEATED_COUNTS = ("fractions.new.calls", "laurent.new.calls", "linsolve.cells",
                   "factor.peels", "factor.coeff_bits_max", "transform.ladder_updates")
REPEAT_SEED = 7


def traced(tracer, wl, inp):
    """Run one op of wl under tracer and check its output."""
    out = tracer.op(wl.op, wl.prepare(inp))
    return wl.check(inp, out)


def check_interception(lb) -> list:
    from tracing import Tracer
    from workloads import FactorLP, TransformExact
    LP, step = lb.laurent.LaurentPoly, lb.lifting.LiftingStep
    # S0 = lower(-1/2 (1 + z)), S1 = upper(1/4 (1 + z^-1)): the 5/3 ladder.
    two_step = lb.lifting.LiftingCascade(F(1), (step(1, LP({-1: F(-1, 2), 0: F(-1, 2)})),
                                                step(0, LP({0: F(1, 4), 1: F(1, 4)}))))
    haar = lb.lifting.LiftingCascade(F(1), (), lb.polyphase.haar_bank())
    fm = lb.formats
    cases = [
        # factor_ws peels one step per radius drop (2 -> 1 -> 0), solving a
        # 2x1 system each time: 2 x 2 x (1 + 1) = 8 cells.  Matrix products:
        # classify_bank's Lambda H Lambda^-1 (2), the self-check product (2
        # steps, K = 1) and check_order_increasing's partial products (2).
        ("2-step S_W bank, factor-lp op", FactorLP,
         ("ws", fm.print_bank(two_step.product()), two_step),
         {"factor.peels": 2, "linsolve.solve_exact.calls": 2, "linsolve.cells": 8,
          "linsolve.unsolved": 0, "polyphase.classify_bank.calls": 1,
          "polyphase.det_info.calls": 1, "polyphase.matmul.calls": 6,
          "lifting.product.calls": 1, "lifting.normalize_semidirect.calls": 1,
          "glstructure.check_order_increasing.calls": 1, "transform.ladder_updates": 0,
          "factor.errors": 0}),
        # Two steps, applied once by the analysis and once by the synthesis;
        # the synthesis inverts the base, which asks det_info once.
        ("2-step S_W cascade, transform-exact op", TransformExact,
         (two_step, LP({n: F(n % 7 - 3) for n in range(-5, 11)})),
         {"transform.ladder_updates": 4, "polyphase.det_info.calls": 1,
          "polyphase.matmul.calls": 0, "factor.peels": 0}),
        # Haar is already an equal-length HS base: no peel, no solve.
        # classify_bank runs in factor_hs on the bank and on the terminal
        # base, and in cascade_in_structure on the parsed base; each HS
        # classification costs 5 products, and DC normalization adds D_1 B.
        # parse_cascade reaches parse_bank through its module global.
        ("Haar bank, factor-lp op", FactorLP,
         ("hs", fm.print_bank(haar.product()), lb.factor.dc_normalize(haar)),
         {"factor.peels": 0, "linsolve.solve_exact.calls": 0,
          "polyphase.classify_bank.calls": 3, "polyphase.det_info.calls": 3,
          "polyphase.matmul.calls": 16, "lifting.product.calls": 1,
          "formats.parse_bank.calls": 2}),
    ]
    failures = []
    for label, cls, inp, expected in cases:
        wl = cls(lb)
        tracer = Tracer()
        tracer.install()
        try:
            ok = traced(tracer, wl, inp)
        finally:
            tracer.uninstall()
        got = {k: v for k, (v, _) in tracer.metrics().items()}
        got["formats.parse_bank.calls"] = tracer.stats["formats.parse_bank"][0]
        wrong = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
        print(f"interception {label}: {'PASS' if ok and not wrong else 'FAIL'}")
        if not ok or wrong:
            failures.append(f"{label}: check {ok}, (got, expected) {wrong}")
    return failures


def _flip(lb, c):
    """c with the sign of one tap of its first step flipped."""
    first = c.steps[0]
    taps = dict(first.filter.items())
    n = min(taps)
    taps[n] = -taps[n]
    bad = lb.lifting.LiftingStep(first.m, lb.laurent.LaurentPoly(taps))
    return lb.lifting.LiftingCascade(c.scale, (bad, *c.steps[1:]), c.base)


def _off_by_one(signal):
    if isinstance(signal, dict):
        n = min(signal)
        return {**signal, n: signal[n] + 1}
    n = min(signal.indices())
    return signal + type(signal)({n: 1})


CORRUPTIONS = {
    "factor-lp": lambda lb, out: (_flip(lb, out[0]), _flip(lb, out[1]), *out[2:]),
    "factor-euclid": lambda lb, out: (_flip(lb, out[0]),
                                      lb.formats.print_cascade(_flip(lb, out[0]))),
    "transform-exact": lambda lb, out: _off_by_one(out),
    "transform-reversible": lambda lb, out: _off_by_one(out),
    "transform-reversible-1k": lambda lb, out: _off_by_one(out),
}


def check_checkers(seed=REPEAT_SEED) -> list:
    """One wrong output among three ops must give failed == 1."""
    failures = []
    for name, corrupt in CORRUPTIONS.items():
        wl, pool, _ = run.setup(name, seed)
        lb = sys.modules["liftbank"]
        inputs = pool[:3]
        clean = run.run_ops(wl, inputs)
        calls = iter(range(len(inputs)))
        real_op = wl.op

        def faulty(arg):
            out = real_op(arg)
            return corrupt(lb, out) if next(calls) == 0 else out
        wl.op = faulty
        bad = run.run_ops(wl, inputs)
        ok = clean.failed == 0 and bad.failed == bad.wrong == 1 \
            and len(bad.times) == len(inputs)
        print(f"checker {name}: {'PASS' if ok else 'FAIL'} "
              f"(clean failed {clean.failed}, corrupted failed {bad.failed}/{len(bad.times)})")
        if not ok:
            failures.append(f"checker {name}")
    return failures


def check_metric_names() -> list:
    from tracing import Tracer
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed_e2e = {m: run.E2E_UNITS[m] for m in run.JSON_METRICS}
    printed_layer = {k: u for k, (_, u) in Tracer().metrics().items()}
    printed_layer["trace.overhead_ratio"] = "ratio"
    ok = e2e == printed_e2e and layer == printed_layer
    print(f"metric names: {'PASS' if ok else 'FAIL'}")
    return [] if ok else [f"BENCHMARK.json {e2e} {layer} vs printed "
                          f"{printed_e2e} {printed_layer}"]


def check_repeat(seed=REPEAT_SEED) -> list:
    from workloads import WORKLOADS
    failures = []
    for name in WORKLOADS:
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", "1", "--trace", "1"],
                                  cwd=run.ROOT, capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
            runs.append(result)
        ok = all(r.get("correct") for r in runs)
        counts = [{k: r["metrics"][k]["value"] for k in REPEATED_COUNTS} for r in runs] \
            if ok else [None, None]
        ok = ok and counts[0] == counts[1]
        print(f"repeat {name}: {'PASS' if ok else 'FAIL'} {counts[0]}")
        if not ok:
            failures.append(f"repeat {name}: {counts}")
    return failures


def main() -> int:
    failures = check_metric_names()
    failures += check_interception(run.load_liftbank())
    failures += check_checkers()
    failures += check_repeat()
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print("selfcheck", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    if not (run.SRC / "liftbank" / "__init__.py").is_file():
        print(f"error: no liftbank sources at {run.SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
