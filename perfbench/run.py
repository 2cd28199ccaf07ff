"""liftbank benchmark: closed-loop workloads over the library in `src/`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one process each

One process, one thread, closed loop: the next op starts when the
previous one returns, cycling through a seeded input pool until the ops
have been timed for `--seconds`.  Each op's output is checked after its
timed region.  The latency and throughput metrics are taken over each
input's fastest pass, so that stretches in which a shared host runs the
process slower do not move them.  The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: `failed`
counts ops that raised or returned a wrong result, and `correct` is
false if any returned a wrong result.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
the pool is replayed once untraced and once under `tracing.Tracer`; the
metrics are the per-layer ones from the traced pass, plus
`trace.overhead_ratio`, and the spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 10     # set-ups per untraced run, spread over its timed ops
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
MIN_OPS_FOR_P90 = 100
ATTRIBUTION_TOLERANCE = 1e-6   # relative; the identity is exact up to rounding

# Printed by every untraced run; JSON_METRICS are the ones in the result
# line.  fail_ratio travels as `failed`/`attempted` there, and
# samples_per_s exists only on the transform workloads.
E2E_UNITS = {"ops_per_s": "ops/s", "samples_per_s": "samples/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "fail_ratio": "failed/attempted",
             "peak_rss_mb": "MiB", "setup_s": "s"}
JSON_METRICS = ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s")


def load_liftbank():
    """Import liftbank afresh from the checkout's `src/`."""
    for name in [m for m in sys.modules if m == "liftbank" or m.startswith("liftbank.")]:
        del sys.modules[name]
    lb = importlib.import_module("liftbank")
    if Path(lb.__file__).resolve().parent != SRC / "liftbank":
        raise SystemExit(f"liftbank imported from {lb.__file__}, not from {SRC}")
    return lb


def setup_once(name, seed):
    """Import liftbank afresh and build the seeded input pool; return
    the workload, the pool and the time that took."""
    from workloads import WORKLOADS
    gc.collect()
    t0 = time.perf_counter()
    wl = WORKLOADS[name](load_liftbank())
    pool = wl.make_inputs(random.Random(seed))
    return wl, pool, time.perf_counter() - t0


def setup(name, seed):
    """The run's first set-up, with the pool then kept out of the
    collector's scans during the ops."""
    wl, pool, seconds = setup_once(name, seed)
    gc.collect()
    gc.freeze()
    return wl, pool, seconds


class Tally:
    """Op times, samples and failures of one loop over a pool.  Op k ran
    input k % pool_size.  `failed` counts ops that raised or returned a
    wrong result; `wrong` counts the latter."""

    def __init__(self, pool_size):
        self.pool_size = pool_size
        self.times = []
        self.samples = []
        self.failed = 0
        self.wrong = 0

    @property
    def busy(self) -> float:
        return sum(self.times)

    def best(self) -> list:
        """Each input's fastest op time, in pool order."""
        n = self.pool_size
        return [min(self.times[i::n]) for i in range(n)]


def run_ops(wl, pool, seconds=0.0, call=None, between=None):
    """Closed loop: run wl.op on the pool's inputs in order, one whole
    pass and then on round the pool until the ops have been timed for
    `seconds` and a whole number of wl.period inputs has run, so every
    run holds the pool's cases in the same proportion; check each output
    after its timed region.  With seconds=0 it makes exactly one pass.
    `between` is called, outside the timed region, each time the ops'
    time passes another of SETUP_REPEATS - 1 evenly spaced marks below
    `seconds`."""
    call = call or (lambda fn, arg: fn(arg))
    tally = Tally(len(pool))
    marks = [seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)] if between else []
    busy = 0.0
    for k, inp in enumerate(itertools.cycle(pool), 1):
        arg = wl.prepare(inp)
        t0 = time.perf_counter()
        try:
            out = call(wl.op, arg)
            raised = False
        except Exception:
            raised = True
            if tally.failed == tally.wrong:
                traceback.print_exc()   # the first one only
        dt = time.perf_counter() - t0
        del arg
        tally.times.append(dt)
        tally.samples.append(wl.samples(inp))
        if raised:
            tally.failed += 1
        elif not _checked(wl, inp, out):
            tally.failed += 1
            tally.wrong += 1
        busy += dt
        while marks and busy >= marks[0]:
            marks.pop(0)
            between()
        if k >= len(pool) and busy >= seconds and (k == len(pool) or k % wl.period == 0):
            break
    return tally


def _checked(wl, inp, out) -> bool:
    try:
        return bool(wl.check(inp, out))
    except Exception:
        traceback.print_exc()
        return False


def end_to_end(tally, setup_s) -> dict:
    """The end-to-end metrics.  Latencies are quantiles over the pool's
    inputs of each input's fastest op; the rates divide the pool's ops
    and samples by the sum of those fastest times."""
    best = tally.best()
    best_ms = [t * 1e3 for t in best]
    pool_s = sum(best)
    pool_samples = sum(tally.samples[:tally.pool_size])
    p90 = statistics.quantiles(best_ms, n=10)[8] if len(best) >= 2 else best_ms[0]
    return {"ops_per_s": len(best) / pool_s,
            "samples_per_s": pool_samples / pool_s if pool_samples else None,
            "op_p50_ms": statistics.median(best_ms),
            "op_p90_ms": p90,
            "fail_ratio": tally.failed / len(tally.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s}


def run_workload(args) -> dict:
    wl, pool, first_setup_s = setup(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} pool {len(pool)} python {platform.python_version()} "
          f"nproc {len(os.sched_getaffinity(0))}")
    if not args.trace:
        # The other set-ups are spread over the run, so that their median
        # is not taken inside one stretch of a slow shared host.
        setup_times = [first_setup_s]
        tally = run_ops(wl, pool, args.seconds, between=lambda: setup_times.append(
            setup_once(args.workload, args.seed)[2]))
        metrics = end_to_end(tally, statistics.median(setup_times))
        n = len(tally.times)
        passes = n // len(pool)
        print(f"ops {n} over {len(pool)} inputs ({passes} whole passes); wall clock over "
              f"all ops {n / tally.busy:.6g} ops/s, "
              f"median {statistics.median(tally.times) * 1e3:.6g} ms")
        for name, unit in E2E_UNITS.items():
            value = metrics[name]
            note = ""
            if name == "op_p90_ms" and n < MIN_OPS_FOR_P90:
                note = f"  (invalid: {n} ops < {MIN_OPS_FOR_P90})"
            elif name in ("op_p50_ms", "op_p90_ms"):
                note = f"  (over {len(pool)} inputs, each its best of >= {passes} passes)"
            elif name == "fail_ratio":
                note = f"  (n={n})"
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:16s} {shown:>12s} {unit}{note}")
        return {"correct": tally.wrong == 0, "attempted": n, "failed": tally.failed,
                "metrics": {m: {"value": metrics[m], "unit": E2E_UNITS[m]}
                            for m in JSON_METRICS}}
    return run_traced(args, wl, pool)


def run_traced(args, wl, pool) -> dict:
    from tracing import Tracer
    plain = run_ops(wl, pool)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, pool, call=tracer.op)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced.busy / plain.busy, "ratio")
    error = tracer.attribution_error()
    attributed = error <= ATTRIBUTION_TOLERANCE * tracer.op_wall
    if not attributed:
        print(f"error: layer self times + other.self_s miss the traced op wall "
              f"time {tracer.op_wall:.6f} s by {error:.3g} s", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed})
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return {"correct": plain.wrong + traced.wrong == 0 and attributed,
            "attempted": len(plain.times) + len(traced.times),
            "failed": plain.failed + traced.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Run each workload in its own process and merge the result lines."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "liftbank" / "__init__.py").is_file():
        print(f"error: no liftbank sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
