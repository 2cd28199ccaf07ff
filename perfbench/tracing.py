"""Per-layer tracing for the liftbank benchmark, installed from outside
the library.

A `Tracer` replaces every public function and method of the measured
modules with a timing wrapper, in every module namespace that binds it
(`from .linsolve import solve_exact` copies the reference, so patching
only the home module would miss the call).  Each wrapper charges its wall
time minus the time of wrapped callees to its own `self_s`, so the self
times of all wrapped functions plus the op's unwrapped remainder
(`other.self_s`) add up to the traced op wall time.

`laurent` is the hot leaf layer: its calls are aggregated into counts
and self time only.  Every other wrapped call, and every op, is kept as
an in-memory span (id, parent, op id, name, start, end) and written out
by `write_spans` when the run ends.  `Fraction.__new__` is counted, not
timed, so `Fraction` work stays charged to the liftbank function that
asked for it.  Cheap O(1) accessors listed in `UNWRAPPED` and properties
are left alone: wrapping them would multiply the overhead, and their
time is charged to the caller.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = ("laurent", "linsolve", "polyphase", "lifting", "glstructure",
          "factor", "transform", "formats")
HOT_LAYER = "laurent"
# The operator methods that do layer work; other dunders are plumbing,
# most of them generated by dataclasses.
WRAPPED_DUNDERS = {
    "LaurentPoly": {"__init__", "__add__", "__sub__", "__neg__", "__mul__",
                    "__rmul__", "__call__", "__eq__"},
    "PolyphaseMatrix": {"__matmul__", "__add__", "__sub__"},
    "PolyphaseVector": {"__add__", "__sub__"},
}
UNWRAPPED = {"LaurentPoly.coeff", "LaurentPoly.items", "LaurentPoly.indices",
             "LaurentPoly.is_zero", "LaurentPoly.support", "LaurentPoly.order",
             "LaurentPoly.supprad", "PolyphaseMatrix.entry",
             "PolyphaseMatrix.entries", "PolyphaseMatrix.row",
             "PolyphaseVector.is_zero", "GroupLiftingStructure.filter_spec"}
FACTORIZERS = ("factor.factor_ws", "factor.factor_hs", "factor.factor_euclidean")
LADDERS = ("transform.apply_analysis", "transform.apply_synthesis",
           "transform.reversible_analysis", "transform.reversible_synthesis")


def _cells(tr, args, kw, result):
    rows = args[0] if args else kw["rows"]
    tr.counts["linsolve.cells"] += len(rows) * (len(rows[0]) + 1) if rows else 0
    tr.counts["linsolve.unsolved"] += result is None


def _factor_result(tr, args, kw, result):
    tr.counts["factor.peels"] += len(result)
    tr.outputs.append(result)


def _divmod_args(tr, args, kw, result):
    tr.divisions.append(args[:2] if len(args) >= 2 else (kw["num"], kw["den"]))


def _ladder(tr, args, kw, result):
    cascade = args[0] if args else kw["c"]
    tr.counts["transform.ladder_updates"] += len(cascade.steps)


OBSERVERS = {"linsolve.solve_exact": _cells,
             "factor.laurent_divmod": _divmod_args,
             **{name: _factor_result for name in FACTORIZERS},
             **{name: _ladder for name in LADDERS}}


class Tracer:
    """Wrap, time and count the calls made inside ops run through `op`."""

    def __init__(self):
        self.on = False
        self.child = 0.0        # wrapped-callee time of the current frame
        self.span = None        # id of the current span
        self.op_id = -1
        self.ids = itertools.count()
        self.spans = []
        self.stats = {}         # name -> [calls, self_s, liftbank errors]
        self.counts = dict.fromkeys(("linsolve.cells", "linsolve.unsolved",
                                     "factor.peels", "transform.ladder_updates"), 0)
        self.fraction_news = 0
        self.op_wall = 0.0
        self.other = 0.0
        self.outputs = []       # factorizer results, measured after the run
        self.divisions = []     # laurent_divmod arguments, measured after the run
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public callables of each layer module of the loaded
        liftbank, in every liftbank module that binds them."""
        from liftbank.errors import LiftbankError
        self._error_type = LiftbankError
        lb_modules = {name: mod for name, mod in sys.modules.items()
                      if name == "liftbank" or name.startswith("liftbank.")}
        wrappers = {}   # id of a public function -> its wrapper
        for layer in LAYERS:
            mod = lb_modules["liftbank." + layer]
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(val)] = self._wrap(f"{layer}.{attr}", val, layer)
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._wrap_class(layer, val)
        for mod in lb_modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, val, wrappers[id(val)])
        self._wrap_fraction_new()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if qual in UNWRAPPED or (attr.startswith("_") and
                                     attr not in WRAPPED_DUNDERS.get(cls.__name__, ())):
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{layer}.{qual}", raw.__func__, layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{layer}.{qual}", raw, layer)
            else:
                continue
            self._patch(cls, attr, raw, wrapped)

    def _wrap(self, name, fn, layer):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        if layer == HOT_LAYER:
            return self._hot_wrapper(stat, fn)
        return self._span_wrapper(name, stat, fn, OBSERVERS.get(name))

    def _hot_wrapper(self, stat, fn):
        tr = self

        def wrapper(*args, **kw):
            if not tr.on:
                return fn(*args, **kw)
            outer = tr.child
            tr.child = 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - tr.child
                tr.child = outer + dt
        return wrapper

    def _span_wrapper(self, name, stat, fn, observe):
        tr = self
        spans = self.spans
        ids = self.ids
        error_type = self._error_type

        def wrapper(*args, **kw):
            if not tr.on:
                return fn(*args, **kw)
            parent = tr.span
            sid = tr.span = next(ids)
            outer = tr.child
            tr.child = 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            except error_type:
                stat[2] += 1
                raise
            finally:
                t1 = perf_counter()
                stat[0] += 1
                stat[1] += t1 - t0 - tr.child
                tr.child = outer + (t1 - t0)
                tr.span = parent
                spans.append((sid, parent, tr.op_id, name, t0, t1))
            if observe is not None:
                observe(tr, args, kw, result)
            return result
        return wrapper

    def _wrap_fraction_new(self):
        original = Fraction.__dict__["__new__"]
        new = original.__func__
        tr = self

        def counted_new(cls, *args, **kw):
            if tr.on:
                tr.fraction_news += 1
            return new(cls, *args, **kw)
        self._patch(Fraction, "__new__", original, staticmethod(counted_new))

    # -- ops --------------------------------------------------------------

    def op(self, fn, arg):
        """Run fn(arg) as one traced op and return its result."""
        self.op_id += 1
        sid = self.span = next(self.ids)
        self.child = 0.0
        self.on = True
        t0 = perf_counter()
        try:
            return fn(arg)
        finally:
            t1 = perf_counter()
            self.on = False
            self.op_wall += t1 - t0
            self.other += t1 - t0 - self.child
            self.span = None
            self.spans.append((sid, None, self.op_id, "op", t0, t1))

    # -- results ----------------------------------------------------------

    def attribution_error(self) -> float:
        """|sum of self times + other - op wall time|, in seconds."""
        accounted = sum(s[1] for s in self.stats.values()) + self.other
        return abs(accounted - self.op_wall)

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        st = self.stats
        wall = self.op_wall or 1.0
        out = {}

        def calls(*names):
            return sum(st[n][0] for n in names if n in st)

        def self_s(*names):
            return sum(st[n][1] for n in names if n in st)

        for layer in LAYERS:
            layer_s = sum(v[1] for k, v in st.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (layer_s, "s")
            out[f"{layer}.share"] = (layer_s / wall, "ratio")

        mul = ("laurent.LaurentPoly.__mul__", "laurent.LaurentPoly.__rmul__")
        add = ("laurent.LaurentPoly.__add__", "laurent.LaurentPoly.__sub__")
        out["laurent.mul.calls"] = (calls(*mul), "count")
        out["laurent.mul.self_s"] = (self_s(*mul), "s")
        out["laurent.add.calls"] = (calls(*add), "count")
        out["laurent.add.self_s"] = (self_s(*add), "s")
        out["laurent.new.calls"] = (calls("laurent.LaurentPoly.__init__"), "count")
        out["fractions.new.calls"] = (self.fraction_news, "count")

        out["linsolve.solve_exact.calls"] = (calls("linsolve.solve_exact"), "count")
        out["linsolve.solve_exact.self_s"] = (self_s("linsolve.solve_exact"), "s")
        out["linsolve.cells"] = (self.counts["linsolve.cells"], "count")
        out["linsolve.unsolved"] = (self.counts["linsolve.unsolved"], "count")

        for metric, fn in (("polyphase.matmul", "polyphase.PolyphaseMatrix.__matmul__"),
                           ("polyphase.classify_bank", "polyphase.classify_bank"),
                           ("polyphase.det_info", "polyphase.PolyphaseMatrix.det_info"),
                           ("lifting.product", "lifting.LiftingCascade.product"),
                           ("lifting.normalize_semidirect", "lifting.normalize_semidirect"),
                           ("glstructure.check_order_increasing",
                            "glstructure.check_order_increasing"),
                           ("factor.laurent_divmod", "factor.laurent_divmod")):
            out[f"{metric}.calls"] = (calls(fn), "count")
            out[f"{metric}.self_s"] = (self_s(fn), "s")
        for fn in ("glstructure.cascade_in_structure", *FACTORIZERS, *LADDERS,
                   "formats.parse_bank", "formats.parse_cascade",
                   "formats.print_cascade"):
            out[f"{fn}.self_s"] = (self_s(fn), "s")

        out["factor.peels"] = (self.counts["factor.peels"], "count")
        out["factor.product_check_s"] = (self._product_check_s(), "s")
        candidates = sum(_divmod_candidates(num, den) for num, den in self.divisions)
        out["factor.laurent_divmod.candidates"] = (candidates, "count")
        out["factor.laurent_divmod.useful_ratio"] = (
            calls("factor.laurent_divmod") / candidates if candidates else 0.0, "ratio")
        out["factor.coeff_bits_max"] = (
            max((_cascade_bits(c) for c in self.outputs), default=0), "bits")
        out["factor.errors"] = (sum(v[2] for k, v in st.items()
                                    if k.startswith("factor.")), "count")
        out["transform.ladder_updates"] = (self.counts["transform.ladder_updates"],
                                           "count")
        out["other.self_s"] = (self.other, "s")
        return out

    def _product_check_s(self) -> float:
        """Time of LiftingCascade.product spans called directly by a factorizer."""
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        return sum(t1 - t0 for _, parent, _, name, t0, t1 in self.spans
                   if name == "lifting.LiftingCascade.product"
                   and names.get(parent) in FACTORIZERS)

    def write_spans(self, path, meta):
        """Write the kept spans as one JSON document."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "op", "name", "start", "end"],
                       "names": names,
                       "spans": [[sid, parent, op, index[name], round(t0, 9), round(t1, 9)]
                                 for sid, parent, op, name, t0, t1 in self.spans]},
                      fh, separators=(",", ":"))


def _divmod_candidates(num, den) -> int:
    """Trial remainders laurent_divmod builds: kills + 1, or the single
    remainder num when no term can be killed."""
    if den.is_zero():
        return 0
    if num.is_zero():
        return 1
    kills = num.order() - den.order() + 1
    return kills + 1 if kills > 0 else 1


def _cascade_bits(c) -> int:
    values = [c.scale]
    values += [v for s in c.steps for _, v in s.filter.items()]
    values += [v for e in c.base.entries() for _, v in e.items()]
    return max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for v in values)
