"""Per-layer spans, recorded from outside the package.

``Tracer.install()`` replaces each listed public function of ``algebroids``
with a wrapper at every place that holds it: the defining module, every
module that imported it by name, and every class attribute that aliases it
(``Poly.__radd__ = __add__``).  A wrapper counts calls and accumulates self
time: the span's duration minus the time its child spans took.  The
wrapper's own bookkeeping is charged to the child as seen from its parent,
so it inflates no self time.

Spans are plain counters kept in memory; ``layer_metrics()`` turns them
into the benchmark's ``<layer>.<fn>.calls`` / ``.self_s`` numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric name -> (module, attribute path) of each original function.  One
# metric may cover several functions (``lifts.classical_lift``).
LAYER_FUNCTIONS = {
    "ring.mul": [("ring", "Poly.__mul__")],
    "ring.add": [("ring", "Poly.__add__")],
    "ring.partial": [("ring", "Poly.partial")],
    "ring.transport": [("ring", "Poly.transport")],
    "ring.parse": [("ring", "parse_poly")],
    "ring.print": [("ring", "poly_to_string")],
    "ring.eval": [("ring", "Poly.eval_at")],
    "tensor.init": [("tensor", "GradedTensor.__init__")],
    "tensor.wedge": [("tensor", "wedge")],
    "tensor.contract": [("tensor", "contract")],
    "tensor.sym_product": [("tensor", "sym_product")],
    "algebroid.validate": [("algebroid", "validate")],
    "algebroid.build_algebroid": [("algebroid", "build_algebroid")],
    "algebroid.tangent_lift": [("algebroid", "tangent_lift")],
    "algebroid.cotangent_lift": [("algebroid", "cotangent_lift")],
    "algebroid.linear_poisson": [("algebroid", "linear_poisson")],
    "algebroid.canonical_algebroid": [("algebroid", "canonical_algebroid")],
    "algebroid.section_bracket": [("algebroid", "section_bracket")],
    "algebroid.eq": [("algebroid", "Algebroid.__eq__")],
    "calculus.differential": [("calculus", "differential")],
    "calculus.lie_derivative": [("calculus", "lie_derivative")],
    "calculus.schouten": [("calculus", "schouten")],
    "calculus.sym_schouten": [("calculus", "sym_schouten")],
    "calculus.nr_bracket": [("calculus", "nr_bracket")],
    "calculus.fn_bracket": [("calculus", "fn_bracket")],
    "poisson.build_poisson": [("poisson", "build_poisson")],
    "poisson.koszul_schouten": [("poisson", "koszul_schouten")],
    "poisson.extended_bracket": [("poisson", "extended_bracket")],
    "poisson.lambda_p": [("poisson", "lambda_p")],
    "poisson.tangent_poisson": [("poisson", "tangent_poisson")],
    "lifts.vertical_lift_V": [("lifts", "vertical_lift_V")],
    "lifts.complete_lift_T": [("lifts", "complete_lift_T")],
    "lifts.G_map": [("lifts", "G_map")],
    "lifts.J_map": [("lifts", "J_map")],
    "lifts.H_map": [("lifts", "H_map")],
    "lifts.Jstar": [("lifts", "Jstar")],
    "lifts.canonical_transport": [("lifts", "canonical_transport")],
    "lifts.classical_lift": [("lifts", "classical_vertical_lift"),
                             ("lifts", "classical_complete_lift")],
    "model.loads": [("model", "loads_model")],
    "model.dumps": [("model", "dumps_model")],
    "model.builtin_model": [("model", "builtin_model")],
}

# Functions reported as a call count only.
COUNT_ONLY = {"algebroid.eq"}

PACKAGE = "algebroids"


def _resolve(module_name, path):
    """The original function at ``path`` in a package module."""
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[name]


def _holders(original):
    """Every (namespace object, attribute) in the package bound to
    ``original``: module globals and class attributes."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE
                                  or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, cls_value in list(vars(value).items()):
                    if cls_value is original:
                        found.append((value, cls_attr))
    return found


def algebroid_key(algebroid):
    """A hashable description of an algebroid's structure data."""
    structure = tuple(sorted(
        (pair, tuple(sorted(column.items())))
        for pair, column in algebroid.structure.items()))
    return (algebroid.base.coords, algebroid.fiber_names, algebroid.anchor,
            structure, algebroid.dual_names)


def bivector_key(chart, bivector):
    return (chart.coords, tuple(sorted(bivector.terms.items())))


class Tracer:
    """Counts and self times for the wrapped layer functions."""

    def __init__(self):
        self.calls = {name: 0 for name in LAYER_FUNCTIONS}
        self.self_s = {name: 0.0 for name in LAYER_FUNCTIONS}
        self.mul_coeffs = 0
        self.mul_int_coeffs = 0
        self.validated = set()
        self.poisson_built = set()
        self.suite_s = {}
        self._child = [0.0]
        self._restore = []

    # -- wrapping -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer = clock()
            child.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                inner = child.pop()
                calls[name] += 1
                self_s[name] += end - start - inner
                if after is not None:
                    after(args, result)
                child[-1] += clock() - outer

        return span

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_mul(self, args, result):
        if result is None or result is NotImplemented:
            return
        for coeff in result.terms.values():
            self.mul_coeffs += 1
            if coeff.denominator == 1:
                self.mul_int_coeffs += 1

    def _after_validate(self, args, result):
        self.validated.add(algebroid_key(args[0]))

    def _after_build_poisson(self, args, result):
        self.poisson_built.add(bivector_key(args[0], args[1]))

    def install(self):
        """Wrap every listed function at every binding; ``uninstall`` puts
        the originals back."""
        importlib.import_module(f"{PACKAGE}.cli")  # load every layer
        after = {"ring.mul": self._after_mul,
                 "algebroid.validate": self._after_validate,
                 "poisson.build_poisson": self._after_build_poisson}
        for name, targets in LAYER_FUNCTIONS.items():
            for module_name, path in targets:
                original = _resolve(module_name, path)
                if name in COUNT_ONLY:
                    wrapper = self._count(name, original)
                else:
                    wrapper = self._span(name, original, after.get(name))
                for holder, attr in _holders(original):
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        suites = importlib.import_module(f"{PACKAGE}.suites")
        original_run = suites.run_suite
        suite_s = self.suite_s

        @functools.wraps(original_run)
        def timed_suite(name, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original_run(name, *args, **kwargs)
            finally:
                suite_s[name] = suite_s.get(name, 0.0) + \
                    time.perf_counter() - start

        for holder, attr in _holders(original_run):
            self._restore.append((holder, attr, original_run))
            setattr(holder, attr, timed_suite)

    def uninstall(self):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    # -- results --------------------------------------------------------------

    def counts(self):
        """Raw counters, additive across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "mul_coeffs": self.mul_coeffs,
                "mul_int_coeffs": self.mul_int_coeffs,
                "validated": sorted(map(repr, self.validated)),
                "poisson_built": sorted(map(repr, self.poisson_built)),
                "suite_s": dict(self.suite_s)}


def merge_counts(parts):
    """Sum the ``counts()`` of several processes; distinct structures are
    united, so a ratio over several processes counts each one once."""
    total = {"calls": {n: 0 for n in LAYER_FUNCTIONS},
             "self_s": {n: 0.0 for n in LAYER_FUNCTIONS},
             "mul_coeffs": 0, "mul_int_coeffs": 0,
             "validated": set(), "poisson_built": set(), "suite_s": {}}
    for part in parts:
        for name in LAYER_FUNCTIONS:
            total["calls"][name] += part["calls"][name]
            total["self_s"][name] += part["self_s"][name]
        total["mul_coeffs"] += part["mul_coeffs"]
        total["mul_int_coeffs"] += part["mul_int_coeffs"]
        total["validated"].update(part["validated"])
        total["poisson_built"].update(part["poisson_built"])
        for name, seconds in part["suite_s"].items():
            total["suite_s"][name] = total["suite_s"].get(name, 0.0) + seconds
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(counts, suite_names):
    """The per-layer metric values from merged counts."""
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (counts["calls"][name], "count")
        if name not in COUNT_ONLY:
            out[f"{name}.self_s"] = (counts["self_s"][name], "s")
    out["ring.mul.int_coeff_share"] = (
        _ratio(counts["mul_int_coeffs"], counts["mul_coeffs"]), "ratio")
    out["algebroid.validate.distinct_ratio"] = (
        _ratio(len(counts["validated"]),
               counts["calls"]["algebroid.validate"]), "ratio")
    out["poisson.build_poisson.distinct_ratio"] = (
        _ratio(len(counts["poisson_built"]),
               counts["calls"]["poisson.build_poisson"]), "ratio")
    for suite in suite_names:
        out[f"suites.{suite}.s"] = (counts["suite_s"].get(suite, 0.0), "s")
    return out


def profile_counts(profile):
    """Call counts of the listed functions as ``cProfile`` saw them, keyed
    like ``Tracer.calls``."""
    import pstats

    stats = pstats.Stats(profile).stats
    by_code = {}
    for (filename, line, func), (_, ncalls, _, _, _) in stats.items():
        by_code[(filename, line, func)] = ncalls
    out = {}
    for name, targets in LAYER_FUNCTIONS.items():
        total = 0
        for module_name, path in targets:
            original = _resolve(module_name, path)
            code = original.__code__
            total += by_code.get(
                (code.co_filename, code.co_firstlineno, code.co_name), 0)
        out[name] = total
    return out
