"""Guard once, at the boundary: a warm suite run checks few operands.

A public operation is a guard plus a kernel, and library code and the suite
runner call kernels (see the ``tensor`` module docstring).  This test counts
the calls of the operand guard ``tensor._require`` over warm runs of three
suites on ``fixtures/standard.json``, wrapping every binding of it in the
package the way ``perfbench/tracer.py`` finds the bindings it wraps (module
globals and class attributes).  The calls that remain come from the
boundaries that keep their guards:

* the ``+`` and ``-`` operators (``_addend``), which the suites' residuals
  use to combine the sides of each identity;
* the checked constructors ``GradedTensor(...)`` and ``GradedTensor.basis``;
* the entry point ``run_suite``, which checks its model once per call.

Before the split, every library-internal call guarded its operands again:
these runs made 42,473 guard calls, against 3,030 with it.
"""

import sys
from collections import Counter
from pathlib import Path

import algebroids.cli  # noqa: F401 - loads every module of the package
from algebroids import suites, tensor
from algebroids.model import load_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: the suites counted: exterior calculus, the V/T tables of i, d and L, and
#: the classical-lift tables over the canonical case
SUITES = ("theorem-1", "theorem-12", "theorem-21")

#: Most guard calls the warm runs may make: 7x below the count before the
#: split (42,473), with room over the 3,030 the operators, constructors and
#: entry points make now.
BOUND = 6_000


def _bindings(original):
    """Every (namespace, attribute) of the package bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "algebroids" or name.startswith("algebroids.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == name:
                found.extend((value, cls_attr) for cls_attr, cls_value
                             in list(vars(value).items()) if cls_value is original)
    return found


def _guard_calls(model, monkeypatch):
    """{caller: guard calls} over one warm run of ``SUITES`` on ``model``."""
    for name in SUITES:  # warm the construction caches
        suites.run_suite(name, model)
    callers = Counter()
    original = tensor._require

    def counted(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(*args, **kwargs)

    for holder, attr in _bindings(original):
        monkeypatch.setattr(holder, attr, counted)
    for name in SUITES:
        assert suites.run_suite(name, model)["status"] == "pass"
    return callers


def test_a_warm_suite_run_guards_only_at_the_boundary(monkeypatch):
    callers = _guard_calls(load_model(FIXTURES / "standard.json"), monkeypatch)
    assert sum(callers.values()) < BOUND, callers.most_common(10)
    assert set(callers) <= {"_addend", "_require_shape", "basis", "_check_model"}


def test_the_bindings_include_every_importer():
    holders = {getattr(holder, "__name__", None) for holder, _ in _bindings(tensor._require)}
    assert {"algebroids.tensor", "algebroids.model", "algebroids.algebroid"} <= holders
