"""Every name a package module imports is used in that module, and every
module-level private name is used somewhere in the package.

Stand-ins for a linter's unused-import and dead-code rules: each
``src/algebroids`` module except ``__init__.py`` (which re-exports) is
parsed with ``ast``, and every name bound by an ``import`` must be read
somewhere in it.  Every private (``_x``) function, class or assignment at
the top level of any package module must be named by some code of the
package outside its own definition.  Only ``tensor.py``, which defines
it, and the theorem-2 suite, which reports it, name the package-wide
``CONTRACTION_ORDER``: no other construction may depend on it.  In
``suites.py`` only the methods of the runner ``_Run`` call ``.rng(``: an
item's check receives its item's generator and never builds one.  Outside
``_Run``, ``.draw(`` is called only inside a function decorated with
``.predicate(...)``, every ``.declare(`` and ``.predicate(`` call is a
decorator, and nothing calls ``.identity(``, so each item is written one of
the two declared ways and ``_Run._record`` is its one fixture loop.  A declared
residual (decorated with ``run.declare(...)``) is a function of its drawn
arguments alone: it names no generator and draws nothing.  Only ``_Run``
names ``random_coefficient`` or its kernel ``_draw_coefficient`` there
(besides the import), so every random function an item checks comes from
the one enumerator.  In ``ring.py``
one function adds monomial exponents (names ``operator.add``), so every
product of polynomials goes through it, and a polynomial has one stored
form: no ``__getattr__`` fills an attribute on first read, no object's
``__class__`` is reassigned and ``Poly.__slots__`` keeps no ``terms``
beside the numerators.  In ``algebroid.py`` and
``calculus.py`` only the table builder ``_tables_of`` and ``anchor_terms``
may subscript an ``.anchor`` matrix, so every kernel reads the anchor
through the algebroid's tables (the suites' independent references, in
``suites.py``, are not checked).  In ``tensor.py``, ``algebroid.py``,
``calculus.py``, ``lifts.py`` and ``poisson.py`` only the guard's owner
predicate ``_owned_by`` compares an ``.owner`` by identity or equality, and
only the guard ``_require`` raises ``ChartMismatch``, so every operand check
goes through the one guard (``ring.py``'s chart checks on polynomials are
not operand checks).  Keys are canonicalised only by the key rule of ``tensor.py``: neither a
call of ``sorted`` nor a comparison with ``Kind.SYM`` appears in
``algebroid.py``, ``calculus.py``, ``lifts.py`` or ``poisson.py``.
Only the naming rule's table ``_NAME_PARTS`` in
``ring.py`` spells the parts of a derived name (``_dot``, ``_bar``,
``p_``, ``xi_``, ``d_``, ``y_``): no other string constant of the package
is one of them and no f-string's literal text starts or ends with one, so
every derived name goes through the one rule.  No module of the package
sums by rebinding (``out = out + term`` or ``out = out - term``): a sum is
built in one call of the accumulation kernel (``ring.accumulate`` and its
wrappers ``poly_sum``, ``tensor_sum`` and the checked constructors), since
every ``+`` copies the running sum (augmented counters such as
``checked += 1`` are not sums of terms and are not checked).  Each
written-out reference of ``suites.py`` returns one call of such a sum and
calls none of the library maps the suites compare it with, public or its
guard-free kernel (``complete_lift_T`` or ``_complete_lift_T``).  The
user-facing modules ``cli.py`` and ``model.py`` call no kernel: they import
no private name of another package module, and take none as an attribute of
one, beyond the guard ``_require`` and the dual-chart memo ``_dual_chart``,
so every value they pass on meets a guard.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "algebroids"


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "import os\nfrom itertools import chain, count\nprint(chain)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "count")]


def _private_definitions(tree):
    """The module-level ``_x`` (not dunder) functions, classes and
    assignments of a module, as {name: defining node}."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node
    return found


def _references(node):
    """Every name read, attribute taken or name imported inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _unreferenced_private_names(sources):
    """(module, name) for each module-level private name of ``sources``
    ({module: source}) that no code outside its own definition names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in _references(tree))
    return sorted((module, name) for module, tree in trees.items()
                  for name, node in _private_definitions(tree).items()
                  if everywhere[name] <= Counter(_references(node))[name])


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _unreferenced_private_names(sources) == []


def test_an_unreferenced_private_name_is_reported():
    sources = {
        "a.py": "_used = 1\n_dead = 2\n\ndef _recursive(n):\n    return _recursive(n)\n"
                "\nclass _Shape:\n    pass\n",
        "b.py": "from .a import _used\nprint(_used)\n",
    }
    assert _unreferenced_private_names(sources) == [
        ("a.py", "_Shape"), ("a.py", "_dead"), ("a.py", "_recursive")]


def _contraction_order_readers(sources):
    """{module: the top-level definitions naming ``CONTRACTION_ORDER``, with
    ``None`` for a use at module level} over ``sources`` ({module: source})."""
    readers = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if "CONTRACTION_ORDER" in _references(node):
                readers.setdefault(module, set()).add(getattr(node, "name", None))
    return readers


def test_only_tensor_and_the_theorem_2_note_name_the_contraction_order():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = _contraction_order_readers(sources)
    assert sorted(readers) == ["suites.py", "tensor.py"]
    assert readers["suites.py"] == {"_suite_theorem_2"}


def test_a_contraction_order_reader_is_reported():
    sources = {
        "a.py": "from . import tensor\n\ndef build():\n"
                "    return tensor.CONTRACTION_ORDER\n",
        "b.py": "from .tensor import CONTRACTION_ORDER\n",
        "c.py": "def order(contract):\n    return contract('CONTRACTION_ORDER')\n",
    }
    assert _contraction_order_readers(sources) == {"a.py": {"build"}, "b.py": {None}}


def _rng_callers(source):
    """The top-level definitions of ``source`` outside class ``_Run`` that
    call a ``.rng(...)`` method, with ``None`` for a call at module level."""
    callers = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == "_Run":
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "rng"):
                callers.add(getattr(node, "name", None))
    return callers


def test_only_the_suite_runner_builds_item_generators():
    assert _rng_callers((PACKAGE / "suites.py").read_text(encoding="utf-8")) == set()


def test_a_stream_building_its_own_generator_is_reported():
    source = (
        "class _Run:\n"
        "    def rng(self, item_id):\n        return item_id\n"
        "    def check(self, item_id):\n        return self.rng(item_id)\n"
        "\ndef _suite_x(run):\n"
        "    @run.predicate('x', 'x', [])\n"
        "    def check(_rng, fixture):\n        rng = run.rng(fixture)\n"
        "        yield {}, rng.random() < 1\n"
        "\nSEED = _Run().rng('seed')\n"
    )
    assert _rng_callers(source) == {"_suite_x", None}


def _method(node):
    """The method name of a call ``x.name(...)``, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _runner_misuses(source):
    """(method, top-level definition) for each runner call of ``source``
    that goes round the two item forms, with ``None`` for module level:
    outside class ``_Run``, a ``.draw(`` call outside a function decorated
    with ``.predicate(...)`` and a ``.declare(`` or ``.predicate(`` call that
    is not a decorator; and anywhere, an ``.identity(`` call."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    decorators = {id(d) for f in functions for d in f.decorator_list}
    in_predicates = {id(sub) for f in functions
                     if "predicate" in map(_method, f.decorator_list)
                     for part in f.body for sub in ast.walk(part)}
    found = set()
    for node in tree.body:
        runner = isinstance(node, ast.ClassDef) and node.name == "_Run"
        for sub in ast.walk(node):
            method = _method(sub)
            if method == "identity" or not runner and (
                    method == "draw" and id(sub) not in in_predicates
                    or method in ("declare", "predicate") and id(sub) not in decorators):
                found.add((method, getattr(node, "name", None)))
    return found


def test_items_are_written_only_through_the_runner_decorators():
    source = (PACKAGE / "suites.py").read_text(encoding="utf-8")
    assert "@run.predicate(" in source and "run.draw(" in source
    assert _runner_misuses(source) == set()


def test_a_runner_misuse_is_reported():
    source = (
        "class _Run:\n"
        "    def arguments(self, rng, owner):\n"
        "        return self.draw(rng, owner, 1, 1)\n"
        "    def declare(self, item_id):\n        return self.identity(item_id)\n"
        "\ndef _suite_x(run):\n"
        "    @run.predicate('a', 'a', [])\n"
        "    def check(rng, A):\n        yield {}, run.draw(rng, A, 1, 1) == 0\n"
        "    @run.declare('b', 'b', [], x=(1, 1))\n"
        "    def clean(A, x):\n        return x\n"
        "\ndef _suite_y(run):\n"
        "    def stream(rng, A):\n        yield {}, run.draw(rng, A, 1, 1) == 0\n"
        "    run.predicate('c', 'c', [])(stream)\n"
        "\ndef _suite_z(run):\n"
        "    run.declare('d', 'd', [])(lambda A: A)\n"
        "    run.identity('e', 'e', lambda rng: iter(()))\n"
        "\nSAMPLE = _Run().draw(None, None, 1, 1)\n"
    )
    assert _runner_misuses(source) == {
        ("identity", "_Run"), ("draw", "_suite_y"), ("predicate", "_suite_y"),
        ("declare", "_suite_z"), ("identity", "_suite_z"), ("draw", None)}


#: What a declared residual may not name: the generator, and the draws that
#: are the enumerator's alone.
_DRAWS = {"rng", "draw", "random_tensor", "_draw_tensor", "random_coefficient",
          "_draw_coefficient"}


def _drawing_residuals(source):
    """The functions of ``source`` decorated with a ``.declare(...)`` call
    that name a generator or a draw (a name, an attribute or a parameter in
    ``_DRAWS``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                        and d.func.attr == "declare" for d in node.decorator_list)):
            continue
        body = [sub for part in node.body for sub in ast.walk(part)]
        names = ({sub.id for sub in body if isinstance(sub, ast.Name)}
                 | {sub.attr for sub in body if isinstance(sub, ast.Attribute)}
                 | {sub.arg for sub in ast.walk(node.args)
                    if isinstance(sub, ast.arg)})
        if names & _DRAWS:
            found.add(node.name)
    return found


def test_declared_residuals_draw_nothing():
    source = (PACKAGE / "suites.py").read_text(encoding="utf-8")
    assert "@run.declare(" in source
    assert _drawing_residuals(source) == set()


def test_a_drawing_residual_is_reported():
    source = (
        "def _suite_x(run):\n"
        "    @run.declare('a', 'a', [], x=(1, 1))\n"
        "    def clean(A, x):\n        return x\n"
        "    @run.declare('b', 'b', [], x=(1, 1))\n"
        "    def draws(A, x):\n        return run.draw(None, A, 1, 1) - x\n"
        "    @run.declare('c', 'c', [], x=(1, 1))\n"
        "    def takes_rng(A, x, rng=None):\n        return x\n"
        "    @run.declare('d', 'd', [], x=(1, 1))\n"
        "    def coefficient(A, x):\n"
        "        return x * random_coefficient(None, A.base)\n"
        "    @run.declare('e', 'e', [], x=(1, 1))\n"
        "    def kernel(A, x):\n"
        "        return x * _draw_coefficient(None, A.base, 2)\n"
        "    def instance(A, rng):\n"
        "        return random_tensor(rng, A, 1, 1)\n"
    )
    assert _drawing_residuals(source) == {"draws", "takes_rng", "coefficient", "kernel"}


#: The coefficient draw and its guard-free kernel.
_COEFFICIENT_DRAWS = {"random_coefficient", "_draw_coefficient"}


def _coefficient_drawers(source):
    """The top-level definitions of ``source`` outside class ``_Run`` that
    name a draw of ``_COEFFICIENT_DRAWS`` (a name or an attribute), with
    ``None`` for a use at module level other than an import."""
    found = set()
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                or isinstance(node, ast.ClassDef) and node.name == "_Run"):
            continue
        if _COEFFICIENT_DRAWS & set(_references(node)):
            found.add(getattr(node, "name", None))
    return found


def test_only_the_suite_runner_draws_coefficients():
    source = (PACKAGE / "suites.py").read_text(encoding="utf-8")
    assert "_draw_coefficient" in source
    assert _coefficient_drawers(source) == set()


def test_a_coefficient_drawn_outside_the_runner_is_reported():
    source = (
        "from .tensor import random_coefficient\n"
        "from . import tensor\n"
        "\nclass _Run:\n"
        "    def arguments(self, rng, owner):\n"
        "        return random_coefficient(rng, owner.base)\n"
        "\ndef _suite_x(run):\n"
        "    def instance(A, rng):\n"
        "        return random_coefficient(rng, A.base)\n"
        "\ndef _suite_y(run):\n"
        "    return tensor.random_coefficient\n"
        "\ndef _suite_z(run):\n"
        "    return tensor._draw_coefficient(None, None, 2)\n"
        "\nONE = random_coefficient(None, None)\n"
    )
    assert _coefficient_drawers(source) == {"_suite_x", "_suite_y", "_suite_z", None}


def _units(source):
    """(name, node) for each top-level statement of ``source``: a function
    by its name, each method of a class as ``Class.method``, anything else
    as ``None``."""
    units = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            units += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                      if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            units.append((getattr(node, "name", None), node))
    return units


def _exponent_adders(source):
    """The functions of ``source`` (methods as ``Class.method``) that name
    ``operator.add`` or a bare ``add``, the elementwise addition of exponent
    tuples that multiplies monomials, with ``None`` for a use at module
    level."""
    return {name for name, node in _units(source)
            if any(isinstance(sub, ast.Name) and sub.id == "add"
                   or isinstance(sub, ast.Attribute) and sub.attr == "add"
                   and isinstance(sub.value, ast.Name) and sub.value.id == "operator"
                   for sub in ast.walk(node))}


def test_monomial_exponents_are_added_in_one_function():
    source = (PACKAGE / "ring.py").read_text(encoding="utf-8")
    assert _exponent_adders(source) == {"_monomial_products"}


def test_a_second_exponent_adder_is_reported():
    source = (
        "import operator\nfrom operator import add\n\n"
        "class Poly:\n"
        "    def __mul__(self, other):\n"
        "        return tuple(map(operator.add, self.e, other.e))\n"
        "    def seen(self, names):\n        names.add(self)\n"
        "\ndef shift(e, f):\n    return tuple(map(add, e, f))\n"
        "\nONE = add(0, 1)\n"
    )
    assert _exponent_adders(source) == {"Poly.__mul__", "shift", None}


def _callers(source, names):
    """(name, caller) for each call of a function in ``names`` in
    ``source``, by name or as a method (``p._store(...)``), the caller
    being the outermost definition around it (methods as
    ``Class.method``), ``None`` at module level."""
    return {(called, name) for name, node in _units(source) for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and (called := getattr(sub.func, "id", getattr(sub.func, "attr", None))) in names}


def _reducers(source):
    """The functions of ``source`` (methods as ``Class.method``) that call
    ``gcd`` with a starred argument, ``gcd(den, *numerators)``: a
    denominator reduced against a whole map of numerators, with ``None``
    for a call at module level."""
    return {name for name, node in _units(source) for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == "gcd"
            and any(isinstance(arg, ast.Starred) for arg in sub.args)}


def test_denominators_are_reduced_in_one_constructor():
    source = (PACKAGE / "ring.py").read_text(encoding="utf-8")
    assert _reducers(source) == {"Poly._make"}
    # every polynomial is built from numerators: the constructors that
    # cleared a map of Fraction terms, and the rule that stored an integral
    # Fraction as an int, are gone, neither defined nor named
    gone = {"_store", "_of_terms", "_exact"}
    assert not gone & {name.rpartition(".")[2] for name, _ in _units(source) if name}
    assert not gone & set(_references(ast.parse(source)))


def test_monomials_are_multiplied_only_by_the_kernel_and_the_constructor():
    source = (PACKAGE / "ring.py").read_text(encoding="utf-8")
    assert {caller for _, caller in _callers(source, {"_monomial_products"})} == {
        "products", "Poly.__new__"}


def test_a_second_clearing_or_multiplying_route_is_reported():
    source = (
        "import math\nfrom math import gcd\n\n"
        "class Poly:\n"
        "    def __init__(self, chart, terms):\n"
        "        _monomial_products(self.terms, {}, terms, 1)\n"
        "        self._store(chart, terms)\n"
        "    def __mul__(self, other):\n"
        "        target = {}\n"
        "        _monomial_products(target, self._num, other._num, 1)\n"
        "        return math.gcd(self._den, *target.values())\n"
        "    def __neg__(self):\n"
        "        return math.gcd(self._den, 2)\n"
        "\ndef products(chart, items):\n"
        "    return {k: gcd(6, *a._num.values()) for k, a in items}\n"
        "\nONE = gcd(1, *ONE._num.values())\nTWO = ONE._store(None, {})\n"
    )
    assert _reducers(source) == {"Poly.__mul__", "products", None}
    assert _callers(source, {"_store", "_monomial_products"}) == {
        ("_monomial_products", "Poly.__init__"), ("_store", "Poly.__init__"),
        ("_monomial_products", "Poly.__mul__"), ("_store", None)}


def _second_forms(source):
    """(what, line) for each thing in ``source`` that would keep a second
    form of a polynomial beside its numerators: a ``__getattr__`` defined
    (an attribute filled on first read), a ``__class__`` assigned, by
    assignment or ``setattr`` (an object that changes its class once
    filled), and ``terms`` among the ``__slots__`` of a class ``Poly``
    (coefficients stored beside the numerators)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "__getattr__":
            found.add(("__getattr__", node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr == "__class__"
              and isinstance(node.ctx, ast.Store)
              or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
              and any(isinstance(arg, ast.Constant) and arg.value == "__class__"
                      for arg in node.args)):
            found.add(("__class__", node.lineno))
        elif isinstance(node, ast.ClassDef) and node.name == "Poly":
            found |= {("terms", stmt.lineno) for stmt in node.body
                      if isinstance(stmt, ast.Assign)
                      and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
                      and any(isinstance(c, ast.Constant) and c.value == "terms"
                              for c in ast.walk(stmt.value))}
    return found


def test_a_polynomial_has_one_stored_form():
    source = (PACKAGE / "ring.py").read_text(encoding="utf-8")
    assert _second_forms(source) == set()


def test_a_second_stored_form_is_reported():
    source = (
        "class Poly:\n"
        "    __slots__ = ('chart', 'terms', '_num')\n"
        "    def __init__(self, made):\n"
        "        self.__class__, self._num = made.__class__, made._num\n"
        "\nclass _Unread(Poly):\n"
        "    def __getattr__(self, name):\n"
        "        setattr(self, '__class__', Poly)\n"
        "\nclass Tensor:\n"
        "    __slots__ = ('terms',)\n"
        "    def kind(self):\n"
        "        return self.__class__\n"
    )
    assert _second_forms(source) == {("terms", 2), ("__class__", 4),
                                     ("__getattr__", 7), ("__class__", 8)}


def _anchor_subscribers(source):
    """The functions of ``source`` (methods as ``Class.method``) that
    subscript an ``.anchor`` attribute, with ``None`` for a subscript at
    module level."""
    return {name for name, node in _units(source)
            if any(isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Attribute)
                   and sub.value.attr == "anchor" for sub in ast.walk(node))}


#: The one builder of the anchor tables and the one reader of them.
_ANCHOR_READERS = {"_tables_of", "anchor_terms"}


@pytest.mark.parametrize("module", ["algebroid.py", "calculus.py"])
def test_only_the_tables_read_anchor_entries(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _anchor_subscribers(source) <= _ANCHOR_READERS


def test_a_second_anchor_reader_is_reported():
    source = (
        "def anchor_terms(algebroid, i):\n    return algebroid.anchor[i]\n"
        "\nclass Algebroid:\n"
        "    def entry(self, i, a):\n        return self.anchor[i][a]\n"
        "    def rows(self):\n        return list(self.anchor)\n"
        "\ndef apply(A, x):\n"
        "    return [A.anchor[i] for (i,) in x.terms]\n"
        "\nFIRST = so3().anchor[0]\n"
    )
    assert _anchor_subscribers(source) == {"anchor_terms", "Algebroid.entry", "apply", None}


#: The modules whose operations check their operands with the one guard.
_GUARDED_MODULES = ["tensor.py", "algebroid.py", "calculus.py", "lifts.py", "poisson.py"]


def _owner_checks(source):
    """(function, "compare") for each ``.owner`` identity or equality
    comparison and (function, "raise") for each ``raise ChartMismatch`` in
    ``source``, the function dotted from its outermost definition (methods
    as ``Class.method``), None at module level."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Compare):
            if (any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(isinstance(side, ast.Attribute) and side.attr == "owner"
                            for side in [node.left, *node.comparators])):
                found.add((scope, "compare"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (isinstance(exc, ast.Name) and exc.id == "ChartMismatch"
                    or isinstance(exc, ast.Attribute) and exc.attr == "ChartMismatch"):
                found.add((scope, "raise"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_operand_owners_are_checked_only_by_the_guard():
    found = {(module,) + check for module in _GUARDED_MODULES
             for check in _owner_checks((PACKAGE / module).read_text(encoding="utf-8"))}
    assert found == {("tensor.py", "_owned_by", "compare"),
                     ("tensor.py", "_require", "raise")}


def test_an_owner_check_outside_the_guard_is_reported():
    source = (
        "from . import errors\n"
        "def _owned_by(t, owner):\n    return t.owner is owner or t.owner == owner\n"
        "\nclass Structure:\n"
        "    def ptilde(self, mu):\n"
        "        if mu.owner != self.owner:\n"
        "            raise ChartMismatch('elsewhere')\n"
        "\ndef differential(A, mu):\n"
        "    def items():\n"
        "        return A is not mu.owner\n"
        "    if mu.kind is not A.kind or mu.owner.base == A.base:\n"
        "        raise errors.ChartMismatch\n"
        "    return items\n"
        "\nSAME = x.owner is y.owner\n"
    )
    assert _owner_checks(source) == {
        ("_owned_by", "compare"), ("Structure.ptilde", "compare"),
        ("Structure.ptilde", "raise"), ("differential.items", "compare"),
        ("differential", "raise"), (None, "compare")}


#: The modules that build keys only through the key rule of ``tensor.py``.
_KEY_RULE_MODULES = ["algebroid.py", "calculus.py", "lifts.py", "poisson.py"]


def _own_key_rules(source):
    """(line, what) for each call of ``sorted`` and each comparison that
    names ``Kind.SYM`` in ``source``: a module sorting keys itself or
    special-casing symmetric keys."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "sorted":
            found.add((node.lineno, "sorted"))
        elif isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "SYM"
                and isinstance(sub.value, ast.Name) and sub.value.id == "Kind"
                for side in [node.left, *node.comparators] for sub in ast.walk(side)):
            found.add((node.lineno, "Kind.SYM"))
    return sorted(found)


@pytest.mark.parametrize("module", _KEY_RULE_MODULES)
def test_keys_are_canonicalised_only_by_the_key_rule(module):
    assert _own_key_rules((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_a_key_rule_outside_tensor_is_reported():
    source = (
        "from .tensor import Kind, _CANONICAL\n"
        "\ndef merge(kind, key):\n"
        "    if kind is Kind.SYM:\n"
        "        return tuple(sorted(key)), 1\n"
        "    return _CANONICAL[kind](key)\n"
        "\nSIDE = {Kind.MV: 1, Kind.SYM: 1}\n"
        "VECTOR = t.kind in (Kind.MV, Kind.SYM)\n"
        "SORTED = [k for k in keys if k != Kind.MV]\n"
    )
    assert _own_key_rules(source) == [(4, "Kind.SYM"), (5, "sorted"), (9, "Kind.SYM")]


#: The parts the naming rule puts around a name to spell a derived one.
_NAME_PARTS = ("_dot", "_bar", "p_", "xi_", "d_", "y_")


def _name_spellings(source, table=None):
    """(line, text) for each string constant of ``source`` that is a name
    part and each f-string literal piece that starts or ends with one,
    outside the module-level assignment to ``table``."""
    tree = ast.parse(source)
    skip = {id(sub) for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == table for t in node.targets)
            for sub in ast.walk(node)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.JoinedStr):
            found.update((node.lineno, piece.value) for piece in node.values
                         if isinstance(piece, ast.Constant)
                         and (piece.value.startswith(_NAME_PARTS)
                              or piece.value.endswith(_NAME_PARTS)))
        elif isinstance(node, ast.Constant) and node.value in _NAME_PARTS:
            found.add((node.lineno, node.value))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_naming_rule_spells_derived_names(path):
    table = "_NAME_PARTS" if path.name == "ring.py" else None
    assert _name_spellings(path.read_text(encoding="utf-8"), table) == []


def test_a_derived_name_spelled_outside_the_rule_is_reported():
    source = (
        "_NAME_PARTS = {'velocity': ('', '_dot'), 'momentum': ('p_', '')}\n"
        "\ndef dotted(coords):\n"
        "    return [f'{c}_dot' for c in coords] + [c + '_bar' for c in coords]\n"
        "\ndef duals(names, prefix='xi_'):\n"
        "    return [f'd_{n}' for n in names]\n"
        "\nCHART, LABEL = ('x', 'p_x'), 'd_T'\n"
        "TOTAL = f'{CHART} y_'\n"
    )
    assert _name_spellings(source, "_NAME_PARTS") == [
        (4, "_bar"), (4, "_dot"), (6, "xi_"), (7, "d_"), (10, " y_")]
    assert (1, "_dot") in _name_spellings(source)


def _rebinding_sums(source):
    """(line, name) for each ``name = name + …`` or ``name = name - …``
    in ``source``: the leftmost operand of a chain of ``+`` and ``-`` is
    the name the assignment binds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        left = node.value
        while isinstance(left, ast.BinOp) and isinstance(left.op, (ast.Add, ast.Sub)):
            left = left.left
        if left is not node.value and isinstance(left, ast.Name) \
                and left.id == node.targets[0].id:
            found.add((node.lineno, left.id))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_sum_is_built_by_rebinding(path):
    assert _rebinding_sums(path.read_text(encoding="utf-8")) == []


def test_a_rebinding_sum_is_reported():
    source = (
        "def velocity(coeff, chart):\n"
        "    out = chart.zero()\n"
        "    for a, d in enumerate(coeff.gradient()):\n"
        "        out = out + d * chart.coordinate(a)\n"
        "    return out\n"
        "\ndef literal(terms, out):\n"
        "    out = out - terms[0] + terms[1]\n"
        "    total = terms[0] + out\n"
        "    count = 0\n"
        "    count += 1\n"
        "    out.terms = out.terms + terms\n"
        "    return out, total, count\n"
        "\nSUM = 0\nSUM = SUM + 1\n"
    )
    assert _rebinding_sums(source) == [(4, "out"), (8, "out"), (16, "SUM")]


#: The written-out references of ``suites.py``, and the library maps that
#: the suites compare them with.
_REFERENCES = {"_velocity", "_direct_vertical", "_direct_complete", "_pullback",
               "_g_expanded", "_literal_h", "_literal_g", "_tangent_anchor_map"}
_CHECKED_MAPS = {name for public in (
    "complete_lift_T", "vertical_lift_V", "classical_vertical_lift",
    "classical_complete_lift", "velocity_derivative", "H_map", "G_map", "J_map",
    "anchor_apply", "canonical_transport") for name in (public, f"_{public}")}
_SUMS = {"GradedTensor", "poly_sum", "tensor_sum", "_tensor_sum"}


def _reference_faults(source):
    """(reference, fault) for each reference of ``source`` whose last
    statement is not ``return`` of one call in ``_SUMS`` ("return") or that
    calls a map in ``_CHECKED_MAPS`` (the map's name)."""
    found = set()
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in _REFERENCES):
            continue
        last = node.body[-1]
        if not (isinstance(last, ast.Return) and isinstance(last.value, ast.Call)
                and isinstance(last.value.func, ast.Name) and last.value.func.id in _SUMS):
            found.add((node.name, "return"))
        found.update((node.name, sub.func.id) for sub in ast.walk(node)
                     if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                     and sub.func.id in _CHECKED_MAPS)
    return sorted(found)


def test_the_references_sum_once_and_call_no_checked_map():
    source = (PACKAGE / "suites.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert _REFERENCES <= defined
    assert _reference_faults(source) == []


def test_a_reference_that_sums_twice_or_calls_its_map_is_reported():
    source = (
        "def _literal_h(A, k):\n"
        "    return GradedTensor(A, Kind.MV, 1, {}) + H_map(k)\n"
        "\ndef _velocity(coeff, source, target):\n"
        "    return poly_sum(target, velocity_derivative(coeff, target).terms)\n"
        "\ndef _pullback(owner, mu):\n"
        "    out = GradedTensor(owner, Kind.FORM, mu.degree, mu.terms)\n"
        "    return out\n"
        "\ndef _g_expanded(A, k):\n"
        "    return _tensor_sum(A, Kind.MV, 1, [_G_map(A, k)])\n"
        "\ndef _direct_complete(chart, t):\n"
        "    return GradedTensor(chart, t.kind, 1, _complete_lift_T(chart, t).terms)\n"
        "\ndef helper(A, x):\n    return complete_lift_T(A, x)\n"
    )
    assert _reference_faults(source) == [
        ("_direct_complete", "_complete_lift_T"), ("_g_expanded", "_G_map"),
        ("_literal_h", "H_map"), ("_literal_h", "return"), ("_pullback", "return"),
        ("_velocity", "velocity_derivative")]


#: The private names the user-facing modules may take from another package
#: module: the operand guard and the dual-chart memo.
_USER_FACING_PRIVATE = {"_require", "_dual_chart"}


def _private_imports(source):
    """(line, name) for each private name ``source`` imports from a package
    module (``from .m import _x``) or takes as an attribute of a module it
    imported from the package (``from . import m`` then ``m._x``), outside
    ``_USER_FACING_PRIVATE``."""
    tree = ast.parse(source)
    modules = set()
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.add((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.add((node.lineno, node.attr))
    return sorted((line, name) for line, name in found
                  if name not in _USER_FACING_PRIVATE)


@pytest.mark.parametrize("module", ["cli.py", "model.py"])
def test_user_facing_modules_call_no_kernel(module):
    assert _private_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_a_kernel_called_from_a_user_facing_module_is_reported():
    source = (
        "from . import fixtures, lifts as L\n"
        "from .algebroid import _dual_chart, _tangent_lift, build_algebroid\n"
        "from .tensor import _require, _contract\n"
        "\ndef run(A, x):\n"
        "    _require(x, 'run')\n"
        "    return L._J_map(A, x), fixtures.ALGEBROIDS, L.J_map(A, x), x.__class__\n"
    )
    assert _private_imports(source) == [(2, "_tangent_lift"), (3, "_contract"),
                                        (7, "_J_map")]
