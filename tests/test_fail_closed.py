"""Every public operation of the tensor, algebroid, calculus, lifts,
poisson, model and suites modules fails closed on a bad argument.

``ROWS`` holds one valid call of every public module function, of the
``GradedTensor`` constructors and of the tensor operators ``+``, ``-`` and
``*``.  Each argument of each row is replaced in turn by ``None``, an int, a
string and a tensor over another owner; the call must then return or raise
an :class:`~algebroids.errors.AlgebroidError`, never another exception.  A
self-test fails when a public function of those modules has no row.
``NESTED`` holds calls whose bad value sits below the top level (a
structure key or target, a fiber index out of range), or that the
replacements above do not reach (an unhashable name, bytes that are not
UTF-8), each with the error it must raise.
"""

import inspect
import json
import operator
import random

import pytest

from algebroids import algebroid, calculus, lifts, model, poisson, suites, tensor
from algebroids.cli import main
from algebroids.errors import (AlgebroidError, DimensionMismatch, KindMismatch, ParseError,
                               UnknownName)
from algebroids.fixtures import canonical_plane, nonconstant_rank2, poisson_plane, so3
from algebroids.ring import Chart, parse_poly
from algebroids.tensor import GradedTensor, Kind, basis_keys

MODULES = (algebroid, calculus, lifts, model, poisson, suites, tensor)

A = nonconstant_rank2()
X = A.e(0) * "x" + A.e(1)
Y = A.e(1) * "x^2"
MU = A.estar(0) * "x"
NU = tensor.wedge(A.estar(0), A.estar(1))
K = GradedTensor(A, Kind.MIXED, 1, {((0,), 1): "x"})
L = GradedTensor(A, Kind.MIXED, 1, {((1,), 0): 1})
S = GradedTensor(A, Kind.SYM, 2, {(0, 1): "x"})
F = parse_poly("x^2", A.base)

C = canonical_plane()
XC = C.e(0) * "y"
KC = GradedTensor(C, Kind.MIXED, 1, {((0,), 1): "x"})

PS = poisson_plane()
O = PS.owner
MU_O = GradedTensor(O, Kind.FORM, 1, {(0,): "x"})
F_O = O.fn("x")

LINE = Chart(("x",))

#: A one-algebroid model whose suites run one trial, so every suite row is fast.
SMALL = model.Model(charts={"line": LINE},
                    algebroids={"line": algebroid.canonical_algebroid(LINE)},
                    suite={"trials": 1})
BUILTIN = model.builtin_model()


def _row(function, *args, **kwargs):
    return function, args, kwargs


#: One valid call per public operation, keyed by its qualified name.
ROWS = {
    "algebroid.dotted_chart": _row(algebroid.dotted_chart, C.base),
    "algebroid.dual_chart": _row(algebroid.dual_chart, A),
    "algebroid.canonical_algebroid": _row(algebroid.canonical_algebroid, LINE),
    "algebroid.build_algebroid": _row(algebroid.build_algebroid, LINE, ("e",), ((1,),),
                                      {}, dual_names=("xi_e",)),
    "algebroid.default_dual_names": _row(algebroid.default_dual_names, LINE, ("e",),
                                         ((1,),), {}),
    "algebroid.validate": _row(algebroid.validate, A),
    "algebroid.anchor_terms": _row(algebroid.anchor_terms, A, F.gradient()),
    "algebroid.anchor_derivative": _row(algebroid.anchor_derivative, A, 0, F),
    "algebroid.section_bracket": _row(algebroid.section_bracket, A, X, Y),
    "algebroid.anchor_apply": _row(algebroid.anchor_apply, A, X),
    "algebroid.velocity_derivative": _row(algebroid.velocity_derivative, F,
                                          algebroid.dotted_chart(A.base)),
    "algebroid.tangent_lift": _row(algebroid.tangent_lift, A),
    "algebroid.cotangent_lift": _row(algebroid.cotangent_lift, A),
    "algebroid.linear_poisson": _row(algebroid.linear_poisson, A),
    "calculus.differential": _row(calculus.differential, A, MU),
    "calculus.lie_derivative": _row(calculus.lie_derivative, A, X, MU),
    "calculus.schouten": _row(calculus.schouten, A, X, Y),
    "calculus.sym_schouten": _row(calculus.sym_schouten, A, S, X),
    "calculus.nr_bracket": _row(calculus.nr_bracket, K, L),
    "calculus.fn_bracket_simple": _row(calculus.fn_bracket_simple, A, MU, X, NU, Y),
    "calculus.fn_bracket": _row(calculus.fn_bracket, A, K, L),
    "tensor.GradedTensor": _row(GradedTensor, A, Kind.MV, 1, {(0,): "x"}),
    "tensor.GradedTensor.zero": _row(GradedTensor.zero, A, Kind.FORM, 2),
    "tensor.GradedTensor.basis": _row(GradedTensor.basis, A, Kind.MV, (1, 0)),
    "tensor.GradedTensor.function": _row(GradedTensor.function, A, "x"),
    "tensor.GradedTensor.__add__": _row(operator.add, X, Y),
    "tensor.GradedTensor.__sub__": _row(operator.sub, X, Y),
    "tensor.GradedTensor.__mul__": _row(operator.mul, X, "x"),
    "tensor.equals": _row(tensor.equals, X, Y),
    "tensor.tensor_sum": _row(tensor.tensor_sum, A, Kind.MV, 1, [X, Y]),
    "tensor.wedge": _row(tensor.wedge, X, Y),
    "tensor.sym_product": _row(tensor.sym_product, S, X),
    "tensor.as_sym": _row(tensor.as_sym, X),
    "tensor.mixed_from_vector": _row(tensor.mixed_from_vector, X),
    "tensor.vector_from_mixed": _row(tensor.vector_from_mixed,
                                     tensor.mixed_from_vector(X)),
    "tensor.contract": _row(tensor.contract, X, NU),
    "tensor.contract_mixed": _row(tensor.contract_mixed, K, NU),
    "tensor.evaluate": _row(tensor.evaluate, NU, [X, Y]),
    "tensor.remap": _row(tensor.remap, X, A, {0: 1, 1: 0}, None),
    "tensor.basis_keys": _row(tensor.basis_keys, A, Kind.MIXED, 1),
    "tensor.random_coefficient": _row(tensor.random_coefficient, random.Random(0),
                                      A.base, 2),
    "tensor.random_tensor": _row(tensor.random_tensor, random.Random(0), A, Kind.MV,
                                 1, 2, 3),
    "tensor.pretty": _row(tensor.pretty, X),
    "lifts.iota": _row(lifts.iota, A, X),
    "lifts.vertical_lift_V": _row(lifts.vertical_lift_V, A, X),
    "lifts.complete_lift_T": _row(lifts.complete_lift_T, A, X),
    "lifts.vertical_pi": _row(lifts.vertical_pi, A, MU),
    "lifts.vertical_tau": _row(lifts.vertical_tau, A, X),
    "lifts.cot_complete_G_vec": _row(lifts.cot_complete_G_vec, A, X),
    "lifts.J_map": _row(lifts.J_map, A, K),
    "lifts.G_map": _row(lifts.G_map, A, K),
    "lifts.canonical_transport": _row(lifts.canonical_transport, "kappa",
                                      lifts.vertical_lift_V(C, XC)),
    "lifts.classical_vertical_lift": _row(lifts.classical_vertical_lift, XC),
    "lifts.classical_complete_lift": _row(lifts.classical_complete_lift, XC),
    "lifts.Jstar": _row(lifts.Jstar, KC),
    "lifts.H_map": _row(lifts.H_map, KC),
    "poisson.build_poisson": _row(poisson.build_poisson, PS.chart, PS.bivector),
    "poisson.poisson_bracket": _row(poisson.poisson_bracket, PS, "x", "p"),
    "poisson.cotangent_algebroid": _row(poisson.cotangent_algebroid, PS),
    "poisson.koszul_schouten": _row(poisson.koszul_schouten, PS, MU_O, F_O),
    "poisson.lambda_p": _row(poisson.lambda_p, PS, MU_O, "star"),
    "poisson.r_p": _row(poisson.r_p, PS, MU_O),
    "poisson.h_p": _row(poisson.h_p, PS, F_O),
    "poisson.g_p": _row(poisson.g_p, PS, F_O),
    "poisson.extended_bracket": _row(poisson.extended_bracket, PS, MU_O, F_O),
    "poisson.tangent_poisson": _row(poisson.tangent_poisson, PS),
    "model.loads_model": _row(model.loads_model, '{"charts": {"line": ["x"]}}'),
    "model.load_model": _row(model.load_model, "fixtures/so3.json"),
    "model.tensor_key_string": _row(model.tensor_key_string, Kind.MIXED, ((0,), 1)),
    "model.model_document": _row(model.model_document, SMALL),
    "model.dumps_model": _row(model.dumps_model, SMALL),
    "model.builtin_model": _row(model.builtin_model),
    "suites.run_suite": _row(suites.run_suite, "eq-1-12", SMALL, 0, 1),
    "suites.run_all": _row(suites.run_all, SMALL, 0, 1),
}

#: An operator dispatches on its left operand, so only its right one is replaced.
OPERATORS = {"tensor.GradedTensor.__add__", "tensor.GradedTensor.__sub__",
             "tensor.GradedTensor.__mul__"}

FOREIGN = so3()


def _foreign(value):
    """A tensor over another owner: of ``value``'s kind and degree where
    ``value`` is a tensor, else a section."""
    if not isinstance(value, GradedTensor):
        return FOREIGN.e(0)
    keys = basis_keys(FOREIGN, value.kind, value.degree)
    if not keys:
        return GradedTensor.zero(FOREIGN, value.kind, value.degree)
    return GradedTensor.basis(FOREIGN, value.kind, keys[0])


def _replacements(value):
    return [("None", None), ("int", 3), ("str", "a"), ("foreign", _foreign(value))]


def _public_functions():
    """The qualified names of the public functions the modules define."""
    return {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            for module in MODULES
            for name, value in inspect.getmembers(module, inspect.isfunction)
            if not name.startswith("_") and value.__module__ == module.__name__}


def _missing_rows(rows):
    return _public_functions() - set(rows)


def test_every_public_function_has_a_row():
    assert {"algebroid.validate", "tensor.wedge"} <= _public_functions()
    assert _missing_rows(ROWS) == set()


def test_a_missing_row_is_reported():
    rows = dict(ROWS)
    del rows["tensor.wedge"], rows["poisson.r_p"]
    assert _missing_rows(rows) == {"tensor.wedge", "poisson.r_p"}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_argument_fails_closed(name):
    function, args, kwargs = ROWS[name]
    function(*args, **kwargs)  # the row itself is a valid call
    slots = [(i, None) for i in range(len(args))] + [(None, k) for k in kwargs]
    if name in OPERATORS:
        slots = slots[1:]
    for position, keyword in slots:
        value = args[position] if keyword is None else kwargs[keyword]
        for label, bad in _replacements(value):
            bad_args, bad_kwargs = list(args), dict(kwargs)
            if keyword is None:
                bad_args[position] = bad
            else:
                bad_kwargs[keyword] = bad
            try:
                function(*bad_args, **bad_kwargs)
            except AlgebroidError:
                pass
            except Exception as exc:  # noqa: BLE001 - the failure under test
                pytest.fail(f"{name} with argument {keyword or position} as {label} "
                            f"raised {type(exc).__name__}: {exc}")


#: Calls that raised ``AttributeError`` before every operand was guarded.
PROBES = {
    "differential(A, None)": lambda: calculus.differential(A, None),
    "wedge(x, 3)": lambda: tensor.wedge(X, 3),
    "x + 1.5": lambda: X + 1.5,
    "x - None": lambda: X - None,
    "section_bracket(A, 1, x)": lambda: algebroid.section_bracket(A, 1, X),
    "schouten(A, x, None)": lambda: calculus.schouten(A, X, None),
    "lie_derivative(A, x, 3)": lambda: calculus.lie_derivative(A, X, 3),
    "nr_bracket(x, 'a')": lambda: calculus.nr_bracket(X, "a"),
    "contract(None, x)": lambda: tensor.contract(None, X),
    "vertical_lift_V(A, None)": lambda: lifts.vertical_lift_V(A, None),
    "iota(A, None)": lambda: lifts.iota(A, None),
    "anchor_apply(A, None)": lambda: algebroid.anchor_apply(A, None),
    "Jstar(None)": lambda: lifts.Jstar(None),
    "r_p(ps, None)": lambda: poisson.r_p(PS, None),
}


@pytest.mark.parametrize("call", sorted(PROBES))
def test_probed_calls_raise_algebroid_errors(call):
    with pytest.raises(AlgebroidError):
        PROBES[call]()


def _structure(table):
    """A rank-2 algebroid over the line with structure data ``table``."""
    return lambda: algebroid.build_algebroid(LINE, ("e", "f"), ((1,), (0,)), table)


#: Calls with a bad argument below the top level, and the error each raises:
#: structure data whose key is not a pair of ints or whose target is not an
#: int, a fiber index out of range, and a dual or total-space name, given
#: or derived from a fiber name, that is no coordinate name; then values the
#: replacements do not try: unhashable names, bytes that are not UTF-8, an
#: int past the digit limit and a NUL in a model path.
NESTED = {
    "structure key ('a', 1)": (KindMismatch, _structure({("a", 1): {0: 1}})),
    "structure key (0,)": (KindMismatch, _structure({(0,): {0: 1}})),
    "structure key (0, 1, 2)": (KindMismatch, _structure({(0, 1, 2): {0: 1}})),
    "structure key 'ab'": (KindMismatch, _structure({"ab": {0: 1}})),
    "structure target 'k'": (KindMismatch, _structure({(0, 1): {"k": 1}})),
    "anchor_derivative(A, 7, f)": (DimensionMismatch,
                                   lambda: algebroid.anchor_derivative(A, 7, F)),
    "anchor_derivative(A, -1, f)": (DimensionMismatch,
                                    lambda: algebroid.anchor_derivative(A, -1, F)),
    "dual name '1 2'": (DimensionMismatch, lambda: algebroid.build_algebroid(
        LINE, ("e",), ((1,),), dual_names=("1 2",))),
    "fiber name 'e f'": (DimensionMismatch, lambda: algebroid.build_algebroid(
        LINE, ("e f",), ((1,),))),
    "fiber name 'e f', dual names given": (DimensionMismatch, lambda: algebroid.build_algebroid(
        LINE, ("e f",), ((1,),), dual_names=("xi",))),
    "loads_model(b'\\xff')": (ParseError, lambda: model.loads_model(b"\xff")),
    "loads_model('1' * 5000)": (ParseError, lambda: model.loads_model("1" * 5000)),
    "load_model('a\\0b')": (ParseError, lambda: model.load_model("a\0b")),
    "Model.owner_named([1])": (UnknownName, lambda: BUILTIN.owner_named([1])),
    "Model.poisson_structure([1])": (UnknownName, lambda: BUILTIN.poisson_structure([1])),
    "Model.tensor([1])": (UnknownName, lambda: BUILTIN.tensor([1])),
    "run_suite([1])": (UnknownName, lambda: suites.run_suite([1], SMALL)),
}


@pytest.mark.parametrize("call", sorted(NESTED))
def test_nested_arguments_fail_closed(call):
    error, probe = NESTED[call]
    with pytest.raises(error):
        probe()


def test_a_model_whose_fiber_name_makes_no_dual_name_exits_2(tmp_path, capsys):
    with open("fixtures/so3.json", encoding="utf-8") as handle:
        document = json.load(handle)
    document["algebroids"]["so3"]["fibers"][0] = "e f"
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert "xi_e f" in report["error"]["message"]


def test_a_model_whose_fiber_name_makes_no_total_space_name_exits_2(tmp_path, capsys):
    with open("fixtures/so3.json", encoding="utf-8") as handle:
        document = json.load(handle)
    body = document["algebroids"]["so3"]
    body["fibers"][0] = "e f"
    body["duals"] = ["xi", "xi_2", "xi_3"]  # a valid dual chart
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert "y_e f" in report["error"]["message"]

