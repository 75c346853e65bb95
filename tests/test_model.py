"""The model file format: decoding with located errors, eager validation,
and the canonical-dump round trip.
"""

import copy
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import model as model_module
from algebroids.algebroid import (
    build_algebroid,
    canonical_algebroid,
    cotangent_lift,
    dual_chart,
    linear_poisson,
    tangent_lift,
)
from algebroids.errors import AlgebroidError, ParseError, UnknownName, ValidationError
from algebroids.fixtures import ALGEBROIDS, broken_anchor, broken_jacobi, so3
from algebroids.model import (
    Model,
    builtin_model,
    dumps_model,
    load_model,
    loads_model,
    model_document,
    tensor_key_string,
)
from algebroids.poisson import PoissonStructure, build_poisson
from algebroids.ring import Chart, parse_poly
from algebroids.suites import run_all, run_suite
from algebroids.tensor import GradedTensor, Kind, pretty

MINIMAL = """
{
  "charts": {"plane": ["x", "y"]},
  "tensors": {
    "w": {"owner": "plane", "kind": "mv", "degree": 2,
          "terms": {"1,2": "x^2 - y"}}
  }
}
"""


def test_minimal_document():
    model = loads_model(MINIMAL)
    w = model.tensor("w")
    assert w.kind is Kind.MV and w.degree == 2
    assert pretty(w) == "(x^2 - y)*e_x∧e_y"
    assert model.owner_named("plane") == canonical_algebroid(Chart(("x", "y")))


def test_round_trip_is_byte_identical():
    text = dumps_model(builtin_model())
    assert dumps_model(loads_model(text)) == text
    # and the canonical form is stable, not merely idempotent from this seed
    assert text.endswith("\n")
    assert json.loads(text)  # well-formed


def test_shipped_files_round_trip():
    for path in ("fixtures/standard.json", "fixtures/so3.json"):
        with open(path) as handle:
            text = handle.read()
        assert dumps_model(load_model(path)) == text


def test_shipped_standard_matches_builtin():
    assert dumps_model(load_model("fixtures/standard.json")) == \
        dumps_model(builtin_model())


def test_so3_file_contents():
    model = load_model("fixtures/so3.json")
    assert list(model.algebroids) == ["so3"]
    assert model.algebroids["so3"] == so3()
    assert model.algebroids["so3"].base.coords == ()


def test_broken_fixture_files_fail_validation():
    with pytest.raises(ValidationError) as err:
        load_model("fixtures/broken_anchor.json")
    assert err.value.witness["pair"] == ["e1", "e2"]
    assert "residual" in err.value.witness

    with pytest.raises(ValidationError) as err:
        load_model("fixtures/broken_jacobi.json")
    assert err.value.witness["triple"] == ["1", "2", "3"]


def test_a_structure_failing_its_axioms_names_itself_and_keeps_the_witness():
    with pytest.raises(ValidationError) as err:
        load_model("fixtures/broken_anchor.json")
    assert str(err.value) == ("algebroid 'broken-anchor': anchor fails to "
                              "intertwine brackets on (e1, e2)")
    doc = {"charts": {"c": ["x", "y", "z"]},
           "poisson": {"p": {"chart": "c", "bivector": {"1,2": "x", "2,3": "y"}}}}
    with pytest.raises(ValidationError) as err:
        loads_model(json.dumps(doc))
    assert str(err.value) == "poisson 'p': the self-bracket [P, P] does not vanish"
    assert err.value.witness == {"residual": "2*x*e_x∧e_y∧e_z"}


#: The longest model file ``load_model`` reads, as README "Input limits" states.
MODEL_BOUND = 1_000_000


def padded_model(tmp_path, length):
    """``fixtures/standard.json`` padded with trailing spaces to ``length``
    characters."""
    with open("fixtures/standard.json", encoding="utf-8") as handle:
        text = handle.read().ljust(length)
    path = tmp_path / f"padded-{length}.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_model_bound_is_the_documented_one():
    from algebroids import model

    assert model.MAX_MODEL_CHARS == MODEL_BOUND


def test_model_at_the_size_bound_loads(tmp_path):
    loaded = load_model(padded_model(tmp_path, MODEL_BOUND))
    assert loaded.algebroids == load_model("fixtures/standard.json").algebroids


def test_model_past_the_size_bound_is_a_parse_error(tmp_path):
    path = padded_model(tmp_path, MODEL_BOUND + 1)
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert str(path) in str(err.value) and str(MODEL_BOUND) in str(err.value)


def test_unchecked_structures_still_dump():
    # the broken files were produced by dumping unvalidated builders
    model = Model(charts={"line": Chart(("x",))},
                  algebroids={"broken-anchor": broken_anchor()})
    text = dumps_model(model)
    with open("fixtures/broken_anchor.json") as handle:
        assert text == handle.read()
    model = Model(charts={"base": Chart(())},
                  algebroids={"bad2": broken_jacobi()})
    assert "bad2" in dumps_model(model)  # names come from the model


def test_parse_error_locations():
    with pytest.raises(ParseError) as err:
        loads_model("{not json")
    assert "JSON" in str(err.value)

    with pytest.raises(ParseError) as err:
        loads_model('{"charts": {"c": ["x"]}, "tensors": {"t": '
                    '{"owner": "c", "kind": "mv", "degree": 1, '
                    '"terms": {"0": "x"}}}}')
    assert "1-based" in str(err.value)

    with pytest.raises(ParseError) as err:
        loads_model('{"charts": {"c": ["x"]}, "tensors": {"t": '
                    '{"owner": "c", "kind": "mv", "degree": 1, '
                    '"terms": {"1": "x +"}}}}')
    assert "tensors" in str(err.value) and "t" in str(err.value)

    with pytest.raises(ParseError):
        loads_model('{"charts": {"c": ["x"]}, "tensors": {"t": '
                    '{"owner": "c", "kind": "vector", "degree": 1, '
                    '"terms": {}}}}')

    for key, value in (("trials", 0), ("max_degree", -1)):
        with pytest.raises(ParseError) as err:
            loads_model(f'{{"suite": {{"{key}": {value}}}}}')
        assert f"suite.{key}" in str(err.value)


def test_unresolved_names():
    with pytest.raises(ParseError):
        loads_model('{"algebroids": {"A": {"chart": "missing", '
                    '"fibers": ["e"], "anchor": [[]], "c": {}}}}')
    model = loads_model(MINIMAL)
    with pytest.raises(UnknownName):
        model.tensor("nope")
    with pytest.raises(UnknownName):
        model.owner_named("nope")
    with pytest.raises(UnknownName):
        model.algebroid("plane")  # a chart, not an algebroid


def test_poisson_entries_expose_bivectors():
    model = builtin_model()
    p = model.tensor("poisson-plane")
    assert p.kind is Kind.MV and p.degree == 2
    assert model.tensor("P") == model.poisson["poisson-four"].bivector


def test_key_strings():
    assert tensor_key_string(Kind.MV, (0, 2)) == "1,3"
    assert tensor_key_string(Kind.FORM, ()) == ""
    assert tensor_key_string(Kind.MIXED, ((0, 1), 2)) == "1,2|3"


#: A library-built model with one table entry of the wrong type, per table.
WRONG_ENTRIES = {
    "charts": lambda: Model(charts={"c": ("x",)}),
    "algebroids": lambda: Model(algebroids={"x": 3}),
    "algebroid name": lambda: Model(algebroids={1: so3()}),
    "poisson": lambda: Model(poisson={"P": so3()}),
    "poisson parts": lambda: Model(poisson={"P": PoissonStructure(3, None)}),
    "tensors": lambda: Model(tensors={"t": 3}),
    "tensor_owners": lambda: Model(tensor_owners={"t": None}),
    "suite value": lambda: Model(suite={"trials": True}),
    "suite key": lambda: Model(suite={"trails": 3}),
    "table": lambda: _with(Model(), charts=[]),
}


def _with(model, **tables):
    for name, value in tables.items():
        setattr(model, name, value)
    return model


@pytest.mark.parametrize("case", sorted(WRONG_ENTRIES))
def test_a_wrong_table_entry_is_a_validation_error(case):
    """The model check of the suite entry points and the dump: a library
    caller gets a ValidationError, not an AttributeError from a kernel."""
    model = WRONG_ENTRIES[case]()
    for call in (lambda: run_suite("theorem-1", model, trials=1),
                 lambda: run_all(model, trials=1),
                 lambda: model_document(model), lambda: dumps_model(model)):
        with pytest.raises(ValidationError):
            call()


#: One document per place that holds index keys, with one key marked
#: ``KEY``, and the canonical key that makes it load.
_SO3_TEMPLATE = ('{"charts": {"p": []}, "algebroids": {"so3": {"chart": "p", '
                 '"fibers": ["1", "2", "3"], "anchor": [[], [], []], "c": {%s}}}}')
KEYED_DOCUMENTS = {
    "c-pair": ("1,2", _SO3_TEMPLATE % '"KEY": {"3": "1"}, "1,3": {"2": "-1"}, '
               '"2,3": {"1": "1"}'),
    "c-target": ("3", _SO3_TEMPLATE % '"1,2": {"KEY": "1"}, "1,3": {"2": "-1"}, '
                 '"2,3": {"1": "1"}'),
    "bivector": ("1,2", '{"charts": {"c": ["x", "p"]}, '
                 '"poisson": {"P": {"chart": "c", "bivector": {"KEY": "1"}}}}'),
    "tensor": ("1,2", '{"charts": {"c": ["x", "y"]}, "tensors": {"t": {"owner": "c", '
               '"kind": "mv", "degree": 2, "terms": {"KEY": "x"}}}}'),
    "mixed-tensor": ("1|2", '{"charts": {"c": ["x", "y"]}, "tensors": {"t": {"owner": '
                     '"c", "kind": "mixed", "degree": 1, "terms": {"KEY": "x"}}}}'),
}
#: Spellings of each canonical key above that ``int()`` reads as it.
OTHER_SPELLINGS = {"1,2": [" 1,+2", "1,0_2", "01,2"], "3": [" +3", "0_3", "03"],
                   "1|2": ["01|2", "1| 2", "1|0_2"]}


@pytest.mark.parametrize("place", sorted(KEYED_DOCUMENTS))
def test_only_canonical_index_keys_are_read(place):
    key, template = KEYED_DOCUMENTS[place]
    loads_model(template.replace("KEY", key))
    for spelling in OTHER_SPELLINGS[key]:
        with pytest.raises(ParseError, match="1-based"):
            loads_model(template.replace("KEY", spelling))


@pytest.mark.parametrize("place", ["c-pair", "bivector", "tensor"])
def test_two_spellings_of_one_key_are_a_parse_error(place):
    """Read with ``int()``, both spellings named one pair, and the later
    one's column, bivector entry or tensor term silently replaced the
    earlier one's."""
    key, template = KEYED_DOCUMENTS[place]
    doc = json.loads(template.replace("KEY", key))
    holder = {"c-pair": lambda d: d["algebroids"]["so3"]["c"],
              "bivector": lambda d: d["poisson"]["P"]["bivector"],
              "tensor": lambda d: d["tensors"]["t"]["terms"]}[place](doc)
    holder["01,2"] = copy.deepcopy(holder["1,2"])
    with pytest.raises(ParseError, match="1-based"):
        loads_model(json.dumps(doc))


def test_suite_defaults_survive_round_trip():
    model = builtin_model()
    assert model.suite == {"seed": 0, "trials": 50}
    again = loads_model(dumps_model(model))
    assert again.suite == model.suite


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_lifts_keep_their_dual_names_through_a_document(name):
    A = ALGEBROIDS[name]()
    lifts = {"T": tangent_lift(A), "C": cotangent_lift(A)}
    model = Model(charts={"t": lifts["T"].base, "c": lifts["C"].base}, algebroids=lifts)
    text = dumps_model(model)
    back = loads_model(text)
    for key, lift in lifts.items():
        again = back.algebroids[key]
        assert again == lift and again.dual_names == lift.dual_names
        assert json.loads(text)["algebroids"][key]["duals"] == list(lift.dual_names)
        assert dual_chart(again) is dual_chart(lift)
        assert linear_poisson(again) is linear_poisson(lift)
    assert dumps_model(back) == text


def test_default_dual_names_are_not_written():
    for path in ("fixtures/standard.json", "fixtures/so3.json"):
        for body in json.loads(dumps_model(load_model(path)))["algebroids"].values():
            assert "duals" not in body


def so3_document(duals):
    return json.dumps({"charts": {"point": []},
                       "algebroids": {"so3": {
                           "chart": "point", "fibers": ["1", "2", "3"],
                           "anchor": [[], [], []],
                           "c": {"1,2": {"3": "1"}, "1,3": {"2": "-1"}, "2,3": {"1": "1"}},
                           "duals": duals}}})


def test_written_duals_are_read_back():
    A = loads_model(so3_document(["a", "b", "c"])).algebroids["so3"]
    assert A.dual_names == ("a", "b", "c") and A != so3()
    assert loads_model(so3_document(["xi_1", "xi_2", "xi_3"])).algebroids["so3"] == so3()


#: ``duals`` that are not one distinct coordinate name per fiber.
HOSTILE_DUALS = {
    "short": ["a", "b"],
    "long": ["a", "b", "c", "d"],
    "duplicate": ["a", "b", "a"],
    "not-a-string": ["a", 2, "c"],
    "null-name": ["a", None, "c"],
    "null": None,
    "not-a-list": "abc",
    "object": {"1": "a", "2": "b", "3": "c"},
    "not-a-name": ["a", "b", "c d"],
}


@pytest.mark.parametrize("case", sorted(HOSTILE_DUALS))
def test_hostile_duals_fail_closed(case):
    with pytest.raises(ValidationError) as err:
        loads_model(so3_document(HOSTILE_DUALS[case]))
    assert str(err.value).startswith("algebroids.so3.duals: ")


# -- whole documents fail closed ------------------------------------------------

_COORDS = ("x", "y", "z")


@st.composite
def _poly_texts(draw, coords):
    """A polynomial string over ``coords``: up to three terms of degree at
    most 3 with rational coefficients."""
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        factors = draw(st.lists(st.sampled_from(coords), max_size=3)) if coords else []
        pieces.append("*".join([str(coeff)] + factors))
    return " + ".join(pieces) or "0"


def dumps_algebroid(A):
    """The document body of one algebroid, as ``dumps_model`` writes it."""
    return json.loads(dumps_model(Model(charts={"base": A.base},
                                        algebroids={"A": A})))["algebroids"]["A"]


@st.composite
def _documents(draw):
    """A model document of at most 3 coordinates and 3 fibers: a shipped
    structure that small, or fresh entries, with a Poisson bivector over
    charts of 2 or more coordinates."""
    if draw(st.booleans()):
        A = draw(st.sampled_from([make() for make in ALGEBROIDS.values()]))
        coords = list(A.base.coords)
        doc = {"charts": {"base": coords}, "algebroids": {"A": dumps_algebroid(A)}}
        bivector = "1"
    else:
        coords = list(_COORDS[:draw(st.integers(0, 3))])
        rank = draw(st.integers(1, 3))
        poly = _poly_texts(coords)
        pairs = [f"{i},{j}" for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
        doc = {"charts": {"base": coords},
               "algebroids": {"A": {
                   "chart": "base", "fibers": [f"e{i + 1}" for i in range(rank)],
                   "anchor": [[draw(poly) for _ in coords] for _ in range(rank)],
                   "c": {pair: {str(draw(st.integers(1, rank))): draw(poly)}
                         for pair in pairs if draw(st.booleans())}}}}
        bivector = draw(poly)
    if len(coords) > 1:
        doc["poisson"] = {"P": {"chart": "base", "bivector": {"1,2": bivector}}}
    return doc


#: What a mutation puts in place of a value: floats, None, lists, wrong
#: lengths, bad pair keys and other strings.
_JUNK = st.sampled_from([1.5, float("nan"), None, [], [1], ["x"], [[]], {}, 0, -1,
                         True, "", "x", "1,2", "2,1", "0,1", "1,2,3", "a,b",
                         "x^", "1/0", {"1,2": {"1": "1"}}, {"9": "x"}])


def _paths(node, path=()):
    """Every path to a value inside a JSON document."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def _mutated_documents(draw):
    doc = draw(_documents())
    coords = list(doc["charts"]["base"])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_paths(doc), key=repr)))
        if not path:
            continue
        *outer, last = path
        parent = doc
        for step in outer:
            parent = parent[step]
        action = draw(st.sampled_from(["junk", "key", "drop", "grow", "perturb"]))
        value = parent[last]
        if action == "key" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["0,1", "2,1", "1,1", "1,9", "1", "1,2,3",
                                         "a,b", "", "-1,2", "x"]))] = parent.pop(last)
        elif action == "drop" and isinstance(value, list) and value:
            value.pop()
        elif action == "grow" and isinstance(value, list):
            value.append(copy.deepcopy(value[0]) if value else "1")
        elif action == "perturb" and isinstance(value, str):
            parent[last] = f"{value} + {draw(_poly_texts(coords))}"
        else:
            parent[last] = copy.deepcopy(draw(_JUNK))
    return doc


@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_whole_documents_fail_closed(doc):
    try:
        loads_model(json.dumps(doc))
    except AlgebroidError:
        pass


def test_json_nested_past_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        loads_model("[" * 100000 + "]" * 100000)


#: The so(3) basis rescaled to e_i' = λ_i e_i with λ = (1/2, 2/3, 3), so
#: that c'_ij^k = λ_i λ_j / λ_k c_ij^k: structure constants 1/9, -9/4 and 4.
#: No shipped fixture has a non-integral coefficient.
_RESCALED = (Fraction(1, 2), Fraction(2, 3), Fraction(3))

#: SHA-256 of ``run_all`` over the rescaled so(3) at seed 0 and 50 trials,
#: serialized as the CLI prints a report.  Recorded before the product kernel
#: summed non-integral products over a common denominator, so it pins that
#: route to the reports of the per-term ``Fraction`` arithmetic it replaced.
RATIONAL_REPORT_DIGEST = "ca5293cc338e5be59eaa4b4a1c2fd601967cbeb6a1163f12aa28a1ffcf76eca1"


def test_a_rescaled_rational_model_keeps_its_recorded_report():
    lam = _RESCALED
    c = {f"{i + 1},{j + 1}": {str(k + 1): str(sign * lam[i] * lam[j] / lam[k])}
         for (i, j), (k, sign) in {(0, 1): (2, 1), (0, 2): (1, -1),
                                   (1, 2): (0, 1)}.items()}
    assert c == {"1,2": {"3": "1/9"}, "1,3": {"2": "-9/4"}, "2,3": {"1": "4"}}
    model = loads_model(json.dumps({
        "charts": {"point": []},
        "algebroids": {"so3": {"chart": "point", "fibers": ["1", "2", "3"],
                               "anchor": [[], [], []], "c": c}},
        "suite": {"seed": 0, "trials": 50}}))
    results = run_all(model)
    assert all(item["status"] == "pass" for result in results
               for item in result["items"])
    assert [result["status"] for result in results] == ["pass"] * len(results)
    text = json.dumps(results, indent=2, ensure_ascii=False)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RATIONAL_REPORT_DIGEST


# -- the document writer against the stdlib encoder ------------------------------

def _stdlib_text(model):
    """The text ``dumps_model`` must equal: the stdlib encoder's."""
    return json.dumps(model_document(model), indent=2, ensure_ascii=False) + "\n"


#: Every shipped fixture file as a model: the valid ones as loaded, the
#: broken ones as their unvalidated builders (which dump to those files).
FIXTURE_MODELS = {
    "standard.json": lambda: load_model("fixtures/standard.json"),
    "so3.json": lambda: load_model("fixtures/so3.json"),
    "broken_anchor.json": lambda: Model(charts={"line": Chart(("x",))},
                                        algebroids={"broken-anchor": broken_anchor()}),
    "broken_jacobi.json": lambda: Model(charts={"base": Chart(())},
                                        algebroids={"broken-jacobi": broken_jacobi()}),
}


def test_every_fixture_file_has_a_model():
    assert sorted(FIXTURE_MODELS) == sorted(p.name for p in Path("fixtures").glob("*.json"))


@pytest.mark.parametrize("name", sorted(FIXTURE_MODELS))
def test_the_writer_matches_the_stdlib_on_the_fixtures(name):
    model = FIXTURE_MODELS[name]()
    text = dumps_model(model)
    assert text == _stdlib_text(model)
    with open(f"fixtures/{name}", encoding="utf-8") as handle:
        assert text == handle.read()


def test_the_writer_matches_the_stdlib_on_the_builtin_model():
    model = builtin_model()
    assert dumps_model(model) == _stdlib_text(model)


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_the_writer_matches_the_stdlib_on_the_lifted_models(name):
    A = ALGEBROIDS[name]()
    tangent, cotangent = tangent_lift(A), cotangent_lift(A)
    lifted = Model(charts={"base": A.base, "tangent": tangent.base,
                           "dual": cotangent.base},
                   algebroids={"tangent": tangent, "cotangent": cotangent},
                   poisson={"linear": linear_poisson(A)})
    assert dumps_model(lifted) == _stdlib_text(lifted)


#: Names that need quoting: quotes, backslashes, control characters
#: (escaped by JSON) and non-ASCII characters (written as they are), but
#: no lone surrogate, which no model may name.
_NAMES = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é∧😀 a'),
                           st.characters(blacklist_categories=("Cs",))),
                 min_size=1, max_size=6)

_PLANE = Chart(("x", "y"))


@st.composite
def _named_models(draw):
    """A model whose every name is drawn from :data:`_NAMES`: charts of no
    coordinate (an empty list) and of two, an algebroid with an empty
    structure table, a Poisson structure with an empty bivector, a tensor
    and suite ints of any size."""
    plane, point, algebroid, poisson, tensor = draw(
        st.lists(_NAMES, min_size=5, max_size=5, unique=True))
    owner = canonical_algebroid(_PLANE)
    zero = GradedTensor(owner, Kind.MV, 2, {})
    terms = {(0,): "1/2*x - y", (1,): "x^2"} if draw(st.booleans()) else {}
    ints = st.integers(-10**30, 10**30)
    return Model(charts={plane: _PLANE, point: Chart(())},
                 algebroids={algebroid: owner},
                 poisson={poisson: build_poisson(_PLANE, zero)},
                 tensors={tensor: GradedTensor(owner, Kind.FORM, 1, terms)},
                 tensor_owners={tensor: draw(st.sampled_from([plane, algebroid]))},
                 suite=draw(st.dictionaries(st.sampled_from(["seed", "trials", "max_degree"]),
                                            ints)))


@settings(max_examples=200, deadline=None)
@given(_named_models())
def test_the_writer_matches_the_stdlib_on_any_names(model):
    text = dumps_model(model)
    assert text == _stdlib_text(model)
    text.encode("utf-8")


# -- names that UTF-8 cannot hold -------------------------------------------------

#: A lone surrogate: JSON reads the escape ``"\\ud800"`` as it, but no UTF-8
#: text can hold it, so a report or document naming it could not be written.
_SURROGATE = "\ud800"

#: One entry per table of a document, each valid.
_ONE_OF_EACH = {
    "charts": {"plane": ["x", "y"]},
    "algebroids": {"A": {"chart": "plane", "fibers": ["e"], "anchor": [["1", "0"]]}},
    "poisson": {"P": {"chart": "plane", "bivector": {"1,2": "1"}}},
    "tensors": {"t": {"owner": "plane", "kind": "mv", "degree": 1,
                      "terms": {"1": "x"}}},
}


def test_the_document_with_one_entry_per_table_loads():
    assert dumps_model(loads_model(json.dumps(_ONE_OF_EACH)))


@pytest.mark.parametrize("table", sorted(_ONE_OF_EACH))
def test_a_name_utf8_cannot_hold_is_a_parse_error(table):
    doc = copy.deepcopy(_ONE_OF_EACH)
    (body,) = doc[table].values()
    doc[table] = {_SURROGATE: body}
    with pytest.raises(ParseError) as err:
        loads_model(json.dumps(doc))
    message = str(err.value)
    assert message.startswith(f"{table}: ") and "UTF-8" in message
    message.encode("utf-8")  # the report can be written


#: A library-built model naming a lone surrogate in each place a name is
#: written: a table key, or the owner name of a tensor.
_SURROGATE_MODELS = {
    "chart": lambda: Model(charts={_SURROGATE: _PLANE}),
    "algebroid": lambda: Model(charts={"plane": _PLANE},
                               algebroids={_SURROGATE: canonical_algebroid(_PLANE)}),
    "tensor": lambda: Model(charts={"plane": _PLANE}, tensors={
        _SURROGATE: GradedTensor(canonical_algebroid(_PLANE), Kind.MV, 1, {})}),
    "tensor owner": lambda: Model(charts={"plane": _PLANE}, tensors={
        "t": GradedTensor(canonical_algebroid(_PLANE), Kind.MV, 1, {})},
        tensor_owners={"t": _SURROGATE}),
}


@pytest.mark.parametrize("case", sorted(_SURROGATE_MODELS))
def test_a_hand_built_name_utf8_cannot_hold_is_a_validation_error(case):
    model = _SURROGATE_MODELS[case]()
    for call in (lambda: run_suite("theorem-1", model, trials=1),
                 lambda: model_document(model), lambda: dumps_model(model)):
        with pytest.raises(ValidationError) as err:
            call()
        assert "UTF-8" in str(err.value)
        str(err.value).encode("utf-8")


# -- each distinct entry of a document is read once per chart ---------------------

def _rotation():
    """so(3) acting on space by its rotation fields, in coordinates
    translated by (1/3, -2, 5/7), with the basis rescaled by
    :data:`_RESCALED`: a rational document whose anchor is mostly zero."""
    lam = _RESCALED
    translated = ("(x + 1/3)", "(y - 2)", "(z + 5/7)")
    # R_1 = (0, z, -y), R_2 = (-z, 0, x), R_3 = (y, -x, 0): {(i, a): (b, sign)}
    # says component a of R_i is sign times coordinate b
    shape = {(0, 1): (2, 1), (0, 2): (1, -1), (1, 0): (2, -1), (1, 2): (0, 1),
             (2, 0): (1, 1), (2, 1): (0, -1)}
    anchor = [["0"] * 3 for _ in range(3)]
    for (i, a), (b, sign) in shape.items():
        anchor[i][a] = f"{sign * lam[i]}*{translated[b]}"
    structure = {(i, j): {k: sign * lam[i] * lam[j] / lam[k]}
                 for (i, j), (k, sign) in {(0, 1): (2, 1), (0, 2): (1, -1),
                                           (1, 2): (0, 1)}.items()}
    return build_algebroid(Chart(("x", "y", "z")), ("r1", "r2", "r3"), anchor, structure)


def _lifted_text(A):
    """The document of ``A`` with its tangent and cotangent lifts and its
    linear Poisson structure."""
    tangent, cotangent = tangent_lift(A), cotangent_lift(A)
    return dumps_model(Model(charts={"base": A.base, "tangent": tangent.base,
                                     "dual": cotangent.base},
                             algebroids={"A": A, "tangent": tangent,
                                         "cotangent": cotangent},
                             poisson={"linear": linear_poisson(A)}))


def _entries(doc):
    """Every polynomial entry of a document as (chart name, text)."""
    for body in doc.get("algebroids", {}).values():
        for row in body["anchor"]:
            yield from ((body["chart"], text) for text in row)
        for column in body.get("c", {}).values():
            yield from ((body["chart"], text) for text in column.values())
    for body in doc.get("poisson", {}).values():
        yield from ((body["chart"], text) for text in body["bivector"].values())


@pytest.fixture
def parses(monkeypatch):
    """The (chart, text) pairs ``loads_model`` hands the parser, in order."""
    calls = []

    def counting(text, chart):
        calls.append((chart, text))
        return parse_poly(text, chart)

    monkeypatch.setattr(model_module, "parse_poly", counting)
    return calls


def test_each_distinct_entry_of_a_chart_is_parsed_once(parses):
    text = _lifted_text(_rotation())
    model = loads_model(text)
    names = {id(chart): name for name, chart in model.charts.items()}
    read = [(names[id(chart)], entry) for chart, entry in parses]
    entries = list(_entries(json.loads(text)))
    assert sorted(read) == sorted(set(entries))
    assert len(read) < len(entries)  # 57 texts for 111 entries: "0" and the lifted rows


def test_equal_entries_of_one_chart_are_one_object():
    model = loads_model(_lifted_text(_rotation()))
    seen = {}
    for A in model.algebroids.values():
        polys = [p for row in A.anchor for p in row]
        polys += [p for column in A.structure.values() for p in column.values()]
        for p in polys:
            assert seen.setdefault((id(p.chart), str(p)), p) is p
    # the tangent lift prints each anchor entry of A twice, once per half
    anchor = model.algebroids["tangent"].anchor
    assert str(anchor[0][4]) == "1/2*z + 5/14" and anchor[0][4] is anchor[3][1]


def test_equal_charts_of_two_names_keep_their_own_entries():
    model = loads_model(json.dumps({
        "charts": {"a": ["x"], "b": ["x"]},
        "algebroids": {name: {"chart": chart, "fibers": ["e"], "anchor": [["1/2*x"]]}
                       for name, chart in (("A", "a"), ("B", "b"))}}))
    a, b = model.charts["a"], model.charts["b"]
    assert a == b and a is not b
    p, q = (model.algebroids[name].anchor[0][0] for name in "AB")
    assert p == q and p is not q
    assert p.chart is a and q.chart is b


def test_no_entry_is_kept_from_one_document_to_the_next(parses):
    text = _lifted_text(_rotation())
    first = loads_model(text)
    calls = len(parses)
    second = loads_model(text)
    assert len(parses) == 2 * calls
    assert first.algebroids["A"].anchor[0][1] is not second.algebroids["A"].anchor[0][1]


@pytest.mark.parametrize("bad, message", [
    ("x^", "expected a nonnegative integer exponent (at position 2)"),
    ("1/0", "denominator must be positive (at position 2)"),
])
def test_a_repeated_bad_entry_names_its_first_place(bad, message):
    doc = {"charts": {"line": ["x"]},
           "algebroids": {"A": {"chart": "line", "fibers": ["e", "f"],
                                "anchor": [["x"], [bad]], "c": {"1,2": {"1": bad}}}}}
    with pytest.raises(ParseError) as err:
        loads_model(json.dumps(doc))
    assert str(err.value) == f"algebroids.A.anchor[2][1]: {message}"


#: The lifted document of each fixture algebroid and of the rotation one
#: (the shipped files and the built-in model read back in
#: test_shipped_files_round_trip and test_round_trip_is_byte_identical).
_LIFTED = {"rotation": _rotation, **ALGEBROIDS}


@pytest.mark.parametrize("name", sorted(_LIFTED))
def test_a_lifted_document_reads_back_to_its_text(name):
    text = _lifted_text(_LIFTED[name]())
    assert dumps_model(loads_model(text)) == text
