"""Model files: named charts, algebroids, Poisson structures and tensors in a
canonical JSON layout.

The schema is sparse and diff-friendly.  Top-level sections (each optional,
omitted when empty)::

    {
      "charts":     {name: [coord, ...]},
      "algebroids": {name: {"chart": name, "fibers": [name, ...],
                            "anchor": [[poly, ...], ...],
                            "c": {"i,j": {"k": poly}},
                            "duals": [name, ...]}},
      "poisson":    {name: {"chart": name, "bivector": {"i,j": poly}}},
      "tensors":    {name: {"owner": name, "kind": "mv"|"form"|"mixed"|"sym",
                            "degree": int, "terms": {key: poly}}},
      "suite":      {"seed": int, "trials": int, "max_degree": int}
    }

Index keys are comma-joined and 1-based ("1,3"); a mixed-tensor key appends
its fiber index after a bar ("1,2|3", degree zero is "|3").  Polynomials are
strings in the grammar of :func:`algebroids.ring.parse_poly` and are dumped in
canonical form, so ``dumps_model(load_model(path))`` returns the text of a
canonical file byte for byte.

An algebroid's ``duals`` (the coordinate names of its dual bundle's
fibers) are written only when they differ from the names
:func:`~algebroids.algebroid.build_algebroid` would choose, as for a
tangent or cotangent lift.

A tensor's ``owner`` may name either an algebroid or a chart; a chart name
stands for the canonical algebroid over that chart (which is how bivectors of
Poisson structures are owned).

``load_model`` is strict: a path that cannot be read as UTF-8 text, a file
longer than :data:`MAX_MODEL_CHARS` characters, malformed JSON or schema
violations raise ``ParseError`` with a location; ``duals`` that are not
one distinct coordinate name per fiber, and an algebroid or bivector that
fails its axioms, raise ``ValidationError`` (the latter carrying the
structured witness).
"""

from __future__ import annotations

import json
import os
import re

from . import fixtures
from .algebroid import (
    Algebroid,
    _dual_chart,
    build_algebroid,
    canonical_algebroid,
    default_dual_names,
    linear_poisson,
)
from .errors import (AlgebroidError, KindMismatch, ParseError, StructureViolation,
                     UnknownName, ValidationError)
from .poisson import PoissonStructure, build_poisson
from .ring import Chart, parse_poly
from .tensor import GradedTensor, Kind, _require

_KINDS = {kind.value: kind for kind in Kind}
_SUITE_KEYS = ("seed", "trials", "max_degree")
#: Smallest accepted value of each bounded suite setting.
_SUITE_MINIMA = {"trials": 1, "max_degree": 0}
#: Longest model file :func:`load_model` reads, in characters (about 400
#: times the shipped ``standard.json``); a longer one is a ``ParseError``.
MAX_MODEL_CHARS = 1_000_000


class Model:
    """A resolved bundle of named objects, as loaded from a model file.

    ``tensor_owners`` remembers the owner *name* each tensor was declared
    with, so a dump reproduces the author's wording.
    """

    __slots__ = ("charts", "algebroids", "poisson", "tensors", "tensor_owners",
                 "suite")

    def __init__(self, charts=None, algebroids=None, poisson=None,
                 tensors=None, tensor_owners=None, suite=None):
        self.charts: dict[str, Chart] = dict(charts or {})
        self.algebroids: dict[str, Algebroid] = dict(algebroids or {})
        self.poisson: dict[str, PoissonStructure] = dict(poisson or {})
        self.tensors: dict[str, GradedTensor] = dict(tensors or {})
        self.tensor_owners: dict[str, str] = dict(tensor_owners or {})
        self.suite: dict[str, int] = dict(suite or {})

    def __repr__(self):
        return (f"<Model charts={len(self.charts)} "
                f"algebroids={len(self.algebroids)} "
                f"poisson={len(self.poisson)} tensors={len(self.tensors)}>")

    def algebroid(self, name: str) -> Algebroid:
        try:
            return self.algebroids[name]
        except (KeyError, TypeError):
            raise UnknownName(f"no algebroid named {name!r} in the model") from None

    def poisson_structure(self, name: str) -> PoissonStructure:
        try:
            return self.poisson[name]
        except (KeyError, TypeError):
            raise UnknownName(f"no poisson structure named {name!r} in the model") from None

    def owner_named(self, name: str) -> Algebroid:
        """Resolve an owner name: an algebroid, or the canonical algebroid
        over a named chart."""
        try:
            if name in self.algebroids:
                return self.algebroids[name]
            if name in self.charts:
                return canonical_algebroid(self.charts[name])
        except TypeError:  # an unhashable name names nothing
            pass
        raise UnknownName(f"{name!r} names neither an algebroid nor a chart")

    def tensor(self, name: str) -> GradedTensor:
        """A named tensor; Poisson entries expose their bivector here too."""
        try:
            if name in self.tensors:
                return self.tensors[name]
            if name in self.poisson:
                return self.poisson[name].bivector
        except TypeError:  # an unhashable name names nothing
            pass
        raise UnknownName(f"no tensor named {name!r} in the model")


# -- decoding ----------------------------------------------------------------

def _expect_object(value, where):
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _expect_name(name, where):
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}: names must be non-empty strings")
    return name


def _decode_poly(text, chart, where):
    if not isinstance(text, str):
        raise ParseError(f"{where}: polynomials are strings, got {type(text).__name__}")
    try:
        return parse_poly(text, chart)
    except AlgebroidError as exc:
        raise ParseError(f"{where}: {exc}") from exc


#: A nonempty index key: 1-based indices in plain decimal, joined by commas.
_INDEX_KEY = re.compile(r"[1-9][0-9]*(?:,[1-9][0-9]*)*")


def _decode_indices(text, where, *, expect=None):
    """\"1,3\" (1-based) → (0, 2).  The empty string is the empty key.  Only
    this one spelling of a key is read (no sign, space, underscore or leading
    zero), so two keys of one object never name the same indices."""
    if not isinstance(text, str):
        raise ParseError(f"{where}: index keys are strings")
    if text and not _INDEX_KEY.fullmatch(text):
        raise ParseError(f"{where}: index keys are 1-based indices joined by "
                         f"commas, like \"1,3\", not {text!r}")
    try:
        out = tuple(int(part) - 1 for part in text.split(",")) if text else ()
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise ParseError(f"{where}: bad index key {text!r}") from None
    if expect is not None and len(out) != expect:
        raise ParseError(f"{where}: key {text!r} should list {expect} indices")
    return out


def _decode_chart(name, body):
    where = f"charts.{name}"
    if not isinstance(body, list) or not all(isinstance(c, str) for c in body):
        raise ParseError(f"{where}: a chart is a list of coordinate names")
    try:
        return Chart(tuple(body))
    except AlgebroidError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _violation(section, name, exc):
    """The ``ValidationError`` of the structure ``name`` of a model section
    that fails its axioms, carrying the violation's witness."""
    err = ValidationError(f"{section} {name!r}: {exc}")
    err.witness = dict(exc.witness)
    return err


def _decode_algebroid(name, body, charts):
    where = f"algebroids.{name}"
    body = _expect_object(body, where)
    unknown = set(body) - {"chart", "fibers", "anchor", "c", "duals"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    chart_name = body.get("chart")
    if not isinstance(chart_name, str) or chart_name not in charts:
        raise ParseError(f"{where}: unknown chart {chart_name!r}")
    chart = charts[chart_name]
    fibers = body.get("fibers")
    if (not isinstance(fibers, list) or not fibers
            or not all(isinstance(f, str) for f in fibers)):
        raise ParseError(f"{where}: 'fibers' is a non-empty list of names")
    rank = len(fibers)
    anchor_rows = body.get("anchor")
    if not isinstance(anchor_rows, list) or len(anchor_rows) != rank:
        raise ParseError(f"{where}: 'anchor' needs one row per fiber")
    anchor = []
    for i, row in enumerate(anchor_rows):
        if not isinstance(row, list) or len(row) != chart.dim:
            raise ParseError(
                f"{where}.anchor[{i + 1}]: expected {chart.dim} entries")
        anchor.append(tuple(
            _decode_poly(entry, chart, f"{where}.anchor[{i + 1}][{a + 1}]")
            for a, entry in enumerate(row)))
    structure = {}
    for pair_key, column in _expect_object(body.get("c", {}), f"{where}.c").items():
        i, j = _decode_indices(pair_key, f"{where}.c", expect=2)
        if not i < j < rank:
            raise ParseError(f"{where}.c: key {pair_key!r} is not an ordered "
                             f"fiber pair of rank {rank}")
        column = _expect_object(column, f"{where}.c[{pair_key!r}]")
        entry = {}
        for k_key, poly in column.items():
            (k,) = _decode_indices(k_key, f"{where}.c[{pair_key!r}]", expect=1)
            if k >= rank:
                raise ParseError(f"{where}.c[{pair_key!r}]: fiber {k_key!r} "
                                 f"out of range")
            entry[k] = _decode_poly(poly, chart, f"{where}.c[{pair_key!r}][{k_key!r}]")
        structure[(i, j)] = entry
    duals = _decode_duals(body["duals"], chart, rank, where) if "duals" in body else None
    try:
        return build_algebroid(chart, tuple(fibers), anchor=tuple(anchor),
                               structure=structure, dual_names=duals)
    except StructureViolation as exc:
        raise _violation("algebroid", name, exc) from exc
    except AlgebroidError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _decode_duals(duals, chart, rank, where):
    """The ``duals`` list of an algebroid: one distinct coordinate name per
    fiber, none of them a coordinate of the base ``chart``."""
    if (not isinstance(duals, list) or len(duals) != rank
            or not all(isinstance(d, str) for d in duals)):
        raise ValidationError(f"{where}.duals: expected a list of {rank} names")
    try:
        _dual_chart(chart.coords, tuple(duals))
    except AlgebroidError as exc:
        raise ValidationError(f"{where}.duals: {exc}") from exc
    return tuple(duals)


def _decode_poisson(name, body, charts):
    where = f"poisson.{name}"
    body = _expect_object(body, where)
    unknown = set(body) - {"chart", "bivector"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    chart_name = body.get("chart")
    if not isinstance(chart_name, str) or chart_name not in charts:
        raise ParseError(f"{where}: unknown chart {chart_name!r}")
    chart = charts[chart_name]
    terms = {}
    for key, poly in _expect_object(body.get("bivector", {}), f"{where}.bivector").items():
        i, j = _decode_indices(key, f"{where}.bivector", expect=2)
        if not i < j < chart.dim:
            raise ParseError(f"{where}.bivector: key {key!r} is not an "
                             f"ordered coordinate pair")
        terms[(i, j)] = _decode_poly(poly, chart, f"{where}.bivector[{key!r}]")
    bivector = GradedTensor(canonical_algebroid(chart), Kind.MV, 2, terms)
    try:
        return build_poisson(chart, bivector)
    except StructureViolation as exc:
        raise _violation("poisson", name, exc) from exc


def _decode_tensor(name, body, model):
    where = f"tensors.{name}"
    body = _expect_object(body, where)
    unknown = set(body) - {"owner", "kind", "degree", "terms"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    owner_name = body.get("owner")
    try:
        owner = model.owner_named(owner_name)
    except UnknownName:
        raise ParseError(f"{where}: unknown owner {owner_name!r}") from None
    kind_name = body.get("kind")
    if not isinstance(kind_name, str) or kind_name not in _KINDS:
        raise ParseError(f"{where}: kind must be one of {sorted(_KINDS)}")
    kind = _KINDS[kind_name]
    degree = body.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise ParseError(f"{where}: degree must be a non-negative integer")
    terms = {}
    for key_text, poly in _expect_object(body.get("terms", {}), f"{where}.terms").items():
        if kind is Kind.MIXED:
            if not isinstance(key_text, str) or "|" not in key_text:
                raise ParseError(f"{where}.terms: mixed keys look like "
                                 f"\"1,2|3\", got {key_text!r}")
            form_text, _, fiber_text = key_text.partition("|")
            form_key = _decode_indices(form_text, f"{where}.terms", expect=degree)
            (fiber,) = _decode_indices(fiber_text, f"{where}.terms", expect=1)
            key = (form_key, fiber)
        else:
            key = _decode_indices(key_text, f"{where}.terms", expect=degree)
        terms[key] = _decode_poly(poly, owner.base, f"{where}.terms[{key_text!r}]")
    try:
        return owner_name, GradedTensor(owner, kind, degree, terms)
    except AlgebroidError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _decode_suite(body):
    body = _expect_object(body, "suite")
    unknown = set(body) - set(_SUITE_KEYS)
    if unknown:
        raise ParseError(f"suite: unknown keys {sorted(unknown)}")
    out = {}
    for key in _SUITE_KEYS:
        if key in body:
            value = body[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"suite.{key}: expected an integer")
            minimum = _SUITE_MINIMA.get(key)
            if minimum is not None and value < minimum:
                raise ParseError(
                    f"suite.{key}: expected at least {minimum}, got {value}")
            out[key] = value
    return out


def loads_model(text: str) -> Model:
    """Parse and fully resolve a model from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"not valid JSON: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    except (TypeError, ValueError) as exc:  # not text, or past the int digit limit
        raise ParseError(f"not valid JSON: {exc}") from None
    raw = _expect_object(raw, "model")
    unknown = set(raw) - {"charts", "algebroids", "poisson", "tensors", "suite"}
    if unknown:
        raise ParseError(f"model: unknown sections {sorted(unknown)}")
    model = Model()
    for name, body in _expect_object(raw.get("charts", {}), "charts").items():
        model.charts[_expect_name(name, "charts")] = _decode_chart(name, body)
    for name, body in _expect_object(raw.get("algebroids", {}), "algebroids").items():
        model.algebroids[_expect_name(name, "algebroids")] = \
            _decode_algebroid(name, body, model.charts)
    for name, body in _expect_object(raw.get("poisson", {}), "poisson").items():
        model.poisson[_expect_name(name, "poisson")] = \
            _decode_poisson(name, body, model.charts)
    for name, body in _expect_object(raw.get("tensors", {}), "tensors").items():
        owner_name, tensor = _decode_tensor(_expect_name(name, "tensors"), body, model)
        model.tensors[name] = tensor
        model.tensor_owners[name] = owner_name
    if "suite" in raw:
        model.suite = _decode_suite(raw["suite"])
    return model


def load_model(path) -> Model:
    """Load a model file; see the module docstring for the schema.  A path
    that cannot be read as UTF-8 text, or whose text is longer than
    :data:`MAX_MODEL_CHARS`, raises ``ParseError`` naming it, as does a
    path that is no ``str`` or ``os.PathLike`` (``open`` takes an int as a
    file descriptor)."""
    if not isinstance(path, (str, os.PathLike)):
        raise ParseError(f"a model path is a str or os.PathLike, not {type(path).__name__}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_MODEL_CHARS + 1)
    except (OSError, ValueError) as exc:  # ValueError: undecodable, or a NUL in the path
        raise ParseError(f"{path}: cannot read the model file: {exc}") from exc
    if len(text) > MAX_MODEL_CHARS:
        raise ParseError(f"{path}: the model file is longer than "
                         f"{MAX_MODEL_CHARS} characters")
    return loads_model(text)


# -- encoding ----------------------------------------------------------------

def _indices_key(key) -> str:
    return ",".join(str(i + 1) for i in key)


def tensor_key_string(kind: Kind, key) -> str:
    """The schema's 1-based key string for one tensor term."""
    try:
        if _require(kind, "tensor_key_string", cls=Kind) is Kind.MIXED:
            form_key, fiber = key
            return f"{_indices_key(form_key)}|{fiber + 1}"
        return _indices_key(key)
    except (TypeError, ValueError):
        raise KindMismatch(f"tensor_key_string: {key!r} is no {kind.value} key") from None


def _chart_name_for(model: Model, chart: Chart, where: str) -> str:
    for name in sorted(model.charts):
        if model.charts[name] == chart:
            return name
    raise ValidationError(f"{where}: its chart {chart.coords!r} is not a "
                          f"named chart of the model")


def _encode_algebroid(model, name, algebroid):
    out = {
        "chart": _chart_name_for(model, algebroid.base, f"algebroid {name!r}"),
        "fibers": list(algebroid.fiber_names),
        "anchor": [[str(entry) for entry in row] for row in algebroid.anchor],
    }
    structure = {}
    for (i, j) in sorted(algebroid.structure):
        column = algebroid.structure[(i, j)]
        encoded = {str(k + 1): str(column[k]) for k in sorted(column)
                   if not column[k].is_zero()}
        if encoded:
            structure[f"{i + 1},{j + 1}"] = encoded
    if structure:
        out["c"] = structure
    if algebroid.dual_names != default_dual_names(
            algebroid.base, algebroid.fiber_names, algebroid.anchor, algebroid.structure):
        out["duals"] = list(algebroid.dual_names)
    return out


def _encode_poisson(model, name, ps):
    return {
        "chart": _chart_name_for(model, ps.chart, f"poisson {name!r}"),
        "bivector": {_indices_key(key): str(coeff)
                     for key, coeff in sorted(ps.bivector.terms.items())},
    }


def _encode_tensor(model, name, tensor):
    owner_name = model.tensor_owners.get(name)
    if owner_name is None:
        for candidate in sorted(model.algebroids):
            if model.algebroids[candidate] == tensor.owner:
                owner_name = candidate
                break
        else:
            owner_name = _chart_name_for(model, tensor.owner.base,
                                         f"tensor {name!r}")
    return {
        "owner": owner_name,
        "kind": tensor.kind.value,
        "degree": tensor.degree,
        "terms": {tensor_key_string(tensor.kind, key): str(coeff)
                  for key, coeff in sorted(tensor.terms.items(), key=repr)},
    }


def model_document(model: Model) -> dict:
    """The JSON document of a model: sorted names, 1-based keys, canonical
    polynomials."""
    _require(model, "model_document", cls=Model)
    doc = {}
    if model.charts:
        doc["charts"] = {name: list(model.charts[name].coords)
                         for name in sorted(model.charts)}
    if model.algebroids:
        doc["algebroids"] = {
            name: _encode_algebroid(model, name, model.algebroids[name])
            for name in sorted(model.algebroids)}
    if model.poisson:
        doc["poisson"] = {name: _encode_poisson(model, name, model.poisson[name])
                          for name in sorted(model.poisson)}
    if model.tensors:
        doc["tensors"] = {name: _encode_tensor(model, name, model.tensors[name])
                          for name in sorted(model.tensors)}
    if model.suite:
        doc["suite"] = {key: model.suite[key] for key in _SUITE_KEYS
                        if key in model.suite}
    return doc


def dumps_model(model: Model) -> str:
    """Canonical JSON text: :func:`model_document` with a two-space indent
    and a trailing newline."""
    return json.dumps(model_document(model), indent=2, ensure_ascii=False) + "\n"


# -- the built-in model ------------------------------------------------------

def builtin_model() -> Model:
    """The fixture registry as a Model: what the CLI uses when no --model is
    given, and the content of the shipped standard file."""
    model = Model(suite={"seed": 0, "trials": 50})
    model.charts = {
        "point": Chart(()),
        "line": Chart(("x",)),
        "plane": Chart(("x", "y")),
        "space": Chart(("x", "y", "z")),
        "plane-xp": Chart(("x", "p")),
        "four": Chart(("x", "y", "p_x", "p_y")),
        "so3-dual": Chart(("xi_1", "xi_2", "xi_3")),
        "nc-dual": Chart(("x", "xi_e1", "xi_e2")),
    }
    algebroids = model.algebroids = {name: make() for name, make in fixtures.ALGEBROIDS.items()}
    # the linear structures reuse the algebroids above: fixtures.POISSON would
    # build and validate equal copies of them again
    model.poisson = {"poisson-plane": fixtures.poisson_plane(),
                     "poisson-four": fixtures.poisson_four(),
                     "poisson-so3": linear_poisson(algebroids["so3"]),
                     "poisson-nonconstant": linear_poisson(algebroids["nonconstant-rank2"])}
    four = model.poisson["poisson-four"]
    model.tensors = {"P": four.bivector}
    model.tensor_owners = {"P": "four"}
    return model
