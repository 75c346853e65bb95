"""``validate`` is d∘d on the generators, checked against an independent
reference: the bracket-kernel form of the check, kept here verbatim.

The two must agree on every structure: both pass, or both raise the same
exception class with the same message and witness.  The corpus is the
shipped algebroids, their T, T* and T*∘T lifts, both ``fixtures/broken_*``
documents and rescaled, translated and perturbed documents of the three
benchmark families (an so(3) action, the rank-2 polynomial anchor, a
rescaled canonical algebroid); a ``hypothesis`` family adds perturbed
anchors and structure functions of rank 1-4, Jacobi failures included.
Neither check contracts, so both contraction orders give the same
verdicts.  The structure entry points fail closed on arguments of the
wrong type.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from algebroids import algebroid, tensor
from algebroids.algebroid import (
    Algebroid,
    _bracket,
    _prepare,
    _vector_fields,
    anchor_apply,
    build_algebroid,
    canonical_algebroid,
    cotangent_lift,
    linear_poisson,
    tangent_lift,
    validate,
)
from algebroids.errors import (
    AlgebroidError,
    AnchorNotMorphism,
    JacobiViolation,
    StructureViolation,
)
from algebroids.fixtures import ALGEBROIDS, canonical_line, nonconstant_rank2, so3
from algebroids.poisson import build_poisson
from algebroids.ring import Chart, Poly
from algebroids.tensor import Kind, tensor_sum

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ORDERS = ("first-factor-innermost", "last-factor-innermost")


def reference_validate(algebroid: Algebroid) -> None:
    """Check the anchor-morphism and Jacobi conditions; raise on failure.

    Each anchor image, structure column and unit section is prepared for
    the bracket kernel once, so its coefficients are differentiated once
    however many pairs and triples it enters."""
    base = algebroid.base
    m = algebroid.rank
    names = algebroid.fiber_names
    # anchor is a bracket morphism: [anchor e_i, anchor e_j] = anchor [e_i, e_j],
    # the left side the section bracket of the vector fields over the base
    fields = _vector_fields(base)
    images = [_prepare(fields, anchor_apply(algebroid, algebroid.e(i)), range(base.dim))
              for i in range(m)]
    for i, j in combinations(range(m), 2):
        residual = (_bracket(fields, images[i], images[j])
                    - anchor_apply(algebroid, algebroid.bracket_basis(i, j)))
        if not residual.is_zero():
            (b,) = min(residual.terms)
            raise AnchorNotMorphism(
                f"anchor fails to intertwine brackets on ({names[i]}, {names[j]})",
                witness={"pair": [names[i], names[j]],
                         "coordinate": base.coords[b],
                         "residual": str(residual.terms[(b,)])})
    if m < 3:  # no basis triples
        return
    # Jacobi identity on basis triples, reading [[e_k, e_i], e_j] as
    # -[[e_i, e_k], e_j] so that only the columns of pairs i < j are prepared
    fibers = range(m)
    columns = {(i, j): _prepare(algebroid, algebroid.bracket_basis(i, j), fibers)
               for i, j in combinations(fibers, 2)}
    units = [_prepare(algebroid, algebroid.e(r), fibers) for r in fibers]
    for i, j, k in combinations(fibers, 3):
        jac = tensor_sum(algebroid, Kind.MV, 1, (
            _bracket(algebroid, columns[i, j], units[k]),
            _bracket(algebroid, columns[j, k], units[i]),
            -_bracket(algebroid, columns[i, k], units[j])))
        if not jac.is_zero():
            raise JacobiViolation(
                f"Jacobi identity fails on ({names[i]}, {names[j]}, {names[k]})",
                witness={"triple": [names[i], names[j], names[k]],
                         "residual": str(jac)})


def outcome(check, A):
    """``"pass"``, or the class, message and witness of the violation."""
    try:
        check(A)
    except StructureViolation as exc:
        return type(exc), str(exc), exc.witness
    return "pass"


def decided(A):
    """The outcome of :func:`validate` with its memo emptied first, so the
    check itself runs."""
    algebroid._validated.cache_clear()
    return outcome(validate, A)


def assert_same_outcomes(A):
    expected = outcome(reference_validate, A)
    saved = tensor.CONTRACTION_ORDER
    try:
        for order in ORDERS:
            tensor.CONTRACTION_ORDER = order
            assert decided(A) == expected, order
    finally:
        tensor.CONTRACTION_ORDER = saved
    return expected


# -- the corpus ------------------------------------------------------------------

def unchecked(document):
    """The algebroids of a model document, built without validation."""
    charts = {name: Chart(tuple(coords)) for name, coords in document["charts"].items()}
    return {name: build_algebroid(
        charts[body["chart"]], body["fibers"], body["anchor"],
        {tuple(int(i) - 1 for i in key.split(",")):
         {int(k) - 1: value for k, value in column.items()}
         for key, column in body.get("c", {}).items()},
        dual_names=body.get("duals"), check=False)
        for name, body in document["algebroids"].items()}


def _rational(rng):
    """A nonzero rational whose denominator is not 1."""
    while True:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        if value.denominator != 1:
            return value


def stream_document(rng, family, perturbed):
    """One rescaled, translated document of a benchmark family, unchecked;
    a perturbed one gets an extra anchor term or, on the so(3) action, as
    often an extra structure term."""
    if family == "rotation":
        chart = Chart(("x", "y", "z"))
        lam = [_rational(rng) for _ in range(3)]
        x = [chart.coordinate(c) + _rational(rng) for c in chart.coords]
        # rho(e_i) = lam_i R_i with R_1 = z d_y - y d_z and cyclically
        anchor = [[chart.zero()] * 3 for _ in range(3)]
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            anchor[i][j], anchor[i][k] = x[k] * lam[i], -x[j] * lam[i]
        structure = {(0, 1): {2: lam[0] * lam[1] / lam[2]},
                     (1, 2): {0: lam[1] * lam[2] / lam[0]},
                     (0, 2): {1: -lam[0] * lam[2] / lam[1]}}
    elif family == "rank2":
        chart = Chart(("x",))
        l1, l2 = _rational(rng), _rational(rng)
        x = chart.coordinate("x") + _rational(rng)
        anchor = [[chart.coerce(l1)], [x * x * l2]]
        structure = {(0, 1): {0: x * (2 * l2)}}
    else:
        chart = Chart(("x", "y", "z")[:rng.choice((2, 3))])
        anchor = [[chart.coerce(_rational(rng)) if a == i else chart.zero()
                   for a in range(chart.dim)] for i in range(chart.dim)]
        structure = {}
    if perturbed:
        eps = _rational(rng)
        i, a = rng.randrange(len(anchor)), rng.randrange(chart.dim)
        if family == "rotation" and rng.random() < 0.5:
            structure[(0, 1)] = {**structure[(0, 1)], 0: chart.coerce(eps)}
        else:
            b = rng.randrange(chart.dim)
            anchor[i][a] = anchor[i][a] + chart.coordinate(chart.coords[b]) * eps
    return build_algebroid(chart, tuple(f"e{i + 1}" for i in range(len(anchor))),
                           anchor, structure, check=False)


def corpus():
    out = {}
    for name, make in ALGEBROIDS.items():
        A = make()
        out[name] = A
        out[f"T {name}"] = tangent_lift(A)
        out[f"T* {name}"] = cotangent_lift(A)
        out[f"T*T {name}"] = cotangent_lift(tangent_lift(A))
    for path in sorted(FIXTURES.glob("broken_*.json")):
        for name, A in unchecked(json.loads(path.read_text(encoding="utf-8"))).items():
            out[f"{path.name} {name}"] = A
    rng = random.Random(0)
    for n in range(36):
        family = ("rotation", "rank2", "canonical")[n % 3]
        out[f"stream {n} {family}"] = stream_document(rng, family, perturbed=n % 2 == 1)
    return out


CORPUS = corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_validate_agrees_with_the_reference(name):
    assert_same_outcomes(CORPUS[name])


def test_the_corpus_holds_every_verdict():
    verdicts = {name: outcome(reference_validate, A) for name, A in CORPUS.items()}
    kinds = {v if v == "pass" else v[0] for v in verdicts.values()}
    assert kinds == {"pass", AnchorNotMorphism, JacobiViolation}
    assert verdicts["broken_jacobi.json broken-jacobi"][0] is JacobiViolation
    assert verdicts["broken_anchor.json broken-anchor"][0] is AnchorNotMorphism
    for name, A in CORPUS.items():
        if not name.startswith(("stream", "broken")):
            assert verdicts[name] == "pass", name


# -- a hypothesis family of perturbed structures ----------------------------------

#: Valid algebroids of rank 1-4 to perturb: so3 has no anchor, so a changed
#: structure function can only break Jacobi there.
_VALID = tuple(make() for make in ALGEBROIDS.values()) + (
    tangent_lift(canonical_line()), tangent_lift(nonconstant_rank2()),
    cotangent_lift(canonical_line()))


def _polys(chart):
    """Small polynomials over ``chart``: up to three terms of degree at most
    2 with coefficients in -2..2."""
    exponent = st.tuples(*(st.integers(0, 2) for _ in range(chart.dim))).filter(
        lambda e: sum(e) <= 2)
    return st.dictionaries(exponent, st.integers(-2, 2), max_size=3).map(
        lambda terms: Poly(chart, terms))


@st.composite
def perturbed_structures(draw):
    if draw(st.booleans()):
        A = draw(st.sampled_from(_VALID))
        chart, rank = A.base, A.rank
        anchor = [list(row) for row in A.anchor]
        structure = {pair: dict(column) for pair, column in A.structure.items()}
    else:  # fresh data, often with no anchor at all
        chart = Chart(("x", "y", "z")[:draw(st.integers(0, 3))])
        rank = draw(st.integers(1, 4))
        zero_anchor = draw(st.booleans())
        anchor = [[chart.zero() if zero_anchor else draw(_polys(chart))
                   for _ in range(chart.dim)] for _ in range(rank)]
        structure = {}
    pairs = list(combinations(range(rank), 2))
    for _ in range(draw(st.integers(0, 3))):
        if pairs and draw(st.booleans()):
            pair = draw(st.sampled_from(pairs))
            k = draw(st.integers(0, rank - 1))
            column = structure.setdefault(pair, {})
            column[k] = column.get(k, chart.zero()) + draw(_polys(chart))
        elif chart.dim:
            i, a = draw(st.integers(0, rank - 1)), draw(st.integers(0, chart.dim - 1))
            anchor[i][a] = anchor[i][a] + draw(_polys(chart))
    return build_algebroid(chart, tuple(f"f{i + 1}" for i in range(rank)),
                           anchor, structure, check=False)


@settings(max_examples=120, deadline=None)
@given(perturbed_structures())
def test_validate_agrees_with_the_reference_on_perturbed_structures(A):
    assert_same_outcomes(A)


@pytest.mark.parametrize("violation", [AnchorNotMorphism, JacobiViolation])
def test_the_perturbed_family_reaches_each_violation(violation):
    def fails(A):
        result = outcome(reference_validate, A)
        return result != "pass" and result[0] is violation

    find(perturbed_structures(), fails,
         settings=settings(database=None, derandomize=True, max_examples=1000,
                           phases=[Phase.generate]))


# -- the structure entry points fail closed ----------------------------------------

ENTRY_POINTS = {
    "validate": validate,
    "tangent_lift": tangent_lift,
    "cotangent_lift": cotangent_lift,
    "linear_poisson": linear_poisson,
    "canonical_algebroid": canonical_algebroid,
    "build_poisson chart": lambda value: build_poisson(
        value, linear_poisson(so3()).bivector),
    "build_poisson bivector": lambda value: build_poisson(
        linear_poisson(so3()).chart, value),
}

#: Arguments of the wrong type.  The "wrong object" is a ``Chart`` where an
#: ``Algebroid`` or a bivector belongs, and an ``Algebroid`` where a
#: ``Chart`` belongs.
BAD_ARGUMENTS = {
    "None": lambda: None,
    "int": lambda: 1,
    "str": lambda: "so3",
    "list": lambda: [],
    "wrong object": lambda: so3().base,
}
_TAKES_A_CHART = {"canonical_algebroid", "build_poisson chart"}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(BAD_ARGUMENTS))
def test_structure_entry_points_fail_closed(entry, bad):
    if bad == "wrong object" and entry in _TAKES_A_CHART:
        value = so3()
    else:
        value = BAD_ARGUMENTS[bad]()
    with pytest.raises(AlgebroidError):
        ENTRY_POINTS[entry](value)
