"""Algebroids are immutable and hashable, and the canonical algebroid of a
chart and the three lifts are built once per source structure.  The tables
an algebroid builds on first use are not part of its equality or hash, and
their slot cannot be assigned.  ``validate`` and ``build_poisson`` check an
equal structure once and a failing one on every call."""

import pytest

from algebroids import algebroid, poisson
from algebroids.algebroid import (
    CACHE_SIZE,
    build_algebroid,
    canonical_algebroid,
    cotangent_lift,
    dual_chart,
    linear_poisson,
    tangent_lift,
    validate,
)
from algebroids.errors import AnchorNotMorphism, NotPoisson
from algebroids.fixtures import broken_anchor, nonconstant_rank2, so3
from algebroids.model import Model, builtin_model, dumps_model, loads_model
from algebroids.poisson import build_poisson
from algebroids.ring import Chart
from algebroids.suites import run_suite
from algebroids.tensor import GradedTensor, Kind

CACHES = (algebroid._vector_fields, algebroid._tangent_lift,
          algebroid._cotangent_lift, algebroid._linear_poisson,
          algebroid._validated, poisson._poisson_checked)


@pytest.fixture(autouse=True)
def empty_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture
def validated(monkeypatch):
    """Every algebroid passed to ``validate`` while the test runs."""
    seen = []
    original = algebroid.validate

    def counted(A):
        seen.append(A)
        return original(A)

    monkeypatch.setattr(algebroid, "validate", counted)
    return seen


@pytest.mark.parametrize("make", [so3, nonconstant_rank2])
def test_each_construction_is_built_once(make):
    A = make()
    for construct in (tangent_lift, cotangent_lift, linear_poisson):
        assert construct(A) is construct(A)
    chart = dual_chart(A)
    assert canonical_algebroid(chart) is canonical_algebroid(Chart(chart.coords))


def test_equal_sources_share_one_lift():
    first, second = nonconstant_rank2(), nonconstant_rank2()
    assert first is not second and first == second
    lifted = tangent_lift(first)
    assert tangent_lift(second) is lifted
    assert lifted.parent is first
    assert cotangent_lift(second) is cotangent_lift(first)
    assert linear_poisson(second) is linear_poisson(first)


def test_hash_agrees_with_equality():
    A = nonconstant_rank2()
    args = (A.base, A.fiber_names, A.anchor, A.structure)
    same = build_algebroid(*args, dual_names=A.dual_names,
                           provenance="elsewhere", parent=so3())
    assert same == A and hash(same) == hash(A)
    assert same.provenance != A.provenance and same.parent is not A.parent
    renamed = build_algebroid(*args, dual_names=("u", "v"))
    assert renamed != A
    assert len({A, same, renamed, so3(), so3()}) == 3


def test_algebroids_are_immutable():
    A = so3()
    with pytest.raises(TypeError):
        A.structure[(0, 1)] = {}
    with pytest.raises(TypeError):
        A.structure[(0, 1)][2] = A.base.one()
    with pytest.raises(TypeError):
        del A.structure[(0, 1)][2]
    for name in ("structure", "anchor", "provenance", "parent", "rank"):
        with pytest.raises(AttributeError):
            setattr(A, name, None)
        with pytest.raises(AttributeError):
            delattr(A, name)
    assert A == so3() and hash(A) == hash(so3())


def test_each_new_structure_is_validated_once(validated):
    A, again = nonconstant_rank2(), nonconstant_rank2()
    assert len(validated) == 2  # loading validates each copy
    for _ in range(3):
        tangent_lift(A), cotangent_lift(A), linear_poisson(A)
        tangent_lift(again), cotangent_lift(again)
    assert validated[2:] == [tangent_lift(A), cotangent_lift(A)]


def test_builtin_model_validates_each_structure_once(validated):
    model = builtin_model()
    assert len(validated) == len(set(validated))
    assert set(validated) == {model.algebroids["so3"],
                              model.algebroids["nonconstant-rank2"]}


def test_construction_bypasses_the_write_guard(monkeypatch):
    writes = []
    guard = algebroid.Algebroid.__setattr__

    def counted(self, name, value):
        writes.append(name)
        return guard(self, name, value)

    monkeypatch.setattr(algebroid.Algebroid, "__setattr__", counted)
    A = so3()
    assert writes == []
    with pytest.raises(AttributeError):
        A.rank = 4
    assert writes == ["rank"]


def test_caches_are_bounded():
    line = Chart(("x",))
    for k in range(1, CACHE_SIZE + 6):
        A = build_algebroid(line, ("e",), [[k]])
        tangent_lift(A), cotangent_lift(A), linear_poisson(A)
        canonical_algebroid(Chart((f"x{k}",)))
    for cache in CACHES:
        assert cache.cache_info().currsize == CACHE_SIZE


def test_a_suite_validates_each_lift_once(validated):
    model = builtin_model()
    validated.clear()
    result = run_suite("theorem-11", model)
    assert result["status"] == "pass"
    assert validated and len(validated) == len(set(validated))
    assert len(validated) <= len(model.algebroids)  # one tangent lift each


def test_the_tables_change_neither_equality_nor_hash():
    source = nonconstant_rank2()  # validating it built its tables
    args = (source.base, source.fiber_names, source.anchor, source.structure)
    A, B = (build_algebroid(*args, check=False) for _ in range(2))
    before = hash(A)
    assert A._tables is None and B._tables is None
    assert not A.is_canonical  # builds A's tables, not B's
    assert A._tables is not None and B._tables is None
    assert A == B and B == A and hash(A) == hash(B) == before
    assert A == source and hash(source) == before
    assert len({A, B, source}) == 1


def test_the_tables_slot_cannot_be_assigned():
    A = so3()
    with pytest.raises(AttributeError):
        A._tables = None  # before the tables are built
    assert not A.is_canonical
    tables = A._tables
    with pytest.raises(AttributeError):
        A._tables = None
    with pytest.raises(AttributeError):
        del A._tables
    assert A._tables is tables


def test_the_checks_are_bounded_by_the_cache_size():
    for check in (algebroid._validated, poisson._poisson_checked):
        assert check.cache_info().maxsize == CACHE_SIZE


def test_an_equal_document_is_checked_once():
    A = nonconstant_rank2()
    ps = linear_poisson(A)
    text = dumps_model(Model(charts={"line": A.base, "dual": ps.chart},
                             algebroids={"A": A}, poisson={"P": ps}))
    for check in (algebroid._validated, poisson._poisson_checked):
        check.cache_clear()
    first, second = loads_model(text), loads_model(text)
    assert first.algebroids["A"] is not second.algebroids["A"]
    assert first.algebroids["A"] == second.algebroids["A"] == A
    for check in (algebroid._validated, poisson._poisson_checked):
        info = check.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_a_failing_structure_is_checked_on_every_call():
    A = broken_anchor()  # built unchecked
    witnesses = []
    for _ in range(3):
        with pytest.raises(AnchorNotMorphism) as err:
            validate(A)
        witnesses.append(err.value.witness)
    assert witnesses[0] and witnesses == [witnesses[0]] * 3
    info = algebroid._validated.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 0, 0)


def test_a_bivector_that_is_not_poisson_is_checked_on_every_call():
    chart = Chart(("x", "y", "z"))
    P = GradedTensor(canonical_algebroid(chart), Kind.MV, 2,
                     {(0, 1): chart.one(), (0, 2): chart.coordinate("x")})
    witnesses = []
    for _ in range(3):
        with pytest.raises(NotPoisson) as err:
            build_poisson(chart, P)
        witnesses.append(err.value.witness)
    assert witnesses[0] and witnesses == [witnesses[0]] * 3
    info = poisson._poisson_checked.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 0, 0)
