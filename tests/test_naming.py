"""One naming rule for derived names, so every lift of a lift builds.

Velocities, barred and dotted fibers, momenta, dual coordinates,
differentials and total-space coordinates are spelled by one rule, which
keeps a name when it is free and otherwise moves it aside to the first free
``<name>_2``, ``<name>_3``, ….  Every word of length 1 to 3 in the tangent
lift T and the cotangent lift T* builds over every shipped algebroid and
reloads from its document as an equal algebroid; the recognisers of
velocity charts and of tangent lifts read positions and structure, not
spellings.
"""

import itertools

import pytest

from algebroids.algebroid import (
    build_algebroid,
    canonical_algebroid,
    cotangent_lift,
    dotted_chart,
    dual_chart,
    linear_poisson,
    tangent_lift,
    validate,
)
from algebroids.errors import DimensionMismatch, WrongProvenance
from algebroids.fixtures import ALGEBROIDS, canonical_line, canonical_plane, so3
from algebroids.lifts import _transport_target, canonical_transport, vertical_tau
from algebroids.model import Model, dumps_model, loads_model
from algebroids.ring import Chart
from algebroids.suites import run_suite
from algebroids.tensor import GradedTensor, Kind

LIFTS = {"T": tangent_lift, "T*": cotangent_lift}

#: Every word of length 1 to 3 in T and T*, applied right to left.
WORDS = [word for n in (1, 2, 3) for word in itertools.product(LIFTS, repeat=n)]


def lifted(A, word):
    """``A`` lifted by each letter of ``word``, the last letter first."""
    for letter in reversed(word):
        A = LIFTS[letter](A)
    return A


def reloaded(A):
    """``A`` written into a model document and read back."""
    text = dumps_model(Model(charts={"base": A.base}, algebroids={"A": A}))
    return loads_model(text).algebroid("A")


def test_there_are_seventy_words():
    assert len(WORDS) * len(ALGEBROIDS) == 70


@pytest.mark.parametrize("word", WORDS, ids=".".join)
@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_every_short_word_of_lifts_builds_and_reloads(name, word):
    A = lifted(ALGEBROIDS[name](), word)
    validate(A)
    assert set(A.dual_names).isdisjoint(A.base.coords)
    assert dual_chart(A).dim == A.base.dim + A.rank
    again = reloaded(A)
    assert again == A and again is not A


def test_lift_suites_pass_over_the_lifts_of_lifts():
    algebroids = {f"{'.'.join(word)} {name}": lifted(make(), word)
                  for name, make in ALGEBROIDS.items()
                  for word in WORDS if len(word) <= 2}
    model = Model(algebroids=algebroids)
    for suite in ("theorem-11", "theorem-12", "theorem-13", "theorem-14"):
        result = run_suite(suite, model, seed=0, trials=8)
        assert result["status"] == "pass", suite
        assert all(item["checked"] > 0 for item in result["items"]), suite


def test_free_names_keep_their_spelling():
    assert dotted_chart(Chart(("x", "y"))).coords == ("x", "y", "x_dot", "y_dot")
    T = tangent_lift(so3())
    assert T.fiber_names == ("1_bar", "2_bar", "3_bar", "1_dot", "2_dot", "3_dot")
    assert T.dual_names == ("xi_1", "xi_2", "xi_3", "xi_1_dot", "xi_2_dot", "xi_3_dot")
    assert cotangent_lift(canonical_plane()).dual_names == (
        "x_dot", "y_dot", "p_x_dot", "p_y_dot")


def test_a_taken_name_moves_aside():
    assert dotted_chart(Chart(("x", "x_dot"))).coords == (
        "x", "x_dot", "x_dot_2", "x_dot_dot")
    TT = tangent_lift(tangent_lift(canonical_line()))
    assert TT.base.coords == ("x", "x_dot", "x_dot_2", "x_dot_dot")
    assert TT.fiber_names == ("x_bar_bar", "x_dot_bar", "x_bar_dot", "x_dot_dot")
    assert TT.dual_names == ("p_x", "p_x_dot", "p_x_dot_2", "p_x_dot_dot")
    # the cotangent lift of a tangent lift: the velocities of the dual
    # chart (x, x_dot, p_x, p_x_dot) move aside from its own coordinates
    assert cotangent_lift(tangent_lift(canonical_line())).dual_names == (
        "x_dot_2", "x_dot_dot", "p_x_dot_2", "p_x_dot_dot")


def test_a_chart_holding_momentum_names_has_a_dual_chart():
    four = canonical_algebroid(Chart(("x", "y", "p_x", "p_y")))
    assert four.dual_names == ("p_x_2", "p_y_2", "p_p_x", "p_p_y")
    assert dual_chart(four).dim == 8
    assert linear_poisson(four).chart == dual_chart(four)
    validate(cotangent_lift(four))


def test_vertical_tau_over_a_chart_holding_total_space_names():
    C = canonical_algebroid(Chart(("x", "y_x")))
    assert vertical_tau(C, C.e(0)).owner.base.coords == ("x", "y_x", "y_x_2", "y_y_x")


def test_a_dual_name_may_not_be_a_base_coordinate():
    with pytest.raises(DimensionMismatch):
        build_algebroid(Chart(("x",)), ("e",), ((1,),), dual_names=("x",))


def _transports(T):
    """The block swap of one basis tensor of each kind over ``T``."""
    out = []
    for kind, direction in ((Kind.MV, "kappa"), (Kind.SYM, "kappa"),
                            (Kind.FORM, "alpha"), (Kind.MIXED, "alpha")):
        key = ((0, 1), 2) if kind is Kind.MIXED else (0, 3)
        out.append(canonical_transport(direction, GradedTensor.basis(T, kind, key)))
    return out


def test_a_reloaded_tangent_lift_transports_like_the_original():
    T = tangent_lift(canonical_plane())
    again = reloaded(T)
    assert again.provenance != T.provenance and again.parent is None
    _transport_target.cache_clear()  # recognise the reloaded lift afresh
    assert _transports(again) == _transports(T)


def test_a_provenance_alone_does_not_make_a_tangent_lift():
    plane = canonical_plane()
    chart = dotted_chart(plane.base)
    zero = ((0,) * 4,) * 4
    fake = build_algebroid(chart, ("a", "b", "c", "d"), zero,
                           provenance="tangent-lift", parent=plane)
    with pytest.raises(WrongProvenance):
        canonical_transport("kappa", fake.e(0))
