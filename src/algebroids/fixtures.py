"""Reference structures used by the test suites, demos and shipped models.

Everything here is built from scratch on each call so callers can't corrupt
shared state.  The rotation algebra fixture and the canonical charts are the
workhorses: between them they exercise constant structure functions over an
empty chart, trivial structure over 1–3 coordinates, and (via
``nonconstant_rank2``) polynomial anchors with polynomial structure
functions.  The two ``broken_*`` fixtures are deliberately invalid and are
returned unvalidated; feeding them to ``validate`` must raise.
"""

from __future__ import annotations

from .algebroid import (Algebroid, build_algebroid, canonical_algebroid,
                        linear_poisson)
from .poisson import build_poisson
from .ring import Chart
from .tensor import GradedTensor, Kind


def so3() -> Algebroid:
    """The rotation algebra: rank 3 over the empty chart,
    [e_1,e_2]=e_3, [e_2,e_3]=e_1, [e_3,e_1]=e_2."""
    return build_algebroid(
        Chart(()), ("1", "2", "3"),
        anchor=((), (), ()),
        structure={(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    )


def canonical_line() -> Algebroid:
    return canonical_algebroid(Chart(("x",)))


def canonical_plane() -> Algebroid:
    return canonical_algebroid(Chart(("x", "y")))


def canonical_space() -> Algebroid:
    return canonical_algebroid(Chart(("x", "y", "z")))


def nonconstant_rank2() -> Algebroid:
    """Rank 2 over one coordinate with a genuinely polynomial anchor and
    structure function: anchor e_1 = d/dx, anchor e_2 = x^2 d/dx,
    [e_1, e_2] = 2x e_1."""
    return build_algebroid(
        Chart(("x",)), ("e1", "e2"),
        anchor=(("1",), ("x^2",)),
        structure={(0, 1): {0: "2*x"}},
    )


def broken_jacobi() -> Algebroid:
    """Rank 3 over the empty chart with structure constants that violate the
    Jacobi identity on (e_1, e_2, e_3).  Returned unvalidated."""
    return build_algebroid(
        Chart(()), ("1", "2", "3"),
        anchor=((), (), ()),
        structure={(0, 1): {2: 1}, (1, 2): {1: 1}, (0, 2): {1: -1}},
        check=False,
    )


def broken_anchor() -> Algebroid:
    """Rank 2 over one coordinate whose anchor is not a bracket morphism:
    [d/dx, x d/dx] = d/dx but all structure functions vanish.  Returned
    unvalidated."""
    return build_algebroid(
        Chart(("x",)), ("e1", "e2"),
        anchor=(("1",), ("x",)),
        structure={},
        check=False,
    )


#: Algebroid fixtures by name (valid ones only), for suite iteration.
ALGEBROIDS = {
    "so3": so3,
    "canonical-line": canonical_line,
    "canonical-plane": canonical_plane,
    "canonical-space": canonical_space,
    "nonconstant-rank2": nonconstant_rank2,
}


def poisson_plane():
    """The canonical symplectic bivector d/dp∧d/dx on the chart (x, p)."""
    chart = Chart(("x", "p"))
    owner = canonical_algebroid(chart)
    return build_poisson(chart, GradedTensor(owner, Kind.MV, 2, {(0, 1): -1}))


def poisson_four():
    """The canonical symplectic bivector on (x, y, p_x, p_y)."""
    chart = Chart(("x", "y", "p_x", "p_y"))
    owner = canonical_algebroid(chart)
    return build_poisson(chart, GradedTensor(owner, Kind.MV, 2,
                                             {(0, 2): -1, (1, 3): -1}))


def poisson_so3():
    """The fiberwise-linear bivector of the rotation algebra on its dual
    chart (xi_1, xi_2, xi_3): degenerate at the origin."""
    return linear_poisson(so3())


def poisson_nonconstant():
    """The fiberwise-linear bivector of the polynomial-anchor fixture."""
    return linear_poisson(nonconstant_rank2())


#: Poisson fixtures by name, for suite iteration.
POISSON = {
    "poisson-plane": poisson_plane,
    "poisson-four": poisson_four,
    "poisson-so3": poisson_so3,
    "poisson-nonconstant": poisson_nonconstant,
}
