"""Algebroid construction, validation, the section bracket, and lifts."""

import random
from collections import Counter
from itertools import combinations

import pytest

import algebroids.algebroid
from algebroids.algebroid import (
    anchor_apply,
    build_algebroid,
    canonical_algebroid,
    cotangent_lift,
    dotted_chart,
    dual_chart,
    section_bracket,
    tangent_lift,
    validate,
)
from algebroids.errors import (
    AlgebroidError,
    AnchorNotMorphism,
    ChartMismatch,
    DimensionMismatch,
    EmptyChart,
    JacobiViolation,
)
from algebroids.fixtures import (
    ALGEBROIDS,
    broken_anchor,
    broken_jacobi,
    canonical_line,
    canonical_plane,
    nonconstant_rank2,
    so3,
)
from algebroids.ring import Chart, Poly, accumulate, parse_poly, poly_sum
from algebroids.tensor import GradedTensor, Kind, random_tensor, tensor_sum


def test_canonical_algebroid():
    A = canonical_plane()
    assert A.is_canonical
    assert A.rank == 2 and A.fiber_names == ("x", "y")
    assert A.dual_names == ("p_x", "p_y")
    validate(A)
    with pytest.raises(EmptyChart):
        canonical_algebroid(Chart(()))


def test_so3_structure():
    A = so3()
    validate(A)
    assert A.bracket_basis(0, 1) == A.e(2)
    assert A.bracket_basis(1, 2) == A.e(0)
    assert A.bracket_basis(2, 0) == A.e(1)
    assert A.bracket_basis(1, 0) == -A.e(2)
    assert A.c(1, 0, 2) == -1 and A.c(0, 0, 1) == 0
    assert A.dual_names == ("xi_1", "xi_2", "xi_3")
    assert not A.is_canonical


def test_build_rejects_bad_shapes():
    chart = Chart(("x",))
    with pytest.raises(DimensionMismatch):
        build_algebroid(chart, (), anchor=())
    with pytest.raises(DimensionMismatch):
        build_algebroid(chart, ("a", "a"), anchor=(("1",), ("1",)))
    with pytest.raises(DimensionMismatch):
        build_algebroid(chart, ("a",), anchor=(("1", "x"),))
    with pytest.raises(DimensionMismatch):
        build_algebroid(chart, ("a", "b"), anchor=(("1",), ("1",)),
                        structure={(1, 0): {0: 1}})


@pytest.mark.parametrize("value", [1.5, 0.1, None, float("nan"), [1]])
def test_coefficients_fail_closed(value):
    """A float, None or a list is never a coefficient, on any route."""
    A = canonical_plane()
    with pytest.raises(AlgebroidError):
        GradedTensor(A, Kind.MV, 1, {(0,): value})
    with pytest.raises(AlgebroidError):
        A.e(0) * value
    with pytest.raises(AlgebroidError):
        value * A.e(0)
    with pytest.raises(AlgebroidError):
        build_algebroid(Chart(("x",)), ("e",), anchor=((value,),))
    with pytest.raises(AlgebroidError):
        build_algebroid(Chart(("x",)), ("e", "f"), anchor=((1,), (0,)),
                        structure={(0, 1): {0: value}})


def test_polynomials_over_another_chart_are_rejected():
    chart = Chart(("x",))
    foreign = parse_poly("x", Chart(("x", "y")))
    with pytest.raises(ChartMismatch):
        build_algebroid(chart, ("e",), anchor=((foreign,),))
    with pytest.raises(ChartMismatch):
        GradedTensor(canonical_line(), Kind.MV, 1, {(0,): foreign})
    with pytest.raises(ChartMismatch):
        canonical_line().e(0) * foreign
    with pytest.raises(ChartMismatch):
        parse_poly("x", chart) + foreign


def test_broken_jacobi_witness():
    with pytest.raises(JacobiViolation) as err:
        validate(broken_jacobi())
    assert err.value.witness["triple"] == ["1", "2", "3"]
    assert err.value.witness["residual"]


def test_broken_anchor_witness():
    with pytest.raises(AnchorNotMorphism) as err:
        validate(broken_anchor())
    assert err.value.witness["pair"] == ["e1", "e2"]
    assert err.value.witness["coordinate"] == "x"


def reference_morphism_witness(A):
    """The anchor-morphism condition written out per basis pair i < j and
    coordinate b, with no bracket kernel:

        sum_a rho_i^a d_a rho_j^b - rho_j^a d_a rho_i^b - sum_k c_ij^k rho_k^b,

    the first nonzero one as a witness (None when the anchor is a morphism)."""
    names, coords = A.fiber_names, A.base.coords
    for i, j in combinations(range(A.rank), 2):
        for b in range(A.base.dim):
            residual = A.base.zero()
            for a, name in enumerate(coords):
                residual += (A.anchor[i][a] * A.anchor[j][b].partial(name)
                             - A.anchor[j][a] * A.anchor[i][b].partial(name))
            for k in range(A.rank):
                residual -= A.c(i, j, k) * A.anchor[k][b]
            if residual:
                return {"pair": [names[i], names[j]], "coordinate": coords[b],
                        "residual": str(residual)}
    return None


def _perturbed(source, anchor=None, structure=None):
    """An algebroid (or the built-in one of that name) with some anchor rows
    or structure columns replaced, unvalidated."""
    A = ALGEBROIDS[source]() if isinstance(source, str) else source
    rows = [list(row) for row in A.anchor]
    for i, row in (anchor or {}).items():
        rows[i] = [A.base.coerce(v) for v in row]
    table = {pair: dict(column) for pair, column in A.structure.items()}
    table.update(structure or {})
    return build_algebroid(A.base, A.fiber_names, rows, table,
                           dual_names=A.dual_names, check=False)


#: Unvalidated algebroids whose anchor is not a morphism, each with the pair
#: and coordinate the witness must name: past the first coordinate, or on
#: the last pair.
MORPHISM_FAILURES = {
    # [d/dx, (1+x) d/dy + x^2 d/dz] = d/dy + 2x d/dz: fails on y and z, not x
    "anchor-y-and-z": (lambda: _perturbed(
        "canonical-space", anchor={1: ("0", "1 + x", "x^2")}), ["x", "y"], "y"),
    # [d/dx, (1+xy) d/dy] = y d/dy: fails on the plane's second coordinate only
    "anchor-y": (lambda: _perturbed(
        "canonical-plane", anchor={1: ("0", "1 + x*y")}), ["x", "y"], "y"),
    # the last pair (y, z) gets [e_y, e_z] = x e_x + e_z: fails on x and z
    "structure-last-pair": (lambda: _perturbed(
        "canonical-space", structure={(1, 2): {0: "x", 2: 1}}), ["y", "z"], "x"),
    # the only pair of nonconstant-rank2, with c^1 doubled and c^2 added
    "structure-nonconstant": (lambda: _perturbed(
        "nonconstant-rank2", structure={(0, 1): {0: "4*x", 1: "x^3 - 1"}}),
        ["e1", "e2"], "x"),
}


@pytest.mark.parametrize("case", sorted(MORPHISM_FAILURES))
def test_anchor_morphism_witness_matches_the_reference(case):
    build, pair, coordinate = MORPHISM_FAILURES[case]
    A = build()
    expected = reference_morphism_witness(A)
    assert (expected["pair"], expected["coordinate"]) == (pair, coordinate)
    with pytest.raises(AnchorNotMorphism) as err:
        validate(A)
    assert {key: err.value.witness[key] for key in expected} == expected


def reference_jacobi_witness(A):
    """The Jacobi condition per basis triple as three section brackets,
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], each of a
    column read through ``bracket_basis``; the first nonzero sum as a
    witness (None when the identity holds)."""
    names = A.fiber_names
    for i, j, k in combinations(range(A.rank), 3):
        jac = tensor_sum(A, Kind.MV, 1, (
            section_bracket(A, A.bracket_basis(p, q), A.e(r))
            for p, q, r in ((i, j, k), (j, k, i), (k, i, j))))
        if not jac.is_zero():
            return {"triple": [names[i], names[j], names[k]], "residual": str(jac)}
    return None


#: Unvalidated rank-3+ algebroids with one structure column perturbed so that
#: the anchor stays a morphism and Jacobi fails, each with the triple the
#: witness must name.  The tangent lift of nonconstant-rank2 has the
#: anchor-free combination x^2 e1_bar - e2_bar to perturb by.
JACOBI_FAILURES = {
    "so3": (lambda: _perturbed("so3", structure={(1, 2): {0: 1, 2: 3}}),
            ["1", "2", "3"]),
    # [1_dot, 2_dot] = 3_dot + 1_bar
    "tangent-so3": (lambda: _perturbed(
        tangent_lift(so3()), structure={(3, 4): {5: 1, 0: 1}}),
        ["1_dot", "2_dot", "3_dot"]),
    # [e1_dot, e2_dot] gains x_dot (x^2 e1_bar - e2_bar): the third triple
    "tangent-nonconstant-last-column": (lambda: _perturbed(
        tangent_lift(nonconstant_rank2()),
        structure={(2, 3): {2: "2*x", 0: "2*x_dot + x^2*x_dot", 1: "-1*x_dot"}}),
        ["e1_bar", "e1_dot", "e2_dot"]),
    # [e2_bar, e1_dot] gains x (x^2 e1_bar - e2_bar): the last triple
    "tangent-nonconstant-last-triple": (lambda: _perturbed(
        tangent_lift(nonconstant_rank2()),
        structure={(1, 2): {0: "-2*x + x^3", 1: "-1*x"}}),
        ["e2_bar", "e1_dot", "e2_dot"]),
    # [e1_bar, e2_dot] gains x_dot (x^2 e1_bar - e2_bar): the second triple
    "tangent-nonconstant-second-triple": (lambda: _perturbed(
        tangent_lift(nonconstant_rank2()),
        structure={(0, 3): {0: "2*x + x^2*x_dot", 1: "-1*x_dot"}}),
        ["e1_bar", "e2_bar", "e2_dot"]),
}


@pytest.mark.parametrize("case", sorted(JACOBI_FAILURES))
def test_jacobi_witness_matches_the_reference(case):
    build, triple = JACOBI_FAILURES[case]
    A = build()
    expected = reference_jacobi_witness(A)
    assert expected["triple"] == triple
    with pytest.raises(JacobiViolation) as err:
        validate(A)
    assert err.value.witness == expected


#: Validated lifts of rank 3 and up: each anchor image enters several basis
#: pairs and each structure column several triples, so an operand
#: differentiated once per pair or triple shows.
DIFFERENTIATED_ONCE = {
    "tangent-so3": lambda: tangent_lift(so3()),
    "cotangent-so3": lambda: cotangent_lift(so3()),
    "cotangent-nonconstant-rank2": lambda: cotangent_lift(nonconstant_rank2()),
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIATED_ONCE))
def test_validate_differentiates_each_polynomial_once(case, monkeypatch):
    A = DIFFERENTIATED_ONCE[case]()  # built, and validated, before counting
    calls = []
    gradient = Poly.gradient

    def counted(self):
        calls.append(self)  # kept alive, so no two calls share an id by reuse
        return gradient(self)

    monkeypatch.setattr(Poly, "gradient", counted)
    algebroids.algebroid._validated.cache_clear()
    validate(A)
    assert calls
    repeated = Counter(id(p) for p in calls if not p.is_constant())
    assert [str(p) for p in calls if repeated[id(p)] > 1] == []


def test_a_polynomial_in_two_tangent_lift_columns_is_differentiated_once(monkeypatch):
    """The tangent lift stores one object, the lifted c_ij^k, in the columns
    (i, m+j) and (m+i, m+j); validating the lift takes its partials once,
    counted on the object's identity."""
    import algebroids.algebroid

    A = nonconstant_rank2()
    calls = []
    partial = Poly.partial

    def counted(self, name):
        calls.append((self, name))  # kept alive, so no two share an id by reuse
        return partial(self, name)

    monkeypatch.setattr(Poly, "partial", counted)
    algebroids.algebroid._validated.cache_clear()
    # built past the lift cache, so every polynomial of the lift is new
    lift = algebroids.algebroid._tangent_lift.__wrapped__(A)
    m = A.rank
    shared = lift.structure[(0, m + 1)][0]
    assert str(shared) == "2*x" and lift.structure[(m, m + 1)][m] is shared
    validate(lift)  # a second validation takes no partial of it
    taken = Counter((id(q), name) for q, name in calls)
    assert [(str(q), name) for q, name in calls if taken[id(q), name] > 1] == []
    assert [name for q, name in calls if q is shared] == ["x", "x_dot"]


def test_section_bracket_commutator():
    # over a canonical algebroid the bracket is the vector-field commutator
    A = canonical_plane()
    x = A.section({"x": "x^2"})
    y = A.section({"x": "y"})
    assert section_bracket(A, x, y) == A.section({"x": "-2*x*y"})
    # mixed coordinates: [x d/dx, y d/dy] = 0
    assert section_bracket(A, A.section({"x": "x"}), A.section({"y": "y"})).is_zero()


def test_section_bracket_leibniz():
    """[X, g·Y] = g·[X, Y] + (anchor X)(g)·Y over a nonconstant anchor."""
    A = nonconstant_rank2()
    rng = random.Random(11)
    from algebroids.tensor import random_coefficient

    for _ in range(50):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        g = random_coefficient(rng, A.base)
        lhs = section_bracket(A, x, y * g)
        drift = A.base.zero()
        from algebroids.algebroid import anchor_derivative

        for (i,), f in x.terms.items():
            d = anchor_derivative(A, i, g)
            drift = drift + f * d
        rhs = section_bracket(A, x, y) * g + y * drift
        assert lhs == rhs


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_section_bracket_antisymmetry_and_jacobi(name):
    A = ALGEBROIDS[name]()
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(25):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        z = random_tensor(rng, A, Kind.MV, 1)
        assert section_bracket(A, x, y) == -section_bracket(A, y, x)
        jac = section_bracket(A, section_bracket(A, x, y), z) \
            + section_bracket(A, section_bracket(A, y, z), x) \
            + section_bracket(A, section_bracket(A, z, x), y)
        assert jac.is_zero()


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_anchor_intertwines_section_brackets(name):
    """anchor[X, Y] equals the commutator of the anchored vector fields."""
    A = ALGEBROIDS[name]()
    rng = random.Random(len(name))
    for _ in range(25):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        lhs = anchor_apply(A, section_bracket(A, x, y))
        ax, ay = anchor_apply(A, x), anchor_apply(A, y)
        rhs = section_bracket(ax.owner, ax, ay)
        assert lhs == rhs


def test_anchor_apply_empty_chart():
    A = so3()
    image = anchor_apply(A, A.e(0) + A.e(2) * 5)
    assert image.is_zero()
    assert image.owner.rank == 0


def test_tangent_lift_canonical_line():
    T = tangent_lift(canonical_line())
    assert T.base == dotted_chart(Chart(("x",)))
    assert T.fiber_names == ("x_bar", "x_dot")
    assert T.dual_names == ("p_x", "p_x_dot")
    assert T.structure == {}
    one, zero = T.base.one(), T.base.zero()
    assert T.anchor == ((zero, one), (one, zero))
    validate(T)


def test_tangent_lift_so3():
    A = so3()
    T = tangent_lift(A)
    validate(T)
    assert T.rank == 6 and T.base.dim == 0
    # [e_1 bar, e_2 dot] = e_3 bar ; [e_1 dot, e_2 dot] = e_3 dot
    assert T.bracket_basis(0, 4) == T.e(2)
    assert T.bracket_basis(3, 4) == T.e(5)
    # bar sections commute
    assert T.bracket_basis(0, 1).is_zero()
    # [e_2 bar, e_1 dot] = c_21^k e_k bar = -e_3 bar
    assert T.bracket_basis(1, 3) == -T.e(2)


def test_tangent_lift_nonconstant():
    A = nonconstant_rank2()
    T = tangent_lift(A)
    validate(T)
    chart = T.base
    x_dot = chart.coordinate("x_dot")
    # anchor of e2 dot picks up the derivative correction 2x x_dot
    assert T.anchor[3] == (parse_poly("x^2", chart), parse_poly("2*x", chart) * x_dot)
    # [e1 dot, e2 dot] = 2x e1 dot + 2 x_dot e1 bar
    b = T.bracket_basis(2, 3)
    assert b == T.e(2) * "2*x" + T.e(0) * "2*x_dot"


def test_cotangent_lift_canonical_line():
    C = cotangent_lift(canonical_line())
    validate(C)
    assert C.base == Chart(("x", "p_x"))
    assert C.fiber_names == ("d_x", "d_p_x")
    assert C.dual_names == ("x_dot", "p_x_dot")
    one, zero = C.base.one(), C.base.zero()
    assert C.anchor == ((zero, -one), (one, zero))
    assert C.structure == {}


def test_cotangent_lift_so3():
    A = so3()
    C = cotangent_lift(A)
    validate(C)
    assert C.base == Chart(("xi_1", "xi_2", "xi_3"))
    assert C.fiber_names == ("d_xi_1", "d_xi_2", "d_xi_3")
    # [d xi_1, d xi_2] = d xi_3 (constant structure functions, no dx part)
    assert C.bracket_basis(0, 1) == C.e(2)
    # anchor row of d xi_1 is the linear rotation field
    chart = C.base
    assert C.anchor[0] == (chart.zero(), chart.coordinate("xi_3"),
                           -chart.coordinate("xi_2"))


def test_cotangent_lift_nonconstant():
    A = nonconstant_rank2()
    C = cotangent_lift(A)
    validate(C)
    chart = C.base
    assert chart.coords == ("x", "xi_e1", "xi_e2")
    # [d x, d xi_e2] = -(d/dx x^2) dx = -2x d_x
    assert C.bracket_basis(0, 2) == C.e(0) * "-2*x"
    # [d xi_e1, d xi_e2] = 2x d xi_e1 + 2 xi_e1 d_x
    assert C.bracket_basis(1, 2) == C.e(1) * "2*x" + C.e(0) * "2*xi_e1"


def reference_cotangent_lift(A):
    """The cotangent lift from its hand-written anchor rows and bracket
    tables: an independent route to the cotangent algebroid of
    ``linear_poisson(A)``."""
    n, m = A.base.dim, A.rank
    base = dual_chart(A)
    lift = lambda p: p.transport(base)  # noqa: E731
    xi = [base.coordinate(name) for name in A.dual_names]
    zero = base.zero()
    fibers = tuple(f"d_{c}" for c in A.base.coords) + \
        tuple(f"d_{d}" for d in A.dual_names)
    # the names the naming rule gives a chart's velocities: on a tangent
    # lift's dual chart a plain suffix would repeat base coordinates
    duals = dotted_chart(base).coords[base.dim:]

    anchor = []
    for a in range(n):  # rows for dx^a
        row = [zero] * n
        for i in range(m):
            row.append(-lift(A.anchor[i][a]))
        anchor.append(tuple(row))
    for i in range(m):  # rows for d xi_i
        row = [lift(A.anchor[i][a]) for a in range(n)]
        for j in range(m):
            column, sign = A.column(i, j)
            entry = poly_sum(base, (lift(coeff) * xi[k] for k, coeff in column.items()))
            row.append(entry if sign > 0 else -entry)
        anchor.append(tuple(row))

    structure = {}
    for i in range(m):  # [d x^a, d xi_i] = -(d_b delta_i^a) dx^b
        for a in range(n):
            entries = {b: -lift(d) for b, d in A.anchor[i][a].gradient()}
            if entries:
                structure[(a, n + i)] = entries
    for (i, j), table in A.structure.items():
        entries = {n + k: lift(coeff) for k, coeff in table.items()}
        drift = accumulate((b, lift(d) * xi[k]) for k, coeff in table.items()
                           for b, d in coeff.gradient())
        entries.update(sorted(drift.items()))
        if entries:
            structure[(n + i, n + j)] = entries

    return build_algebroid(base, fibers, anchor, structure, dual_names=duals,
                           provenance="cotangent-lift", parent=A, check=False)


@pytest.mark.parametrize("lifted", [False, True], ids=["fixture", "tangent lift"])
@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_cotangent_lift_matches_the_bracket_tables(name, lifted):
    A = ALGEBROIDS[name]()
    if lifted:
        A = tangent_lift(A)
    C = cotangent_lift(A)
    reference = reference_cotangent_lift(A)
    assert C.structure == reference.structure
    assert C.anchor == reference.anchor
    assert C == reference and C.provenance == reference.provenance
    assert C.parent == A  # the first equal source lifted


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_lifts_of_all_fixtures_validate(name):
    A = ALGEBROIDS[name]()
    validate(tangent_lift(A))
    validate(cotangent_lift(A))


def test_dual_chart_names():
    assert dual_chart(so3()).coords == ("xi_1", "xi_2", "xi_3")
    assert dual_chart(canonical_plane()).coords == ("x", "y", "p_x", "p_y")
    T = tangent_lift(canonical_line())
    assert dual_chart(T).coords == ("x", "x_dot", "p_x", "p_x_dot")


def test_structural_equality():
    assert so3() == so3()
    assert canonical_line() != nonconstant_rank2()
    rebuilt = build_algebroid(
        Chart(()), ("1", "2", "3"), anchor=((), (), ()),
        structure={(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    assert rebuilt == so3()
