"""Poisson structures: the function bracket, the cotangent algebroid, the
Koszul–Schouten and extended brackets, and the maps Λ/R/H/G between them.

Random sweeps are smoke-sized here; the heavy grind with witness reporting
lives in the identity suites.
"""

import random
from fractions import Fraction

import pytest

import algebroids.calculus
import algebroids.poisson
import algebroids.tensor
from algebroids.algebroid import cotangent_lift, dotted_chart, linear_poisson, tangent_lift
from algebroids.calculus import differential, fn_bracket, lie_derivative, schouten
from algebroids.errors import (
    ChartMismatch,
    KindMismatch,
    NotInvertible,
    NotPoisson,
)
from algebroids.fixtures import (
    ALGEBROIDS,
    POISSON,
    nonconstant_rank2,
    poisson_four,
    poisson_nonconstant,
    poisson_plane,
    poisson_so3,
    so3,
)
from algebroids.poisson import (
    _inverse_matrix,
    build_poisson,
    cotangent_algebroid,
    extended_bracket,
    g_p,
    h_p,
    koszul_schouten,
    lambda_p,
    poisson_bracket,
    r_p,
    tangent_poisson,
)
from algebroids.ring import Chart
from algebroids.tensor import (
    GradedTensor,
    Kind,
    contract,
    contract_mixed,
    random_coefficient,
    random_tensor,
    wedge,
)
from algebroids.algebroid import build_algebroid, canonical_algebroid


def d(ps, f):
    """d of a function given as a string/Poly, over the Poisson chart."""
    return differential(ps.owner, ps.owner.fn(f))


# -- construction and the function bracket ----------------------------------------


def test_canonical_plane_brackets():
    ps = poisson_plane()
    assert poisson_bracket(ps, "p", "x") == ps.chart.one()
    assert poisson_bracket(ps, "x", "p") == ps.chart.const(-1)
    assert poisson_bracket(ps, "x", "x").is_zero()


def test_so3_linear_bracket():
    ps = poisson_so3()
    assert poisson_bracket(ps, "xi_1", "xi_2") == ps.chart.coordinate("xi_3")
    assert poisson_bracket(ps, "xi_2", "xi_3") == ps.chart.coordinate("xi_1")
    assert poisson_bracket(ps, "xi_3", "xi_1") == ps.chart.coordinate("xi_2")


def test_poisson_bracket_antisymmetry_random():
    ps = poisson_nonconstant()
    rng = random.Random(4)
    for _ in range(15):
        f = random_coefficient(rng, ps.chart)
        g = random_coefficient(rng, ps.chart)
        assert poisson_bracket(ps, f, g) == -poisson_bracket(ps, g, f)
        assert poisson_bracket(ps, f, f).is_zero()


def test_build_rejects_non_closing_bivector():
    chart = Chart(("x1", "x2", "x3"))
    owner = canonical_algebroid(chart)
    bad = GradedTensor(owner, Kind.MV, 2, {(0, 1): 1, (0, 2): "x1"})
    with pytest.raises(NotPoisson) as err:
        build_poisson(chart, bad)
    assert "residual" in err.value.witness
    assert err.value.witness["residual"]  # nonzero trivector, printed


def test_build_rejects_wrong_shapes():
    chart = Chart(("x", "p"))
    owner = canonical_algebroid(chart)
    with pytest.raises(KindMismatch):
        build_poisson(chart, GradedTensor.basis(owner, Kind.MV, (0,)))
    other = canonical_algebroid(Chart(("u", "v")))
    with pytest.raises(ChartMismatch):
        build_poisson(chart, GradedTensor(other, Kind.MV, 2, {(0, 1): 1}))


def test_every_linear_poisson_fixture_validates():
    for name, make in POISSON.items():
        ps = make()
        assert schouten(ps.owner, ps.bivector, ps.bivector).is_zero(), name


# -- the matrix of P and P-tilde -----------------------------------------------------


def test_ptilde_rows_canonical():
    ps = poisson_plane()
    O = ps.owner
    assert ps.ptilde(O.estar(0)) == -O.e(1)   # dx -> -d/dp
    assert ps.ptilde(O.estar(1)) == O.e(0)    # dp -> d/dx
    mat = ps.matrix()
    assert mat[0][1] == ps.chart.const(-1)
    assert mat[1][0] == ps.chart.one()
    assert mat[0][0].is_zero() and mat[1][1].is_zero()


def test_ptilde_pairing_identity():
    # <P~mu, nu> = <P, mu∧nu> on random 1-forms
    ps = poisson_so3()
    O = ps.owner
    rng = random.Random(11)
    for _ in range(10):
        mu = random_tensor(rng, O, Kind.FORM, 1)
        nu = random_tensor(rng, O, Kind.FORM, 1)
        lhs = contract(ps.ptilde(mu), nu)
        rhs = contract(ps.bivector, wedge(mu, nu))
        assert lhs == rhs


# -- the cotangent algebroid ----------------------------------------------------------


def test_cotangent_algebroid_canonical_plane():
    cot = cotangent_algebroid(poisson_plane())
    assert cot.fiber_names == ("d_x", "d_p")
    assert cot.dual_names == ("x_dot", "p_dot")
    assert not cot.structure                       # [dx, dp] = 0
    chart = cot.base
    assert cot.anchor[0] == (chart.zero(), chart.const(-1))   # dx -> -d/dp
    assert cot.anchor[1] == (chart.one(), chart.zero())       # dp -> d/dx


def test_cotangent_algebroid_so3():
    cot = cotangent_algebroid(poisson_so3())
    assert cot.bracket_basis(0, 1) == cot.e(2)
    assert cot.bracket_basis(1, 2) == cot.e(0)


@pytest.mark.parametrize("make", [so3, nonconstant_rank2])
def test_cotangent_algebroid_agrees_with_cotangent_lift(make):
    # the same object built by two unrelated routes must coincide exactly
    A = make()
    assert cotangent_algebroid(linear_poisson(A)) == cotangent_lift(A)


def reference_cotangent_algebroid(ps):
    """The cotangent algebroid by symbolically expanding the defining bracket

        [dz^u, dz^v] = L_{P̃ dz^u} dz^v − L_{P̃ dz^v} dz^u − d(i_P(dz^u∧dz^v))

    on every coordinate pair, under the default contraction order: an
    independent route to the closed form [dz^u, dz^v] = d P^{uv}."""
    owner = ps.owner
    chart = ps.chart
    structure = {}
    for u in range(chart.dim):
        for v in range(u + 1, chart.dim):
            pair = wedge(owner.estar(u), owner.estar(v))
            bracket = (lie_derivative(owner, ps.row(u), owner.estar(v))
                       - lie_derivative(owner, ps.row(v), owner.estar(u))
                       - differential(owner, contract(ps.bivector, pair)))
            entries = {k: coeff for (k,), coeff in bracket.terms.items()}
            if entries:
                structure[(u, v)] = entries
    return build_algebroid(
        chart,
        tuple(f"d_{c}" for c in chart.coords),
        ps.matrix(),
        structure,
        # the naming rule's velocity names, which a plain suffix would
        # make repeat base coordinates on a tangent lift's chart
        dual_names=dotted_chart(chart).coords[chart.dim:],
        provenance="cotangent-algebroid",
        check=False)


#: The Poisson fixtures, the linear Poisson structures of the algebroid
#: fixtures and of their tangent lifts, and two complete lifts.
REFERENCE_CASES = (
    list(POISSON)
    + [f"linear {name}" for name in ALGEBROIDS]
    + [f"linear tangent {name}" for name in ALGEBROIDS]
    + ["tangent poisson-four", "tangent poisson-so3"])


def _reference_case(name):
    if name.startswith("linear tangent "):
        return linear_poisson(tangent_lift(ALGEBROIDS[name[15:]]()))
    if name.startswith("linear "):
        return linear_poisson(ALGEBROIDS[name[7:]]())
    if name.startswith("tangent "):
        return tangent_poisson(POISSON[name[8:]]())
    return POISSON[name]()


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_cotangent_algebroid_matches_the_expanded_bracket(name):
    ps = _reference_case(name)
    cot = cotangent_algebroid(ps)
    reference = reference_cotangent_algebroid(ps)
    assert cot.structure == reference.structure
    assert cot.anchor == reference.anchor
    assert cot == reference and cot.provenance == reference.provenance


def test_cotangent_algebroid_does_not_depend_on_the_contraction_order():
    # the closed form contracts nothing, so one memo serves both orders and a
    # structure built under the other order is the same algebroid
    ps = poisson_so3()
    fresh = build_poisson(ps.chart, ps.bivector)
    cot = cotangent_algebroid(ps)
    saved = algebroids.tensor.CONTRACTION_ORDER
    algebroids.tensor.CONTRACTION_ORDER = "last-factor-innermost"
    try:
        assert cotangent_algebroid(ps) is cot
        flipped = cotangent_algebroid(fresh)
    finally:
        algebroids.tensor.CONTRACTION_ORDER = saved
    assert flipped is not cot and flipped == cot
    assert cotangent_algebroid(fresh) is flipped
    assert cot == cotangent_lift(so3())


def test_hashing_a_poisson_structure_prints_nothing(monkeypatch):
    from algebroids import ring

    ps = poisson_four()
    terms = list(ps.bivector.terms.items())
    reordered = GradedTensor(ps.owner, Kind.MV, 2, terms[::-1])
    assert list(reordered.terms) != list(ps.bivector.terms)
    again = build_poisson(ps.chart, reordered)
    printed = []
    real = ring.poly_to_string
    monkeypatch.setattr(ring, "poly_to_string", lambda p: printed.append(p) or real(p))
    assert hash(again) == hash(ps) and again == ps
    assert printed == []


def test_cotangent_differential_is_schouten_with_p():
    # reading multivectors as forms of the cotangent algebroid, d = [P, ·]
    for make in (poisson_plane, poisson_so3, poisson_nonconstant):
        ps = make()
        cot = cotangent_algebroid(ps)
        rng = random.Random(19)
        for _ in range(6):
            deg = rng.choice([0, 1, 2])
            x = random_tensor(rng, ps.owner, Kind.MV, deg)
            as_form = GradedTensor(cot, Kind.FORM, deg, dict(x.terms))
            lhs = differential(cot, as_form)
            rhs = schouten(ps.owner, ps.bivector, x)
            assert dict(lhs.terms) == dict(rhs.terms)


# -- the Koszul–Schouten bracket --------------------------------------------------------


def test_koszul_on_exact_forms_is_d_of_bracket():
    for make in (poisson_plane, poisson_so3, poisson_nonconstant):
        ps = make()
        rng = random.Random(23)
        for _ in range(8):
            f = random_coefficient(rng, ps.chart)
            g = random_coefficient(rng, ps.chart)
            got = koszul_schouten(ps, d(ps, f), d(ps, g))
            assert got == d(ps, poisson_bracket(ps, f, g))


def test_koszul_on_functions_vanishes():
    ps = poisson_so3()
    assert koszul_schouten(ps, ps.owner.fn("xi_1"), ps.owner.fn("xi_2")).is_zero()


def test_koszul_degree_zero_example():
    ps = poisson_plane()
    O = ps.owner
    got = koszul_schouten(ps, O.estar(1), O.fn("x"))
    assert got == GradedTensor(O, Kind.FORM, 0, {(): 1})   # [dp, x] = P~(dp)(x) = 1


def test_koszul_matches_h_and_r_expansion():
    # [mu, nu]_P = i_{H_mu} nu - (-1)^k L_{R_mu} nu
    for make in (poisson_plane, poisson_four, poisson_so3):
        ps = make()
        O = ps.owner
        rng = random.Random(29)
        for _ in range(6):
            ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
            mu = random_tensor(rng, O, Kind.FORM, ka, max_keys=2)
            nu = random_tensor(rng, O, Kind.FORM, kb, max_keys=2)
            sign = -1 if ka % 2 else 1
            rhs = contract_mixed(h_p(ps, mu), nu) - \
                lie_derivative(O, r_p(ps, mu), nu) * sign
            assert koszul_schouten(ps, mu, nu) == rhs


# -- Lambda, R and the hamiltonian maps ----------------------------------------------------


def test_lambda_examples():
    ps = poisson_plane()
    O = ps.owner
    assert lambda_p(ps, O.fn("x*p")) == O.fn("x*p")
    assert lambda_p(ps, O.estar(0)) == -O.e(1)
    assert lambda_p(ps, wedge(O.estar(0), O.estar(1))) == \
        wedge(ps.row(0), ps.row(1))


def test_lambda_star_mode():
    ps = poisson_four()
    rng = random.Random(31)
    for _ in range(8):
        k = rng.choice([0, 1, 2])
        mu = random_tensor(rng, ps.owner, Kind.FORM, k)
        plain = lambda_p(ps, mu)
        star = lambda_p(ps, mu, mode="star")
        assert star == (plain if k % 2 == 0 else -plain)
    with pytest.raises(KindMismatch):
        lambda_p(ps, ps.owner.fn(1), mode="sideways")


def test_lambda_is_schouten_homomorphism():
    # over a degenerate and a nondegenerate structure
    for make in (poisson_so3, poisson_plane):
        ps = make()
        O = ps.owner
        rng = random.Random(37)
        for _ in range(8):
            ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
            mu = random_tensor(rng, O, Kind.FORM, ka, max_keys=2)
            nu = random_tensor(rng, O, Kind.FORM, kb, max_keys=2)
            lhs = lambda_p(ps, koszul_schouten(ps, mu, nu))
            rhs = schouten(O, lambda_p(ps, mu), lambda_p(ps, nu))
            assert lhs == rhs


def test_lambda_inverse_roundtrip():
    ps = poisson_four()
    rng = random.Random(41)
    for _ in range(8):
        deg = rng.choice([0, 1, 2, 3])
        mu = random_tensor(rng, ps.owner, Kind.FORM, deg)
        back = lambda_p(ps, lambda_p(ps, mu), mode="inverse")
        assert dict(back.terms) == dict(mu.terms)
        x = random_tensor(rng, ps.owner, Kind.MV, deg)
        there = lambda_p(ps, lambda_p(ps, x, mode="inverse"))
        assert dict(there.terms) == dict(x.terms)


def test_lambda_inverse_is_exact_on_an_integral_bivector():
    """With integer-first coefficients every matrix entry is an int, and
    int / int is a float: the elimination must still run on Fractions."""
    chart = Chart(["a", "b", "c", "d"])
    ps = build_poisson(chart, GradedTensor(canonical_algebroid(chart), Kind.MV, 2,
                                           {(0, 1): 2, (0, 2): 3, (1, 3): 5, (2, 3): 7}))
    inverse = _inverse_matrix(ps)
    assert all(type(entry) is Fraction for row in inverse for entry in row)
    for u in range(chart.dim):
        x = ps.owner.e(u)
        assert lambda_p(ps, lambda_p(ps, x, mode="inverse")) == x


def test_lambda_inverse_restrictions():
    nc = poisson_nonconstant()
    with pytest.raises(NotInvertible):
        lambda_p(nc, nc.owner.e(0), mode="inverse")
    degenerate = poisson_so3()       # singular matrix at the origin
    with pytest.raises(NotInvertible):
        lambda_p(degenerate, degenerate.owner.e(0), mode="inverse")


def test_r_examples():
    ps = poisson_plane()
    O = ps.owner
    assert r_p(ps, O.fn("x^2*p")).is_zero()
    assert r_p(ps, O.estar(0)) == GradedTensor(O, Kind.MIXED, 0, {((), 1): -1})
    # R_P(dx∧dp) = dp⊗P~(dx) − dx⊗P~(dp)
    got = r_p(ps, wedge(O.estar(0), O.estar(1)))
    assert got == GradedTensor(O, Kind.MIXED, 1, {((1,), 1): -1, ((0,), 0): -1})


def test_hamiltonian_maps_on_functions():
    # H_P(f) = G_P(f) = P~(df) = -[P, f]
    for make in (poisson_plane, poisson_so3):
        ps = make()
        O = ps.owner
        rng = random.Random(43)
        for _ in range(6):
            f = random_coefficient(rng, ps.chart)
            field = ps.ptilde(d(ps, f))
            assert g_p(ps, O.fn(f)) == field
            hf = h_p(ps, O.fn(f))
            assert dict(hf.terms) == {((), k): v for (k,), v in field.terms.items()}
            assert field == -schouten(O, ps.bivector, O.fn(f))


# -- the extended bracket ---------------------------------------------------------------


def test_extended_on_functions_is_poisson_bracket():
    for make in (poisson_plane, poisson_so3, poisson_nonconstant):
        ps = make()
        O = ps.owner
        rng = random.Random(47)
        for _ in range(8):
            f = random_coefficient(rng, ps.chart)
            g = random_coefficient(rng, ps.chart)
            got = extended_bracket(ps, O.fn(f), O.fn(g))
            assert got == GradedTensor(O, Kind.FORM, 0,
                                       {(): poisson_bracket(ps, f, g)})


def test_extended_example_dx_p():
    ps = poisson_plane()
    O = ps.owner
    assert extended_bracket(ps, O.estar(0), O.fn("p")).is_zero()


def test_extended_term_expansion_function_against_one_form():
    # {g0, f0 df1} = {g0,f0} df1 + f0 d{g0,f1}
    for make in (poisson_plane, poisson_so3, poisson_nonconstant):
        ps = make()
        O = ps.owner
        rng = random.Random(53)
        for _ in range(6):
            g0, f0, f1 = (random_coefficient(rng, ps.chart) for _ in range(3))
            lhs = extended_bracket(ps, O.fn(g0), d(ps, f1) * f0)
            rhs = d(ps, f1) * poisson_bracket(ps, g0, f0) + \
                d(ps, poisson_bracket(ps, g0, f1)) * f0
            assert lhs == rhs


def test_extended_term_expansion_one_form_pair():
    # the six-term expansion of {g0 dg1, f0 df1}
    for make in (poisson_plane, poisson_four, poisson_so3):
        ps = make()
        rng = random.Random(59)
        pb = lambda a, b: poisson_bracket(ps, a, b)
        for _ in range(5):
            g0, g1, f0, f1 = (random_coefficient(rng, ps.chart) for _ in range(4))
            lhs = extended_bracket(ps, d(ps, g1) * g0, d(ps, f1) * f0)
            rhs = (wedge(d(ps, g1), d(ps, f1)) * pb(g0, f0)
                   + wedge(d(ps, pb(g1, f0)), d(ps, f1)) * g0
                   - wedge(d(ps, pb(g1, f1)), d(ps, f0)) * g0
                   - wedge(d(ps, pb(g0, f1)), d(ps, g1)) * f0
                   + wedge(d(ps, pb(g1, f1)), d(ps, g0)) * f0
                   - wedge(d(ps, g0), d(ps, f0)) * pb(g1, f1))
            assert lhs == rhs


def test_extended_commutes_with_d():
    # {dmu, nu} = d{mu, nu}
    for make in (poisson_plane, poisson_so3, poisson_nonconstant):
        ps = make()
        O = ps.owner
        rng = random.Random(61)
        for _ in range(6):
            ka, kb = rng.choice([0, 1]), rng.choice([0, 1, 2])
            mu = random_tensor(rng, O, Kind.FORM, ka, max_keys=2)
            nu = random_tensor(rng, O, Kind.FORM, kb, max_keys=2)
            assert extended_bracket(ps, differential(O, mu), nu) == \
                differential(O, extended_bracket(ps, mu, nu))


def test_extended_graded_antisymmetry():
    ps = poisson_four()
    O = ps.owner
    rng = random.Random(67)
    for _ in range(10):
        ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        mu = random_tensor(rng, O, Kind.FORM, ka, max_keys=2)
        nu = random_tensor(rng, O, Kind.FORM, kb, max_keys=2)
        sign = -1 if (ka * kb) % 2 == 0 else 1
        assert extended_bracket(ps, mu, nu) == \
            extended_bracket(ps, nu, mu) * sign


def test_extended_graded_jacobi():
    for make in (poisson_plane, poisson_so3):
        ps = make()
        O = ps.owner
        rng = random.Random(71)
        for _ in range(5):
            degs = [rng.choice([0, 1, 2]) for _ in range(3)]
            mu, nu, th = (random_tensor(rng, O, Kind.FORM, k, max_keys=1)
                          for k in degs)
            ka, kb, kc = degs
            s1 = 1 if (ka * kc) % 2 == 0 else -1
            s2 = 1 if (kb * ka) % 2 == 0 else -1
            s3 = 1 if (kc * kb) % 2 == 0 else -1
            total = (extended_bracket(ps, mu, extended_bracket(ps, nu, th)) * s1
                     + extended_bracket(ps, nu, extended_bracket(ps, th, mu)) * s2
                     + extended_bracket(ps, th, extended_bracket(ps, mu, nu)) * s3)
            assert total.is_zero()


def reference_extended_bracket(ps, mu, nu):
    """{μ, ν} = L_{H_μ}ν + d L_{R_μ}ν, as defined, from the public maps."""
    O = ps.owner
    return (lie_derivative(O, h_p(ps, mu), nu)
            + differential(O, lie_derivative(O, r_p(ps, mu), nu)))


def _extended_operands(ps, rng, count):
    """``count`` pairs of random forms of degrees 0–2 over ``ps``'s chart."""
    O = ps.owner
    for _ in range(count):
        ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        yield (random_tensor(rng, O, Kind.FORM, ka, max_keys=2),
               random_tensor(rng, O, Kind.FORM, kb, max_keys=2))


@pytest.mark.parametrize("name", sorted(POISSON))
def test_extended_bracket_matches_its_definition(name):
    ps = POISSON[name]()
    rng = random.Random(f"extended-definition/{name}")
    for mu, nu in _extended_operands(ps, rng, 12):
        assert extended_bracket(ps, mu, nu) == reference_extended_bracket(ps, mu, nu)


@pytest.mark.parametrize("name", sorted(POISSON))
def test_extended_bracket_takes_four_differentials(name, monkeypatch):
    """dμ (inside H_μ), dν once, d i_{H_μ}ν and d i_{R_μ}dν: the exact
    d d i_{R_μ}ν of d L_{R_μ}ν is never formed."""
    ps = POISSON[name]()
    rng = random.Random(f"extended-count/{name}")
    pairs = [(mu, nu) for mu, nu in _extended_operands(ps, rng, 12)
             if mu.terms and nu.terms]
    expected = [reference_extended_bracket(ps, mu, nu) for mu, nu in pairs]
    calls = []
    kernel = algebroids.calculus._differential

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    # both bindings of the kernel, so a differential taken through a Lie
    # derivative is counted too
    monkeypatch.setattr(algebroids.calculus, "_differential", counted)
    monkeypatch.setattr(algebroids.poisson, "_differential", counted)
    assert pairs
    for (mu, nu), value in zip(pairs, expected):
        calls.clear()
        assert extended_bracket(ps, mu, nu) == value
        assert len(calls) == 4


# -- homomorphisms out of the extended bracket -----------------------------------------


def test_d_maps_extended_to_koszul():
    ps = poisson_four()
    O = ps.owner
    rng = random.Random(73)
    for _ in range(6):
        ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        mu = random_tensor(rng, O, Kind.FORM, ka, max_keys=2)
        nu = random_tensor(rng, O, Kind.FORM, kb, max_keys=2)
        lhs = koszul_schouten(ps, differential(O, mu), differential(O, nu))
        assert lhs == differential(O, extended_bracket(ps, mu, nu))


def test_h_maps_extended_to_fn_bracket():
    for make in (poisson_four, poisson_so3):
        ps = make()
        O = ps.owner
        rng = random.Random(79)
        for _ in range(5):
            ka, kb = rng.choice([0, 1]), rng.choice([0, 1])
            mu = random_tensor(rng, O, Kind.FORM, ka, max_keys=2)
            nu = random_tensor(rng, O, Kind.FORM, kb, max_keys=2)
            lhs = h_p(ps, extended_bracket(ps, mu, nu))
            assert lhs == fn_bracket(O, h_p(ps, mu), h_p(ps, nu))


def test_g_maps_extended_to_schouten():
    for make in (poisson_four, poisson_so3):
        ps = make()
        O = ps.owner
        rng = random.Random(83)
        for _ in range(5):
            ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1])
            mu = random_tensor(rng, O, Kind.FORM, ka, max_keys=2)
            nu = random_tensor(rng, O, Kind.FORM, kb, max_keys=2)
            lhs = g_p(ps, extended_bracket(ps, mu, nu))
            assert lhs == schouten(O, g_p(ps, mu), g_p(ps, nu))


# -- tangent lift of a Poisson structure -------------------------------------------


def test_tangent_poisson_canonical_plane():
    tp = tangent_poisson(poisson_plane())
    assert tp.chart.coords == ("x", "p", "x_dot", "p_dot")
    big = canonical_algebroid(tp.chart)
    assert tp.bivector == GradedTensor(big, Kind.MV, 2, {(0, 3): -1, (1, 2): 1})
    assert schouten(tp.owner, tp.bivector, tp.bivector).is_zero()


def test_tangent_poisson_matches_velocity_expansion():
    # per bivector term c·e_u∧e_v: the velocity derivative of c on the doubly
    # dotted key plus the pulled-back c on each singly dotted key
    for make in (poisson_plane, poisson_four, poisson_so3, poisson_nonconstant):
        ps = make()
        tp = tangent_poisson(ps)
        tgt = canonical_algebroid(tp.chart)
        n = ps.chart.dim
        expected = GradedTensor.zero(tgt, Kind.MV, 2)
        for (u, v), c in ps.bivector.terms.items():
            drift = tgt.base.zero()
            for name in ps.chart.coords:
                d = c.partial(name)
                if not d.is_zero():
                    drift = drift + d.transport(tgt.base) * tgt.base.coordinate(
                        f"{name}_dot"
                    )
            if not drift.is_zero():
                expected = expected + wedge(tgt.e(n + u), tgt.e(n + v)) * drift
            pulled = c.transport(tgt.base)
            expected = expected + (
                wedge(tgt.e(u), tgt.e(n + v)) + wedge(tgt.e(n + u), tgt.e(v))
            ) * pulled
        assert tp.bivector == expected


def test_tangent_poisson_commutes_with_linearization():
    # lifting the linear Poisson structure of an algebroid matches linearizing
    # its tangent algebroid, up to the chart reordering between the two routes
    from algebroids.tensor import remap

    for make in ALGEBROIDS.values():
        A = make()
        lhs = tangent_poisson(linear_poisson(A))
        rhs = linear_poisson(tangent_lift(A))
        pos = {c: i for i, c in enumerate(rhs.chart.coords)}
        fiber_map = {i: pos[c] for i, c in enumerate(lhs.chart.coords)}
        assert remap(lhs.bivector, rhs.owner, fiber_map) == rhs.bivector
