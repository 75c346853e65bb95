"""Lifts of sections: vertical/complete lifts to the tangent algebroid, the
three dual-side maps (iota, V_pi, G), the mixed-tensor maps J/G/J*/H, and the
canonical transports kappa/alpha.

Sign conventions pinned here are the ones the rest of the package is
calibrated against; the identity suites re-grind the same laws with witness
reporting.
"""

import random

import pytest

from algebroids.algebroid import (
    anchor_apply,
    canonical_algebroid,
    dotted_chart,
    dual_chart,
    linear_poisson,
    section_bracket,
    tangent_lift,
)
from algebroids.calculus import (
    differential,
    fn_bracket,
    lie_derivative,
    nr_bracket,
    schouten,
    sym_schouten,
)
from algebroids.errors import KindMismatch, WrongProvenance
from algebroids.fixtures import (
    ALGEBROIDS,
    canonical_line,
    canonical_plane,
    nonconstant_rank2,
    so3,
)
from algebroids.lifts import (
    G_map,
    H_map,
    J_map,
    Jstar,
    canonical_transport,
    classical_complete_lift,
    classical_vertical_lift,
    complete_lift_T,
    cot_complete_G_vec,
    iota,
    vertical_lift_V,
    vertical_pi,
    vertical_tau,
)
from algebroids.poisson import extended_bracket, lambda_p
from algebroids.ring import Chart
from algebroids.tensor import (
    GradedTensor,
    Kind,
    contract,
    mixed_from_vector,
    random_tensor,
    sym_product,
    wedge,
)

FIXTURES = (canonical_line, canonical_plane, so3, nonconstant_rank2)


def rand_mv(rng, A, deg):
    return random_tensor(rng, A, Kind.MV, deg, max_keys=2)


def rand_form(rng, A, deg):
    return random_tensor(rng, A, Kind.FORM, deg, max_keys=2)


def rand_mixed(rng, A, deg):
    return random_tensor(rng, A, Kind.MIXED, deg, max_keys=2)


# -- iota: symmetric sections as fibrewise-polynomial functions --------------------


def test_iota_examples():
    line = canonical_line()
    dl = dual_chart(line)
    assert iota(line, GradedTensor(line, Kind.MV, 1, {(0,): "x"})) == (
        dl.coordinate("x") * dl.coordinate("p_x")
    )
    s3 = so3()
    assert iota(s3, s3.bracket_basis(0, 1)) == dual_chart(s3).coordinate("xi_3")
    e1 = GradedTensor(s3, Kind.SYM, 1, {(0,): 1})
    assert iota(s3, sym_product(e1, e1)) == dual_chart(s3).coordinate("xi_1") ** 2


def test_iota_turns_sym_product_into_poly_product():
    rng = random.Random(11)
    for make in FIXTURES:
        A = make()
        s = random_tensor(rng, A, Kind.SYM, 1, max_keys=2)
        u = random_tensor(rng, A, Kind.SYM, 2, max_keys=2)
        assert iota(A, sym_product(s, u)) == iota(A, s) * iota(A, u)


def test_iota_rejects_forms():
    line = canonical_line()
    with pytest.raises(KindMismatch):
        iota(line, line.estar(0))


# -- vertical and complete lifts to the tangent algebroid --------------------------


def test_vertical_lift_examples():
    line = canonical_line()
    TL = tangent_lift(line)
    lifted = vertical_lift_V(line, line.e(0))
    assert lifted == GradedTensor(TL, Kind.MV, 1, {(0,): 1})
    assert vertical_lift_V(line, line.fn("x^2 + 1")) == GradedTensor(
        TL, Kind.MV, 0, {(): "x^2 + 1"}
    )
    plane = canonical_plane()
    assert vertical_lift_V(plane, wedge(plane.e(0), plane.e(1))) == GradedTensor(
        tangent_lift(plane), Kind.MV, 2, {(0, 1): 1}
    )


def test_complete_lift_examples():
    line = canonical_line()
    TL = tangent_lift(line)
    lifted = complete_lift_T(line, GradedTensor(line, Kind.MV, 1, {(0,): "x"}))
    assert lifted == GradedTensor(TL, Kind.MV, 1, {(0,): "x_dot", (1,): "x"})
    assert complete_lift_T(line, line.fn("x^2 + 1")) == GradedTensor(
        TL, Kind.MV, 0, {(): "2*x*x_dot"}
    )
    e = GradedTensor(line, Kind.SYM, 1, {(0,): 1})
    assert complete_lift_T(line, sym_product(e, e)) == GradedTensor(
        TL, Kind.SYM, 2, {(0, 1): 2}
    )
    # each copy of a repeated factor dots to the same key, and the terms add up
    plane = canonical_plane()
    e1, e2 = (GradedTensor(plane, Kind.SYM, 1, {(i,): 1}) for i in (0, 1))
    assert complete_lift_T(plane, sym_product(sym_product(e1, e1), e2) * "x") == GradedTensor(
        tangent_lift(plane), Kind.SYM, 3, {(0, 0, 1): "x_dot", (0, 1, 2): "2*x", (0, 0, 3): "x"}
    )
    # mixed: the velocity slot walks the form indices and the fiber slot
    assert complete_lift_T(
        line, GradedTensor(line, Kind.MIXED, 1, {((0,), 0): 1})
    ) == GradedTensor(TL, Kind.MIXED, 1, {((0,), 0): 1, ((1,), 1): 1})


def test_lifts_form_a_leibniz_pair():
    rng = random.Random(13)
    for make in FIXTURES:
        A = make()
        for _ in range(3):
            x = rand_mv(rng, A, 1)
            y = rand_mv(rng, A, rng.choice([1, 2]))
            assert vertical_lift_V(A, wedge(x, y)) == wedge(
                vertical_lift_V(A, x), vertical_lift_V(A, y)
            )
            assert complete_lift_T(A, wedge(x, y)) == (
                wedge(complete_lift_T(A, x), vertical_lift_V(A, y))
                + wedge(vertical_lift_V(A, x), complete_lift_T(A, y))
            )
            s = random_tensor(rng, A, Kind.SYM, 1, max_keys=2)
            u = random_tensor(rng, A, Kind.SYM, 2, max_keys=2)
            assert complete_lift_T(A, sym_product(s, u)) == (
                sym_product(complete_lift_T(A, s), vertical_lift_V(A, u))
                + sym_product(
                    vertical_lift_V(A, s), complete_lift_T(A, u)
                )
            )


def test_lifted_anchor_matches_classical_lift_of_anchor():
    rng = random.Random(17)
    for make in (canonical_line, canonical_plane, nonconstant_rank2):
        A = make()
        TL = tangent_lift(A)
        for _ in range(3):
            x = rand_mv(rng, A, 1)
            assert anchor_apply(TL, vertical_lift_V(A, x)) == (
                classical_vertical_lift(anchor_apply(A, x))
            )
            assert anchor_apply(TL, complete_lift_T(A, x)) == (
                classical_complete_lift(anchor_apply(A, x))
            )


def test_schouten_table_for_lifts():
    rng = random.Random(19)
    for make in FIXTURES:
        A = make()
        TL = tangent_lift(A)
        for _ in range(3):
            x = rand_mv(rng, A, rng.choice([1, 2]))
            y = rand_mv(rng, A, rng.choice([1, 2]))
            Vx = vertical_lift_V(A, x)
            Vy = vertical_lift_V(A, y)
            Tx = complete_lift_T(A, x)
            Ty = complete_lift_T(A, y)
            br = schouten(A, x, y)
            assert schouten(TL, Vx, Vy).is_zero()
            assert schouten(TL, Vx, Ty) == vertical_lift_V(A, br)
            assert schouten(TL, Tx, Vy) == vertical_lift_V(A, br)
            assert schouten(TL, Tx, Ty) == complete_lift_T(A, br)


def test_sym_schouten_table_for_lifts():
    rng = random.Random(23)
    for make in (canonical_plane, so3, nonconstant_rank2):
        A = make()
        TL = tangent_lift(A)
        for _ in range(3):
            x = random_tensor(rng, A, Kind.SYM, rng.choice([1, 2]), max_keys=2)
            y = random_tensor(rng, A, Kind.SYM, rng.choice([1, 2]), max_keys=2)
            br = sym_schouten(A, x, y)
            assert sym_schouten(
                TL, vertical_lift_V(A, x), vertical_lift_V(A, y)
            ).is_zero()
            assert sym_schouten(
                TL, complete_lift_T(A, x), vertical_lift_V(A, y)
            ) == vertical_lift_V(A, br)
            assert sym_schouten(
                TL, complete_lift_T(A, x), complete_lift_T(A, y)
            ) == complete_lift_T(A, br)


def test_contraction_differential_and_lie_commute_with_lifts():
    rng = random.Random(29)
    for make in FIXTURES:
        A = make()
        TL = tangent_lift(A)
        for _ in range(3):
            x = rand_mv(rng, A, 1)
            mu = rand_form(rng, A, rng.choice([1, min(2, A.rank)]))
            Vx = vertical_lift_V(A, x)
            Tx = complete_lift_T(A, x)
            Vm = vertical_lift_V(A, mu)
            Tm = complete_lift_T(A, mu)
            ix = contract(x, mu)
            assert contract(Vx, Vm).is_zero()
            assert contract(Vx, Tm) == vertical_lift_V(A, ix)
            assert contract(Tx, Vm) == vertical_lift_V(A, ix)
            assert contract(Tx, Tm) == complete_lift_T(A, ix)
            assert differential(TL, Vm) == vertical_lift_V(A, differential(A, mu))
            assert differential(TL, Tm) == complete_lift_T(A, differential(A, mu))
            lx = lie_derivative(A, x, mu)
            assert lie_derivative(TL, Vx, Vm).is_zero()
            assert lie_derivative(TL, Vx, Tm) == vertical_lift_V(A, lx)
            assert lie_derivative(TL, Tx, Vm) == vertical_lift_V(A, lx)
            assert lie_derivative(TL, Tx, Tm) == complete_lift_T(A, lx)


def test_nr_and_fn_tables_for_lifted_mixed_tensors():
    rng = random.Random(31)
    for make in FIXTURES:
        A = make()
        TL = tangent_lift(A)
        for _ in range(2):
            K = rand_mixed(rng, A, rng.choice([0, 1]))
            L = rand_mixed(rng, A, rng.choice([0, 1]))
            VK = vertical_lift_V(A, K)
            VL = vertical_lift_V(A, L)
            TK = complete_lift_T(A, K)
            TLt = complete_lift_T(A, L)
            nr = nr_bracket(K, L)
            assert nr_bracket(VK, VL).is_zero()
            assert nr_bracket(VK, TLt) == vertical_lift_V(A, nr)
            assert nr_bracket(TK, VL) == vertical_lift_V(A, nr)
            assert nr_bracket(TK, TLt) == complete_lift_T(A, nr)
            fn = fn_bracket(A, K, L)
            assert fn_bracket(TL, VK, VL).is_zero()
            assert fn_bracket(TL, VK, TLt) == vertical_lift_V(A, fn)
            assert fn_bracket(TL, TK, VL) == vertical_lift_V(A, fn)
            assert fn_bracket(TL, TK, TLt) == complete_lift_T(A, fn)


# -- dual-side lifts: V_pi, V_tau, and the cotangent complete lift -----------------


def test_vertical_pi_examples():
    line = canonical_line()
    D = canonical_algebroid(dual_chart(line))
    assert vertical_pi(line, line.estar(0)) == GradedTensor(D, Kind.MV, 1, {(1,): 1})
    s3 = so3()
    D3 = canonical_algebroid(dual_chart(s3))
    assert vertical_pi(s3, wedge(s3.estar(0), s3.estar(1))) == GradedTensor(
        D3, Kind.MV, 2, {(0, 1): 1}
    )


def test_vertical_pi_is_a_module_map():
    rng = random.Random(37)
    A = nonconstant_rank2()
    mu = rand_form(rng, A, 1)
    f = A.fn("x^3 - 2").as_function()
    assert vertical_pi(A, mu * f) == vertical_pi(A, mu) * f.transport(dual_chart(A))
    nu = rand_form(rng, A, 1)
    assert vertical_pi(A, wedge(mu, nu)) == wedge(
        vertical_pi(A, mu), vertical_pi(A, nu)
    )


def test_vertical_tau_examples():
    line = canonical_line()
    tgt = canonical_algebroid(Chart(("x", "y_x")))
    assert vertical_tau(line, line.e(0)) == GradedTensor(tgt, Kind.MV, 1, {(1,): 1})
    assert vertical_tau(
        line, GradedTensor(line, Kind.MV, 1, {(0,): "x"})
    ) == GradedTensor(tgt, Kind.MV, 1, {(1,): "x"})
    s3 = so3()
    tgt3 = canonical_algebroid(Chart(("y_1", "y_2", "y_3")))
    assert vertical_tau(s3, wedge(s3.e(0), s3.e(1))) == GradedTensor(
        tgt3, Kind.MV, 2, {(0, 1): 1}
    )
    e1 = GradedTensor(s3, Kind.SYM, 1, {(0,): 1})
    assert vertical_tau(s3, sym_product(e1, e1)) == GradedTensor(
        tgt3, Kind.SYM, 2, {(0, 0): 1}
    )


def test_cot_complete_examples():
    line = canonical_line()
    D = canonical_algebroid(dual_chart(line))
    assert cot_complete_G_vec(line, line.e(0)) == GradedTensor(D, Kind.MV, 1, {(0,): 1})
    assert cot_complete_G_vec(
        line, GradedTensor(line, Kind.MV, 1, {(0,): "x"})
    ) == GradedTensor(D, Kind.MV, 1, {(0,): "x", (1,): "-1*p_x"})
    s3 = so3()
    D3 = canonical_algebroid(dual_chart(s3))
    assert cot_complete_G_vec(s3, s3.e(0)) == GradedTensor(
        D3, Kind.MV, 1, {(1,): "xi_3", (2,): "-1*xi_2"}
    )


def cot_complete_coefficientwise(A, x):
    """Coefficient-level expansion of the cotangent complete lift, written out
    independently of the bracket route the implementation takes."""
    D = canonical_algebroid(dual_chart(A))
    chart = D.base
    n, m = A.base.dim, A.rank
    xi = [chart.coordinate(name) for name in A.dual_names]
    out = GradedTensor.zero(D, Kind.MV, 1)
    for (i,), f in x.terms.items():
        ft = f.transport(chart)
        for j in range(m):
            acc = chart.zero()
            for k in range(m):
                c = A.c(i, j, k)
                if not c.is_zero():
                    acc = acc + ft * c.transport(chart) * xi[k]
            for a, name in enumerate(A.base.coords):
                d = f.partial(name)
                rho = A.anchor[j][a]
                if not d.is_zero() and not rho.is_zero():
                    acc = acc - d.transport(chart) * rho.transport(chart) * xi[i]
            if not acc.is_zero():
                out = out + GradedTensor(D, Kind.MV, 1, {(n + j,): acc})
        for a in range(n):
            rho = A.anchor[i][a]
            if not rho.is_zero():
                out = out + GradedTensor(D, Kind.MV, 1, {(a,): ft * rho.transport(chart)})
    return out


def test_cot_complete_matches_coefficientwise_expansion():
    rng = random.Random(41)
    for make in FIXTURES:
        A = make()
        for _ in range(4):
            x = rand_mv(rng, A, 1)
            assert cot_complete_G_vec(A, x) == cot_complete_coefficientwise(A, x)


def test_cot_complete_dual_chart_identities():
    # the classical-Schouten laws on the dual chart that tie iota, V_pi and G
    rng = random.Random(43)
    for make in FIXTURES:
        A = make()
        ps = linear_poisson(A)
        D = ps.owner
        for _ in range(3):
            X = rand_mv(rng, A, 1)
            Y = rand_mv(rng, A, 1)
            mu = rand_form(rng, A, rng.choice([1, min(2, A.rank)]))
            iX = D.fn(iota(A, X))
            GX = cot_complete_G_vec(A, X)
            GY = cot_complete_G_vec(A, Y)
            assert schouten(D, iX, vertical_pi(A, mu)) == -vertical_pi(
                A, contract(X, mu)
            )
            assert schouten(D, ps.bivector, vertical_pi(A, mu)) == vertical_pi(
                A, differential(A, mu)
            )
            assert schouten(D, GX, vertical_pi(A, mu)) == vertical_pi(
                A, lie_derivative(A, X, mu)
            )
            assert schouten(D, GX, GY) == cot_complete_G_vec(
                A, section_bracket(A, X, Y)
            )
            assert schouten(D, GX, D.fn(iota(A, Y))) == D.fn(
                iota(A, section_bracket(A, X, Y))
            )


# -- mixed-tensor maps into the dual chart: J, G, J*, H ----------------------------


def test_j_map_examples():
    line = canonical_line()
    D = canonical_algebroid(dual_chart(line))
    dxex = GradedTensor(line, Kind.MIXED, 1, {((0,), 0): 1})
    assert J_map(line, dxex) == GradedTensor(D, Kind.MV, 1, {(1,): "-1*p_x"})
    rng = random.Random(47)
    A = nonconstant_rank2()
    x = rand_mv(rng, A, 1)
    assert J_map(A, mixed_from_vector(x)).as_function() == -iota(A, x)


def test_j_map_is_nr_homomorphism_and_injective():
    rng = random.Random(53)
    for make in FIXTURES:
        A = make()
        D = canonical_algebroid(dual_chart(A))
        for _ in range(3):
            K = rand_mixed(rng, A, rng.choice([0, 1]))
            L = rand_mixed(rng, A, rng.choice([0, 1]))
            assert schouten(D, J_map(A, K), J_map(A, L)) == J_map(
                A, nr_bracket(K, L)
            )
    plane = canonical_plane()
    slots = ((0, 0), (0, 1), (1, 0), (1, 1))
    for _ in range(8):
        coeffs = [rng.randint(-2, 2) for _ in slots]
        terms = {((a,), j): c for (a, j), c in zip(slots, coeffs) if c}
        K = GradedTensor(plane, Kind.MIXED, 1, terms)
        assert J_map(plane, K).is_zero() == K.is_zero()


def test_g_map_examples_and_sign():
    line = canonical_line()
    D = canonical_algebroid(dual_chart(line))
    dxex = GradedTensor(line, Kind.MIXED, 1, {((0,), 0): 1})
    # positive orientation relative to the base-then-momentum fiber order
    assert G_map(line, dxex) == GradedTensor(D, Kind.MV, 2, {(0, 1): 1})
    rng = random.Random(59)
    A = nonconstant_rank2()
    x = rand_mv(rng, A, 1)
    assert G_map(A, mixed_from_vector(x)) == cot_complete_G_vec(A, x)


def test_g_map_is_fn_homomorphism():
    rng = random.Random(61)
    for make in FIXTURES:
        A = make()
        D = canonical_algebroid(dual_chart(A))
        for _ in range(3):
            K = rand_mixed(rng, A, rng.choice([0, 1]))
            L = rand_mixed(rng, A, rng.choice([0, 1]))
            assert schouten(D, G_map(A, K), G_map(A, L)) == G_map(
                A, fn_bracket(A, K, L)
            )


def test_jstar_examples():
    line = canonical_line()
    D = canonical_algebroid(dual_chart(line))
    dxex = GradedTensor(line, Kind.MIXED, 1, {((0,), 0): 1})
    assert Jstar(dxex) == GradedTensor(D, Kind.FORM, 1, {(0,): "p_x"})
    rng = random.Random(67)
    plane = canonical_plane()
    x = rand_mv(rng, plane, 1)
    assert Jstar(mixed_from_vector(x)).as_function() == iota(plane, x)


def test_jstar_maps_fn_bracket_to_extended_bracket():
    rng = random.Random(71)
    for chart in (Chart(("x",)), Chart(("x", "y"))):
        A = canonical_algebroid(chart)
        ps = linear_poisson(A)
        for _ in range(3):
            K = rand_mixed(rng, A, rng.choice([0, 1]))
            L = rand_mixed(rng, A, rng.choice([0, 1, min(2, A.rank)]))
            assert extended_bracket(ps, Jstar(K), Jstar(L)) == Jstar(
                fn_bracket(A, K, L)
            )


def test_h_map_examples_and_homomorphism():
    line = canonical_line()
    D = canonical_algebroid(dual_chart(line))
    assert H_map(mixed_from_vector(line.e(0))) == GradedTensor(
        D, Kind.MIXED, 0, {((), 0): 1}
    )
    dxex = GradedTensor(line, Kind.MIXED, 1, {((0,), 0): 1})
    assert H_map(dxex) == GradedTensor(
        D, Kind.MIXED, 1, {((0,), 0): 1, ((1,), 1): 1}
    )
    rng = random.Random(73)
    for chart in (Chart(("x",)), Chart(("x", "y"))):
        A = canonical_algebroid(chart)
        DD = canonical_algebroid(dual_chart(A))
        for _ in range(3):
            K = rand_mixed(rng, A, rng.choice([0, 1]))
            L = rand_mixed(rng, A, rng.choice([0, 1]))
            assert fn_bracket(DD, H_map(K), H_map(L)) == H_map(fn_bracket(A, K, L))


def test_h_map_injective_on_basis_combinations():
    rng = random.Random(79)
    plane = canonical_plane()
    slots = ((0, 0), (0, 1), (1, 0), (1, 1))
    for _ in range(8):
        coeffs = [rng.randint(-2, 2) for _ in slots]
        terms = {((a,), j): c for (a, j), c in zip(slots, coeffs) if c}
        K = GradedTensor(plane, Kind.MIXED, 1, terms)
        assert H_map(K).is_zero() == K.is_zero()


def test_lambda_star_recovers_dual_lifts():
    # pullback forms land on V_pi; contracted pullbacks land on -J; their
    # differentials land on -G
    rng = random.Random(83)
    for chart in (Chart(("x",)), Chart(("x", "y"))):
        A = canonical_algebroid(chart)
        ps = linear_poisson(A)
        D = ps.owner
        for _ in range(3):
            mu = rand_form(rng, A, rng.choice([0, 1, min(2, A.rank)]))
            pulled = GradedTensor(
                D,
                Kind.FORM,
                mu.degree,
                {k: c.transport(D.base) for k, c in mu.terms.items()},
            )
            assert lambda_p(ps, pulled, "star") == vertical_pi(A, mu)
            K = GradedTensor(
                A, Kind.MIXED, mu.degree, {(k, 0): c for k, c in mu.terms.items()}
            )
            jsK = Jstar(K)
            assert lambda_p(ps, jsK, "star") == -J_map(A, K)
            assert lambda_p(ps, differential(D, jsK), "star") == -G_map(A, K)


# -- canonical transports ----------------------------------------------------------


def test_kappa_example_and_involution():
    line = canonical_line()
    dc = canonical_algebroid(dotted_chart(line.base))
    lifted = complete_lift_T(line, GradedTensor(line, Kind.MV, 1, {(0,): "x"}))
    moved = canonical_transport("kappa", lifted)
    assert moved == GradedTensor(dc, Kind.MV, 1, {(0,): "x", (1,): "x_dot"})
    # the reverse direction is detected from the dotted-chart shape
    assert canonical_transport("kappa", moved) == lifted


def test_alpha_example_and_involution():
    line = canonical_line()
    dc = canonical_algebroid(dotted_chart(line.base))
    assert classical_vertical_lift(line.estar(0)) == GradedTensor(
        dc, Kind.FORM, 1, {(0,): 1}
    )
    assert classical_complete_lift(line.estar(0) * "x") == GradedTensor(
        dc, Kind.FORM, 1, {(0,): "x_dot", (1,): "x"}
    )
    lifted = complete_lift_T(line, line.estar(0))
    assert canonical_transport(
        "alpha", canonical_transport("alpha", lifted)
    ) == lifted


def classical_complete_of_form(chart, mu):
    """Velocity derivative on each coefficient plus one velocity per slot,
    assembled with wedges so the sign bookkeeping is independent."""
    tgt = canonical_algebroid(dotted_chart(chart))
    n = chart.dim
    out = GradedTensor.zero(tgt, Kind.FORM, mu.degree)
    for key, c in mu.terms.items():
        drift = tgt.base.zero()
        for name in chart.coords:
            d = c.partial(name)
            if not d.is_zero():
                drift = drift + d.transport(tgt.base) * tgt.base.coordinate(
                    f"{name}_dot"
                )
        if not drift.is_zero():
            out = out + GradedTensor(tgt, Kind.FORM, mu.degree, {key: drift})
        for r in range(len(key)):
            piece = GradedTensor(tgt, Kind.FORM, 0, {(): c.transport(tgt.base)})
            for s, idx in enumerate(key):
                piece = wedge(piece, tgt.estar(n + idx if s == r else idx))
            out = out + piece
    return out


def test_classical_complete_lift_of_forms_matches_direct_formula():
    rng = random.Random(89)
    for chart in (Chart(("x",)), Chart(("x", "y")), Chart(("x", "y", "z"))):
        A = canonical_algebroid(chart)
        for _ in range(3):
            mu = rand_form(rng, A, rng.choice([1, min(2, chart.dim)]))
            assert classical_complete_lift(mu) == classical_complete_of_form(
                chart, mu
            )


def test_kappa_is_the_tangent_anchor():
    rng = random.Random(97)
    for chart in (Chart(("x",)), Chart(("x", "y"))):
        A = canonical_algebroid(chart)
        TL = tangent_lift(A)
        dc = canonical_algebroid(dotted_chart(chart))
        for _ in range(3):
            s = random_tensor(rng, TL, Kind.MV, 1, max_keys=2)
            t = random_tensor(rng, TL, Kind.MV, 1, max_keys=2)
            assert anchor_apply(TL, s) == canonical_transport("kappa", s)
            assert canonical_transport(
                "kappa", section_bracket(TL, s, t)
            ) == section_bracket(
                dc, canonical_transport("kappa", s), canonical_transport("kappa", t)
            )


def test_alpha_intertwines_the_differentials():
    rng = random.Random(101)
    for chart in (Chart(("x",)), Chart(("x", "y"))):
        A = canonical_algebroid(chart)
        TL = tangent_lift(A)
        dc = canonical_algebroid(dotted_chart(chart))
        for _ in range(3):
            mu = random_tensor(rng, TL, Kind.FORM, rng.choice([1, 2]), max_keys=2)
            assert canonical_transport("alpha", differential(TL, mu)) == differential(
                dc, canonical_transport("alpha", mu)
            )


def test_classical_lift_tables():
    rng = random.Random(103)
    for chart in (Chart(("x",)), Chart(("x", "y"))):
        A = canonical_algebroid(chart)
        dc = canonical_algebroid(dotted_chart(chart))
        for _ in range(2):
            x = rand_mv(rng, A, rng.choice([1, 2]))
            y = rand_mv(rng, A, 1)
            br = schouten(A, x, y)
            assert schouten(
                dc, classical_vertical_lift(x), classical_vertical_lift(y)
            ).is_zero()
            assert schouten(
                dc, classical_complete_lift(x), classical_vertical_lift(y)
            ) == classical_vertical_lift(br)
            assert schouten(
                dc, classical_complete_lift(x), classical_complete_lift(y)
            ) == classical_complete_lift(br)
            K = rand_mixed(rng, A, 1)
            L = rand_mixed(rng, A, rng.choice([0, 1]))
            assert nr_bracket(
                classical_complete_lift(K), classical_vertical_lift(L)
            ) == classical_vertical_lift(nr_bracket(K, L))
            assert fn_bracket(
                dc, classical_complete_lift(K), classical_complete_lift(L)
            ) == classical_complete_lift(fn_bracket(A, K, L))
            mu = rand_form(rng, A, rng.choice([1, min(2, chart.dim)]))
            x1 = rand_mv(rng, A, 1)
            assert contract(
                classical_complete_lift(x1), classical_vertical_lift(mu)
            ) == classical_vertical_lift(contract(x1, mu))
            assert differential(dc, classical_complete_lift(mu)) == (
                classical_complete_lift(differential(A, mu))
            )
            assert lie_derivative(
                dc, classical_complete_lift(x1), classical_complete_lift(mu)
            ) == classical_complete_lift(lie_derivative(A, x1, mu))


# -- error paths -------------------------------------------------------------------


def test_transport_rejects_wrong_kinds_and_owners():
    line = canonical_line()
    rng = random.Random(107)
    with pytest.raises(WrongProvenance):
        canonical_transport("kappa", rand_form(rng, line, 1))
    with pytest.raises(WrongProvenance):
        canonical_transport("alpha", rand_mv(rng, line, 1))
    A = nonconstant_rank2()
    with pytest.raises(WrongProvenance):
        canonical_transport("kappa", vertical_lift_V(A, rand_mv(rng, A, 1)))
    with pytest.raises(WrongProvenance):
        Jstar(rand_mixed(rng, A, 1))
    with pytest.raises(WrongProvenance):
        H_map(rand_mixed(rng, A, 1))
    with pytest.raises(WrongProvenance):
        classical_vertical_lift(rand_mv(rng, A, 1))
    with pytest.raises(KindMismatch):
        cot_complete_G_vec(line, rand_mv(rng, line, 2))
    with pytest.raises(KindMismatch):
        J_map(line, rand_mv(rng, line, 1))
