"""Differential, Lie differentials, and the four graded brackets.

The random-instance tests here are smoke-sized; the full grind over every
fixture with witness reporting lives in the identity suites.
"""

import random
from itertools import combinations, product

import pytest

import algebroids.tensor
import algebroids.algebroid
import algebroids.calculus
from algebroids.algebroid import (
    anchor_derivative,
    anchor_terms,
    cotangent_lift,
    section_bracket,
    tangent_lift,
)
from algebroids.calculus import (
    differential,
    fn_bracket,
    fn_bracket_simple,
    lie_derivative,
    nr_bracket,
    schouten,
    sym_schouten,
)
from algebroids.errors import KindMismatch
from algebroids.ring import Poly, poly_sum
from algebroids.fixtures import (
    ALGEBROIDS,
    canonical_line,
    canonical_plane,
    canonical_space,
    nonconstant_rank2,
    so3,
)
from algebroids.tensor import (
    _ANY,
    GradedTensor,
    Kind,
    _require,
    as_sym,
    contract,
    evaluate,
    mixed_from_vector,
    random_tensor,
    sym_product,
    tensor_sum,
    wedge,
)


def tensor_product(A, theta, section):
    """theta ⊗ Z built termwise, for expected values in tests."""
    out = GradedTensor.zero(A, Kind.MIXED, theta.degree)
    for fk, cv in theta.terms.items():
        for (j,), g in section.terms.items():
            out = out + GradedTensor(A, Kind.MIXED, theta.degree, {(fk, j): cv * g})
    return out


# -- exterior differential ------------------------------------------------------


def test_differential_of_function():
    A = canonical_line()
    assert differential(A, A.fn("x^2")) == A.estar(0) * "2*x"


def test_differential_dual_generator_so3():
    A = so3()
    assert differential(A, A.estar(2)) == -wedge(A.estar(0), A.estar(1))
    assert differential(A, A.estar(0)) == -wedge(A.estar(1), A.estar(2))


def test_differential_squares_to_zero():
    A = canonical_plane()
    assert differential(A, differential(A, A.fn("x^2*y"))).is_zero()
    for name, make in sorted(ALGEBROIDS.items()):
        B = make()
        rng = random.Random(len(name) * 7)
        for _ in range(15):
            mu = random_tensor(rng, B, Kind.FORM, rng.randint(0, min(2, B.rank)))
            assert differential(B, differential(B, mu)).is_zero()


def test_differential_graded_derivation():
    A = nonconstant_rank2()
    rng = random.Random(5)
    for _ in range(30):
        mu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        nu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        lhs = differential(A, wedge(mu, nu))
        rhs = wedge(differential(A, mu), nu) \
            + wedge(mu, differential(A, nu)) * ((-1) ** mu.degree)
        assert lhs == rhs


def test_differential_rejects_multivectors():
    A = canonical_plane()
    with pytest.raises(KindMismatch):
        differential(A, A.e(0))


def intrinsic_differential(A, mu):
    """The coordinate-free formula, as an independent oracle:

    d mu(X_1,…,X_{p+1}) = sum_i (-1)^{i+1} anchor(X_i)(mu(…X̂_i…))
                        + sum_{i<j} (-1)^{i+j} mu([X_i,X_j], …X̂_iX̂_j…)
    evaluated on all basis tuples.
    """
    from algebroids.algebroid import anchor_derivative

    p = mu.degree
    terms = {}
    for key in combinations(range(A.rank), p + 1):
        total = A.base.zero()
        for i in range(p + 1):
            rest = [A.e(k) for r, k in enumerate(key) if r != i]
            inner = evaluate(mu, rest)
            d = anchor_derivative(A, key[i], inner)
            total = total + (d if i % 2 == 0 else -d)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                rest = [A.e(k) for r, k in enumerate(key) if r not in (i, j)]
                head = A.bracket_basis(key[i], key[j])
                val = evaluate(mu, [head] + rest)
                total = total + (val if (i + j) % 2 == 0 else -val)
        if not total.is_zero():
            terms[key] = total
    return GradedTensor(A, Kind.FORM, p + 1, terms)


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_differential_matches_intrinsic_formula(name):
    A = ALGEBROIDS[name]()
    rng = random.Random(hash(name) & 0xFFF)
    for _ in range(12):
        mu = random_tensor(rng, A, Kind.FORM, rng.randint(0, min(2, A.rank - 1)))
        assert differential(A, mu) == intrinsic_differential(A, mu)


# -- Lie differentials ----------------------------------------------------------


def test_lie_of_section_classical():
    A = canonical_line()
    out = lie_derivative(A, A.e(0), A.estar(0) * "x")
    assert out == A.estar(0)


def test_lie_of_mixed_on_function():
    A = canonical_line()
    K = mixed_from_vector(A.e(0))
    K = GradedTensor(A, Kind.MIXED, 1, {((0,), 0): 1})  # dx⊗e_x
    assert lie_derivative(A, K, A.fn("x")) == A.estar(0)


def test_lie_on_function_is_anchor_action():
    A = nonconstant_rank2()
    rng = random.Random(31)
    from algebroids.algebroid import anchor_derivative

    for _ in range(25):
        x = random_tensor(rng, A, Kind.MV, 1)
        f = random_tensor(rng, A, Kind.MV, 0)
        out = lie_derivative(A, x, f)
        expect = A.base.zero()
        for (i,), g in x.terms.items():
            expect = expect + g * anchor_derivative(A, i, f.as_function())
        assert out.as_function() == expect


def test_lie_derivation_and_commutator_rules():
    """Product rule for sections and L_X∘L_Y − L_Y∘L_X = L_[X,Y]."""
    A = nonconstant_rank2()
    rng = random.Random(13)
    for _ in range(20):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        mu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        nu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        assert lie_derivative(A, x, wedge(mu, nu)) == \
            wedge(lie_derivative(A, x, mu), nu) + wedge(mu, lie_derivative(A, x, nu))
        lhs = lie_derivative(A, x, lie_derivative(A, y, mu)) \
            - lie_derivative(A, y, lie_derivative(A, x, mu))
        assert lhs == lie_derivative(A, section_bracket(A, x, y), mu)
        # L_X∘i_Y − i_Y∘L_X = i_[X,Y]
        assert contract(section_bracket(A, x, y), mu) == \
            lie_derivative(A, x, contract(y, mu)) - contract(y, lie_derivative(A, x, mu))


def test_lie_of_simple_mixed_expansion():
    """L_{mu⊗X} = mu∧L_X + (−1)^deg(mu) d mu∧i_X as operators on forms."""
    A = canonical_space()
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(0, 2)
        mu = random_tensor(rng, A, Kind.FORM, k)
        x = A.e(rng.randrange(A.rank)) * str(A.base.coords[rng.randrange(3)])
        K = tensor_product(A, mu, x)
        nu = random_tensor(rng, A, Kind.FORM, rng.randint(1, 3))
        lhs = lie_derivative(A, K, nu)
        rhs = wedge(mu, lie_derivative(A, x, nu)) \
            + wedge(differential(A, mu), contract(x, nu)) * ((-1) ** k)
        assert lhs == rhs


def test_contraction_order_calibration():
    """The composition order of multivector insertion is pinned by the
    operator identity defining the degree-(2,2) bracket: only the
    first-factor-innermost order satisfies it."""
    assert algebroids.tensor.CONTRACTION_ORDER == "first-factor-innermost"
    A = canonical_space()
    x = wedge(A.e(0), A.e(1)) * "x"
    y = wedge(A.e(0), A.e(2)) * "y"
    mu = wedge(wedge(A.estar(0), A.estar(1)), A.estar(2))

    def residual():
        lhs = lie_derivative(A, y, contract(x, mu)) \
            - contract(x, lie_derivative(A, y, mu))
        return lhs + contract(schouten(A, x, y), mu)

    assert residual().is_zero()
    try:
        algebroids.tensor.CONTRACTION_ORDER = "last-factor-innermost"
        assert not residual().is_zero()
    finally:
        algebroids.tensor.CONTRACTION_ORDER = "first-factor-innermost"


# -- generalized Schouten bracket -------------------------------------------------


def test_schouten_examples():
    A = canonical_line()
    assert schouten(A, A.e(0) * "x", A.fn("x")) == A.fn("x")
    from algebroids.algebroid import canonical_algebroid
    from algebroids.ring import Chart

    B = canonical_algebroid(Chart(("x", "xi")))
    P = wedge(B.e(1), B.e(0))
    assert schouten(B, P, P).is_zero()


def test_schouten_degree_one_is_section_bracket():
    A = nonconstant_rank2()
    rng = random.Random(3)
    for _ in range(20):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        assert schouten(A, x, y) == section_bracket(A, x, y)


def test_schouten_antisymmetry_modes():
    A = canonical_space()
    rng = random.Random(8)
    for _ in range(20):
        x = random_tensor(rng, A, Kind.MV, 2)
        y = random_tensor(rng, A, Kind.MV, 1)
        # shifted degrees 1 and 0: [X,Y] = -(-1)^0 [Y,X]
        assert schouten(A, x, y) == -schouten(A, y, x)
        f = random_tensor(rng, A, Kind.MV, 0)
        # [f, X] against [X, f]
        assert schouten(A, f, x) == schouten(A, x, f)
        assert schouten(A, f, y) == -schouten(A, y, f)
    assert schouten(A, A.fn("x"), A.fn("y")).is_zero()


def test_schouten_leibniz_and_jacobi():
    A = nonconstant_rank2()
    rng = random.Random(21)
    for _ in range(20):
        a = rng.randint(1, 2)
        b = rng.randint(1, 2)
        c = rng.randint(1, 2)
        x = random_tensor(rng, A, Kind.MV, a)
        y = random_tensor(rng, A, Kind.MV, b)
        z = random_tensor(rng, A, Kind.MV, c)
        lhs = schouten(A, x, wedge(y, z))
        rhs = wedge(schouten(A, x, y), z) \
            + wedge(y, schouten(A, x, z)) * ((-1) ** ((a - 1) * b))
        assert lhs == rhs
        k, l, m = a - 1, b - 1, c - 1
        jac = schouten(A, schouten(A, x, y), z) * ((-1) ** (k * m)) \
            + schouten(A, schouten(A, y, z), x) * ((-1) ** (l * k)) \
            + schouten(A, schouten(A, z, x), y) * ((-1) ** (m * l))
        assert jac.is_zero()


def test_schouten_accepts_degree0_mixed():
    A = canonical_plane()
    x = mixed_from_vector(A.e(0) * "x")
    assert schouten(A, x, A.fn("x")) == A.fn("x")


# -- symmetric Schouten bracket ----------------------------------------------------


def test_sym_schouten_example():
    A = canonical_plane()
    lhs = sym_schouten(A, A.e(0), sym_product(A.e(1) * "x", A.e(1)))
    assert lhs == sym_product(A.e(1), A.e(1))


def test_sym_schouten_degree_one_and_functions():
    A = nonconstant_rank2()
    rng = random.Random(14)
    for _ in range(20):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        f = random_tensor(rng, A, Kind.MV, 0)
        assert sym_schouten(A, x, y) == as_sym(section_bracket(A, x, y))
        assert sym_schouten(A, x, f) == as_sym(schouten(A, x, f))
        assert sym_schouten(A, f, f).is_zero()


def test_sym_schouten_poisson_algebra_laws():
    A = so3()
    rng = random.Random(6)
    for _ in range(20):
        x = random_tensor(rng, A, Kind.SYM, rng.randint(1, 2))
        y = random_tensor(rng, A, Kind.SYM, rng.randint(1, 2))
        z = random_tensor(rng, A, Kind.SYM, rng.randint(0, 2))
        assert sym_schouten(A, x, y) == -sym_schouten(A, y, x)
        jac = sym_schouten(A, sym_schouten(A, x, y), z) \
            + sym_schouten(A, sym_schouten(A, y, z), x) \
            + sym_schouten(A, sym_schouten(A, z, x), y)
        assert jac.is_zero()
        assert sym_schouten(A, x, sym_product(y, z)) == \
            sym_product(sym_schouten(A, x, y), z) + sym_product(y, sym_schouten(A, x, z))


# -- Nijenhuis–Richardson -----------------------------------------------------------


def test_nr_examples():
    A = canonical_plane()
    K = GradedTensor(A, Kind.MIXED, 1, {((0,), 0): 1})  # dx⊗e_x
    L = GradedTensor(A, Kind.MIXED, 1, {((0,), 1): 1})  # dx⊗e_y
    assert nr_bracket(K, L) == L
    # a plain section bracketed with a mixed tensor
    assert nr_bracket(A.e(0), L) == mixed_from_vector(A.e(1))
    M = GradedTensor(A, Kind.MIXED, 2, {((0, 1), 0): 1})  # dx∧dy⊗e_x
    assert nr_bracket(M, M).is_zero()
    # two sections: the algebraic bracket vanishes (no anchor involved)
    assert nr_bracket(A.e(0), A.e(1) * "x").is_zero()


def test_nr_simple_tensor_formula():
    """[mu⊗X, nu⊗Y] = mu∧i_X nu⊗Y + (−1)^deg(mu) i_Y mu∧nu⊗X."""
    A = canonical_space()
    rng = random.Random(12)
    for _ in range(30):
        fa, fb = rng.randint(0, 2), rng.randint(0, 2)
        mu = random_tensor(rng, A, Kind.FORM, fa)
        nu = random_tensor(rng, A, Kind.FORM, fb)
        x, y = A.e(rng.randrange(3)), A.e(rng.randrange(3))
        lhs = nr_bracket(tensor_product(A, mu, x), tensor_product(A, nu, y))
        rhs = tensor_product(A, wedge(mu, contract(x, nu)), y) \
            + tensor_product(A, wedge(contract(y, mu), nu), x) * ((-1) ** fa)
        assert lhs == rhs


def test_nr_insertion_operator_identity():
    """i_[K,L] = i_K∘i_L − (−1)^{(a−1)(b−1)} i_L∘i_K on forms."""
    from algebroids.tensor import contract_mixed

    A = canonical_space()
    rng = random.Random(18)
    for _ in range(30):
        k = random_tensor(rng, A, Kind.MIXED, rng.randint(0, 2))
        l = random_tensor(rng, A, Kind.MIXED, rng.randint(0, 2))
        omega = random_tensor(rng, A, Kind.FORM, rng.randint(1, 3))
        sign = -1 if ((k.degree - 1) * (l.degree - 1)) % 2 else 1
        lhs = contract_mixed(nr_bracket(k, l), omega)
        rhs = contract_mixed(k, contract_mixed(l, omega)) \
            - contract_mixed(l, contract_mixed(k, omega)) * sign
        assert lhs == rhs


# -- Frölicher–Nijenhuis ---------------------------------------------------------


def test_fn_examples():
    A = canonical_plane()
    rng = random.Random(9)
    for _ in range(15):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        assert fn_bracket(A, x, y) == mixed_from_vector(section_bracket(A, x, y))
    B = canonical_line()
    K = GradedTensor(B, Kind.MIXED, 1, {((0,), 0): 1})
    assert fn_bracket(B, K, K).is_zero()
    K1 = GradedTensor(A, Kind.MIXED, 1, {((0,), 1): 1})  # dx⊗e_y
    K2 = GradedTensor(A, Kind.MIXED, 1, {((1,), 0): 1})  # dy⊗e_x
    assert fn_bracket(A, K1, K2).is_zero()


def test_fn_well_defined_on_simple_split():
    """Moving a function across the tensor sign of a simple term does not
    change the bracket: [f mu⊗X, nu⊗Y] = [mu⊗fX, nu⊗Y]."""
    A = nonconstant_rank2()
    rng = random.Random(23)
    from algebroids.tensor import random_coefficient

    for _ in range(20):
        f = random_coefficient(rng, A.base)
        mu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        nu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        x, y = A.e(rng.randrange(2)), A.e(rng.randrange(2))
        lhs = fn_bracket_simple(A, mu * f, x, nu, y)
        rhs = fn_bracket_simple(A, mu, x * f, nu, y)
        assert lhs == rhs


def test_fn_antisymmetry_and_operator_identity():
    A = nonconstant_rank2()
    rng = random.Random(27)
    for _ in range(15):
        k = random_tensor(rng, A, Kind.MIXED, rng.randint(0, 2))
        l = random_tensor(rng, A, Kind.MIXED, rng.randint(0, 2))
        sign = (-1) ** (k.degree * l.degree)
        assert fn_bracket(A, k, l) == -(fn_bracket(A, l, k) * sign)
        omega = random_tensor(rng, A, Kind.FORM, rng.randint(1, 2))
        lhs = lie_derivative(A, fn_bracket(A, k, l), omega)
        rhs = lie_derivative(A, k, lie_derivative(A, l, omega)) \
            - lie_derivative(A, l, lie_derivative(A, k, omega)) * sign
        assert lhs == rhs


def test_fn_graded_jacobi():
    A = so3()
    rng = random.Random(33)
    for _ in range(8):
        ks = [random_tensor(rng, A, Kind.MIXED, rng.randint(0, 2), max_keys=2)
              for _ in range(3)]
        k, l, m = (t.degree for t in ks)
        jac = fn_bracket(A, fn_bracket(A, ks[0], ks[1]), ks[2]) * ((-1) ** (k * m)) \
            + fn_bracket(A, fn_bracket(A, ks[1], ks[2]), ks[0]) * ((-1) ** (l * k)) \
            + fn_bracket(A, fn_bracket(A, ks[2], ks[0]), ks[1]) * ((-1) ** (m * l))
        assert jac.is_zero()


# -- the rewritten kernels against their earlier forms ---------------------------
#
# The references below are the differential, the section bracket and the
# Schouten expansion as they were written before d was emitted by key merge
# and before partials were shared: every partial is taken per fiber, and
# every product goes through basis tensors and ``wedge`` / ``sym_product``.


def reference_anchor_derivative(A, i, f):
    row, base = A.anchor[i], A.base
    return poly_sum(base, (row[a] * d for a, name in enumerate(base.coords)
                           if (d := f.partial(name))))


def reference_d_function(A, f):
    terms = {}
    for i in range(A.rank):
        df = reference_anchor_derivative(A, i, f)
        if not df.is_zero():
            terms[(i,)] = df
    return GradedTensor(A, Kind.FORM, 1, terms)


def reference_differential(A, mu):
    if mu.degree == 0:
        return reference_d_function(A, mu.as_function())
    tables = [{} for _ in range(A.rank)]
    for (i, j), entries in A.structure.items():
        for k, coeff in entries.items():
            tables[k][(i, j)] = -coeff
    duals = [GradedTensor(A, Kind.FORM, 2, t) for t in tables]
    pieces = []
    for key, coeff in mu.terms.items():
        basis_form = GradedTensor.basis(A, Kind.FORM, key)
        pieces.append(wedge(reference_d_function(A, coeff), basis_form))
        for r, k in enumerate(key):
            dek = duals[k]
            if dek.is_zero():
                continue
            prefix = GradedTensor.basis(A, Kind.FORM, key[:r])
            suffix = GradedTensor.basis(A, Kind.FORM, key[r + 1:])
            piece = wedge(prefix, wedge(dek, suffix)) * coeff
            pieces.append(piece if r % 2 == 0 else -piece)
    return tensor_sum(A, Kind.FORM, mu.degree + 1, pieces)


def reference_section_bracket(A, x, y):
    def pairs():
        for (i,), f in x.terms.items():
            for (j,), g in y.terms.items():
                if i != j:
                    fg = f * g
                    for k in range(A.rank):
                        coeff = A.c(i, j, k)
                        if not coeff.is_zero():
                            yield (k,), coeff * fg
                d = reference_anchor_derivative(A, i, g)
                if not d.is_zero():
                    yield (j,), f * d
                d = reference_anchor_derivative(A, j, f)
                if not d.is_zero():
                    yield (i,), -(g * d)
    return GradedTensor(A, Kind.MV, 1, list(pairs()))


def reference_bracket_with_function(A, x, g, alternating):
    p = x.degree
    terms = []
    for key, coeff in x.terms.items():
        for r, k in enumerate(key):
            term = coeff * reference_anchor_derivative(A, k, g)
            if alternating and (p - 1 - r) % 2:
                term = -term
            terms.append((key[:r] + key[r + 1:], term))
    return GradedTensor(A, x.kind, p - 1, terms)


def reference_product_all(A, factors, product):
    out = GradedTensor.function(A, 1)
    for f in factors:
        out = product(out, f)
    return out


def reference_expand(A, x, y, product, alternating):
    def term_factors(key, coeff):
        return [A.e(key[0]) * coeff] + [A.e(k) for k in key[1:]]

    a, b = x.degree, y.degree
    pieces = []
    for kx, cx in x.terms.items():
        fx = term_factors(kx, cx)
        for ky, cy in y.terms.items():
            fy = term_factors(ky, cy)
            for i in range(a):
                for j in range(b):
                    head = reference_section_bracket(A, fx[i], fy[j])
                    if head.is_zero():
                        continue
                    piece = reference_product_all(
                        A, [head] + fx[:i] + fx[i + 1:] + fy[:j] + fy[j + 1:], product)
                    pieces.append(-piece if alternating and (i + j) % 2 else piece)
    return tensor_sum(A, x.kind, a + b - 1, pieces)


def reference_schouten(A, x, y):
    a, b = x.degree, y.degree
    if a == 0 and b == 0:
        return GradedTensor.zero(A, Kind.MV, 0)
    if b == 0:
        return reference_bracket_with_function(A, x, y.as_function(), True)
    if a == 0:
        flipped = reference_bracket_with_function(A, y, x.as_function(), True)
        return flipped if b % 2 == 0 else -flipped
    return reference_expand(A, x, y, wedge, True)


def reference_sym_schouten(A, x, y):
    x, y = as_sym(x), as_sym(y)
    a, b = x.degree, y.degree
    if a == 0 and b == 0:
        return GradedTensor.zero(A, Kind.SYM, 0)
    if b == 0:
        return reference_bracket_with_function(A, x, y.as_function(), False)
    if a == 0:
        return -reference_sym_schouten(A, y, x)
    return reference_expand(A, x, y, sym_product, False)


_LIFTS = {"tangent-lift": tangent_lift, "cotangent-lift": cotangent_lift}


def _every_builtin_and_its_lifts():
    for name in sorted(ALGEBROIDS):
        yield name
        for lift in _LIFTS:
            yield f"{name}/{lift}"


def _built(case):
    name, _, lift = case.partition("/")
    A = ALGEBROIDS[name]()
    return _LIFTS[lift](A) if lift else A


@pytest.mark.parametrize("case", list(_every_builtin_and_its_lifts()))
def test_rewritten_kernels_match_references(case):
    A = _built(case)
    rng = random.Random(f"kernels/{case}")
    for _ in range(8):
        mu = random_tensor(rng, A, Kind.FORM, rng.randint(0, min(3, A.rank)))
        assert differential(A, mu).terms == reference_differential(A, mu).terms
        f = random_tensor(rng, A, Kind.MV, 0)
        assert differential(A, f).terms == reference_differential(A, f).terms
        x, y = (random_tensor(rng, A, Kind.MV, rng.randint(0, min(3, A.rank)))
                for _ in range(2))
        assert schouten(A, x, y).terms == reference_schouten(A, x, y).terms
        s, t = (random_tensor(rng, A, Kind.SYM, rng.randint(0, 2)) for _ in range(2))
        assert sym_schouten(A, s, t).terms == reference_sym_schouten(A, s, t).terms
        u, v = (random_tensor(rng, A, Kind.MV, 1) for _ in range(2))
        assert section_bracket(A, u, v).terms == reference_section_bracket(A, u, v).terms


@pytest.mark.parametrize("case", ["canonical-space", "nonconstant-rank2/tangent-lift",
                                  "nonconstant-rank2"])
def test_differential_of_a_function_takes_each_partial_once(case, monkeypatch):
    A = _built(case)
    f = A.base.const(1)
    for name in A.base.coords:
        f = f * (A.base.coordinate(name) + 1) ** 2
    calls = []
    original = Poly.partial

    def counted(p, name):
        calls.append(name)
        return original(p, name)

    monkeypatch.setattr(Poly, "partial", counted)
    df = differential(A, A.fn(f))
    assert A.rank > 1 and not df.is_zero()
    assert len(calls) <= A.base.dim  # rank * dim before the partials were shared


@pytest.mark.parametrize("case", ["canonical-space", "nonconstant-rank2/tangent-lift",
                                  "nonconstant-rank2"])
def test_differential_of_constant_coefficients_applies_no_anchor(case, monkeypatch):
    """A constant has an empty gradient, so d f = 0 and d(c e*_K) is the
    structure part alone; neither applies an anchor."""
    A = _built(case)
    forms = [A.fn(3), GradedTensor(A, Kind.FORM, 0, {(): -2})]
    for degree in (1, 2):
        keys = combinations(range(A.rank), degree)
        forms.append(GradedTensor(A, Kind.FORM, degree,
                                  {key: n + 1 for n, key in enumerate(keys)}))
    expected = [reference_differential(A, mu) for mu in forms]
    calls = []

    def counted(*args):
        calls.append(args)
        return anchor_terms(*args)

    # the library calls the guard-free kernel of anchor_terms
    monkeypatch.setattr(algebroids.calculus, "_anchor_terms", counted)
    assert [differential(A, mu) for mu in forms] == expected
    assert calls == []


def test_schouten_brackets_call_no_section_bracket(monkeypatch):
    A = nonconstant_rank2()
    x = GradedTensor(A, Kind.MV, 2, {(0, 1): "x^2 + 1"})
    y = GradedTensor(A, Kind.MV, 2, {(0, 1): "3*x - 2"})
    s = GradedTensor(A, Kind.SYM, 2, {(0, 0): "x", (0, 1): "x^3", (1, 1): "1"})
    t = GradedTensor(A, Kind.SYM, 2, {(0, 1): "x^2 - x", (1, 1): "2*x"})
    expected = [(schouten(A, x, y), x, y), (sym_schouten(A, s, t), s, t)]
    assert not expected[1][0].is_zero()  # the degree-3 multivector is 0 at rank 2
    brackets, gradients = [], []
    original = Poly.gradient

    def counted(p):
        gradients.append(p)
        return original(p)

    def forbidden(*args):
        brackets.append(args)
        return section_bracket(*args)

    monkeypatch.setattr(Poly, "gradient", counted)
    for module in (algebroids.algebroid, algebroids.calculus):
        # calculus calls the bracket kernel and binds no section_bracket
        monkeypatch.setattr(module, "section_bracket", forbidden, raising=False)
    for bracket, (value, u, v) in zip((schouten, sym_schouten), expected):
        gradients.clear()
        assert bracket(A, u, v) == value
        assert len(gradients) <= len(u.terms) + len(v.terms)
    assert brackets == []


# -- the Frölicher–Nijenhuis kernel against its earlier form ---------------------


#: a vector-valued form, or a section seen as one of degree 0
_VECTOR_VALUED = {Kind.MIXED: _ANY, Kind.MV: (1,)}


def _as_mixed(t: GradedTensor) -> GradedTensor:
    """A section as the degree-0 vector-valued form 1⊗X."""
    return mixed_from_vector(t) if t.kind is Kind.MV else t


def reference_fn_bracket(algebroid, k, l):
    """``fn_bracket`` as it was written before operands were split by bundle
    factor: ``fn_bracket_simple`` summed over every pair of terms."""
    _require(k, "fn_bracket", algebroid, _VECTOR_VALUED)
    _require(l, "fn_bracket", algebroid, _VECTOR_VALUED)
    k, l = _as_mixed(k), _as_mixed(l)
    pieces = []
    for (fk, i), ck in k.terms.items():
        mu = GradedTensor(algebroid, Kind.FORM, len(fk), {fk: ck})
        x = algebroid.e(i)
        for (fl, j), cl in l.terms.items():
            nu = GradedTensor(algebroid, Kind.FORM, len(fl), {fl: cl})
            y = algebroid.e(j)
            pieces.append(fn_bracket_simple(algebroid, mu, x, nu, y))
    return tensor_sum(algebroid, Kind.MIXED, k.degree + l.degree, pieces)


def _random_mixed(rng, A, degree, one_fiber):
    """A random vector-valued form; with ``one_fiber`` all its terms share
    one bundle factor."""
    if not one_fiber:
        return random_tensor(rng, A, Kind.MIXED, degree, max_keys=4)
    form = random_tensor(rng, A, Kind.FORM, degree, max_keys=3)
    fiber = rng.randrange(A.rank)
    return GradedTensor(A, Kind.MIXED, degree,
                        {(key, fiber): c for key, c in form.terms.items()})


def _fn_operand_pairs(A, rng):
    """Operand pairs of form degree 0-2, each degree pair once with terms
    spread over fibers and once with each operand's terms on one fiber, plus
    a pair of sections given as degree-1 multivectors."""
    for a, b in product(range(3), repeat=2):
        for one_fiber in (False, True):
            yield (_random_mixed(rng, A, a, one_fiber),
                   _random_mixed(rng, A, b, one_fiber))
    yield random_tensor(rng, A, Kind.MV, 1), random_tensor(rng, A, Kind.MV, 1)


@pytest.mark.parametrize("case", list(_every_builtin_and_its_lifts()))
def test_fn_bracket_matches_the_reference(case):
    A = _built(case)
    rng = random.Random(f"fn-bracket/{case}")
    shared = 0
    for k, l in _fn_operand_pairs(A, rng):
        expected = reference_fn_bracket(A, k, l)
        value = fn_bracket(A, k, l)
        assert value.terms == expected.terms
        assert value.degree == expected.degree
        shared += any(len({i for _, i in t.terms}) < len(t.terms)
                      for t in (_as_mixed(k), _as_mixed(l)))
    assert shared or A.rank == 1  # a rank-1 operand has one term per degree


@pytest.mark.parametrize("case", ["so3", "nonconstant-rank2", "so3/tangent-lift",
                                  "canonical-plane/cotangent-lift"])
def test_fn_bracket_differentiates_each_form_once(case, monkeypatch):
    """One call takes d mu_i and d nu_j once each, and d i_{e_j} mu_i and
    d i_{e_i} nu_j once per pair of fibers: at most a(1+b) + b(1+a)
    differentials for a fibers of K and b fibers of L, and no Lie
    derivative, section bracket or simple-tensor bracket."""
    A = _built(case)
    rng = random.Random(f"fn-count/{case}")
    pairs = list(_fn_operand_pairs(A, rng))
    expected = [reference_fn_bracket(A, k, l) for k, l in pairs]
    calls = []
    kernel = algebroids.calculus._differential

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    def refuse(name):
        def call(*args):
            raise AssertionError(f"fn_bracket called {name}")
        return call

    # the library calls the guard-free kernels: _differential of differential,
    # _bracket_tensors of section_bracket
    monkeypatch.setattr(algebroids.calculus, "_differential", counted)
    for name in ("lie_derivative", "_lie_derivative", "_bracket_tensors",
                 "fn_bracket_simple"):
        monkeypatch.setattr(algebroids.calculus, name, refuse(name))
    for (k, l), value in zip(pairs, expected):
        calls.clear()
        assert fn_bracket(A, k, l) == value
        a = len({i for _, i in _as_mixed(k).terms})
        b = len({j for _, j in _as_mixed(l).terms})
        assert len(calls) <= a * (1 + b) + b * (1 + a)


# -- the kind views ------------------------------------------------------------


def test_each_view_computes_as_the_kind_it_reads_as():
    A = nonconstant_rank2()
    f = A.fn("x^2")
    x, y = A.e(0) * "x" + A.e(1), A.e(1) * "x^2"
    k = GradedTensor(A, Kind.MIXED, 1, {((0,), 1): "x"})
    # a function is a 0-form
    assert differential(A, f) == differential(A, GradedTensor(A, Kind.FORM, 0, {(): "x^2"}))
    # a section X is 1⊗X
    assert nr_bracket(x, k) == nr_bracket(mixed_from_vector(x), k)
    assert nr_bracket(x, k).kind is Kind.MIXED
    # 1⊗X is the section X
    assert schouten(A, mixed_from_vector(x), y) == schouten(A, x, y)
    assert schouten(A, mixed_from_vector(x), y).kind is Kind.MV
    # functions and sections are symmetric multivectors
    assert sym_schouten(A, x, f) == sym_schouten(A, as_sym(x), as_sym(f))
    assert sym_schouten(A, x, f).kind is Kind.SYM


def test_an_operand_with_no_view_names_every_shape_the_operation_takes():
    A = nonconstant_rank2()
    with pytest.raises(KindMismatch) as error:
        schouten(A, A.e(0), A.estar(0))
    assert str(error.value) == "schouten takes mv or mixed degree 0, got form degree 1"
