"""Graded tensor arithmetic: normalization, products, contraction."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from algebroids import tensor
from algebroids.algebroid import cotangent_lift, tangent_lift
from algebroids.errors import ChartMismatch, DimensionMismatch, KindMismatch
from algebroids.fixtures import ALGEBROIDS, POISSON, canonical_plane, canonical_space, so3
from algebroids.ring import Chart, Poly, accumulate, parse_poly
from algebroids.tensor import (
    GradedTensor,
    Kind,
    as_sym,
    basis_keys,
    contract,
    contract_mixed,
    equals,
    evaluate,
    mixed_from_vector,
    pretty,
    random_coefficient,
    random_tensor,
    remap,
    sym_product,
    vector_from_mixed,
    wedge,
)


def test_key_normalization_signs():
    A = canonical_space()
    t = GradedTensor(A, Kind.MV, 2, {(2, 0): "x"})
    assert t.terms == {(0, 2): parse_poly("-1*x", A.base)}
    assert t.coefficient((2, 0)) == parse_poly("x", A.base)
    assert t.coefficient((0, 2)) == parse_poly("-1*x", A.base)


def test_repeated_index_vanishes():
    A = canonical_space()
    assert GradedTensor(A, Kind.MV, 2, {(1, 1): "x"}).is_zero()
    # symmetric keys keep repeats and sort without signs
    s = GradedTensor(A, Kind.SYM, 2, {(2, 0): 1, (1, 1): 3})
    assert set(s.terms) == {(0, 2), (1, 1)}


def test_key_validation():
    A = canonical_plane()
    with pytest.raises(DimensionMismatch):
        GradedTensor(A, Kind.MV, 1, {(5,): 1})
    with pytest.raises(KindMismatch):
        GradedTensor(A, Kind.MV, 2, {(0,): 1})
    with pytest.raises(KindMismatch):
        GradedTensor(A, Kind.MV, -1, {})


@pytest.mark.parametrize("kind, degree, terms", [
    (Kind.MV, 1, 5),
    (Kind.MV, 1, {5: 1}),
    (Kind.MV, 1, [5]),
    (Kind.MV, 1, [((0,), 1, 2)]),
    (Kind.SYM, 1, {5: 1}),
    (Kind.MIXED, 1, {5: 1}),
    (Kind.MIXED, 1, {((0,),): 1}),
    (Kind.MIXED, 1, {(5, 0): 1}),
    (Kind.MV, 1, {("a",): 1}),
    (Kind.MV, 1, {(0.5,): 1}),
    (Kind.FORM, 1, {(True,): 1}),
    (Kind.MIXED, 1, {((0,), "a"): 1}),
], ids=["terms-not-iterable", "key-not-a-tuple", "term-not-a-pair",
        "term-a-triple", "sym-key-not-a-tuple", "mixed-key-not-a-pair",
        "mixed-key-a-1-tuple", "mixed-form-key-not-a-tuple", "index-a-string",
        "index-a-float", "index-a-bool", "fiber-a-string"])
def test_malformed_terms_raise_kind_mismatch(kind, degree, terms):
    with pytest.raises(KindMismatch):
        GradedTensor(so3(), kind, degree, terms)


@pytest.mark.parametrize("call", [
    lambda A: GradedTensor(A, "mv", 1, {(0,): 1}),
    lambda A: GradedTensor(A, Kind.MV, "1"),
    lambda A: GradedTensor(None, Kind.MV, 1),
    lambda A: GradedTensor.basis(A, Kind.MV, 5),
    lambda A: GradedTensor.zero(A, Kind.FORM, 1.0),
    lambda A: basis_keys(A, Kind.MV, -1),
    lambda A: basis_keys(A, "x", 1),
    lambda A: random_tensor(random.Random(0), A, "form", 1),
], ids=["kind-a-string", "degree-a-string", "owner-none", "basis-key-an-int",
        "zero-degree-a-float", "negative-degree-keys", "keys-of-a-bogus-kind",
        "random-tensor-of-a-bogus-kind"])
def test_constructor_and_enumeration_arguments_are_type_checked(call):
    with pytest.raises(KindMismatch):
        call(so3())


def test_linear_structure():
    A = canonical_plane()
    x = A.e(0) * "x"
    y = A.e(1) * 2
    s = x + y - x
    assert s == y
    assert (s - y).is_zero()
    assert -(-x) == x
    with pytest.raises(KindMismatch):
        x + A.estar(0)
    with pytest.raises(ChartMismatch):
        equals(x, so3().e(0))


def test_zero_tensors_compare_across_degrees():
    A = canonical_plane()
    assert GradedTensor.zero(A, Kind.MV, 2) == GradedTensor.zero(A, Kind.MV, 0)
    assert GradedTensor.zero(A, Kind.MV, 2) != GradedTensor.zero(A, Kind.FORM, 2)


def test_wedge_basics():
    A = canonical_space()
    e0, e1 = A.e(0), A.e(1)
    assert wedge(e0, e1) == -wedge(e1, e0)
    assert wedge(e0, e0).is_zero()
    mu = wedge(A.estar(0), A.estar(1))
    assert mu.degree == 2 and mu.kind is Kind.FORM
    with pytest.raises(KindMismatch):
        wedge(e0, mu)


def test_wedge_mixed():
    A = canonical_space()
    k = GradedTensor(A, Kind.MIXED, 1, {((0,), 2): 1})  # e*x ⊗ e_z
    left = wedge(A.estar(1), k)
    right = wedge(k, A.estar(1))
    assert left.terms == {((0, 1), 2): -A.base.one()}
    assert right.terms == {((0, 1), 2): A.base.one()}
    with pytest.raises(KindMismatch):
        wedge(k, k)


def test_wedge_associative_random():
    A = canonical_space()
    rng = random.Random(20260818)
    for _ in range(40):
        a = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        b = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        c = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        # graded commutativity
        sign = (-1) ** (a.degree * b.degree)
        assert wedge(a, b) == wedge(b, a) * sign


def test_sym_product_commutative_associative():
    A = canonical_plane()
    rng = random.Random(7)
    for _ in range(30):
        a = random_tensor(rng, A, Kind.SYM, rng.randint(0, 2))
        b = random_tensor(rng, A, Kind.SYM, rng.randint(0, 2))
        c = random_tensor(rng, A, Kind.SYM, rng.randint(1, 2))
        assert sym_product(a, b) == sym_product(b, a)
        assert sym_product(sym_product(a, b), c) == sym_product(a, sym_product(b, c))
    # sections coerce into the symmetric algebra
    s = sym_product(A.e(0), A.e(0))
    assert s.terms == {(0, 0): A.base.one()}
    assert as_sym(A.fn("x")).kind is Kind.SYM


def test_contract_single_insertion():
    A = canonical_space()
    mu = wedge(A.estar(0), A.estar(1))
    assert contract(A.e(0), mu) == A.estar(1)
    assert contract(A.e(1), mu) == -A.estar(0)
    assert contract(A.e(2), mu).is_zero()
    # degree-0 multivectors multiply
    assert contract(A.fn("x"), mu) == mu * "x"
    # over-contraction is zero
    assert contract(wedge(A.e(0), A.e(1)), A.estar(0)).is_zero()


def test_contraction_order_is_first_factor_innermost(monkeypatch):
    """Pins down the composition order both ways.

    With the first wedge factor inserted innermost, pairing e_0∧e_1 with
    e*_0∧e*_1 gives +1 (the determinant convention); the opposite order
    gives -1, and an unknown order is rejected.
    """
    A = canonical_plane()
    p = wedge(A.e(0), A.e(1))
    mu = wedge(A.estar(0), A.estar(1))
    assert contract(p, mu).as_function() == 1
    monkeypatch.setattr(tensor, "CONTRACTION_ORDER", "last-factor-innermost")
    assert contract(p, mu).as_function() == -1
    monkeypatch.setattr(tensor, "CONTRACTION_ORDER", "sideways")
    with pytest.raises(KindMismatch):
        contract(p, mu)


def test_contract_composition_law():
    """i_{X∧Y} = i_Y ∘ i_X for sections X, Y (first factor innermost)."""
    A = canonical_space()
    rng = random.Random(99)
    for _ in range(50):
        x = random_tensor(rng, A, Kind.MV, 1)
        y = random_tensor(rng, A, Kind.MV, 1)
        mu = random_tensor(rng, A, Kind.FORM, rng.randint(2, 3))
        assert contract(wedge(x, y), mu) == contract(y, contract(x, mu))


def test_contract_derivation_over_wedge():
    """i_X(mu∧nu) = i_X mu∧nu + (-1)^deg(mu) mu∧i_X nu for sections X."""
    A = canonical_space()
    rng = random.Random(4242)
    for _ in range(50):
        x = random_tensor(rng, A, Kind.MV, 1)
        mu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        nu = random_tensor(rng, A, Kind.FORM, rng.randint(0, 2))
        lhs = contract(x, wedge(mu, nu))
        rhs = wedge(contract(x, mu), nu) + wedge(mu, contract(x, nu)) * ((-1) ** mu.degree)
        assert lhs == rhs


def test_evaluate_is_determinant_pairing():
    A = canonical_space()
    vol = wedge(wedge(A.estar(0), A.estar(1)), A.estar(2))
    assert evaluate(vol, [A.e(0), A.e(1), A.e(2)]) == 1
    assert evaluate(vol, [A.e(1), A.e(0), A.e(2)]) == -1
    assert evaluate(vol, [A.e(0), A.e(0), A.e(2)]) == 0
    mu = wedge(A.estar(0), A.estar(1))
    x, y = A.e(0) * "x", A.e(1) * "y"
    assert evaluate(mu, [x, y]) == parse_poly("x*y", A.base)
    with pytest.raises(KindMismatch):
        evaluate(mu, [A.e(0)])


def test_contract_mixed_form_target():
    A = canonical_space()
    k = GradedTensor(A, Kind.MIXED, 1, {((0,), 1): 1})  # e*x ⊗ e_y
    mu = wedge(A.estar(1), A.estar(2))
    out = contract_mixed(k, mu)
    # i_{e*x⊗e_y}(e*y∧e*z) = e*x ∧ i_{e_y}(e*y∧e*z) = e*x∧e*z
    assert out == wedge(A.estar(0), A.estar(2))
    # mixed target: acts on the form part, keeps the fiber factor
    target = GradedTensor(A, Kind.MIXED, 2, {((1, 2), 0): 1})
    out2 = contract_mixed(k, target)
    assert out2.terms == {((0, 2), 0): A.base.one()}
    # degree-0 targets contract to zero
    assert contract_mixed(k, GradedTensor(A, Kind.FORM, 0, {(): "x"})).is_zero()


def test_mixed_vector_coercions():
    A = canonical_plane()
    x = A.e(0) * "x" + A.e(1) * 3
    assert vector_from_mixed(mixed_from_vector(x)) == x
    with pytest.raises(KindMismatch):
        mixed_from_vector(A.estar(0))
    with pytest.raises(KindMismatch):
        vector_from_mixed(GradedTensor(A, Kind.MIXED, 1, {((0,), 1): 1}))


def test_remap_permutes_and_renames():
    A = so3()
    B = so3()
    t = wedge(A.e(0), A.e(1)) * 2
    moved = remap(t, B, {0: 1, 1: 0, 2: 2})
    assert moved.terms == {(0, 1): B.base.const(-2)}
    # coordinate renaming travels with the coefficients
    C = canonical_plane()
    from algebroids.algebroid import canonical_algebroid

    D = canonical_algebroid(Chart(("u", "v")))
    u = C.e(0) * "x"
    renamed = remap(u, D, {0: 0, 1: 1}, coord_map={"x": "u", "y": "v"})
    assert renamed == D.e(0) * "u"


def test_remap_rejects_an_unmapped_index():
    A = canonical_plane()
    with pytest.raises(DimensionMismatch):
        remap(A.e(0) * "x", A, {})
    with pytest.raises(DimensionMismatch):
        remap(wedge(A.e(0), A.e(1)), A, {0: 1})
    # an index no key uses needs no image
    assert remap(A.e(1), A, {1: 0}) == A.e(0)


def test_remap_rejects_a_merging_fiber_map():
    # {0: 0, 1: 0} would turn x*e_x + y*e_y into (x + y)*e_x
    A = canonical_plane()
    t = A.e(0) * "x" + A.e(1) * "y"
    with pytest.raises(DimensionMismatch):
        remap(t, A, {0: 0, 1: 0})
    # the map need only be injective on the indices in use
    assert remap(A.e(0), A, {0: 1, 1: 1}) == A.e(1)


def test_remap_rejects_an_index_out_of_range():
    A = canonical_plane()
    t = A.e(0) * "x" + A.e(1) * "y"
    with pytest.raises(DimensionMismatch):
        remap(t, A, {0: 0, 1: 5})
    with pytest.raises(DimensionMismatch):
        remap(t, A, {0: -1, 1: 0})
    with pytest.raises(DimensionMismatch):
        remap(GradedTensor(A, Kind.MIXED, 1, {((0,), 1): 1}), A, {0: 0, 1: 2})


def test_hash_ignores_term_order_and_prints_nothing(monkeypatch):
    from algebroids import ring

    A = canonical_space()
    terms = [((0, 1), "x*y - 1"), ((1, 2), "3/2*z"), ((0, 2), 2)]
    s = GradedTensor(A, Kind.MV, 2, terms)
    t = GradedTensor(A, Kind.MV, 2, terms[::-1])
    assert list(s.terms) != list(t.terms)
    printed = []
    real = ring.poly_to_string
    monkeypatch.setattr(ring, "poly_to_string", lambda p: printed.append(p) or real(p))
    assert s == t and hash(s) == hash(t)
    assert len({s, t, s * 2}) == 2
    assert printed == []


def test_basis_keys_enumeration():
    A = canonical_plane()
    assert list(basis_keys(A, Kind.MV, 2)) == [(0, 1)]
    assert list(basis_keys(A, Kind.SYM, 2)) == [(0, 0), (0, 1), (1, 1)]
    assert ((0,), 1) in basis_keys(A, Kind.MIXED, 1)


def test_pretty_rendering():
    A = canonical_plane()
    assert pretty(GradedTensor.zero(A, Kind.MV, 3)) == "0"
    assert pretty(wedge(A.e(0), A.e(1))) == "e_x∧e_y"
    assert pretty(A.estar(1) * -1) == "-e*y"
    k = GradedTensor(A, Kind.MIXED, 1, {((0,), 1): "x + 1"})
    assert "⊗e_y" in pretty(k) and "(" in pretty(k)


# -- the skew-merge table and the random draws against their earlier forms -------


def reference_sort_skew(indices):
    """``tensor._sort_skew`` as it was before it answered from a table."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return tuple(idx), sign


def test_the_skew_table_answers_as_the_insertion_sort():
    tuples = [t for n in range(6) for t in product(range(7), repeat=n)]
    assert len(tuples) > tensor._SKEW_TABLE_SIZE  # misses and evictions too
    for _ in range(2):  # filled, then read back
        assert [tensor._sort_skew(t) for t in tuples] == \
            [reference_sort_skew(t) for t in tuples]


def reference_random_coefficient(rng, chart, degree=2):
    """``random_coefficient`` as it was written before it summed its draws."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        exp = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            if chart.dim:
                exp[rng.randrange(chart.dim)] += 1
        terms.append((tuple(exp), rng.randint(-3, 3)))
    return Poly._make(chart, accumulate(terms))


def reference_random_tensor(rng, owner, kind, degree, coeff_degree=2, max_keys=3):
    """``random_tensor`` as it was written before it built with ``_make``."""
    keys = list(basis_keys(owner, kind, degree))
    if not keys:
        return GradedTensor.zero(owner, kind, degree)
    chosen = rng.sample(keys, min(len(keys), rng.randint(1, max_keys)))
    terms = [(key, reference_random_coefficient(rng, owner.base, coeff_degree))
             for key in chosen]
    return GradedTensor(owner, kind, degree, terms)


def test_random_draws_match_their_earlier_form():
    """Same terms, in the same key order, and the generator left in the same
    state, over the built-in algebroids and their lifts, every kind and
    degrees 0-3 (a passing suite report holds no drawn value)."""
    owners = [make() for make in ALGEBROIDS.values()]
    owners += [lift(A) for lift in (tangent_lift, cotangent_lift) for A in owners]
    for seed in range(300):
        new, old = random.Random(seed), random.Random(seed)
        for A in owners:
            for kind in Kind:
                for degree in range(4):
                    t = random_tensor(new, A, kind, degree)
                    r = reference_random_tensor(old, A, kind, degree)
                    assert list(t.terms.items()) == list(r.terms.items())
                    assert all(list(c.terms.items()) == list(r.terms[k].terms.items())
                               for k, c in t.terms.items())
            assert new.getstate() == old.getstate()


# The two draws as they read when they called ``choice``, ``randint`` and
# ``randrange`` and rebuilt the basis keys on every draw, kept verbatim.

def listed_basis_keys(owner, kind, degree):
    rank = owner.rank
    if kind is Kind.SYM:
        return list(combinations_with_replacement(range(rank), degree))
    if kind is Kind.MIXED:
        return [(fk, j) for fk in combinations(range(rank), degree)
                for j in range(rank)]
    return list(combinations(range(rank), degree))


_TERM_COUNTS = range(1, 3)
_COEFFICIENTS = range(-3, 4)


def sampled_random_coefficient(rng, chart, degree=2):
    dim = chart.dim
    terms = {}
    for _ in range(rng.choice(_TERM_COUNTS)):
        exp = [0] * dim
        for _ in range(rng.randint(0, degree)):
            if dim:
                exp[rng.randrange(dim)] += 1
        exp = tuple(exp)
        # the two draws are ints, so their sum needs no accumulation kernel
        coeff = terms.get(exp, 0) + rng.choice(_COEFFICIENTS)
        if coeff:
            terms[exp] = coeff
        else:
            terms.pop(exp, None)
    return Poly._make(chart, terms)


def sampled_random_tensor(rng, owner, kind, degree, coeff_degree=2, max_keys=3):
    keys = listed_basis_keys(owner, kind, degree)
    if not keys:
        return GradedTensor.zero(owner, kind, degree)
    # basis keys are canonical and a sample holds each at most once, so the
    # drawn terms need only their zero coefficients dropped
    chosen = rng.sample(keys, min(len(keys), rng.randint(1, max_keys)))
    terms = {}
    for key in chosen:
        coeff = sampled_random_coefficient(rng, owner.base, coeff_degree)
        if coeff:
            terms[key] = coeff
    return GradedTensor._make(owner, kind, degree, terms)


def test_draws_below_match_the_sampling_calls():
    """One ``_randbelow`` per draw gives what ``choice``, ``randint`` and
    ``randrange`` gave: equal tensors and coefficients, and the generator in
    the same state, over every shipped owner, every kind, degrees 0-3 and
    coefficient degrees 0-2."""
    owners = [make() for make in ALGEBROIDS.values()]
    owners += [make().owner for make in POISSON.values()]
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        for A in owners:
            for coeff_degree in range(3):
                assert (random_coefficient(new, A.base, coeff_degree)
                        == sampled_random_coefficient(old, A.base, coeff_degree))
                for kind in Kind:
                    for degree in range(4):
                        t = random_tensor(new, A, kind, degree, coeff_degree)
                        r = sampled_random_tensor(old, A, kind, degree, coeff_degree)
                        assert t == r and list(t.terms) == list(r.terms)
                assert new.getstate() == old.getstate()
    assert list(basis_keys(so3(), Kind.MIXED, 2)) == listed_basis_keys(so3(), Kind.MIXED, 2)


def test_an_empty_draw_range_is_an_error():
    A = so3()
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_coefficient(rng, A.base, -1)
    with pytest.raises(ValueError):
        random_tensor(rng, A, Kind.MV, 1, max_keys=0)
    # no keys to draw from: the zero tensor, whatever the bound
    assert random_tensor(rng, A, Kind.MV, 4, max_keys=0).is_zero()
