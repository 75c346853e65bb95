"""The per-algebroid tables behind ``d``, the bracket kernel and
``is_canonical``, and the zero and unit exits of the tensor operations.

Each reference below is the kernel as it read before the tables: the anchor
read row by row for one fiber at a time (``anchor_terms``,
``anchor_derivative``), the prepared bracket operand with one
``anchor_derivative`` per fiber (``_prepare``), ``d`` trying every fiber and
every stored structure column (``differential``) and ``is_canonical``
comparing the whole anchor matrix.  The table-driven kernels must give
equal term maps over every shipped algebroid, its tangent and cotangent
lifts and every Poisson owner, at degrees 0 to 3.  The counting tests pin
the exits: a zero operand reaches the product kernel zero times, and a
prepared term sums its anchors in at most one pass of it.
"""

import random

import pytest

from algebroids import algebroid, calculus, tensor
from algebroids.algebroid import (
    _prepare,
    _vector_fields,
    cotangent_lift,
    section_bracket,
    tangent_lift,
)
from algebroids.calculus import differential, schouten, sym_schouten
from algebroids.errors import KindMismatch
from algebroids.fixtures import ALGEBROIDS, POISSON, nonconstant_rank2, so3
from algebroids.poisson import cotangent_algebroid
from algebroids.ring import Chart, products
from algebroids.tensor import (
    GradedTensor,
    Kind,
    _require,
    _sort_skew,
    contract,
    contract_mixed,
    random_tensor,
    sym_product,
    wedge,
)

SEEDS = range(100)
DEGREES = range(4)


# -- the kernels before the tables, kept as references --------------------------

def reference_anchor_terms(algebroid, i, gradient):
    row = algebroid.anchor[i]
    return ((row[a], d) for a, d in gradient if row[a])


def reference_anchor_derivative(algebroid, i, f, gradient=None):
    if gradient is None:
        gradient = f.gradient()
    base = algebroid.base
    return products(base, ((None, 1, r, d) for r, d in reference_anchor_terms(
        algebroid, i, gradient))).get(None, base.zero())


def reference_prepare(algebroid, t, fibers):
    terms = []
    for key, coeff in t.terms.items():
        gradient = coeff.gradient() if fibers else ()
        rho = {k: d for k in fibers if gradient
               and (d := reference_anchor_derivative(algebroid, k, coeff, gradient))}
        terms.append((key, coeff, [key[:r] + key[r + 1:] for r in range(len(key))], rho))
    return t.kind, t.degree, terms


def reference_differential(algebroid, mu):
    _require(mu, "differential", algebroid)
    if mu.kind is not Kind.FORM and not (mu.kind is Kind.MV and mu.degree == 0):
        raise KindMismatch(f"cannot differentiate {mu.describe()}")

    def items():
        # d(f e*_K) = df∧e*_K + f·sum_r (−1)^r e*_{K[:r]}∧d e*_{k_r}∧e*_{K[r+1:]}
        for key, coeff in mu.terms.items():
            gradient = coeff.gradient()  # empty, and df = 0, for a constant
            for i in range(algebroid.rank) if gradient else ():
                hit = _sort_skew((i,) + key)
                if hit:
                    # (anchor e_i)(f) = sum_a rho_i^a d_a f
                    for rho, d in reference_anchor_terms(algebroid, i, gradient):
                        yield hit[0], hit[1], rho, d
            for r, k in enumerate(key):
                for pair, column in algebroid.structure.items():
                    # d e*_k = −sum_{i<j} c_ij^k e*_i∧e*_j
                    hit = k in column and _sort_skew(key[:r] + pair + key[r + 1:])
                    if hit:
                        yield hit[0], -hit[1] if r % 2 == 0 else hit[1], column[k], coeff

    return GradedTensor._make(algebroid, Kind.FORM, mu.degree + 1,
                              products(algebroid.base, items()))


def reference_is_canonical(A):
    canonical = _vector_fields(A.base)
    return (A.fiber_names == canonical.fiber_names and not A.structure
            and A.anchor == canonical.anchor)


#: Every shipped algebroid with its tangent and cotangent lift, and the
#: canonical owner and the cotangent algebroid of every shipped Poisson
#: structure.
OWNERS = {**{f"{lift}{name}": (name, lift) for name in ALGEBROIDS
             for lift in ("", "T:", "T*:")},
          **{f"{role}{name}": (name, role) for name in POISSON
             for role in ("owner:", "cotangent:")}}


def owner_of(case):
    name, role = OWNERS[case]
    if role in ("owner:", "cotangent:"):
        ps = POISSON[name]()
        return ps.owner if role == "owner:" else cotangent_algebroid(ps)
    A = ALGEBROIDS[name]()
    return {"": A, "T:": tangent_lift(A), "T*:": cotangent_lift(A)}[role]


@pytest.mark.parametrize("case", sorted(OWNERS))
def test_the_tables_match_the_kernels_they_replace(case):
    A = owner_of(case)
    assert A.is_canonical == reference_is_canonical(A)
    for seed in SEEDS:
        rng = random.Random(seed)
        fibers = {i for i in range(A.rank) if rng.random() < 0.5}
        f = random_tensor(rng, A, Kind.MV, 0)
        assert differential(A, f).terms == reference_differential(A, f).terms
        for degree in DEGREES:
            mu = random_tensor(rng, A, Kind.FORM, degree)
            assert differential(A, mu).terms == reference_differential(A, mu).terms
            for kind in (Kind.MV, Kind.SYM):
                t = random_tensor(rng, A, kind, degree)
                for among in (fibers, range(A.rank), ()):
                    assert _prepare(A, t, among) == reference_prepare(A, t, among)
        g = f.as_function()
        for i in range(A.rank):
            assert (algebroid.anchor_derivative(A, i, g)
                    == reference_anchor_derivative(A, i, g))


def test_the_flag_is_the_comparison_it_replaces():
    plane = Chart(("x", "y"))
    swapped = algebroid.build_algebroid(plane, ("y", "x"), [[0, 1], [1, 0]])
    scaled = algebroid.build_algebroid(plane, ("x", "y"), [[2, 0], [0, 1]])
    for A in (_vector_fields(plane), _vector_fields(Chart(())), swapped, scaled):
        assert A.is_canonical == reference_is_canonical(A)
    assert _vector_fields(plane).is_canonical and not swapped.is_canonical


# -- the zero and unit exits --------------------------------------------------------

@pytest.fixture
def counted_products(monkeypatch):
    """Every ``ring.products`` call made through the algebroid, calculus
    and tensor modules while the test runs."""
    calls = []

    def counted(chart, items):
        calls.append(chart)
        return products(chart, items)

    for module in (algebroid, calculus, tensor):
        monkeypatch.setattr(module, "products", counted)
    return calls


def test_a_zero_operand_reaches_no_product_kernel(counted_products):
    A = nonconstant_rank2()
    x = GradedTensor(A, Kind.MV, 1, {(0,): "x", (1,): "1"})
    form = GradedTensor(A, Kind.FORM, 2, {(0, 1): "x^2"})
    k = GradedTensor(A, Kind.MIXED, 1, {((0,), 1): "x"})
    s = GradedTensor(A, Kind.SYM, 1, {(0,): "x"})
    zero = {kind: GradedTensor.zero(A, kind, degree)
            for kind, degree in ((Kind.MV, 1), (Kind.FORM, 1), (Kind.MIXED, 1),
                                 (Kind.SYM, 2))}
    del counted_products[:]
    cases = [
        (differential(A, zero[Kind.FORM]), Kind.FORM, 2),
        (differential(A, GradedTensor.zero(A, Kind.MV, 0)), Kind.FORM, 1),
        (wedge(zero[Kind.MV], x), Kind.MV, 2),
        (wedge(form, zero[Kind.FORM]), Kind.FORM, 3),
        (wedge(zero[Kind.FORM], k), Kind.MIXED, 2),
        (sym_product(zero[Kind.SYM], s), Kind.SYM, 3),
        (contract(zero[Kind.MV], form), Kind.FORM, 1),
        (contract(x, zero[Kind.FORM]), Kind.FORM, 0),
        (contract_mixed(zero[Kind.MIXED], form), Kind.FORM, 2),
        (contract_mixed(k, zero[Kind.MIXED]), Kind.MIXED, 1),
        (schouten(A, zero[Kind.MV], x), Kind.MV, 1),
        (schouten(A, x, GradedTensor.zero(A, Kind.MV, 2)), Kind.MV, 2),
        (sym_schouten(A, s, zero[Kind.SYM]), Kind.SYM, 2),
        (section_bracket(A, x, zero[Kind.MV]), Kind.MV, 1),
    ]
    assert counted_products == []
    for n, (result, kind, degree) in enumerate(cases):
        assert result.is_zero(), n
        assert (result.owner, result.kind, result.degree) == (A, kind, degree), n


def test_a_prepared_term_sums_its_anchors_in_one_pass(counted_products):
    for A in (nonconstant_rank2(), tangent_lift(nonconstant_rank2()), so3()):
        rng = random.Random(7)
        for degree in (1, 2):
            t = random_tensor(rng, A, Kind.MV, degree)
            del counted_products[:]
            prepared = _prepare(A, t, range(A.rank))
            assert prepared == reference_prepare(A, t, range(A.rank))
            assert len(counted_products) <= len(t.terms)
            # a term's anchors are summed only when some of them are nonzero
            assert len(counted_products) == sum(1 for *_, rho in prepared[2] if rho)


def test_multiplying_by_one_or_minus_one_coerces_nothing(monkeypatch):
    A = nonconstant_rank2()
    t = random_tensor(random.Random(1), A, Kind.FORM, 1)
    negated = -t
    coerced = []
    coerce = Chart.coerce

    def counted(chart, value):
        coerced.append(value)
        return coerce(chart, value)

    monkeypatch.setattr(Chart, "coerce", counted)
    assert t * 1 is t and 1 * t is t
    assert t * -1 == negated and -1 * t == negated
    assert coerced == []
    assert t * 2 == t + t and coerced == [2]
    # a bool is coerced as before, not taken for the int 1
    assert t * True == t and coerced == [2, True]


def test_the_zero_exits_keep_the_kind_and_degree_rules():
    A = so3()
    zero = GradedTensor.zero(A, Kind.FORM, 2)
    assert contract(random_tensor(random.Random(0), A, Kind.MV, 3), zero).degree == 0
    assert schouten(A, A.fn(0), A.fn(0)).degree == 0
    assert wedge(zero, GradedTensor.zero(A, Kind.FORM, 3)).degree == 5
    with pytest.raises(KindMismatch):
        wedge(zero, GradedTensor.zero(A, Kind.MV, 1))
    with pytest.raises(KindMismatch):
        differential(A, GradedTensor.zero(A, Kind.MV, 1))
