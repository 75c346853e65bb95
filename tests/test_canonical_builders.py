"""The internal builders that pass canonical term maps to
``GradedTensor._make`` against their checked forms.

Each reference below is the builder's body as it read when it went through
the public constructor ``GradedTensor(...)``, which normalizes every key,
coerces every coefficient and sums the terms.  The fast paths must give the
same term maps with the same key order, and the same term order inside each
coefficient, over every shipped algebroid and its tangent and cotangent
lifts, every kind and degrees 0 to 3.  The Poisson builders (the
bundle-map rows, the factorwise extension, ``R_P``, the Koszul–Schouten
relabels and the function-to-form coercions) are held to the same over every
shipped Poisson structure and the fiberwise-linear one of every shipped
algebroid.  ``GradedTensor.basis`` is held to the public constructor's
``{key: 1}`` on every key, and on keys out of order, repeated or out of
range.  The counting tests pin the fast paths: built from canonical input,
the lifts, ``remap``, ``basis`` and the Poisson builders call the public
constructor zero times.
"""

import random
from fractions import Fraction

import pytest

from algebroids.algebroid import (
    canonical_algebroid,
    cotangent_lift,
    dual_chart,
    linear_poisson,
    tangent_lift,
    velocity_derivative,
)
from algebroids.calculus import lie_derivative, schouten
from algebroids.errors import KindMismatch
from algebroids.fixtures import (
    ALGEBROIDS,
    POISSON,
    canonical_plane,
    nonconstant_rank2,
    poisson_four,
)
from algebroids.lifts import (
    J_map,
    Jstar,
    complete_lift_T,
    vertical_lift_V,
    vertical_pi,
    vertical_tau,
)
from algebroids.poisson import (
    _factorwise,
    cotangent_algebroid,
    koszul_schouten,
    lambda_p,
    r_p,
)
from algebroids.ring import Chart
from algebroids.tensor import (
    GradedTensor,
    Kind,
    _view,
    as_sym,
    basis_keys,
    mixed_from_vector,
    random_coefficient,
    random_tensor,
    remap,
    tensor_sum,
    vector_from_mixed,
    wedge,
)

SEEDS = range(100)
DEGREES = range(4)


# -- the checked forms, kept as references ----------------------------------------

def ref_zero(owner, kind, degree):
    return GradedTensor(owner, kind, degree, {})


def ref_basis(owner, kind, key):
    try:
        if kind is Kind.MIXED:
            degree = len(key[0])
        else:
            degree = len(key)
    except TypeError:  # a key with no length is a wrong kind of key
        raise KindMismatch(f"no degree for the key {key!r}") from None
    return GradedTensor(owner, kind, degree, {key: 1})


def ref_function(owner, value):
    return GradedTensor(owner, Kind.MV, 0, {(): value})


def ref_as_sym(t):
    return GradedTensor(t.owner, Kind.SYM, t.degree, dict(t.terms))


def ref_mixed_from_vector(x):
    return GradedTensor(x.owner, Kind.MIXED, 0, {((), k[0]): c for k, c in x.terms.items()})


def ref_vector_from_mixed(k):
    return GradedTensor(k.owner, Kind.MV, 1, {(key[1],): c for key, c in k.terms.items()})


def ref_remap(t, new_owner, fiber_map, coord_map=None):
    def moved(key):
        if t.kind is Kind.MIXED:
            return (tuple(fiber_map[i] for i in key[0]), fiber_map[key[1]])
        return tuple(fiber_map[i] for i in key)

    return GradedTensor(new_owner, t.kind, t.degree,
                        [(moved(key), coeff.transport(new_owner.base, coord_map))
                         for key, coeff in t.terms.items()])


def _lifted_key(kind: Kind, key, rank: int, dotted):
    """Relabel a basis key into the doubled fiber range.

    ``dotted`` names the slot whose factor crosses into the other block
    (None for the all-vertical key).  Vector factors start barred (index
    unchanged) and dot to ``rank + i``; form factors pair the opposite way
    round, starting at ``rank + i`` and dotting back to ``i``.  A mixed key
    counts its form slots first and its vector slot last.
    """
    if kind is Kind.MIXED:
        form_key, fiber = key
        new_form = tuple(
            i if r == dotted else rank + i for r, i in enumerate(form_key))
        new_fiber = rank + fiber if dotted == len(form_key) else fiber
        return (new_form, new_fiber)
    if kind is Kind.FORM:
        return tuple(i if r == dotted else rank + i for r, i in enumerate(key))
    return tuple(rank + i if r == dotted else i for r, i in enumerate(key))


def ref_vertical_lift_V(algebroid, s):
    target = tangent_lift(algebroid)
    m = algebroid.rank
    terms = [(_lifted_key(s.kind, key, m, None), coeff.transport(target.base))
             for key, coeff in s.terms.items()]
    return GradedTensor(target, s.kind, s.degree, terms)


def ref_complete_lift_T(algebroid, s):
    target = tangent_lift(algebroid)
    m = algebroid.rank
    terms = []
    for key, coeff in s.terms.items():
        drift = velocity_derivative(coeff, target.base)
        if not drift.is_zero():
            terms.append((_lifted_key(s.kind, key, m, None), drift))
        pulled = coeff.transport(target.base)
        slots = s.degree + (1 if s.kind is Kind.MIXED else 0)
        for r in range(slots):
            terms.append((_lifted_key(s.kind, key, m, r), pulled))
    return GradedTensor(target, s.kind, s.degree, terms)


def ref_vertical_pi(algebroid, mu):
    target = canonical_algebroid(dual_chart(algebroid))
    n = algebroid.base.dim
    terms = [(tuple(n + i for i in key), coeff.transport(target.base))
             for key, coeff in mu.terms.items()]
    return GradedTensor(target, Kind.MV, mu.degree, terms)


def ref_vertical_tau(algebroid, s):
    chart = Chart(algebroid.base.coords
                  + tuple(f"y_{f}" for f in algebroid.fiber_names))
    target = canonical_algebroid(chart)
    n = algebroid.base.dim
    terms = [(tuple(n + i for i in key), coeff.transport(chart))
             for key, coeff in s.terms.items()]
    return GradedTensor(target, s.kind, s.degree, terms)


def ref_J_map(algebroid, k):
    chart = dual_chart(algebroid)
    target = canonical_algebroid(chart)
    n = algebroid.base.dim
    terms = []
    for (form_key, j), coeff in k.terms.items():
        weight = coeff.transport(chart) * chart.coordinate(algebroid.dual_names[j])
        terms.append((tuple(n + i for i in form_key), -weight))
    return GradedTensor(target, Kind.MV, k.degree, terms)


def ref_Jstar(k):
    algebroid = k.owner
    chart = dual_chart(algebroid)
    target = canonical_algebroid(chart)
    terms = []
    for (form_key, j), coeff in k.terms.items():
        weight = coeff.transport(chart) * chart.coordinate(algebroid.dual_names[j])
        terms.append((form_key, weight))
    return GradedTensor(target, Kind.FORM, k.degree, terms)


def ref_row(ps, u):
    mat = ps.matrix()
    return GradedTensor(ps.owner, Kind.MV, 1,
                        {(v,): c for v, c in enumerate(mat[u])
                         if not c.is_zero()})


def ref_as_form(ps, t):
    return GradedTensor(ps.owner, Kind.FORM, 0, dict(t.terms))


def _as_form(ps, t):
    """A function (a degree-0 multivector) as a degree-0 form; a form as it is."""
    if t.kind is Kind.MV:
        return GradedTensor._make(ps.owner, Kind.FORM, 0, dict(t.terms))
    return t


def ref_koszul_schouten(ps, mu, nu):
    mu, nu = _as_form(ps, mu), _as_form(ps, nu)
    cot = cotangent_algebroid(ps)
    result = schouten(cot,
                      GradedTensor(cot, Kind.MV, mu.degree, dict(mu.terms)),
                      GradedTensor(cot, Kind.MV, nu.degree, dict(nu.terms)))
    return GradedTensor(ps.owner, Kind.FORM, result.degree, dict(result.terms))


def ref_factorwise(t, kind, row):
    pieces = []
    for key, coeff in t.terms.items():
        piece = GradedTensor(t.owner, kind, 0, {(): coeff})
        for u in key:
            piece = wedge(piece, row(u))
        pieces.append(piece)
    return tensor_sum(t.owner, kind, t.degree, pieces)


def ref_r_p(ps, mu):
    mu = _as_form(ps, mu)
    k = mu.degree
    if k == 0:
        return GradedTensor.zero(ps.owner, Kind.MIXED, 0)
    terms = []
    for key, coeff in mu.terms.items():
        for r, u in enumerate(key):
            rest = key[:r] + key[r + 1:]
            signed = coeff if r % 2 == 0 else -coeff
            terms.extend(((rest, v), signed * weight)
                         for (v,), weight in ps.row(u).terms.items())
    return GradedTensor(ps.owner, Kind.MIXED, k - 1, terms)


def ref_lie_derivative_of_function(algebroid, actor, mu):
    mu = GradedTensor(algebroid, Kind.FORM, 0, dict(mu.terms))
    return lie_derivative(algebroid, actor, mu)


# -- comparison ---------------------------------------------------------------------

def layout(t):
    """Everything of a tensor that its term maps' order can show: owner,
    kind, degree, then each key with its coefficient's chart and terms, in
    insertion order."""
    return (t.owner, t.kind, t.degree,
            [(key, c.chart, list(c.terms.items())) for key, c in t.terms.items()])


def assert_same(fast, ref, context):
    assert fast.owner is ref.owner, context
    assert layout(fast) == layout(ref), context


#: Every shipped algebroid with its tangent and cotangent lift.
OWNERS = {f"{lift}{name}": (name, lift) for name in ALGEBROIDS
          for lift in ("", "T:", "T*:")}


def owner_of(case):
    name, lift = OWNERS[case]
    A = ALGEBROIDS[name]()
    return {"": A, "T:": tangent_lift(A), "T*:": cotangent_lift(A)}[lift]


@pytest.mark.parametrize("case", sorted(OWNERS))
def test_lifts_and_remap_match_their_checked_forms(case):
    A = owner_of(case)
    for seed in SEEDS:
        rng = random.Random(seed)
        perm = list(range(A.rank))
        rng.shuffle(perm)
        fiber_map = dict(enumerate(perm))
        for kind in Kind:
            for degree in DEGREES:
                s = random_tensor(rng, A, kind, degree)
                context = (case, seed, kind, degree)
                assert_same(vertical_lift_V(A, s), ref_vertical_lift_V(A, s), context)
                assert_same(complete_lift_T(A, s), ref_complete_lift_T(A, s), context)
                assert_same(remap(s, A, fiber_map), ref_remap(s, A, fiber_map), context)
                assert_same(GradedTensor.zero(A, kind, degree),
                            ref_zero(A, kind, degree), context)
                if kind is Kind.FORM:
                    assert_same(vertical_pi(A, s), ref_vertical_pi(A, s), context)
                if kind in (Kind.MV, Kind.SYM):
                    assert_same(vertical_tau(A, s), ref_vertical_tau(A, s), context)
                if kind is Kind.MIXED:
                    assert_same(J_map(A, s), ref_J_map(A, s), context)
                    if A.is_canonical:
                        assert_same(Jstar(s), ref_Jstar(s), context)


#: Every shipped Poisson structure, and the fiberwise-linear one of every
#: shipped algebroid.
STRUCTURES = dict(POISSON, **{
    f"linear:{name}": (lambda build=build: linear_poisson(build()))
    for name, build in ALGEBROIDS.items()})


@pytest.mark.parametrize("case", sorted(STRUCTURES))
def test_poisson_builders_match_their_checked_forms(case):
    ps = STRUCTURES[case]()
    O = ps.owner
    for u in range(ps.chart.dim):
        assert_same(ps.row(u), ref_row(ps, u), (case, u))
    for seed in SEEDS:
        rng = random.Random(seed)
        f = random_tensor(rng, O, Kind.MV, 0)
        x = random_tensor(rng, O, Kind.MV, 1)
        context = (case, seed)
        assert_same(_view(f, "view", O, Kind.FORM), ref_as_form(ps, f), context)
        assert_same(lie_derivative(O, x, f),
                    ref_lie_derivative_of_function(O, x, f), context)
        for degree in DEGREES:
            mu = random_tensor(rng, O, Kind.FORM, degree)
            nu = random_tensor(rng, O, Kind.FORM, rng.choice([0, 1]))
            context = (case, seed, degree)
            assert_same(r_p(ps, mu), ref_r_p(ps, mu), context)
            assert_same(_factorwise(mu, Kind.MV, ps.row),
                        ref_factorwise(mu, Kind.MV, ps.row), context)
            assert_same(koszul_schouten(ps, mu, nu),
                        ref_koszul_schouten(ps, mu, nu), context)


@pytest.mark.parametrize("case", sorted(OWNERS))
def test_coercions_match_their_checked_forms(case):
    A = owner_of(case)
    for seed in SEEDS:
        rng = random.Random(seed)
        context = (case, seed)
        value = random_coefficient(rng, A.base)
        assert_same(GradedTensor.function(A, value), ref_function(A, value), context)
        for degree in (0, 1):
            t = random_tensor(rng, A, Kind.MV, degree)
            assert_same(as_sym(t), ref_as_sym(t), context)
        x = random_tensor(rng, A, Kind.MV, 1)
        k = random_tensor(rng, A, Kind.MIXED, 0)
        assert_same(mixed_from_vector(x), ref_mixed_from_vector(x), context)
        assert_same(vector_from_mixed(k), ref_vector_from_mixed(k), context)
    for value in (0, 3, Fraction(3, 2)):
        assert_same(GradedTensor.function(A, value), ref_function(A, value), value)


@pytest.mark.parametrize("case", sorted(OWNERS))
def test_basis_matches_its_checked_form(case):
    A = owner_of(case)
    for kind in Kind:
        for degree in DEGREES:
            for key in basis_keys(A, kind, degree):
                assert_same(GradedTensor.basis(A, kind, key),
                            ref_basis(A, kind, key), (case, kind, key))
    # keys out of order pick up their sign, and a repeated index vanishes
    for kind, key in ((Kind.MV, (1, 0)), (Kind.FORM, (0, 0)), (Kind.SYM, (1, 0)),
                      (Kind.MIXED, ((1, 0), 0)), (Kind.MIXED, ((0, 0), 0))):
        if A.rank > 1:
            assert_same(GradedTensor.basis(A, kind, key), ref_basis(A, kind, key), key)
    for kind, key in ((Kind.FORM, (A.rank,)), (Kind.MV, (0.5,)),
                      (Kind.MIXED, ((0,), A.rank)), (Kind.MIXED, (0,))):
        with pytest.raises(Exception) as ref_error:
            ref_basis(A, kind, key)
        with pytest.raises(ref_error.type):
            GradedTensor.basis(A, kind, key)


def test_remap_with_a_merging_rename_matches_its_checked_form():
    # x and y both land on u, so coefficients collapse and some cancel
    A = canonical_plane()
    B = canonical_algebroid(Chart(["u", "v"]))
    merge = {"x": "u", "y": "u"}
    cancelled = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        for kind in Kind:
            for degree in range(3):
                s = random_tensor(rng, A, kind, degree, coeff_degree=1)
                fast = remap(s, B, {0: 1, 1: 0}, merge)
                assert_same(fast, ref_remap(s, B, {0: 1, 1: 0}, merge), (seed, kind))
                cancelled += len(fast.terms) < len(s.terms)
    assert cancelled  # the case where a coefficient cancels was met


# -- the fast paths construct nothing through the checked path ----------------------

@pytest.fixture
def counted_inits(monkeypatch):
    calls = []
    original = GradedTensor.__init__

    def counted(self, *args, **kwargs):
        calls.append(args[:2])
        original(self, *args, **kwargs)

    monkeypatch.setattr(GradedTensor, "__init__", counted)
    return calls


def test_lifts_of_canonical_input_call_no_checked_constructor(counted_inits):
    A = nonconstant_rank2()
    P = canonical_plane()
    rng = random.Random(3)
    draws = {kind: random_tensor(rng, A, kind, 1) for kind in Kind}
    k = random_tensor(rng, P, Kind.MIXED, 1)
    # the cached lifts and charts are built, and validated, before counting
    for B in (A, P):
        tangent_lift(B)
        canonical_algebroid(dual_chart(B))
    del counted_inits[:]
    results = [vertical_lift_V(A, draws[Kind.SYM]),
               complete_lift_T(A, draws[Kind.SYM]),
               complete_lift_T(A, draws[Kind.MIXED]),
               vertical_pi(A, draws[Kind.FORM]),
               J_map(A, draws[Kind.MIXED]),
               Jstar(k),
               remap(draws[Kind.MV], A, {0: 1, 1: 0}),
               GradedTensor.zero(A, Kind.FORM, 2),
               GradedTensor.function(A, 2)]
    assert all(not t.is_zero() for t in results[:-2])
    assert counted_inits == []


def test_basis_calls_no_checked_constructor(counted_inits):
    A = canonical_plane()
    tensors = [GradedTensor.basis(A, Kind.FORM, (0, 1)), GradedTensor.basis(A, Kind.MV, (1, 0)),
               GradedTensor.basis(A, Kind.MIXED, ((0,), 1)), A.e(0), A.estar(1)]
    assert all(not t.is_zero() for t in tensors)
    assert counted_inits == []


def test_poisson_builders_of_canonical_input_call_no_checked_constructor(
        counted_inits):
    ps = poisson_four()  # a new structure: its bundle-map rows are not built
    O = ps.owner
    cotangent_algebroid(ps)  # built, and validated, before counting
    rng = random.Random(2)  # a nonconstant f, so no result below is zero
    mu = random_tensor(rng, O, Kind.FORM, 2)
    f = random_tensor(rng, O, Kind.MV, 0)
    x = random_tensor(rng, O, Kind.MV, 1)
    del counted_inits[:]
    results = [ps.row(0),
               _view(f, "view", O, Kind.FORM),
               lambda_p(ps, mu),
               r_p(ps, mu),
               koszul_schouten(ps, mu, f),
               lie_derivative(O, x, f)]
    assert all(not t.is_zero() for t in results)
    assert counted_inits == []


def test_the_dual_chart_is_one_object():
    A = nonconstant_rank2()
    assert dual_chart(A) is dual_chart(A)
    # an equal algebroid, built again, shares it too
    assert dual_chart(nonconstant_rank2()) is dual_chart(A)
    assert dual_chart(A).coords == A.base.coords + A.dual_names
