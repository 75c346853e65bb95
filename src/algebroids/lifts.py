"""Lifting maps from an algebroid to its tangent and cotangent companions.

Three target geometries appear.  The *tangent lift* doubles the fibers over
the velocity chart; a section lifts either vertically (``vertical_lift_V``,
coefficients pulled back, every factor landing in the barred block) or
completely (``complete_lift_T``, a velocity-derivative term plus one term per
factor moved into the dotted block).  The index bookkeeping rests on the
crossed duality of the doubled bundle: the form dual to a barred generator
sits in the *dotted* half of the dual basis and vice versa, so vector factors
and form factors relabel through opposite blocks.

The *dual-chart* picture replaces the bundle by its dual, whose chart adjoins
one fiber-linear coordinate per fiber.  Sections become functions there via
``iota`` (fiberwise-linear, or fiberwise-polynomial on symmetric powers),
forms become multivectors via ``vertical_pi``, and a degree-1 section has the
complete lift ``cot_complete_G_vec`` — the negated bracket of the fiberwise
-linear bivector with the section's linear function.  ``J_map`` and ``G_map``
extend these to vector-valued forms; ``G_map`` is the bracket of the
fiberwise-linear bivector with ``J_map``, and the theorem-16 ``dual-routes``
suite item checks it against its product-rule expansion.

``vertical_tau`` lifts vector-side tensor powers to the total space of the
bundle itself, one ``y``-coordinate per fiber; it and ``vertical_pi`` are
one shift of fiber indices onto adjoined coordinates (``_fiber_shift``).

Finally, when the algebroid is canonical its tangent lift is isomorphic to
the canonical algebroid of the velocity chart, by the block swap
``canonical_transport``: barred generators cross to velocity directions and
dotted generators to base directions ("kappa" for vector-side kinds, "alpha"
for form-side kinds, each its own inverse); the swap is the same on every
kind, so its kernel takes the tensor alone.  The classical vertical and
complete lifts of tensors on a bare chart are *defined* here as the
transports of V and T, which keeps a single source of sign conventions.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add, mul

from .errors import WrongProvenance
from .ring import Chart, Poly, _derived_names, accumulate, poly_sum
from .tensor import (_ANY, _CANONICAL, _FORM, _MIXED, _SECTION, GradedTensor, Kind,
                     _key, _remap, _require, _slot_offsets, _slots)
from .algebroid import (CACHE_SIZE, Algebroid, _dual_chart, _linear_poisson, _tangent_lift,
                        _total_chart, _vector_fields, _velocity_derivative)
from .calculus import _schouten
from .poisson import _h_p

#: the vector-side kinds: multivectors and symmetric powers
_VECTOR_SIDE = {Kind.MV: _ANY, Kind.SYM: _ANY}
#: what pairs with the dual fibers: sections and symmetric powers
_PAIRABLE = {**_SECTION, Kind.SYM: _ANY}


# -- the fiberwise-linear function of a section ---------------------------------

def iota(algebroid: Algebroid, x) -> Poly:
    """The function on the dual chart that a section defines by pairing.

    A degree-1 section f^i e_i becomes the fiberwise-linear polynomial
    f^i ξ_i; a symmetric power becomes the product of its factors' functions
    (so degree k gives a fiberwise degree-k polynomial).
    """
    _require(x, "iota", algebroid, _PAIRABLE)
    return _iota(algebroid, x)


def _iota(algebroid: Algebroid, x) -> Poly:
    chart = _dual_chart(algebroid.base.coords, algebroid.dual_names)
    xi = [chart.coordinate(name) for name in algebroid.dual_names]
    return poly_sum(chart, (
        reduce(mul, (xi[i] for i in key), coeff.transport(chart))
        for key, coeff in x.terms.items()))


# -- lifts to the tangent-lift algebroid -----------------------------------------

def vertical_lift_V(algebroid: Algebroid, s: GradedTensor) -> GradedTensor:
    """The vertical lift: coefficients pulled back, every factor barred.

    The result is a tensor over ``tangent_lift(algebroid)``."""
    _require(s, "vertical_lift_V", algebroid)
    return _vertical_lift_V(algebroid, s)


def _vertical_lift_V(algebroid: Algebroid, s: GradedTensor) -> GradedTensor:
    target = _tangent_lift(algebroid)
    base, kind = target.base, s.kind
    # vector factors keep their index, form factors move to rank + i: the
    # order within each part of a key holds, so keys stay canonical
    barred = _slot_offsets(kind, s.degree, algebroid.rank, 0)
    return GradedTensor._make(target, kind, s.degree, {
        _key(kind, tuple(map(add, _slots(kind, key), barred))): coeff.transport(base)
        for key, coeff in s.terms.items()})


def complete_lift_T(algebroid: Algebroid, s: GradedTensor) -> GradedTensor:
    """The complete lift: the velocity derivative of each coefficient on the
    all-barred key, plus the pulled-back coefficient on each single-dotted
    key.  Together with the vertical lift this satisfies the product rule
    T(s⊗t) = T(s)⊗V(t) + V(s)⊗T(t) factor by factor.

    The result is a tensor over ``tangent_lift(algebroid)``."""
    _require(s, "complete_lift_T", algebroid)
    return _complete_lift_T(algebroid, s)


def _complete_lift_T(algebroid: Algebroid, s: GradedTensor) -> GradedTensor:
    target = _tangent_lift(algebroid)
    base, kind, m = target.base, s.kind, algebroid.rank
    # vector factors start barred (index unchanged) and dot to m + i; form
    # factors pair the opposite way round, from m + i back to i
    barred = _slot_offsets(kind, s.degree, m, 0)
    dotted = _slot_offsets(kind, s.degree, 0, m)
    canonical = _CANONICAL[kind]
    terms = []
    for key, coeff in s.terms.items():
        indices = _slots(kind, key)
        bar = tuple(map(add, indices, barred))
        drift = _velocity_derivative(coeff, base)
        if drift:
            terms.append((_key(kind, bar), drift))
        pulled = coeff.transport(base)
        # a skew key is recovered from each of its single-dotted lifts, so
        # only the equal factors of a symmetric key dot to one key, and sum
        for r, i in enumerate(indices):
            lifted, sign = canonical(bar[:r] + (i + dotted[r],) + bar[r + 1:])
            terms.append((lifted, pulled if sign > 0 else -pulled))
    return GradedTensor._make(target, kind, s.degree, accumulate(terms))


# -- lifts to the dual chart ------------------------------------------------------

def vertical_pi(algebroid: Algebroid, mu) -> GradedTensor:
    """The vertical lift of a form to a multivector on the dual chart:
    e*_i ↦ the fiber direction of ξ_i, coefficients pulled back."""
    _require(mu, "vertical_pi", algebroid, _FORM)
    return _vertical_pi(algebroid, mu)


def _vertical_pi(algebroid: Algebroid, mu) -> GradedTensor:
    return _fiber_shift(_dual_chart(algebroid.base.coords, algebroid.dual_names),
                        Kind.MV, mu)


def vertical_tau(algebroid: Algebroid, s) -> GradedTensor:
    """The vertical lift to the bundle's own total space: e_j ↦ the fiber
    direction of y_j on the chart that adjoins one y-coordinate per fiber.
    Factor-wise, so it applies to plain and symmetric multivectors."""
    _require(s, "vertical_tau", algebroid, _VECTOR_SIDE)
    return _fiber_shift(_total_chart(algebroid.base.coords, algebroid.fiber_names),
                        s.kind, s)


def _fiber_shift(chart: Chart, kind: Kind, t) -> GradedTensor:
    """``t`` as a tensor of ``kind`` over the canonical algebroid of
    ``chart``, which adjoins one coordinate per fiber to the base of ``t``:
    each index shifted by the base dimension onto its coordinate's
    direction, coefficients pulled back.  A shift keeps a key sorted."""
    n = t.owner.base.dim
    return GradedTensor._make(_vector_fields(chart), kind, t.degree, {
        tuple(n + i for i in key): coeff.transport(chart)
        for key, coeff in t.terms.items()})


def cot_complete_G_vec(algebroid: Algebroid, x) -> GradedTensor:
    """The complete lift of a degree-1 section to the dual chart: minus the
    bracket of the fiberwise-linear bivector with the section's function
    (the hamiltonian vector field of ``iota(x)``)."""
    _require(x, "cot_complete_G_vec", algebroid, _SECTION)
    return _cot_complete_G_vec(algebroid, x)


def _cot_complete_G_vec(algebroid: Algebroid, x) -> GradedTensor:
    ps = _linear_poisson(algebroid)
    return -_schouten(ps.owner, ps.bivector, ps.owner.fn(_iota(algebroid, x)))


def J_map(algebroid: Algebroid, k) -> GradedTensor:
    """The vertical-type lift of a vector-valued form to the dual chart:
    μ⊗X ↦ −iota(X)·vertical_pi(μ), extended by linearity.  The result on a
    basis term e*_{i_1}∧…∧e*_{i_k}⊗e_j is −ξ_j times the corresponding
    fiber-direction multivector, which makes the map injective."""
    _require(k, "J_map", algebroid, _MIXED)
    return _J_map(algebroid, k)


def _J_map(algebroid: Algebroid, k) -> GradedTensor:
    chart = _dual_chart(algebroid.base.coords, algebroid.dual_names)
    n = algebroid.base.dim
    # a form key shifted into the fiber block stays sorted
    terms = accumulate((tuple(n + i for i in form_key), -weight)
                       for form_key, weight in _weights(algebroid, chart, k))
    return GradedTensor._make(_vector_fields(chart), Kind.MV, k.degree, terms)


def _weights(algebroid: Algebroid, chart: Chart, k):
    """The (form key, ξ_j·coefficient) pair of each term μ⊗e_j of a
    vector-valued form, pulled back to the dual chart; terms that share a
    form key are left for the caller to sum."""
    for (form_key, j), coeff in k.terms.items():
        yield form_key, coeff.transport(chart) * chart.coordinate(
            algebroid.dual_names[j])


def G_map(algebroid: Algebroid, k) -> GradedTensor:
    """The complete-type (dual) lift of a vector-valued form: the bracket of
    the fiberwise-linear bivector with ``J_map(k)``.

    The same value has a product-rule expansion on simple tensors,
    G(X)∧V_π(μ) − iota(X)·V_π(dμ), which pins the overall sign against
    bookkeeping drift; the theorem-16 ``dual-routes`` suite item checks that
    the two routes agree.
    """
    _require(k, "G_map", algebroid, _MIXED)
    return _G_map(algebroid, k)


def _G_map(algebroid: Algebroid, k) -> GradedTensor:
    ps = _linear_poisson(algebroid)
    return _schouten(ps.owner, ps.bivector, _J_map(algebroid, k))


# -- the canonical-chart transports ----------------------------------------------

def _velocity_half(chart: Chart):
    """The coordinates whose velocity chart (:func:`dotted_chart`) this
    chart is, or None: the naming rule run again on the first half."""
    names = chart.coords
    half = len(names) // 2
    if not half or len(names) % 2:
        return None
    first = names[:half]
    return first if _derived_names(first, first, "velocity") == names[half:] else None


@lru_cache(maxsize=CACHE_SIZE)
def _transport_target(owner: Algebroid):
    """The algebroid across the block swap from ``owner``, or None: the
    canonical algebroid of the velocity chart from the tangent lift of a
    canonical algebroid, and back.  Both are recognised by structure, so a
    lift reloaded from a document transports like the lift itself.
    Memoized on the owner."""
    first = _velocity_half(owner.base)
    if first is None:
        return None
    lift = _tangent_lift(_vector_fields(Chart(first)))
    if owner == lift:
        return _vector_fields(owner.base)
    return lift if owner.is_canonical else None


def canonical_transport(direction: str, tensor: GradedTensor) -> GradedTensor:
    """Swap the two fiber blocks between the tangent lift of a canonical
    algebroid and the canonical algebroid of its velocity chart.

    ``"kappa"`` moves vector-side kinds (multivectors and symmetric powers):
    barred generators cross to velocity directions, dotted generators to base
    directions.  ``"alpha"`` is the same block swap on form-side kinds (forms
    and vector-valued forms).  Each direction detects which side its input
    lives on, so applying it twice returns the input.
    """
    _require(tensor, "canonical_transport")
    if direction == "kappa":
        allowed = (Kind.MV, Kind.SYM)
    elif direction == "alpha":
        allowed = (Kind.FORM, Kind.MIXED)
    else:
        raise WrongProvenance(f"unknown transport direction {direction!r}")
    if tensor.kind not in allowed:
        raise WrongProvenance(
            f"{direction} transports {' / '.join(k.value for k in allowed)} "
            f"sections, got {tensor.describe()}")
    return _canonical_transport(tensor)


def _canonical_transport(tensor: GradedTensor) -> GradedTensor:
    owner = tensor.owner
    target = _transport_target(owner)
    if target is None:
        raise WrongProvenance(
            f"no canonical transport from {owner!r}: expected the tangent "
            f"lift of a canonical algebroid or the canonical algebroid of a "
            f"velocity chart")
    half = owner.rank // 2
    swap = {i: i + half if i < half else i - half for i in range(owner.rank)}
    return _remap(tensor, target, swap)


def classical_vertical_lift(t) -> GradedTensor:
    """The textbook vertical lift of a tensor on a bare chart, defined as the
    block-swap transport of the vertical lift over the canonical algebroid."""
    return _classical_vertical_lift(_over_canonical(t, "classical_vertical_lift"))


def classical_complete_lift(t) -> GradedTensor:
    """The textbook complete lift of a tensor on a bare chart, defined as the
    block-swap transport of the complete lift over the canonical algebroid."""
    return _classical_complete_lift(_over_canonical(t, "classical_complete_lift"))


def _over_canonical(t, who: str, shapes=None) -> GradedTensor:
    """The guard of the maps of the canonical case: ``t`` is a tensor of a
    shape in ``shapes`` (any when None), as :func:`_require` reads it, over
    a canonical algebroid."""
    if not _require(t, who, shapes=shapes).owner.is_canonical:
        raise WrongProvenance(f"{who} acts over a canonical algebroid, got {t.owner!r}")
    return t


def _classical_vertical_lift(t) -> GradedTensor:
    return _canonical_transport(_vertical_lift_V(t.owner, t))


def _classical_complete_lift(t) -> GradedTensor:
    return _canonical_transport(_complete_lift_T(t.owner, t))


# -- canonical-case maps into the cotangent side ----------------------------------

def Jstar(k) -> GradedTensor:
    """μ⊗X ↦ iota(X)·(pullback of μ): a vector-valued form over a canonical
    algebroid becomes a plain form on the dual chart, the form part pulled
    back and the vector part turned into its fiberwise-linear function."""
    return _Jstar(_over_canonical(k, "Jstar", _MIXED))


def _Jstar(k) -> GradedTensor:
    algebroid = k.owner
    chart = _dual_chart(algebroid.base.coords, algebroid.dual_names)
    return GradedTensor._make(_vector_fields(chart), Kind.FORM, k.degree,
                              accumulate(_weights(algebroid, chart, k)))


def H_map(k) -> GradedTensor:
    """The hamiltonian-type lift of a vector-valued form over a canonical
    algebroid: ``Jstar`` followed by the hamiltonian operator of the dual
    chart's canonical bivector.  Degree is preserved and the map is
    injective, embedding the source bracket geometry into the dual chart's."""
    return _H_map(_over_canonical(k, "H_map", _MIXED))


def _H_map(k) -> GradedTensor:
    return _h_p(_linear_poisson(k.owner), _Jstar(k))
