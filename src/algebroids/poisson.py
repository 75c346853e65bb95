"""Poisson bivectors over a chart and the graded brackets they induce.

A Poisson structure is a degree-2 multivector P over the canonical algebroid
of a chart whose self-bracket [P, P] vanishes.  From it the module builds:

* the function bracket {f, g} = i_P(df∧dg);
* an algebroid on the chart whose fibers are the coordinate differentials,
  with anchor P̃ and bracket [μ, ν] = L_{P̃μ}ν − L_{P̃ν}μ − d(i_P(μ∧ν)),
  built from its closed form [dz^u, dz^v] = d P^{uv} on coordinate
  differentials;
* the Koszul–Schouten bracket of forms — the generalized Schouten bracket of
  that algebroid, reading forms as its multivector sections;
* the multiplicative extension Λ_P (P̃ factor by factor, with a starred and a
  restricted inverse mode) and the degree −1 derivation R_P (drop one factor,
  tensor its P̃ image on);
* the hamiltonian compositions H_P = R_P∘d and G_P = Λ_P∘d;
* the extended bracket {μ, ν} = L_{H_μ}ν + d L_{R_μ}ν — a graded Lie bracket
  in the raw form degree that restricts to the function bracket in degree 0;
* the complete lift of P to the chart with velocities adjoined.

The pairing normalization is fixed once and for all:

    ⟨∂_u∧∂_v, dα∧dβ⟩ = (∂_u α)(∂_v β) − (∂_v α)(∂_u β),

so P = ∂_p∧∂_x gives {p, x} = 1, and P̃ is determined by
⟨P̃μ, ν⟩ = ⟨P, μ∧ν⟩.  Concretely, writing P = Σ_{u<v} P^{uv} ∂_u∧∂_v and
extending P^ antisymmetrically, P̃(dz^u) = Σ_v P^{uv} ∂_v.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .algebroid import CACHE_SIZE, Algebroid, build_algebroid, canonical_algebroid
from .calculus import _differential, _schouten
from .errors import KindMismatch, NotInvertible, NotPoisson
from .ring import Chart, Poly, _derived_names, accumulate
from .tensor import (_MULTIVECTOR, GradedTensor, Kind, _as_kind, _contract,
                     _contract_mixed, _pretty, _require, _tensor_sum, _view, _wedge)


class PoissonStructure:
    """A validated Poisson bivector over the canonical algebroid of a chart."""

    __slots__ = ("owner", "bivector", "_rows", "_cotangent")

    #: Only :func:`build_poisson` constructs one, after checking [P, P] = 0.
    validated = True

    def __init__(self, owner: Algebroid, bivector: GradedTensor):
        self.owner = owner
        self.bivector = bivector
        self._rows: Optional[Tuple[GradedTensor, ...]] = None
        self._cotangent: Optional[Algebroid] = None

    @property
    def chart(self) -> Chart:
        return self.owner.base

    def __repr__(self) -> str:
        return f"<PoissonStructure over {self.chart.coords!r}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return self.chart == other.chart and self.bivector == other.bivector

    def __hash__(self) -> int:
        return hash((self.chart, self.bivector))

    def matrix(self) -> Tuple[Tuple[Poly, ...], ...]:
        """The antisymmetric matrix of the bivector: entry [u][v] is the
        coefficient of ∂_v in P̃(dz^u)."""
        n = self.chart.dim
        zero = self.chart.zero()
        rows = [[zero] * n for _ in range(n)]
        for (u, v), coeff in self.bivector.terms.items():
            rows[u][v] = coeff
            rows[v][u] = -coeff
        return tuple(tuple(row) for row in rows)

    def row(self, u: int) -> GradedTensor:
        """P̃ of the u-th coordinate differential, as a vector field."""
        if self._rows is None:
            mat = self.matrix()
            self._rows = tuple(
                GradedTensor._make(self.owner, Kind.MV, 1,
                                   {(v,): c for v, c in enumerate(mat[u])
                                    if not c.is_zero()})
                for u in range(self.chart.dim))
        return self._rows[u]

    def ptilde(self, mu: GradedTensor) -> GradedTensor:
        """The bundle map P̃ on a 1-form, fixed by ⟨P̃μ, ν⟩ = ⟨P, μ∧ν⟩."""
        _require(mu, "PoissonStructure.ptilde", self.owner, {Kind.FORM: (1,)})
        return _factorwise(mu, Kind.MV, self.row)


def build_poisson(chart: Chart, bivector: GradedTensor) -> PoissonStructure:
    """Validate a bivector as a Poisson structure.

    The self-bracket [P, P] is computed exactly; if it does not vanish the
    :class:`NotPoisson` error carries the trivector residual as a witness.
    Passes are memoized on the bivector, like those of
    :func:`~algebroids.algebroid.validate`, in an LRU cache of
    :data:`~algebroids.algebroid.CACHE_SIZE` entries; a failure is decided
    afresh on every call.
    """
    _require(chart, "build_poisson", cls=Chart)
    _require(bivector, "build_poisson", canonical_algebroid(chart), {Kind.MV: (2,)})
    _poisson_checked(bivector)
    return PoissonStructure(bivector.owner, bivector)


@lru_cache(maxsize=CACHE_SIZE)
def _poisson_checked(bivector: GradedTensor) -> None:
    """The [P, P] check behind :func:`build_poisson`.  ``lru_cache`` keeps
    no raised exception, so only passes are recorded."""
    residual = _schouten(bivector.owner, bivector, bivector)
    if not residual.is_zero():
        raise NotPoisson("the self-bracket [P, P] does not vanish",
                         witness={"residual": _pretty(residual)})


# -- the function bracket ---------------------------------------------------------


def poisson_bracket(ps: PoissonStructure, f, g) -> Poly:
    """{f, g} = i_P(df ∧ dg)."""
    _require(ps, "poisson_bracket", cls=PoissonStructure)
    return _poisson_bracket(ps, f, g)


def _poisson_bracket(ps: PoissonStructure, f, g) -> Poly:
    owner = ps.owner
    df = _differential(owner, owner.fn(f))
    dg = _differential(owner, owner.fn(g))
    return _contract(ps.bivector, _wedge(df, dg)).as_function()


# -- the cotangent algebroid and the Koszul–Schouten bracket ------------------------


def _build_cotangent(ps: PoissonStructure, provenance: str,
                    parent: Optional[Algebroid] = None) -> Algebroid:
    """Build the cotangent algebroid of ``ps`` from its closed form
    [dz^u, dz^v] = d P^{uv}, validated like any other algebroid."""
    chart = ps.chart
    return build_algebroid(
        chart,
        _derived_names(chart.coords, (), "differential"),
        ps.matrix(),
        {pair: dict(coeff.gradient()) for pair, coeff in ps.bivector.terms.items()},
        dual_names=_derived_names(chart.coords, chart.coords, "velocity"),
        provenance=provenance, parent=parent)


def cotangent_algebroid(ps: PoissonStructure) -> Algebroid:
    """The algebroid the bivector induces on coordinate differentials.

    Fibers are d_z for each chart coordinate z, the anchor matrix is P̃, and
    the bracket [μ, ν] = L_{P̃μ}ν − L_{P̃ν}μ − d(i_P(μ∧ν)) sends exact forms
    to [df, dg] = d{f, g}; on coordinate differentials that is

        [dz^u, dz^v] = d P^{uv},

    so the structure functions are the partials of the bivector's
    coefficients (constant coefficients give vanishing brackets).  The result
    is validated like any other algebroid and memoized on ``ps``.
    """
    return _cotangent_algebroid(_require(ps, "cotangent_algebroid", cls=PoissonStructure))


def _cotangent_algebroid(ps: PoissonStructure) -> Algebroid:
    if ps._cotangent is None:
        ps._cotangent = _build_cotangent(ps, "cotangent-algebroid")
    return ps._cotangent


def koszul_schouten(ps: PoissonStructure, mu: GradedTensor,
                    nu: GradedTensor) -> GradedTensor:
    """The Koszul–Schouten bracket of forms: the generalized Schouten bracket
    of the cotangent algebroid, with a k-form read as one of its degree-k
    multivector sections (the index spaces coincide)."""
    _require(ps, "koszul_schouten", cls=PoissonStructure)
    mu = _view(mu, "koszul_schouten", ps.owner, Kind.FORM)
    nu = _view(nu, "koszul_schouten", ps.owner, Kind.FORM)
    return _koszul_schouten(ps, mu, nu)


def _koszul_schouten(ps: PoissonStructure, mu: GradedTensor,
                     nu: GradedTensor) -> GradedTensor:
    mu, nu = _as_kind(mu, Kind.FORM), _as_kind(nu, Kind.FORM)
    cot = _cotangent_algebroid(ps)
    result = _schouten(cot,
                      GradedTensor._make(cot, Kind.MV, mu.degree, dict(mu.terms)),
                      GradedTensor._make(cot, Kind.MV, nu.degree, dict(nu.terms)))
    return GradedTensor._make(ps.owner, Kind.FORM, result.degree, dict(result.terms))


# -- multiplicative and derivation extensions of P̃ ----------------------------------


def _constant_matrix(ps: PoissonStructure) -> List[List[Fraction]]:
    rows = []
    for row in ps.matrix():
        values = []
        for entry in row:
            if not entry.is_constant():
                raise NotInvertible(
                    "inverse mode needs a constant-coefficient bivector")
            # a Fraction, so that elimination divides exactly
            values.append(Fraction(entry.constant_value()))
        rows.append(values)
    return rows


def _inverse_matrix(ps: PoissonStructure) -> List[List[Fraction]]:
    """Invert the bivector matrix over the rationals by elimination."""
    n = ps.chart.dim
    work = _constant_matrix(ps)
    inverse = [[Fraction(int(u == v)) for v in range(n)] for u in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise NotInvertible("the bivector matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inverse[col], inverse[pivot] = inverse[pivot], inverse[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        inverse[col] = [x / scale for x in inverse[col]]
        for r in range(n):
            if r == col or work[r][col] == 0:
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            inverse[r] = [x - factor * y for x, y in zip(inverse[r], inverse[col])]
    return inverse


def _factorwise(t: GradedTensor, kind: Kind, row) -> GradedTensor:
    """Σ f·row(k_1)∧…∧row(k_p) over the terms f·e_K of ``t``: the
    multiplicative extension to ``kind`` of the map whose value on the u-th
    basis factor is ``row(u)``."""
    pieces = []
    for key, coeff in t.terms.items():
        piece = GradedTensor._make(t.owner, kind, 0, {(): coeff})
        for u in key:
            piece = _wedge(piece, row(u))
        pieces.append(piece)
    return _tensor_sum(t.owner, kind, t.degree, pieces)


def lambda_p(ps: PoissonStructure, t: GradedTensor, mode: str = "plain") -> GradedTensor:
    """Λ_P: apply P̃ to every factor of a form.

    Modes: ``plain`` is Λ_P itself; ``star`` multiplies by (−1)^k on degree
    k; ``inverse`` goes the other way (multivectors to forms) and is only
    defined when the bivector matrix is constant and invertible over the
    rationals.
    """
    _require(ps, "lambda_p", cls=PoissonStructure)
    if mode == "inverse":
        _require(t, "lambda_p", ps.owner, _MULTIVECTOR)
    elif mode in ("plain", "star"):
        t = _view(t, "lambda_p", ps.owner, Kind.FORM)
    else:
        raise KindMismatch(f"unknown mode {mode!r} (plain, star or inverse)")
    return _lambda_p(ps, t, mode)


def _lambda_p(ps: PoissonStructure, t: GradedTensor, mode: str = "plain") -> GradedTensor:
    if mode == "inverse":
        rows = [GradedTensor(ps.owner, Kind.FORM, 1, {(v,): c for v, c in enumerate(row) if c})
                for row in _inverse_matrix(ps)]
        return _factorwise(t, Kind.FORM, rows.__getitem__)
    mu = _as_kind(t, Kind.FORM)
    out = _factorwise(mu, Kind.MV, ps.row)
    if mode == "star" and mu.degree % 2:
        out = -out
    return out


def r_p(ps: PoissonStructure, mu: GradedTensor) -> GradedTensor:
    """R_P: the degree −1 derivation that is 0 on functions and P̃ on
    1-forms.  On a decomposable it drops one factor at a time:

        R_P(μ_1∧…∧μ_k) = Σ_i (−1)^{i−1} μ_1∧…μ̂_i…∧μ_k ⊗ P̃(μ_i)

    (1-based i).  Applying it to coordinate factors is enough: the formula
    is multilinear, so the value does not depend on the decomposition.
    """
    _require(ps, "r_p", cls=PoissonStructure)
    return _r_p(ps, _view(mu, "r_p", ps.owner, Kind.FORM))


def _r_p(ps: PoissonStructure, mu: GradedTensor) -> GradedTensor:
    mu = _as_kind(mu, Kind.FORM)
    k = mu.degree
    if k == 0:
        return GradedTensor._make(ps.owner, Kind.MIXED, 0, {})
    terms = []
    for key, coeff in mu.terms.items():
        for r, u in enumerate(key):
            rest = key[:r] + key[r + 1:]
            signed = coeff if r % 2 == 0 else -coeff
            terms.extend(((rest, v), signed * weight)
                         for (v,), weight in ps.row(u).terms.items())
    # two dropped factors can leave the same (rest, v) key, so sum the terms
    return GradedTensor._make(ps.owner, Kind.MIXED, k - 1, accumulate(terms))


def h_p(ps: PoissonStructure, mu: GradedTensor) -> GradedTensor:
    """The hamiltonian map H_P = R_P ∘ d (a vector-valued k-form on degree k;
    on functions it is the hamiltonian vector field P̃(df))."""
    _require(ps, "h_p", cls=PoissonStructure)
    return _h_p(ps, _view(mu, "h_p", ps.owner, Kind.FORM))


def _h_p(ps: PoissonStructure, mu: GradedTensor) -> GradedTensor:
    return _r_p(ps, _differential(ps.owner, mu))


def g_p(ps: PoissonStructure, mu: GradedTensor) -> GradedTensor:
    """The total hamiltonian map G_P = Λ_P ∘ d."""
    _require(ps, "g_p", cls=PoissonStructure)
    return _g_p(ps, _view(mu, "g_p", ps.owner, Kind.FORM))


def _g_p(ps: PoissonStructure, mu: GradedTensor) -> GradedTensor:
    return _lambda_p(ps, _differential(ps.owner, mu))


# -- the extended bracket -----------------------------------------------------------


def extended_bracket(ps: PoissonStructure, mu: GradedTensor,
                     nu: GradedTensor) -> GradedTensor:
    """The graded bracket {μ, ν} = L_{H_μ}ν + d L_{R_μ}ν.

    Degree-preserving in the raw form degree, restricts to the function
    bracket on degree 0, and satisfies {dμ, ν} = d{μ, ν}.  It is computed
    as i_{H_μ}dν + (−1)^{deg μ} d i_{H_μ}ν + d i_{R_μ}dν, with dν taken
    once: d L_{R_μ}ν = d i_{R_μ}dν because the other term of L_{R_μ}ν is
    exact and d∘d = 0, which ``validate`` proves on the generators of every
    built algebroid.
    """
    _require(ps, "extended_bracket", cls=PoissonStructure)
    mu = _view(mu, "extended_bracket", ps.owner, Kind.FORM)
    nu = _view(nu, "extended_bracket", ps.owner, Kind.FORM)
    return _extended_bracket(ps, mu, nu)


def _extended_bracket(ps: PoissonStructure, mu: GradedTensor,
                      nu: GradedTensor) -> GradedTensor:
    owner = ps.owner
    nu = _as_kind(nu, Kind.FORM)
    h = _h_p(ps, mu)  # a vector-valued form of degree deg μ
    d_nu = _differential(owner, nu)
    inner = _differential(owner, _contract_mixed(h, nu))
    return _tensor_sum(owner, Kind.FORM, h.degree + nu.degree, (
        _contract_mixed(h, d_nu),
        -inner if h.degree % 2 else inner,
        _differential(owner, _contract_mixed(_r_p(ps, mu), d_nu))))


# -- the complete lift ----------------------------------------------------------------


def tangent_poisson(ps: PoissonStructure) -> PoissonStructure:
    """The complete lift of the bivector to the chart with velocities
    adjoined — again a Poisson structure, revalidated on construction."""
    return _tangent_poisson(_require(ps, "tangent_poisson", cls=PoissonStructure))


def _tangent_poisson(ps: PoissonStructure) -> PoissonStructure:
    from .lifts import _classical_complete_lift

    lifted = _classical_complete_lift(ps.bivector)
    return build_poisson(lifted.owner.base, lifted)
