"""Anchored bundles with bracket structure, and their tangent/cotangent lifts.

An :class:`Algebroid` is a rank-m bundle over a polynomial chart, described
by an anchor matrix (one row of chart-polynomials per fiber generator) and an
antisymmetric table of structure functions ``c[i][j][k]`` stored sparsely for
``i < j``; :meth:`Algebroid.column` is the one signed read of that table for
any pair.  Together these determine a bracket on sections:

    [e_i, e_j] = sum_k c_ij^k e_k
    [X, f·Y]   = f·[X, Y] + (anchor X)(f)·Y

One kernel extends it, with the anchor, as a biderivation to multivectors:
it is :func:`section_bracket` on sections and the alternating and symmetric
Schouten brackets of :mod:`algebroids.calculus` on higher degrees.

:func:`build_algebroid` checks the two compatibility conditions that make
such data an honest bracket geometry — the Jacobi identity on all basis
triples and the anchor being a bracket morphism into vector fields — and the
errors carry an explicit witness (which triple or pair failed, and the
residual) so a failing model is diagnosable.  :func:`validate` checks both
at once as d∘d = 0 on the generators (Vaintrob, "Lie algebroids and
homological vector fields", 1997): d(d x^a) on each base coordinate holds
the anchor-morphism residuals of every basis pair, and d(d e*_k) on each
basis form the e_k components of the Jacobi residuals of every triple.  Its
passes are memoized on the structurally compared algebroid, so an equal
structure, say a reloaded document, is checked once; a failure is never
memoized.

A chart with no coordinates is allowed as a base: the anchor is then forced
to vanish and the structure functions are rational constants (the classical
finite-dimensional Lie-algebra case).

The lifts at the bottom of the module produce new algebroids from old:
``tangent_lift`` doubles the fibers and adjoins velocity coordinates,
``linear_poisson`` packages the structure data as a fiberwise-linear
bivector on the dual bundle's chart, and ``cotangent_lift`` is the cotangent
algebroid of that bivector, whose fibers are the coordinate differentials.
Algebroids are immutable and hashable, so these lifts, the canonical
algebroid of a chart and the passes of :func:`validate` are memoized on
their (structurally compared) source, in LRU caches of :data:`CACHE_SIZE`
entries each; so are the dual chart, on the base coordinates and dual
names, and the velocity chart of :func:`dotted_chart`, on its chart.  Every
derived name (velocities, barred and dotted fibers, dual names) comes from
the one naming rule of :mod:`algebroids.ring`, which moves a name aside when
it is taken, so every lift of a lift builds.
Each algebroid also builds, on first use, read-only tables of its nonzero
anchor entries by base coordinate and its nonzero structure functions by
target fiber, with its :attr:`~Algebroid.is_canonical` flag
(:func:`_tables_of`): the kernels read those instead of finding the nonzero
entries again on every call.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from .errors import (AnchorNotMorphism, DimensionMismatch, EmptyChart, JacobiViolation,
                     KindMismatch, PolySyntaxError)
from .ring import Chart, Poly, _derived_names, poly_sum, products
from .tensor import _CANONICAL, _SECTION, Bundle, GradedTensor, Kind, _require

_StructureTable = Dict[Tuple[int, int], Dict[int, Poly]]
_NO_COLUMN: Mapping[int, Poly] = MappingProxyType({})


class Algebroid(Bundle):
    """Structure data for an anchored bracket bundle.

    Instances are immutable and compare structurally: two algebroids are
    equal, and hash alike, when they have the same base chart, fiber names,
    anchor matrix, structure table and dual fiber names, regardless of how
    they were constructed (``provenance`` and ``parent`` are not compared).
    ``structure`` and each of its columns are read-only mappings.  The
    tables of :func:`_tables_of` are built on first use into the
    ``_tables`` slot, which, like ``_hash``, is not compared or hashed.
    """

    __slots__ = ("base", "rank", "fiber_names", "anchor", "structure",
                 "dual_names", "provenance", "parent", "_tables", "_hash")

    def __init__(self, base: Chart, fiber_names: Sequence[str],
                 anchor: Sequence[Sequence[Poly]], structure: _StructureTable,
                 dual_names: Sequence[str], provenance: str = "built",
                 parent: Optional["Algebroid"] = None):
        # filled past the guard below; _hash, set last, freezes the instance
        for name, value in zip(self.__slots__, (
                base, len(fiber_names), tuple(fiber_names),
                tuple(tuple(row) for row in anchor),
                MappingProxyType({pair: MappingProxyType(dict(column))
                                  for pair, column in structure.items()}),
                tuple(dual_names), provenance, parent, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        if hasattr(self, "_hash"):
            raise AttributeError(f"Algebroid is immutable; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"Algebroid is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Algebroid):
            return NotImplemented
        return (self.base == other.base
                and self.fiber_names == other.fiber_names
                and self.anchor == other.anchor
                and self.structure == other.structure
                and self.dual_names == other.dual_names)

    def __hash__(self) -> int:
        if self._hash is None:  # computed once, on first use as a cache key
            object.__setattr__(self, "_hash", hash((
                self.base, self.fiber_names, self.anchor, self.dual_names,
                frozenset((pair, frozenset(column.items()))
                          for pair, column in self.structure.items()))))
        return self._hash

    def __repr__(self) -> str:
        return (f"<Algebroid rank {self.rank} over {self.base.coords!r} "
                f"({self.provenance})>")

    # -- structure access ----------------------------------------------------

    def column(self, i: int, j: int) -> Tuple[Mapping[int, Poly], int]:
        """The stored structure column {k: c^k} of the pair (i, j) and the
        sign (±1) that turns it into c_ij^k; an empty column when i == j or
        the pair's bracket vanishes.  0-based.  The kernels' hot read, so it
        checks nothing: an index that is no fiber index reads as an empty
        column."""
        if i > j:
            return self.structure.get((j, i), _NO_COLUMN), -1
        return self.structure.get((i, j), _NO_COLUMN), 1

    def _fiber(self, index, who: str) -> int:
        """``index`` if it is a fiber index of this algebroid (else
        :class:`KindMismatch` for a non-int, :class:`DimensionMismatch` for
        one out of range)."""
        if not 0 <= _require(index, who, cls=int) < self.rank:
            raise DimensionMismatch(f"{who}: fiber {index} out of range for rank {self.rank}")
        return index

    def c(self, i: int, j: int, k: int) -> Poly:
        """Structure function c_ij^k, antisymmetric in (i, j); 0-based."""
        column, sign = self.column(self._fiber(i, "c"), self._fiber(j, "c"))
        coeff = column.get(self._fiber(k, "c"), self.base.zero())
        return coeff if sign > 0 else -coeff

    def bracket_basis(self, i: int, j: int) -> GradedTensor:
        """The bracket [e_i, e_j] of two basis sections."""
        column, sign = self.column(self._fiber(i, "bracket_basis"),
                                   self._fiber(j, "bracket_basis"))
        return GradedTensor._make(self, Kind.MV, 1, {
            (k,): c if sign > 0 else -c for k, c in column.items()})

    @property
    def is_canonical(self) -> bool:
        """True for the tangent-style algebroid of a chart: fibers are the
        coordinates, the anchor is the identity, all brackets vanish."""
        return _tables_of(self).canonical

    # -- section builders ----------------------------------------------------

    def e(self, i: int) -> GradedTensor:
        """Basis section e_i (0-based)."""
        return GradedTensor.basis(self, Kind.MV, (i,))

    def estar(self, i: int) -> GradedTensor:
        """Dual basis form e*_i (0-based)."""
        return GradedTensor.basis(self, Kind.FORM, (i,))

    def fn(self, value) -> GradedTensor:
        """A function on the base, as a degree-0 multivector."""
        return GradedTensor._function(self, value)

    def section(self, coefficients: Mapping[str, object]) -> GradedTensor:
        """A section from a {fiber name: coefficient} mapping."""
        index = {name: i for i, name in enumerate(self.fiber_names)}
        terms = {}
        for name, coeff in coefficients.items():
            if name not in index:
                raise DimensionMismatch(f"unknown fiber name {name!r}")
            terms[(index[name],)] = coeff
        return GradedTensor(self, Kind.MV, 1, terms)


# -- read-only tables ------------------------------------------------------------

class _Tables:
    """The structure data as the kernels read it, zeros left out:
    ``by_coordinate[a]`` holds the pairs (i, rho_i^a) with rho_i^a != 0,
    ``by_target[k]`` the pairs ((i, j), c_ij^k) with i < j and
    c_ij^k != 0, and ``canonical`` says whether the algebroid is the
    canonical algebroid of its base.  (A plain slotted class: a
    ``NamedTuple`` would cost its class creation at every import.)"""

    __slots__ = ("by_coordinate", "by_target", "canonical")

    def __init__(self, by_coordinate: Tuple[Tuple[Tuple[int, Poly], ...], ...],
                 by_target: Tuple[Tuple[Tuple[Tuple[int, int], Poly], ...], ...],
                 canonical: bool):
        self.by_coordinate = by_coordinate
        self.by_target = by_target
        self.canonical = canonical


def _tables_of(algebroid: Algebroid) -> _Tables:
    """The tables of ``algebroid``, built on first use into its ``_tables``
    slot.  Every kernel reads the anchor through them (:func:`anchor_terms`
    and :func:`anchor_apply`), ``d`` reads its structure part from them,
    and :attr:`Algebroid.is_canonical` is their flag."""
    tables = algebroid._tables
    if tables is None:
        by_target = [[] for _ in range(algebroid.rank)]
        for pair, column in algebroid.structure.items():
            for k, c in column.items():
                if c:
                    by_target[k].append((pair, c))
        rows = algebroid.anchor
        tables = _Tables(
            tuple(tuple((i, row[a]) for i, row in enumerate(rows) if row[a])
                  for a in range(algebroid.base.dim)),
            tuple(map(tuple, by_target)),
            _canonical(algebroid.base, algebroid.fiber_names, rows, algebroid.structure))
        object.__setattr__(algebroid, "_tables", tables)
    return tables


def _canonical(base: Chart, fiber_names: Tuple[str, ...],
               anchor: Tuple[Tuple[Poly, ...], ...], structure: Mapping) -> bool:
    """Whether this structure data is the canonical algebroid of ``base``."""
    canonical = _vector_fields(base)
    return (fiber_names == canonical.fiber_names and not structure
            and anchor == canonical.anchor)


def _names(names, who: str) -> Tuple[str, ...]:
    """``names`` as a tuple, each of them a string."""
    return tuple(_require(name, who, cls=str)
                 for name in _require(names, who, cls=Iterable))


# -- chart helpers -------------------------------------------------------------

#: Entries kept by each construction cache.  A ``suite --name all`` round over
#: both shipped models reaches 22 distinct keys in the largest one (charts).
#: The three lifts are guards over cached builders, their kernels, so a
#: profiler or tracer wrapping a public name sees every call from outside
#: the package, cache hits included.
CACHE_SIZE = 32


def dotted_chart(chart: Chart) -> Chart:
    """Adjoin a velocity coordinate ``c_dot`` for every coordinate ``c``,
    named by the rule of :func:`~algebroids.ring._derived_names` (so
    ``c_dot_2`` when the chart already holds ``c_dot``): coordinate a's
    velocity is coordinate n + a of the result.  Memoized on the chart."""
    return _dotted_chart(_require(chart, "dotted_chart", cls=Chart))


@lru_cache(maxsize=CACHE_SIZE)
def _dotted_chart(chart: Chart) -> Chart:
    coords = chart.coords
    return Chart(coords + _derived_names(coords, coords, "velocity"))


def dual_chart(algebroid: Algebroid) -> Chart:
    """The chart of the dual bundle: base coordinates then fiber-linear ones.
    Memoized: algebroids with the same base coordinates and dual names
    share one chart object."""
    _require(algebroid, "dual_chart", cls=Algebroid)
    return _dual_chart(algebroid.base.coords, algebroid.dual_names)


@lru_cache(maxsize=CACHE_SIZE)
def _dual_chart(coords: Tuple[str, ...], dual_names: Tuple[str, ...]) -> Chart:
    return Chart(coords + dual_names)


@lru_cache(maxsize=CACHE_SIZE)
def _total_chart(coords: Tuple[str, ...], fiber_names: Tuple[str, ...]) -> Chart:
    """The chart of the bundle's total space: the base, then one y per fiber."""
    return Chart(coords + _derived_names(fiber_names, coords, "total"))


@lru_cache(maxsize=CACHE_SIZE)
def _vector_fields(chart: Chart) -> Algebroid:
    """The canonical algebroid of a chart, allowing the empty chart (rank 0).

    Used directly as the landing space of :func:`anchor_apply` and as the
    reference of :attr:`Algebroid.is_canonical`; the public constructor
    :func:`canonical_algebroid` rejects empty charts.
    """
    n = chart.dim
    one, zero = chart.one(), chart.zero()
    anchor = tuple(tuple(one if a == i else zero for a in range(n)) for i in range(n))
    return Algebroid(chart, chart.coords, anchor, {},
                     _derived_names(chart.coords, chart.coords, "momentum"),
                     provenance="canonical")


def canonical_algebroid(chart: Chart) -> Algebroid:
    """The tangent algebroid of a chart: sections are vector fields, the
    anchor is the identity, and the bracket is the commutator."""
    _require(chart, "canonical_algebroid", cls=Chart)
    if chart.dim == 0:
        raise EmptyChart("the canonical algebroid needs at least one coordinate")
    return _vector_fields(chart)


# -- construction with validation ----------------------------------------------

def build_algebroid(base: Chart, fiber_names: Sequence[str],
                    anchor: Sequence[Sequence[object]],
                    structure: Mapping[Tuple[int, int], Mapping[int, object]] | None = None,
                    *, dual_names: Sequence[str] | None = None,
                    provenance: str = "built",
                    parent: Optional[Algebroid] = None,
                    check: bool = True) -> Algebroid:
    """Assemble and (by default) validate an algebroid.

    ``anchor`` is a rank×dim matrix (rows indexed by fiber) of polynomials
    over ``base``; entries may be anything :meth:`Chart.coerce` accepts
    (polynomials over ``base``, strings or rationals).  ``structure`` maps
    ``(i, j)`` with ``i < j`` (0-based) to ``{k: c_ij^k}``.  Validation
    checks the Jacobi identity on every basis triple and that the anchor is
    a bracket morphism on every basis pair; failures raise
    :class:`JacobiViolation` / :class:`AnchorNotMorphism` with a witness.
    ``dual_names``, :func:`default_dual_names` when None, must extend the
    base coordinates to the chart of :func:`dual_chart` (one distinct
    coordinate name per fiber, none a base coordinate), and the fiber names
    to the chart of :func:`~algebroids.lifts.vertical_tau`, else
    :class:`DimensionMismatch` naming the names.
    """
    _require(base, "build_algebroid", cls=Chart)
    fiber_names = _names(fiber_names, "build_algebroid")
    rank = len(fiber_names)
    if rank < 1:
        raise DimensionMismatch("an algebroid needs at least one fiber generator")
    if len(set(fiber_names)) != rank:
        raise DimensionMismatch("fiber names must be distinct")
    if any(not name for name in fiber_names):
        raise DimensionMismatch("fiber names must be nonempty")

    if len(_require(anchor, "build_algebroid", cls=Sequence)) != rank:
        raise DimensionMismatch(f"anchor has {len(anchor)} rows, expected {rank}")
    rows = []
    for row in anchor:
        if len(_require(row, "build_algebroid", cls=Sequence)) != base.dim:
            raise DimensionMismatch(
                f"anchor row has {len(row)} entries, expected {base.dim}")
        rows.append(tuple(base.coerce(v) for v in row))

    table: _StructureTable = {}
    for pair, entries in _require(structure or {}, "build_algebroid", cls=Mapping).items():
        if len(_require(pair, "build_algebroid", cls=tuple)) != 2:
            raise KindMismatch(f"build_algebroid: a structure key is a pair (i, j), "
                               f"got {pair!r}")
        i, j = (_require(index, "build_algebroid", cls=int) for index in pair)
        if not 0 <= i < j < rank:
            raise DimensionMismatch(
                f"structure key ({i}, {j}) must satisfy 0 <= i < j < {rank}")
        cleaned = {}
        for k, value in _require(entries, "build_algebroid", cls=Mapping).items():
            if not 0 <= _require(k, "build_algebroid", cls=int) < rank:
                raise DimensionMismatch(f"structure target {k} out of range")
            coeff = base.coerce(value)
            if not coeff.is_zero():
                cleaned[k] = coeff
        if cleaned:
            table[(i, j)] = cleaned

    if dual_names is None:
        dual_names = default_dual_names(base, fiber_names, tuple(rows), table)
    else:
        dual_names = _names(dual_names, "build_algebroid")
        if len(dual_names) != rank:
            raise DimensionMismatch(f"{len(dual_names)} dual names for {rank} fibers")
    # the charts that the lifts to the dual bundle and the total space build
    for what, names, chart in (("dual names", dual_names, _dual_chart),
                               ("fiber names", fiber_names, _total_chart)):
        try:
            chart(base.coords, names)
        except PolySyntaxError as exc:
            raise DimensionMismatch(f"{what} {names!r} and the base "
                                    f"{base.coords!r} make no chart: {exc}") from None

    result = Algebroid(base, fiber_names, rows, table, dual_names,
                       provenance=provenance, parent=parent)
    if check:
        validate(result)
    return result


def default_dual_names(base: Chart, fiber_names: Tuple[str, ...],
                       anchor: Tuple[Tuple[Poly, ...], ...],
                       structure: Mapping) -> Tuple[str, ...]:
    """The dual fiber names :func:`build_algebroid` gives when none are
    passed: ``p_<fiber>`` for the canonical algebroid of the base, else
    ``xi_<fiber>``, each renamed by the rule of
    :func:`~algebroids.ring._derived_names` when it is a base coordinate."""
    _require(base, "default_dual_names", cls=Chart)
    fiber_names = _names(fiber_names, "default_dual_names")
    part = "momentum" if _canonical(base, fiber_names, anchor, structure) else "dual"
    return _derived_names(fiber_names, base.coords, part)


def validate(algebroid: Algebroid) -> None:
    """Check the anchor-morphism and Jacobi conditions; raise on failure.

    The check is d∘d on the generators: the structure data is a Lie
    algebroid iff its differential squares to zero, and d∘d is a
    derivation, so it vanishes iff it vanishes on every coordinate
    function x^a and every basis form e*_k.  The pair (i, j) coefficient
    of d(d x^a) is the anchor-morphism residual
    [ρe_i, ρe_j](x^a) − ρ[e_i, e_j](x^a), and the triple (i, j, l)
    coefficients of d(d e*_k), summed over k against e_k, are the Jacobi
    residual [[e_i, e_j], e_l] + cyclic.  The witness is the first failing
    pair in ``combinations`` order with its first failing coordinate, else
    the first failing triple.

    Passes are memoized on the (structurally compared) algebroid, in an
    LRU cache of :data:`CACHE_SIZE` entries, so an equal structure loaded
    again is not checked again; a failure is decided afresh on every call.
    """
    _validated(_require(algebroid, "validate", cls=Algebroid))


@lru_cache(maxsize=CACHE_SIZE)
def _validated(algebroid: Algebroid) -> None:
    """The check behind :func:`validate`.  ``lru_cache`` keeps no raised
    exception, so only passes are recorded."""
    from .calculus import _differential

    m = algebroid.rank
    if m < 2:  # no basis pairs, so d∘d has nothing of degree 2 or 3
        return
    names = algebroid.fiber_names
    tables = _tables_of(algebroid)

    def dd(degree: int, first: Iterable[Tuple[Tuple[int, ...], Poly]]) -> Dict:
        # d applied to the terms of the first d of a generator, read from the
        # tables as d reads them: the stored entries are the coefficients, so
        # each is differentiated on its own object, whose gradient it keeps
        form = GradedTensor._make(algebroid, Kind.FORM, degree, dict(first))
        return _differential(algebroid, form).terms

    # d x^a = sum_i rho_i^a e*_i
    morphism = [dd(1, (((i,), rho) for i, rho in column))
                for column in tables.by_coordinate]
    if any(morphism):
        coords = algebroid.base.coords
        for i, j in combinations(range(m), 2):
            for b, terms in enumerate(morphism):
                residual = terms.get((i, j))
                if residual is not None:
                    raise AnchorNotMorphism(
                        f"anchor fails to intertwine brackets on ({names[i]}, {names[j]})",
                        witness={"pair": [names[i], names[j]],
                                 "coordinate": coords[b],
                                 "residual": str(residual)})
    if m < 3:  # no basis triples
        return
    # d e*_k = -sum_{i<j} c_ij^k e*_i∧e*_j, so each entry below is minus the
    # e_k component of the Jacobi residual
    jacobi = [dd(2, pairs) for pairs in tables.by_target]
    if any(jacobi):
        for key in combinations(range(m), 3):
            jac = {(k,): -terms[key] for k, terms in enumerate(jacobi) if key in terms}
            if jac:
                triple = [names[r] for r in key]
                raise JacobiViolation(
                    f"Jacobi identity fails on ({', '.join(triple)})",
                    witness={"triple": triple,
                             "residual": str(GradedTensor._make(
                                 algebroid, Kind.MV, 1, jac))})


# -- the bracket on sections ----------------------------------------------------

def anchor_terms(algebroid: Algebroid, gradient: list[Tuple[int, Poly]]
                 ) -> Iterable[Tuple[int, Poly, Poly]]:
    """The triples (i, rho_i^a, d_a f), one per nonzero anchor entry rho_i^a
    and nonzero partial d_a f of a function f whose ``gradient`` is the list
    ``f.gradient()``: summed per fiber i, their products rho_i^a d_a f are
    the anchor of every e_i applied to f.  The one read of the anchor
    acting on functions, from the coordinate table of :func:`_tables_of`."""
    _require(algebroid, "anchor_terms", cls=Algebroid)
    _require(gradient, "anchor_terms", cls=list)
    return _anchor_terms(algebroid, gradient)


def _anchor_terms(algebroid: Algebroid, gradient: list[Tuple[int, Poly]]
                  ) -> Iterable[Tuple[int, Poly, Poly]]:
    by_coordinate = _tables_of(algebroid).by_coordinate
    return ((i, rho, d) for a, d in gradient for i, rho in by_coordinate[a])


def anchor_derivative(algebroid: Algebroid, i: int, f: Poly) -> Poly:
    """The anchor of e_i applied to a function over the base (anything
    :meth:`~algebroids.ring.Chart.coerce` takes): sum_a anchor[i][a] d_a f."""
    base = _require(algebroid, "anchor_derivative", cls=Algebroid).base
    algebroid._fiber(i, "anchor_derivative")
    return products(base, ((None, 1, rho, d) for k, rho, d in _anchor_terms(
        algebroid, base.coerce(f).gradient()) if k == i)).get(None, base.zero())


def section_bracket(algebroid: Algebroid, x: GradedTensor, y: GradedTensor) -> GradedTensor:
    """The bracket of two sections (degree-1 multivectors over the algebroid)."""
    _require(x, "section_bracket", algebroid, _SECTION)
    _require(y, "section_bracket", algebroid, _SECTION)
    return _bracket_tensors(algebroid, x, y)


def _bracket_tensors(algebroid: Algebroid, x: GradedTensor,
                     y: GradedTensor) -> GradedTensor:
    """:func:`_bracket` of two multivectors of one kind, each prepared
    against the fibers of the other's keys."""
    return _bracket(algebroid, _prepare(algebroid, x, {k for key in y.terms for k in key}),
                    _prepare(algebroid, y, {k for key in x.terms for k in key}))


#: A bracket operand from :func:`_prepare`: kind, degree and prepared terms.
_Operand = Tuple[Kind, int, list]


def _prepare(algebroid: Algebroid, t: GradedTensor, fibers: Collection[int]) -> _Operand:
    """``t`` as an operand of :func:`_bracket`: each term as (key,
    coefficient, key less each factor, the nonzero anchors of the fibers
    in ``fibers`` applied to the coefficient, keyed by fiber).  ``fibers``
    must hold every fiber of the other operand's keys.  Each coefficient is
    differentiated here once, and its anchors are summed in one pass of the
    product kernel, so an operand prepared once enters any number of
    brackets without being differentiated again."""
    terms = []
    for key, coeff in t.terms.items():
        rho = {}
        if fibers and (gradient := coeff.gradient()):
            items = [(i, 1, r, d) for i, r, d in _anchor_terms(algebroid, gradient)
                     if i in fibers]
            if items:
                rho = products(algebroid.base, items)
        terms.append((key, coeff, [key[:r] + key[r + 1:] for r in range(len(key))], rho))
    return t.kind, t.degree, terms


def _bracket(algebroid: Algebroid, x: _Operand, y: _Operand) -> GradedTensor:
    """The section bracket and the anchor extended as a biderivation to two
    prepared multivectors of one kind: alternating (``Kind.MV``, the
    Schouten bracket: ε = −1 and · is ∧) or symmetric (``Kind.SYM``: ε = 1
    and · is the symmetric product).  For terms f e_K of x and g e_L of y,
    p = |K|, 0-based r and s, and ρ the anchor:

        [f e_K, g e_L] = sum_{r,s} ε^{r+s} fg c_{k_r l_s}^m e_m·e_{K∖r}·e_{L∖s}
                         + sum_r ε^{r+p−1} f ρ_{k_r}(g) e_{K∖r}·e_L
                         − sum_s ε^s g ρ_{l_s}(f) e_K·e_{L∖s}

    emitted as signed basis keys with their two coefficient factors into
    one pass of :func:`~algebroids.ring.products`.  Sections give the
    section bracket, an empty K or L the anchor acting on a function, and
    two functions the zero of degree 0.  The operands come from
    :func:`_prepare`, so nothing is differentiated here.
    """
    kind, p, xs = x
    _, q, ys = y
    degree = p + q - 1 if p + q else 0
    if not xs or not ys:
        return GradedTensor._make(algebroid, kind, degree, {})
    skew = kind is Kind.MV
    merge = _CANONICAL[kind]

    def eps(n: int) -> int:
        return -1 if skew and n % 2 else 1

    def items():
        for kx, f, rests_x, rho_f in xs:
            for ky, g, rests_y, rho_g in ys:
                fg = None
                for r, k in enumerate(kx):
                    for s, l in enumerate(ky):
                        column, sign = algebroid.column(k, l)
                        if not column:
                            continue
                        fg = fg or f * g
                        rest = rests_x[r] + rests_y[s]
                        sign *= eps(r + s)
                        for m, c in column.items():
                            if hit := merge((m,) + rest):
                                yield hit[0], sign * hit[1], c, fg
                for r, k in enumerate(kx):
                    if (d := rho_g.get(k)) and (hit := merge(rests_x[r] + ky)):
                        yield hit[0], eps(r + p - 1) * hit[1], f, d
                for s, l in enumerate(ky):
                    if (d := rho_f.get(l)) and (hit := merge(kx + rests_y[s])):
                        yield hit[0], -eps(s) * hit[1], g, d

    return GradedTensor._make(algebroid, kind, degree, products(algebroid.base, items()))


def anchor_apply(algebroid: Algebroid, x: GradedTensor) -> GradedTensor:
    """Push a section through the anchor to a vector field on the base.

    The result lives over the canonical algebroid of the base chart (the
    rank-0 version of it when the base chart is empty).
    """
    _require(x, "anchor_apply", algebroid, _SECTION)
    return _anchor_apply(algebroid, x)


def _anchor_apply(algebroid: Algebroid, x: GradedTensor) -> GradedTensor:
    terms = x.terms
    items = (((a,), 1, f, rho)
             for a, column in enumerate(_tables_of(algebroid).by_coordinate)
             for i, rho in column if (f := terms.get((i,))) is not None)
    return GradedTensor._make(_vector_fields(algebroid.base), Kind.MV, 1,
                              products(algebroid.base, items))


# -- lifts -----------------------------------------------------------------------

def velocity_derivative(coeff: Poly, target: Chart) -> Poly:
    """The velocity derivative sum_a (d_a f)·a_dot of a function f, on the
    velocity chart ``target`` that extends f's chart of n coordinates to
    2n, as :func:`dotted_chart` does: the velocity of coordinate a is
    coordinate n + a, whatever its name."""
    names = _require(coeff, "velocity_derivative", cls=Poly).chart.coords
    n = len(names)
    coords = _require(target, "velocity_derivative", cls=Chart).coords
    if len(coords) != 2 * n or coords[:n] != names:
        raise DimensionMismatch(f"velocity_derivative: {coords!r} does not extend "
                                f"{names!r} by one velocity per coordinate")
    return _velocity_derivative(coeff, target)


def _velocity_derivative(coeff: Poly, target: Chart) -> Poly:
    coords, n = target.coords, coeff.chart.dim
    return poly_sum(target, (d.transport(target) * target.coordinate(coords[n + a])
                             for a, d in coeff.gradient()))


def tangent_lift(algebroid: Algebroid) -> Algebroid:
    """The tangent algebroid: rank doubles (bar fibers then dot fibers) over
    the chart with velocities adjoined.

    Brackets:  [e_i bar, e_j bar] = 0,
               [e_i bar, e_j dot] = c_ij^k e_k bar,
               [e_i dot, e_j dot] = c_ij^k e_k dot + (d_a c_ij^k) x_a dot e_k bar;
    the anchor sends bar fibers to velocity directions and dot fibers to the
    original directions plus the derivative correction.  Memoized: equal
    sources share one lift, whose ``parent`` is the first of them lifted.
    """
    return _tangent_lift(_require(algebroid, "tangent_lift", cls=Algebroid))


@lru_cache(maxsize=CACHE_SIZE)
def _tangent_lift(A: Algebroid) -> Algebroid:
    n, m = A.base.dim, A.rank
    base = _dotted_chart(A.base)
    lift = lambda p: p.transport(base)  # noqa: E731 - tiny local embedding
    fibers = _derived_names(A.fiber_names, (), "bar")
    fibers += _derived_names(A.fiber_names, fibers, "velocity")
    # the velocities may take a dual name, which then moves aside
    duals = _derived_names(A.dual_names, base.coords)
    duals += _derived_names(A.dual_names, base.coords + duals, "velocity")
    zero = base.zero()

    # bar fibers: velocity directions only
    anchor = [tuple([zero] * n + [lift(entry) for entry in row]) for row in A.anchor]
    for row in A.anchor:  # dot fibers: base directions plus derivative correction
        anchor.append(tuple([lift(entry) for entry in row]
                            + [_velocity_derivative(entry, base) for entry in row]))

    structure: _StructureTable = {}
    for (i, j), entries in A.structure.items():
        bar_dot: Dict[int, Poly] = {}      # [e_i bar, e_j dot]
        dot_bar: Dict[int, Poly] = {}      # [e_j bar, e_i dot] = -c_ij^k e_k bar
        dot_dot: Dict[int, Poly] = {}      # [e_i dot, e_j dot]
        for k, coeff in entries.items():
            up = lift(coeff)
            bar_dot[k] = up
            dot_bar[k] = -up
            dot_dot[m + k] = up
            drift = _velocity_derivative(coeff, base)
            if drift:
                dot_dot[k] = drift
        structure[(i, m + j)] = bar_dot
        structure[(j, m + i)] = dot_bar
        structure[(m + i, m + j)] = dot_dot

    return build_algebroid(base, fibers, anchor, structure, dual_names=duals,
                           provenance="tangent-lift", parent=A)


def cotangent_lift(algebroid: Algebroid) -> Algebroid:
    """The cotangent algebroid over the dual bundle's chart, built as the
    cotangent algebroid of :func:`linear_poisson` (see
    :func:`algebroids.poisson.cotangent_algebroid`).

    Fibers are the differentials of the dual chart's coordinates (base
    coordinates first, then the fiber-linear ones), and [dz^u, dz^v] = d P^{uv}
    gives the brackets

        [d xi_i, d xi_j] = c_ij^k d xi_k + (d_b c_ij^k) xi_k dx^b,
        [d xi_i, d x^a]  = (d_b delta_i^a) dx^b,
        [d x^a, d x^b]   = 0;

    the anchor sends dx^a to -delta_i^a d/d xi_i and d xi_i to
    delta_i^a d/d x^a + c_ij^k xi_k d/d xi_j.  Memoized like
    :func:`tangent_lift`.
    """
    return _cotangent_lift(_require(algebroid, "cotangent_lift", cls=Algebroid))


@lru_cache(maxsize=CACHE_SIZE)
def _cotangent_lift(A: Algebroid) -> Algebroid:
    from .poisson import _build_cotangent

    return _build_cotangent(_linear_poisson(A), "cotangent-lift", parent=A)


def linear_poisson(algebroid: Algebroid):
    """The fiberwise-linear bivector on the dual chart encoding the same
    structure data.  Returns a validated Poisson structure, memoized like
    :func:`tangent_lift`."""
    return _linear_poisson(_require(algebroid, "linear_poisson", cls=Algebroid))


@lru_cache(maxsize=CACHE_SIZE)
def _linear_poisson(A: Algebroid):
    from .poisson import build_poisson

    n = A.base.dim
    chart = _dual_chart(A.base.coords, A.dual_names)
    owner = _vector_fields(chart)
    xi = [chart.coordinate(name) for name in A.dual_names]
    terms: Dict[Tuple[int, int], Poly] = {}
    for (i, j), table in A.structure.items():
        acc = poly_sum(chart, (coeff.transport(chart) * xi[k] for k, coeff in table.items()))
        if not acc.is_zero():
            terms[(n + i, n + j)] = acc
    for i, row in enumerate(A.anchor):
        for a, entry in enumerate(row):
            if not entry.is_zero():
                # d/d xi_i ∧ d/d x^a stored on the sorted key (a, n+i)
                terms[(a, n + i)] = -entry.transport(chart)
    bivector = GradedTensor(owner, Kind.MV, 2, terms)
    return build_poisson(chart, bivector)
