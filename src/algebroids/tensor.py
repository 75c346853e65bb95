"""Graded tensor sections over an anchored bundle.

A :class:`GradedTensor` is a sparse, canonically-keyed collection of
polynomial coefficients over an owner bundle (anything with ``base`` (a
Chart), ``rank`` and ``fiber_names`` — in practice an
:class:`~algebroids.algebroid.Algebroid`).  Four kinds are supported:

``Kind.MV``
    alternating multivector sections; degree-``k`` keys are strictly
    increasing tuples of fiber indices.  Degree 0 is a plain function,
    degree 1 a section of the bundle itself.
``Kind.FORM``
    alternating dual sections, keyed the same way against the dual basis.
``Kind.MIXED``
    vector-valued forms (a form tensored with a single bundle factor); keys
    are ``(form_key, fiber_index)`` and the *degree is the form degree*, so
    degree 0 is just a section in disguise.
``Kind.SYM``
    symmetric multivector sections; keys are nondecreasing tuples.

One key rule, kept here alone, makes these keys: ``_CANONICAL`` takes a
basis element's fiber indices in slot order, a mixed key's bundle factor
last, to the kind's canonical key and sign, or None when the element
vanishes (skew indices sort with the permutation sign and vanish on a
repeat).  The constructor, :func:`remap`, the symmetric products and
brackets and the tangent lifts canonicalise through it and no other way.
Some kinds read as others, as the table ``_VIEWS`` lists: a function is a
0-form, a section X is the vector-valued form 1⊗X and 1⊗X is X, and
functions and sections are symmetric multivectors.

Every term map is canonical: keys in normal form, no zero coefficient, each
coefficient over the owner's base, so equality of term maps is equality of
tensors.  The public constructor ``GradedTensor(...)`` makes it so: it
normalizes keys by the key rule, coerces coefficients with
:meth:`~algebroids.ring.Chart.coerce` of the owner's base and sums the terms
with :func:`~algebroids.ring.accumulate`, which drops zero coefficients.
Internal builders (the products, ``zero``, ``basis``, ``function``, the kind
views, :func:`remap` and the lifts of :mod:`algebroids.lifts`) build
canonical maps themselves and pass them to ``GradedTensor._make``, which
checks nothing; ``basis`` still checks and normalizes its key.

The public operations here and in the algebroid, calculus, lifts and poisson
modules check each operand's type, owner, kind and degree first, with the one
guard :func:`_require`; the kernels behind them (``_make``, the products) do not.
An operation that takes a view guards each operand with one call of
``_view``, which checks it as ``_require`` does and returns it as the kind
the operation computes in, each key's fiber indices kept in slot order.

The products (wedge, symmetric product, contractions) pair basis keys and
hand each pair's two coefficients, with the key and its sign, to the product
kernel :func:`~algebroids.ring.products`, which multiplies them into the
result's term map without a polynomial per pair; a zero operand gives the
zero of the product's kind and degree without calling it, and scaling by
the int 1 or -1 returns the tensor or its negation.  Skew keys are sorted
through a bounded table (``_sort_skew``), filled as index tuples are met,
since a run meets few distinct tuples many times each.

Contraction of a decomposable multivector ``X_1∧…∧X_k`` into a form composes
the degree-1 insertions ``i_{X_r}`` in one of two orders.  The package-wide
order is :data:`CONTRACTION_ORDER` = ``"first-factor-innermost"``: ``X_1`` is
inserted into the leading slot first, which is exactly evaluation order, so
the full pairing of a k-vector with a k-form is the determinant
``det[<X_r, mu_s>]``.  The alternative (``"last-factor-innermost"``) is kept
selectable for the calibration check that ties this choice to the graded
bracket conventions; only one of the two is compatible with them.
"""

from __future__ import annotations

import enum
import random
import sys
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement
from typing import Dict, Tuple, Union

from .errors import ChartMismatch, DimensionMismatch, KindMismatch
from .ring import Chart, Poly, accumulate, products

Key = Union[Tuple[int, ...], Tuple[Tuple[int, ...], int]]

#: Active composition order for multivector contraction (see module doc).
CONTRACTION_ORDER = "first-factor-innermost"

_ORDERS = ("first-factor-innermost", "last-factor-innermost")


class Kind(enum.Enum):
    MV = "mv"
    FORM = "form"
    MIXED = "mixed"
    SYM = "sym"
    #: The identity hash, in C (members are singletons): the guard hashes a kind per call.
    __hash__ = object.__hash__


#: Most index tuples the skew-merge table keeps.  A ``suite --name all``
#: round over both shipped models sorts 365 distinct tuples.
_SKEW_TABLE_SIZE = 4096


@lru_cache(maxsize=_SKEW_TABLE_SIZE)
def _sort_skew(indices: Tuple[int, ...]):
    """Sort a tuple of indices, returning (sorted, sign) or None on repeats.

    Answered from a bounded table filled as tuples are met; the insertion
    sort below runs only on a miss."""
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


def _sort_sym(indices: Tuple[int, ...]):
    """Sort a tuple of indices, returning (sorted, 1): nothing vanishes."""
    return tuple(sorted(indices)), 1


def _sort_mixed(indices: Tuple[int, ...]):
    """Sort a mixed key's form indices (its bundle factor is last)."""
    hit = _sort_skew(indices[:-1])
    return hit and ((hit[0], indices[-1]), hit[1])


#: The key rule (see module doc): per kind, a basis element's fiber indices
#: in slot order to its canonical key and sign, or None when it vanishes.
_CANONICAL = {Kind.MV: _sort_skew, Kind.FORM: _sort_skew,
              Kind.MIXED: _sort_mixed, Kind.SYM: _sort_sym}


def _slots(kind: Kind, key) -> Tuple[int, ...]:
    """The fiber indices of a ``kind`` key in slot order."""
    return key[0] + (key[1],) if kind is Kind.MIXED else key


def _key(kind: Kind, indices: Tuple[int, ...]):
    """The inverse of :func:`_slots`, for indices already in canonical order."""
    return (indices[:-1], indices[-1]) if kind is Kind.MIXED else indices


def _slot_offsets(kind: Kind, degree: int, form: int, vector: int) -> Tuple[int, ...]:
    """Per slot of a ``kind`` key of ``degree``, in slot order: ``form`` for
    a form factor, ``vector`` for a bundle factor."""
    if kind is Kind.MIXED:
        return (form,) * degree + (vector,)
    return (form if kind is Kind.FORM else vector,) * degree


def _check_indices(indices: Tuple[int, ...], rank: int) -> None:
    for i in indices:
        if i.__class__ is not int:
            raise KindMismatch(f"a fiber index is an int, not {i!r}")
        if not 0 <= i < rank:
            raise DimensionMismatch(f"index {i} out of range for rank {rank}")


class Bundle:
    """What a tensor lives over: an :class:`~algebroids.algebroid.Algebroid`."""

    __slots__ = ()


class GradedTensor:
    """A graded section with polynomial coefficients (see module docstring)."""

    __slots__ = ("owner", "kind", "degree", "terms", "_hash")

    def __init__(self, owner: Bundle, kind: Kind, degree: int, terms: Mapping = ()):
        _require_shape("GradedTensor", owner, kind, degree)
        self.owner = owner
        self.kind = kind
        self.degree = degree
        items = terms.items() if hasattr(terms, "items") else terms
        try:
            items = iter(items)
        except TypeError:
            raise KindMismatch(f"tensor terms are a mapping or (key, coefficient) "
                               f"pairs, not a {type(terms).__name__}") from None
        self.terms = accumulate(self._signed_terms(items))
        self._hash = None

    def _signed_terms(self, items):
        """Coerce each coefficient onto the owner's base and each key to its
        canonical form, folding the key's sign into the coefficient."""
        coerce = self.owner.base.coerce
        for term in items:
            try:
                key, coeff = term
            except (TypeError, ValueError):
                raise KindMismatch(f"a tensor term is a (key, coefficient) pair, "
                                   f"not {term!r}") from None
            coeff = coerce(coeff)
            key, sign = self._normalize_key(key)
            if key is not None:
                yield key, (coeff if sign > 0 else -coeff)

    def _normalize_key(self, key):
        """``key`` checked against the kind, degree and rank, as its
        canonical key and sign; (None, 1) when the basis element vanishes."""
        mixed = self.kind is Kind.MIXED
        try:
            if mixed:
                form_key, fiber = key
                indices = tuple(form_key) + (fiber,)
            else:
                indices = tuple(key)
        except (TypeError, ValueError):
            raise KindMismatch(f"a mixed key is a (form key, fiber) pair, not {key!r}"
                               if mixed else f"a {self.kind.value} key is a tuple of "
                               f"fiber indices, not {key!r}") from None
        if len(indices) != self.degree + mixed:
            raise KindMismatch(
                f"mixed key {key!r} has form degree {len(indices) - 1}, expected {self.degree}"
                if mixed else
                f"key {key!r} has length {len(indices)}, expected degree {self.degree}")
        _check_indices(indices, self.owner.rank)
        return _CANONICAL[self.kind](indices) or (None, 1)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _make(cls, owner, kind: Kind, degree: int, terms: Dict[Key, Poly]) -> "GradedTensor":
        # Internal fast path: `terms` must already be canonical and nonzero.
        self = object.__new__(cls)
        self.owner, self.kind, self.degree, self.terms, self._hash = (
            owner, kind, degree, terms, None)
        return self

    @classmethod
    def zero(cls, owner: Bundle, kind: Kind, degree: int) -> "GradedTensor":
        _require_shape("GradedTensor.zero", owner, kind, degree)
        return cls._make(owner, kind, degree, {})

    @classmethod
    def basis(cls, owner: Bundle, kind: Kind, key) -> "GradedTensor":
        """The basis tensor of ``key``, checked and normalized as the
        public constructor does (a skew key picks up its sign, a repeated
        index gives zero), with the base's one as its coefficient."""
        _require(owner, "GradedTensor.basis", cls=Bundle)
        _require(kind, "GradedTensor.basis", cls=Kind)
        try:
            degree = len(key[0] if kind is Kind.MIXED else key)
        except (TypeError, LookupError):
            raise KindMismatch(f"a {kind.value} key is a tuple of fiber "
                               f"indices, not {key!r}") from None
        self = cls._make(owner, kind, degree, {})
        key, sign = self._normalize_key(key)
        if key is not None:
            one = owner.base.one()
            self.terms[key] = one if sign > 0 else -one
        return self

    @classmethod
    def function(cls, owner: Bundle, value) -> "GradedTensor":
        """A degree-0 multivector (an element of the coefficient ring)."""
        value = _require(owner, "GradedTensor.function", cls=Bundle).base.coerce(value)
        return cls._make(owner, Kind.MV, 0, {(): value} if value else {})

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> Poly:
        key, sign = self._normalize_key(key)
        if key is None:
            return self.owner.base.zero()
        coeff = self.terms.get(key)
        if coeff is None:
            return self.owner.base.zero()
        return coeff if sign > 0 else -coeff

    def as_function(self) -> Poly:
        if self.degree != 0 or self.kind is Kind.MIXED:
            raise KindMismatch(f"not a degree-0 scalar tensor: {self.describe()}")
        return self.terms.get((), self.owner.base.zero())

    def describe(self) -> str:
        return f"{self.kind.value} degree {self.degree}"

    # -- linear structure -----------------------------------------------------

    def _plus(self, who: str, other: "GradedTensor", sign: int) -> "GradedTensor":
        """``self`` plus ``sign`` times ``other``, checked by :func:`_addend`,
        in one pass of the accumulation kernel."""
        _addend(who, other, self.owner, self.kind, self.degree if self.terms else None)
        pairs = other.terms.items()
        degree = self.degree if self.terms or not other.terms else other.degree
        return GradedTensor._make(self.owner, self.kind, degree, accumulate(
            pairs if sign > 0 else ((k, -c) for k, c in pairs), self.terms))

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        return self._plus("+", other, 1)

    def __neg__(self) -> "GradedTensor":
        return GradedTensor._make(self.owner, self.kind, self.degree,
                                  {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        return self._plus("-", other, -1)

    def __mul__(self, scalar) -> "GradedTensor":
        """Multiply by a coefficient over the owner's base (anything
        :meth:`~algebroids.ring.Chart.coerce` accepts).  The ring has no zero
        divisors, so only a zero scalar gives zero products.  The int 1 or
        -1 gives the tensor itself or its negation."""
        if scalar.__class__ is int and (scalar == 1 or scalar == -1):
            return self if scalar == 1 else -self
        scalar = self.owner.base.coerce(scalar)
        terms = ({key: coeff * scalar for key, coeff in self.terms.items()}
                 if scalar else {})
        return GradedTensor._make(self.owner, self.kind, self.degree, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedTensor):
            return NotImplemented
        if not _owned_by(self, other.owner) or self.kind is not other.kind:
            return False
        if self.degree != other.degree and self.terms and other.terms:
            return False
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.kind, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        return pretty(self)

    def __repr__(self) -> str:
        return f"<{self.describe()}: {pretty(self)}>"


# -- the operand guard --------------------------------------------------------

#: Shapes, {kind: allowed degrees}, that several operations take; the
#: degrees ``_ANY`` allow every degree of their kind.
_ANY = range(sys.maxsize)
_MULTIVECTOR = {Kind.MV: _ANY}
_SECTION = {Kind.MV: (1,)}
_FORM = {Kind.FORM: _ANY}
_MIXED = {Kind.MIXED: _ANY}
#: the form-side kinds: forms and vector-valued forms
_FORM_SIDE = {Kind.FORM: _ANY, Kind.MIXED: _ANY}
#: every degree of one kind, per kind
_OF_KIND = {kind: {kind: _ANY} for kind in Kind}


def _owned_by(t: GradedTensor, owner) -> bool:
    """Whether ``t`` lives over ``owner``: the same object, else an equal one."""
    return t.owner is owner or t.owner == owner


#: The default owner of :func:`_require`, which checks no owner.
_NO_OWNER = object()


def _require(value, who: str, owner=_NO_OWNER, shapes=None, cls=GradedTensor):
    """The operand guard of operation ``who``: ``value`` if it is a ``cls``
    (else :class:`KindMismatch`), over ``owner`` unless none is passed (else
    :class:`ChartMismatch`) and of a shape, {kind: degrees}, in ``shapes``
    unless that is None (else :class:`KindMismatch`), tested in that order."""
    if not isinstance(value, cls):
        raise KindMismatch(f"{who} takes a {cls.__name__}, got {type(value).__name__}")
    if owner is not _NO_OWNER and not _owned_by(value, owner):
        raise ChartMismatch(f"{who}: an operand lives over {value.owner!r}, "
                            f"not over {owner!r}")
    if shapes is not None:
        degrees = shapes.get(value.kind)
        if degrees is None or value.degree not in degrees:
            allowed = " or ".join(kind.value if ds is _ANY else f"{kind.value} "
                                  f"degree {' or '.join(map(str, ds))}"
                                  for kind, ds in shapes.items())
            raise KindMismatch(f"{who} takes {allowed}, got {value.describe()}")
    return value


#: The views (see module doc): {kind an operation computes in: {kind:
#: degrees of it that read as the first}}.
_VIEWS = {
    Kind.MV: {Kind.MIXED: (0,)},
    Kind.FORM: {Kind.MV: (0,)},
    Kind.MIXED: {Kind.MV: (1,)},
    Kind.SYM: {Kind.MV: (0, 1)},
}
#: the shapes an operand computing in each kind may take
_VIEW_SHAPES = {kind: {kind: _ANY, **views} for kind, views in _VIEWS.items()}


def _view(value, who: str, owner, kind: Kind, shapes=None) -> GradedTensor:
    """The operand guard of operation ``who``, which computes in ``kind``:
    ``value`` checked by :func:`_require` over ``owner`` against ``shapes``
    (by default ``kind`` and its views), returned as a tensor of ``kind``."""
    t = _require(value, who, owner, shapes or _VIEW_SHAPES[kind])
    if t.kind is kind:
        return t
    return GradedTensor._make(t.owner, kind,
                              t.degree + (t.kind is Kind.MIXED) - (kind is Kind.MIXED),
                              {_key(kind, _slots(t.kind, key)): coeff
                               for key, coeff in t.terms.items()})


def _require_shape(who: str, owner, kind, degree) -> None:
    """Guard the (owner, kind, degree) of a tensor to build or enumerate."""
    _require(owner, who, cls=Bundle)
    _require(kind, who, cls=Kind)
    if _require(degree, who, cls=int) < 0:
        raise KindMismatch(f"{who}: degree must be nonnegative, got {degree}")


def _addend(who: str, t, owner, kind: Kind, degree) -> GradedTensor:
    """Guard a term ``t`` of a sum of ``kind`` over ``owner``: a zero adds
    to a sum of any degree, any other term must have ``degree`` (None: any)."""
    _require(t, who, owner, _OF_KIND[kind])
    if degree is not None and t.degree != degree and t.terms:
        raise KindMismatch(f"{who}: cannot add degree {t.degree} to degree {degree}")
    return t


def equals(s: GradedTensor, t: GradedTensor) -> bool:
    """Exact equality; raises ChartMismatch when the owners differ."""
    _require(s, "equals")
    return s == _require(t, "equals", s.owner)


def tensor_sum(owner: Bundle, kind: Kind, degree: int,
               pieces: Iterable[GradedTensor]) -> GradedTensor:
    """The sum of ``pieces``, all of ``kind`` and ``degree`` (or zero) over
    ``owner``, in one pass of the accumulation kernel (a chain of ``+``
    re-walks the running sum on every addition)."""
    _require_shape("tensor_sum", owner, kind, degree)
    return GradedTensor._make(owner, kind, degree, accumulate(chain.from_iterable(
        _addend("tensor_sum", p, owner, kind, degree).terms.items()
        for p in _require(pieces, "tensor_sum", cls=Iterable))))


# -- products -----------------------------------------------------------------

def _product(s: GradedTensor, t: GradedTensor, merge, kind: Kind,
             degree: int) -> GradedTensor:
    """The bilinear extension of a product of basis keys.

    ``merge(ka, kb)`` returns the product key with its sign, or None when the
    basis product vanishes.  The coefficient products are summed by
    :func:`~algebroids.ring.products`.  A zero operand gives the zero of
    ``kind`` and ``degree`` at once.
    """
    if not s.terms or not t.terms:
        return GradedTensor._make(s.owner, kind, degree, {})

    def items():
        for ka, ca in s.terms.items():
            for kb, cb in t.terms.items():
                hit = merge(ka, kb)
                if hit is not None:
                    yield hit[0], hit[1], ca, cb
    return GradedTensor._make(s.owner, kind, degree, products(s.owner.base, items()))


def _merge_skew(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Concatenate two strictly increasing tuples; (merged, sign) or None."""
    return _sort_skew(a + b)


def _merge_form_mixed(a, b):
    """mu ∧ (theta⊗X): the bundle factor of the right operand rides along."""
    return _sort_mixed(a + b[0] + (b[1],))


def _merge_mixed_form(a, b):
    """(theta⊗X) ∧ mu: the bundle factor of the left operand rides along."""
    return _sort_mixed(a[0] + b + (a[1],))


_WEDGES = {
    (Kind.MV, Kind.MV): (_merge_skew, Kind.MV),
    (Kind.FORM, Kind.FORM): (_merge_skew, Kind.FORM),
    (Kind.FORM, Kind.MIXED): (_merge_form_mixed, Kind.MIXED),
    (Kind.MIXED, Kind.FORM): (_merge_mixed_form, Kind.MIXED),
}
#: the shapes of the right operand of a wedge, by the left operand's kind
_WEDGE_PARTNERS = {left: {right: _ANY for other, right in _WEDGES if other is left}
                   for left, _ in _WEDGES}
_WEDGE_LEFT = dict.fromkeys(_WEDGE_PARTNERS, _ANY)


def wedge(s: GradedTensor, t: GradedTensor) -> GradedTensor:
    """Exterior product.  MV∧MV, Form∧Form, Form∧Mixed and Mixed∧Form.

    For the mixed cases the form parts are wedged in the order written and
    the bundle factor rides along: ``mu ∧ (theta⊗X) = (mu∧theta)⊗X``.
    """
    _require(s, "wedge", shapes=_WEDGE_LEFT)
    _require(t, "wedge", s.owner, _WEDGE_PARTNERS[s.kind])
    merge, kind = _WEDGES[s.kind, t.kind]
    return _product(s, t, merge, kind, s.degree + t.degree)


def sym_product(s: GradedTensor, t: GradedTensor) -> GradedTensor:
    """Symmetric product of symmetric multivectors (functions and sections
    are read in the symmetric algebra)."""
    s = _view(s, "sym_product", _NO_OWNER, Kind.SYM)
    t = _view(t, "sym_product", s.owner, Kind.SYM)
    return _product(s, t, lambda a, b: _sort_sym(a + b), Kind.SYM, s.degree + t.degree)


# -- kind coercions -----------------------------------------------------------

def as_sym(t: GradedTensor) -> GradedTensor:
    """View a degree-0/1 multivector inside the symmetric algebra."""
    return _view(t, "as_sym", _NO_OWNER, Kind.SYM)


def mixed_from_vector(x: GradedTensor) -> GradedTensor:
    """A section X, seen as the degree-0 vector-valued form 1⊗X."""
    return _view(x, "mixed_from_vector", _NO_OWNER, Kind.MIXED, _SECTION)


def vector_from_mixed(k: GradedTensor) -> GradedTensor:
    """Inverse of :func:`mixed_from_vector` (degree-0 mixed tensors only)."""
    return _view(k, "vector_from_mixed", _NO_OWNER, Kind.MV, {Kind.MIXED: (0,)})


# -- contraction --------------------------------------------------------------

def _insert_index(form_key: Tuple[int, ...], j: int):
    """Insert the basis section e_j into the leading slot of a basis form.

    Returns (reduced_key, sign) or None when e_j does not occur.
    """
    try:
        pos = form_key.index(j)
    except ValueError:
        return None
    return form_key[:pos] + form_key[pos + 1:], -1 if pos % 2 else 1


def _contract_key(mv_key: Tuple[int, ...], form_key: Tuple[int, ...], order: str):
    """Contract a basis multivector into a basis form; (key, sign) or None."""
    factors = mv_key if order == "first-factor-innermost" else tuple(reversed(mv_key))
    sign = 1
    for j in factors:
        step = _insert_index(form_key, j)
        if step is None:
            return None
        form_key, s = step
        sign *= s
    return form_key, sign


def contract(x: GradedTensor, mu: GradedTensor) -> GradedTensor:
    """Interior product ``i_x mu`` of a multivector into a form, in the
    order :data:`CONTRACTION_ORDER` names.

    Degree-0 multivectors multiply; when ``deg x > deg mu`` the result is the
    zero tensor.
    """
    _require(x, "contract", shapes=_MULTIVECTOR)
    _require(mu, "contract", x.owner, _FORM)
    order = CONTRACTION_ORDER
    if order not in _ORDERS:
        raise KindMismatch(f"unknown contraction order {order!r}")
    if x.degree > mu.degree:
        return GradedTensor._make(x.owner, Kind.FORM, 0, {})
    return _product(x, mu, lambda kx, km: _contract_key(kx, km, order),
                    Kind.FORM, mu.degree - x.degree)


def contract_mixed(k: GradedTensor, t: GradedTensor) -> GradedTensor:
    """Interior product by a vector-valued form:
    ``i_{mu⊗X} nu = mu ∧ i_X nu``, extended to mixed targets on their form
    part.  Raises the target's form degree by ``deg k - 1``.
    """
    _require(k, "contract_mixed", shapes=_MIXED)
    _require(t, "contract_mixed", k.owner, _FORM_SIDE)
    if t.degree == 0:
        return GradedTensor._make(t.owner, t.kind, 0, {})
    canonical, form_slots = _CANONICAL[t.kind], t.degree

    def merge(kk, kt):
        km, fiber = kk
        indices = _slots(t.kind, kt)
        step = _insert_index(indices[:form_slots], fiber)
        if step is None:
            return None
        hit = canonical(km + step[0] + indices[form_slots:])
        return hit and (hit[0], hit[1] * step[1])

    return _product(k, t, merge, t.kind, t.degree + k.degree - 1)


def evaluate(mu: GradedTensor, sections: Sequence[GradedTensor]) -> Poly:
    """Evaluate a degree-k form on k sections (degree-1 multivectors).

    This is slot-by-slot insertion — ``mu(X_1, …, X_k)`` — and is the pairing
    that makes ``<e_{i_1}∧…∧e_{i_k}, e*_{j_1}∧…∧e*_{j_k}> = det[delta_ir,js]``.
    """
    _require(sections, "evaluate", cls=Sequence)
    _require(mu, "evaluate", shapes={Kind.FORM: (len(sections),)})
    current = mu
    for x in sections:
        current = contract(_require(x, "evaluate", mu.owner, _SECTION), current)
    return current.as_function()


# -- transport ----------------------------------------------------------------

def remap(t: GradedTensor, new_owner: Bundle, fiber_map: Mapping[int, int],
          coord_map: Mapping[str, str] | None = None) -> GradedTensor:
    """Relabel a tensor onto another owner.

    ``fiber_map`` sends old fiber indices to new ones; every index in use
    must be mapped, into ``range(new_owner.rank)`` and injectively, or
    ``DimensionMismatch`` is raised.  Coefficients are transported with
    ``coord_map`` (old coordinate name → new name, identity by default).
    Skew keys re-sort and pick up signs as usual.  Distinct keys stay
    distinct, so only a coefficient that a merging ``coord_map`` cancels is
    dropped.
    """
    _require(t, "remap")
    _require(new_owner, "remap", cls=Bundle)
    _require(coord_map or {}, "remap", cls=Mapping)
    moved = _fiber_image(t, fiber_map, new_owner.rank)
    base = new_owner.base
    canonical = _CANONICAL[t.kind]
    terms = {}
    for key, coeff in t.terms.items():
        coeff = coeff.transport(base, coord_map)
        if not coeff:
            continue
        key, sign = canonical(tuple(moved[i] for i in _slots(t.kind, key)))
        terms[key] = coeff if sign > 0 else -coeff
    return GradedTensor._make(new_owner, t.kind, t.degree, terms)


def _fiber_image(t: GradedTensor, fiber_map: Mapping[int, int],
                 rank: int) -> Dict[int, int]:
    """``fiber_map`` restricted to the fiber indices of ``t``'s keys, checked
    to send them injectively into ``range(rank)``."""
    used = set()
    for key in t.terms:
        used.update(_slots(t.kind, key))
    image = {}
    for i in sorted(used):
        try:
            image[i] = fiber_map[i]
        except (LookupError, TypeError):
            raise DimensionMismatch(f"the fiber map does not send index {i}") from None
    _check_indices(tuple(image.values()), rank)
    if len(set(image.values())) != len(image):
        raise DimensionMismatch(f"the fiber map {image!r} is not injective "
                                f"on the indices in use")
    return image


# -- enumeration / randomness -------------------------------------------------

def basis_keys(owner: Bundle, kind: Kind, degree: int) -> Sequence[Key]:
    """All canonical keys of the given kind and degree, in sorted order."""
    _require_shape("basis_keys", owner, kind, degree)
    return list(_basis_table(owner.rank, kind, degree))


#: Most (rank, kind, degree) triples whose basis keys are kept.  A
#: ``suite --name all`` round over both shipped models draws from 40.
_BASIS_TABLE_SIZE = 256


@lru_cache(maxsize=_BASIS_TABLE_SIZE)
def _basis_table(rank: int, kind: Kind, degree: int) -> Tuple[Key, ...]:
    """The canonical keys of :func:`basis_keys`, kept per (rank, kind,
    degree) for the draws."""
    if kind is Kind.SYM:
        return tuple(combinations_with_replacement(range(rank), degree))
    if kind is Kind.MIXED:
        return tuple((fk, j) for fk in combinations(range(rank), degree)
                     for j in range(rank))
    return tuple(combinations(range(rank), degree))


def random_coefficient(rng, chart: Chart, degree: int = 2) -> Poly:
    """A small random polynomial: one or two monomials of total degree at
    most ``degree``, with integer coefficients in [-3, 3].

    Each draw is one ``rng._randbelow`` call, the one call that
    ``choice``, ``randint`` and ``randrange`` each make for these ranges,
    so the values and the generator's end state are theirs.  A negative
    ``degree`` is an empty range, as for ``randint``."""
    _require(rng, "random_coefficient", cls=random.Random)
    _require(chart, "random_coefficient", cls=Chart)
    if _require(degree, "random_coefficient", cls=int) < 0:
        raise ValueError(f"empty range for a coefficient of degree {degree}")
    return _draw_coefficient(rng, chart, degree)


def _draw_coefficient(rng: random.Random, chart: Chart, degree: int) -> Poly:
    """The draw of :func:`random_coefficient`, on arguments already checked."""
    below = rng._randbelow
    dim = chart.dim
    terms: Dict = {}
    for _ in range(1 + below(2)):  # choice(range(1, 3))
        exp = [0] * dim
        for _ in range(below(degree + 1)):  # randint(0, degree)
            if dim:
                exp[below(dim)] += 1  # randrange(dim)
        exp = tuple(exp)
        # the two draws are ints, so their sum needs no accumulation kernel
        coeff = terms.get(exp, 0) + below(7) - 3  # choice(range(-3, 4))
        if coeff:
            terms[exp] = coeff
        else:
            terms.pop(exp, None)
    return Poly._make(chart, terms)


def random_tensor(rng, owner: Bundle, kind: Kind, degree: int, coeff_degree: int = 2,
                  max_keys: int = 3) -> GradedTensor:
    """A sparse random tensor with small exact coefficients (seeded rng)."""
    _require(rng, "random_tensor", cls=random.Random)
    _require_shape("random_tensor", owner, kind, degree)
    if _basis_table(owner.rank, kind, degree):  # else zero, whatever the bounds
        if _require(max_keys, "random_tensor", cls=int) < 1:
            raise ValueError(f"empty range for a tensor of at most {max_keys} keys")
        if _require(coeff_degree, "random_tensor", cls=int) < 0:
            raise ValueError(f"empty range for a coefficient of degree {coeff_degree}")
    return _draw_tensor(rng, owner, kind, degree, coeff_degree, max_keys)


def _draw_tensor(rng: random.Random, owner: Bundle, kind: Kind, degree: int,
                 coeff_degree: int, max_keys: int) -> GradedTensor:
    """The draw of :func:`random_tensor`, on arguments already checked."""
    keys = _basis_table(owner.rank, kind, degree)
    if not keys:
        return GradedTensor._make(owner, kind, degree, {})
    # basis keys are canonical and a sample holds each at most once, so the
    # drawn terms need only their zero coefficients dropped; the count is
    # randint(1, max_keys), drawn as in random_coefficient
    chosen = rng.sample(keys, min(len(keys), 1 + rng._randbelow(max_keys)))
    terms = {}
    for key in chosen:
        coeff = _draw_coefficient(rng, owner.base, coeff_degree)
        if coeff:
            terms[key] = coeff
    return GradedTensor._make(owner, kind, degree, terms)


# -- printing -----------------------------------------------------------------

def _basis_label(owner, kind: Kind, key) -> str:
    names = owner.fiber_names
    if kind is Kind.MIXED:
        form_key, fiber = key
        head = "∧".join(f"e*{names[i]}" for i in form_key) or "1"
        return f"{head}⊗e_{names[fiber]}"
    if kind is Kind.FORM:
        return "∧".join(f"e*{names[i]}" for i in key)
    joiner = "∨" if kind is Kind.SYM else "∧"
    return joiner.join(f"e_{names[i]}" for i in key)


def pretty(t: GradedTensor) -> str:
    """Human-readable rendering with deterministic term order."""
    if not _require(t, "pretty").terms:
        return "0"
    pieces = []
    for key in sorted(t.terms, key=repr):
        coeff = t.terms[key]
        label = _basis_label(t.owner, t.kind, key)
        text = str(coeff)
        if not label:
            pieces.append(text)
        elif text == "1":
            pieces.append(label)
        elif text == "-1":
            pieces.append(f"-{label}")
        elif "+" in text or " - " in text:
            pieces.append(f"({text})*{label}")
        else:
            pieces.append(f"{text}*{label}")
    return " + ".join(pieces)
