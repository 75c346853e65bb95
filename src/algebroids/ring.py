"""Exact multivariate polynomial arithmetic over the rationals.

A :class:`Chart` is an ordered tuple of coordinate names.  A :class:`Poly`
over a chart is a sparse map from exponent tuples (one nonnegative int per
coordinate, in chart order) to nonzero rational coefficients, stored as
integer numerators over one common denominator, the representation of
FLINT's ``fmpq_poly``: the ``_num`` slot maps each exponent to a nonzero
``int`` and the ``_den`` slot holds the lcm of the coefficient
denominators, with ``gcd(_den, *_num.values()) == 1``.  That is the one
stored form: no ``Fraction`` is stored.  The read-only ``terms`` map of
coefficients is a view of it, which reads each coefficient as a nonzero
``int`` when it is integral and a ``Fraction`` otherwise (the two types
compare and hash alike).  For an integral polynomial ``_den`` is 1 and
``terms`` is ``_num`` itself, so the common case costs no ``Fraction`` and
no division; for any other, each read builds a new map from ``_num`` and
``_den``.  The empty map is the zero polynomial, and each chart holds one
shared zero, which every result without terms (a sum that cancels, a
partial that vanishes, the constructor given none) returns.  Because the
representation is canonical (no zero terms, numerators in lowest terms
against the denominator, exponent tuples fully determined by the chart),
structural equality of ``_num`` and ``_den`` decides equality of
polynomials — which is what makes "this bracket is literally zero" a
decidable statement everywhere else in the package.

:func:`accumulate` is the package's one accumulate-and-drop-zero loop (every
term map, of a polynomial or a tensor, is summed by it) and
:meth:`Chart.coerce` its one rule for turning a value into a coefficient.
A product with a constant or the zero, and a sum with the zero, take no
pass of the kernel.  :func:`products` is the one product kernel of the
bilinear operations (wedge, contraction, the brackets, ``d``): in one pass
over its items it sums each signed product ``sign·a·b`` of polynomials
straight into the term map of the item's basis key, with no polynomial
built per product.  A product of two non-constant polynomials,
``Poly.__mul__`` included, is one item of it.  Monomial exponents are
added in one private function, which multiplies two term maps into a
target map and which the kernel and the :class:`Poly` constructor share.
The kernel sums the numerators over one running common denominator per
call, rescaling its partial sums when an item's denominator does not
divide it, as happens whenever the factors have different denominators.
Sums, differences, negation, scaling by a constant, partials and
transport likewise work on ``_num`` and ``_den`` and build no
``Fraction``.  Every such result goes through one internal
constructor, which divides numerators and denominator by their gcd: the
one place a denominator is reduced.  Only callers outside this module
read ``terms``: :meth:`Poly.eval_at` sums the numerators at the point and
divides by ``_den`` once, and :meth:`Poly.constant_value` reads one
numerator over ``_den``.  :meth:`Poly.gradient` keeps its partials in a
slot, so each polynomial object is differentiated once.  Beside
:class:`Chart` sits the package's one naming rule for derived coordinate,
fiber and dual names, which moves a name that is already taken aside
instead of repeating it.

Expression syntax accepted by :func:`parse_poly`::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := rational | identifier | '(' expr ')'
    rational := int ('/' positive-int)?

Whitespace is ignored; there is *no* implicit multiplication (``2x`` and
``x y`` are syntax errors, write ``2*x``).  A leading ``-`` binds only to an
integer literal, so ``-x`` must be written ``-1*x`` (the canonical printer
does exactly that).  Digits are ASCII only, parentheses nest at most
:data:`MAX_NESTING_DEPTH` deep, and the bounds :data:`MAX_EXPONENT`,
:data:`MAX_TERMS`, :data:`MAX_EXPANSION` and :data:`MAX_COEFFICIENT_BITS`
stop a short expression from expanding into a huge polynomial.  An integer
literal longer than ``int()`` reads (4,300 digits by default) is a
``PolySyntaxError`` at its position; an exponent literal with more
significant digits than :data:`MAX_EXPONENT` is refused before it is read.

The reader makes one pass over the text: one regex pass turns it into a
list of tokens, which a recursive-descent parser reads by index.  A term
multiplies its single factors (rational literals, coordinates and their
powers) into one coefficient, kept as an integer numerator and
denominator, and one exponent list, with no polynomial built per factor;
only a parenthesised sum is a :class:`Poly`, multiplied in with ``*`` and
``**`` after the bounds are checked.  An expression brings its terms'
numerators to the lcm of their denominators and sums them in one
:func:`accumulate` call, so reading builds no ``Fraction``.
:func:`poly_to_string` writes one pass over the sorted numerators, reading
each sign and magnitude off the numerator and ``_den`` with one gcd per
term; it emits a canonical form that :func:`parse_poly` maps back to the
identical term dict.  The public constructor likewise sums its
coefficients' numerators over the lcm of their denominators, so a
``Fraction`` is built only when a non-integral polynomial's ``terms`` are
read or by :meth:`Poly.eval_at`.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .errors import (
    BadPoint,
    ChartMismatch,
    MissingCoordinate,
    NegativeExponent,
    PolySyntaxError,
    UnknownVariable,
)

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Chart:
    """An ordered polynomial coordinate chart.

    Coordinate names must be distinct identifiers matching
    ``[A-Za-z_][A-Za-z0-9_]*``.  The empty chart is allowed (its polynomial
    ring is just the rationals); it is how Lie algebras enter the picture as
    algebroids over a point.
    """

    __slots__ = ("coords", "_index", "_origin", "_zero")

    def __init__(self, coords: Iterable[str]):
        if isinstance(coords, str):
            # tuple("xy") would silently be the two coordinates x and y
            raise PolySyntaxError(f"a chart is an iterable of coordinate names, "
                                  f"not the string {coords!r}")
        try:
            coords = tuple(coords)
        except TypeError:
            raise PolySyntaxError(f"a chart is an iterable of coordinate names, "
                                  f"not a {type(coords).__name__}") from None
        for name in coords:
            if not isinstance(name, str) or not _IDENT_RE.match(name):
                raise PolySyntaxError(f"invalid coordinate name {name!r}")
        if len(set(coords)) != len(coords):
            raise PolySyntaxError(f"duplicate coordinate in chart {coords!r}")
        self.coords = coords
        self._index = {name: i for i, name in enumerate(coords)}
        self._origin = (0,) * len(coords)
        zero = object.__new__(Poly)  # Poly._make of no terms returns this one
        zero.chart, zero._num, zero._den, zero._hash, zero._gradient = self, {}, 1, None, ()
        self._zero = zero

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownVariable(
                f"{name!r} is not a coordinate of chart {self.coords!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Chart) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Chart({list(self.coords)!r})"

    # -- ring elements ------------------------------------------------------

    def zero(self) -> "Poly":
        """The chart's one zero polynomial (the same object every time)."""
        return self._zero

    def one(self) -> "Poly":
        return self.const(1)

    def coerce(self, value) -> "Poly":
        """The one rule that turns a value into a coefficient over this chart.

        A ``Poly`` over this chart is returned as is and one over another
        chart raises ``ChartMismatch``; an ``int`` or ``Fraction`` becomes a
        constant (zero becomes the chart's shared zero, and an integral value,
        ``Fraction(4, 2)`` or ``True`` say, is stored as an ``int``) and a
        ``str`` goes through :func:`parse_poly`.  Anything else (a float,
        None, a list) raises ``PolySyntaxError``.
        """
        if isinstance(value, Poly):
            if value.chart is not self and value.chart != self:
                raise ChartMismatch(
                    f"polynomial over {value.chart.coords!r} used over chart "
                    f"{self.coords!r}")
            return value
        if isinstance(value, (int, Fraction)):
            if not value:
                return self._zero
            return Poly._make(self, {self._origin: value.numerator}, value.denominator)
        if isinstance(value, str):
            return parse_poly(value, self)
        raise PolySyntaxError(
            f"a coefficient is a Poly, an int, a Fraction or an expression "
            f"string, not a {type(value).__name__}")

    const = coerce

    def coordinate(self, name: str) -> "Poly":
        i = self.index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.dim))
        return Poly._make(self, {exp: 1})


#: The spelling of each derived name, as the (prefix, suffix) put around the
#: name it derives from: the velocity of a coordinate, the barred fiber of a
#: tangent lift, the momentum dual to a canonical fiber, the dual
#: coordinate of any other fiber, the differential of a coordinate and the
#: total-space coordinate of a fiber.
_NAME_PARTS = {
    "velocity": ("", "_dot"),
    "bar": ("", "_bar"),
    "momentum": ("p_", ""),
    "dual": ("xi_", ""),
    "differential": ("d_", ""),
    "total": ("y_", ""),
}


def _derived_names(names: Iterable[str], taken: Iterable[str],
                   part: str | None = None) -> Tuple[str, ...]:
    """The one naming rule: ``names`` spelled by ``part`` of
    :data:`_NAME_PARTS` (as they are when None), each kept if it is free and
    otherwise renamed to the first free ``<name>_2``, ``<name>_3``, ….  A
    name is free when it is not in ``taken`` and no other result is spelled
    alike, so a name that is free keeps its spelling whatever else is
    renamed.  A lift's names may already be taken by the names it derives
    from (``x_dot`` on the chart ``(x, x_dot)``), which is what lets every
    lift of a lift build."""
    if part is not None:
        prefix, suffix = _NAME_PARTS[part]
        names = (prefix + name + suffix for name in names)
    names = tuple(names)
    taken = set(taken)
    used = taken.union(names)
    kept = set()
    out = []
    for name in names:
        if name not in taken and name not in kept:
            kept.add(name)
        else:
            count = 2
            while f"{name}_{count}" in used:
                count += 1
            name = f"{name}_{count}"
            used.add(name)
        out.append(name)
    return tuple(out)


class Poly:
    """A polynomial over a fixed chart, with exact rational coefficients."""

    __slots__ = ("chart", "_hash", "_gradient", "_den", "_num")

    def __new__(cls, chart: Chart, terms: Mapping[Exponent, object] | Iterable):
        """The sum of ``coefficient * x^exponent`` over ``terms`` (a mapping
        or (exponent, coefficient) pairs); each coefficient goes through
        :meth:`Chart.coerce`, and their numerators are summed over the lcm
        of their denominators."""
        items = terms.items() if hasattr(terms, "items") else terms
        try:
            items = iter(items)
        except TypeError:
            raise PolySyntaxError(f"polynomial terms are a mapping or (exponent, "
                                  f"coefficient) pairs, not a "
                                  f"{type(terms).__name__}") from None
        coeffs = []
        for term in items:
            try:
                exp, coeff = term
                exp = tuple(exp)
            except (TypeError, ValueError):
                raise PolySyntaxError(f"a polynomial term is an (exponent "
                                      f"tuple, coefficient) pair, not "
                                      f"{term!r}") from None
            if len(exp) != chart.dim:
                raise PolySyntaxError(
                    f"exponent tuple {exp!r} has wrong length for chart {chart.coords!r}"
                )
            if not all(isinstance(e, int) for e in exp):
                raise PolySyntaxError(f"exponent tuple {exp!r} has an entry "
                                      f"that is not an int")
            if any(e < 0 for e in exp):
                raise NegativeExponent(f"negative exponent in {exp!r}")
            coeffs.append((exp, chart.coerce(coeff)))
        den = math.lcm(*[c._den for _, c in coeffs])
        sums: Dict = {}
        for exp, c in coeffs:
            _monomial_products(sums, {exp: den // c._den}, c._num, 1)
        return cls._make(chart, sums, den)

    @classmethod
    def _make(cls, chart: Chart, num: Dict[Exponent, int], den: int = 1) -> "Poly":
        # Internal fast path: the polynomial of the nonzero integer
        # numerators `num` over the positive denominator `den`.  The one
        # place a denominator is reduced: numerators and denominator are
        # divided by their gcd.  No terms is the chart's shared zero.
        if not num:
            return chart._zero
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: n // g for e, n in num.items()}
        self = object.__new__(cls)
        self.chart = chart
        self._num, self._den = num, den
        self._hash = self._gradient = None
        return self

    # -- basic queries -------------------------------------------------------

    @property
    def terms(self) -> Dict[Exponent, Scalar]:
        """The coefficients, ``{exponent: c}``, each ``c`` an ``int`` when
        it is integral and a ``Fraction`` otherwise: the numerator map
        itself when the polynomial is integral, else a new map built from
        the numerators on each read.  Never write into it: an integral
        polynomial's is its stored numerator map."""
        den = self._den
        if den == 1:
            return self._num
        return {e: _coefficient(n, den) for e, n in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not any(map(any, self._num))

    def constant_value(self) -> Scalar:
        """The coefficient of the constant monomial: an ``int`` when it is
        integral (``0`` when there is none), otherwise a ``Fraction``."""
        return _coefficient(self._num.get(self.chart._origin, 0), self._den)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly) and (other.chart is self.chart
                                         or other.chart == self.chart):
            return other
        if isinstance(other, (Poly, int, Fraction)):
            return self.chart.coerce(other)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.chart, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._plus(other, -1)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """``self + sign·other``, ``sign`` ±1: the numerators brought to the
        lcm of the two denominators and summed by :func:`accumulate`."""
        if not other._num:
            return self
        if not self._num and sign == 1:
            return other
        da, db = self._den, other._den
        den = da if da == db else math.lcm(da, db)
        start = self._num if den == da else dict(_scaled(self, den // da))
        return Poly._make(self.chart, accumulate(_scaled(other, sign * (den // db)),
                                                 start), den)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = self, other
        if not p._num or not q._num:
            return self.chart._zero
        origin = self.chart._origin
        # `p` is the constant side if there is one, else the shorter side
        if len(p._num) > len(q._num) or len(q._num) == 1 and origin in q._num:
            p, q = q, p
        a = p._num
        if len(a) == 1 and origin in a:
            # scaling by a nonzero constant keeps every term and every key
            c = a[origin]
            return Poly._make(self.chart, {e: v * c for e, v in q._num.items()},
                              p._den * q._den)
        return products(self.chart, ((None, 1, p, q),)).get(None, self.chart._zero)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n.__class__ is bool or n < 0:
            raise NegativeExponent(f"polynomial power must be a nonnegative int, got {n!r}")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.chart.one() if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.chart == other.chart and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.chart.coords, self._den,
                               tuple(sorted(self._num.items()))))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._num)

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_string(self)!r}, chart={list(self.chart.coords)!r})"

    # -- calculus ------------------------------------------------------------

    def partial(self, name: str) -> "Poly":
        """Formal partial derivative with respect to a chart coordinate."""
        i = self.chart.index(name)
        # lowering one exponent is injective on the terms it keeps, and
        # n * e is never zero there, so nothing needs accumulating
        return Poly._make(self.chart, {
            exp[:i] + (exp[i] - 1,) + exp[i + 1:]: n * exp[i]
            for exp, n in self._num.items() if exp[i]}, self._den)

    def gradient(self) -> List[Tuple[int, "Poly"]]:
        """The nonzero first partials, as (coordinate index, partial) pairs:
        one :meth:`partial` per coordinate, for callers that apply several
        vector fields to the same function.  A constant has none and takes
        no partials.  The partials are taken on the first call and kept in
        a slot, as the hash is; each call returns a new list of them."""
        if self._gradient is None:
            self._gradient = () if self.is_constant() else tuple(
                (a, d) for a, name in enumerate(self.chart.coords)
                if (d := self.partial(name)))
        return list(self._gradient)

    def eval_at(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point given as ``{coordinate: value}``; the
        value is always a ``Fraction``, integral or not.

        Every chart coordinate must be present (``MissingCoordinate``
        otherwise) and its value an ``int`` or a ``Fraction``, the scalars
        of :meth:`Chart.coerce` (``BadPoint`` otherwise); extra keys are
        ignored so a point on a larger chart can be reused on its subcharts.
        """
        values = []
        for name in self.chart.coords:
            if name not in point:
                raise MissingCoordinate(
                    f"point does not assign a value to coordinate {name!r}"
                )
            value = point[name]
            if not isinstance(value, (int, Fraction)):
                raise BadPoint(f"the value of {name!r} is a {type(value).__name__}, "
                               f"not an int or a Fraction")
            values.append(Fraction(value))
        total = Fraction(0)
        for exp, term in self._num.items():
            for v, e in zip(values, exp):
                if e:
                    term *= v ** e
            total += term
        return total / self._den

    # -- chart transport ------------------------------------------------------

    def transport(self, new_chart: Chart, rename: Mapping[str, str] | None = None) -> "Poly":
        """Reinterpret this polynomial over ``new_chart``.

        Each coordinate of the old chart must map (via ``rename``, default the
        identity) to a coordinate of the new chart.  Used when pulling
        coefficients back along chart extensions (tangent lifts, dual-bundle
        charts) and when permuting coordinate order between equivalent charts.

        The column of new indices comes from a bounded table, filled once per
        (renamed coordinates, new chart).  Along a chart extension each
        exponent gets zeros appended; an injective column moves the terms
        without summing; only a merging rename (two coordinates onto one)
        sums colliding terms with :func:`accumulate`.
        """
        names = self.chart.coords
        if rename:
            names = tuple(rename.get(name, name) for name in names)
            for name in names:
                if not isinstance(name, str):
                    # no coordinate: raise before the table hashes the name
                    new_chart.index(name)
        column, pad, injective = _transport_column(names, new_chart)
        if pad is not None:
            # the new chart extends the old one: append zero exponents
            return Poly._make(new_chart, {exp + pad: n
                                          for exp, n in self._num.items()}, self._den)
        dim = new_chart.dim

        def moved():
            for exp, n in self._num.items():
                new_exp = [0] * dim
                for j, e in zip(column, exp):
                    new_exp[j] += e
                yield tuple(new_exp), n

        # an injective column moves distinct exponents to distinct ones; a
        # merging rename adds exponents up, so its terms may collide
        return Poly._make(new_chart, dict(moved()) if injective else accumulate(moved()),
                          self._den)


def _coefficient(n: int, den: int) -> Scalar:
    """The coefficient ``n/den``: an ``int`` when ``den`` divides ``n``,
    otherwise a ``Fraction``."""
    q, r = divmod(n, den)
    return Fraction(n, den) if r else q


#: Most (coordinate names, target chart) pairs whose transport column is
#: kept.  A ``suite --name all`` round over both shipped models meets 31.
_TRANSPORT_TABLE_SIZE = 64


@lru_cache(maxsize=_TRANSPORT_TABLE_SIZE)
def _transport_column(names: Tuple[str, ...], chart: Chart):
    """The index in ``chart`` of each of ``names``; the zero exponents to
    append when those indices are ``0, 1, …`` (``chart`` extends the named
    chart), else None; and whether no two names share an index."""
    column = tuple(chart.index(name) for name in names)
    pad = None
    if column == tuple(range(len(column))):
        pad = (0,) * (chart.dim - len(column))
    return column, pad, len(set(column)) == len(column)


# -- the accumulation kernel ---------------------------------------------------

def _scaled(p: Poly, scale: int):
    """The (exponent, numerator) pairs of ``p``, each numerator times
    ``scale``."""
    if scale == 1:
        return p._num.items()
    return ((e, n * scale) for e, n in p._num.items())


def accumulate(pairs: Iterable[Tuple[object, object]],
               start: Mapping = ()) -> Dict:
    """Sum (key, coefficient) pairs into a copy of the term map ``start``,
    dropping every key whose coefficients cancel to zero.  The one
    accumulation loop of the package: coefficients are ``int`` (the
    numerators of a polynomial, over a denominator the caller keeps) or
    ``Poly`` (the terms of a tensor), and both are falsy exactly at
    zero."""
    acc = dict(start)
    for key, coeff in pairs:
        prev = acc.get(key)
        if prev is not None:
            coeff = prev + coeff
        if coeff:
            acc[key] = coeff
        else:
            acc.pop(key, None)
    return acc


def _monomial_products(target: Dict[Exponent, Scalar], a: Mapping[Exponent, Scalar],
                       b: Mapping[Exponent, Scalar], sign: int) -> None:
    """Add ``sign`` times the product of the term maps ``a`` and ``b`` into
    the term map ``target``, term by term, dropping every exponent whose
    sum cancels: the one place monomial exponents are added.  A constant
    term keeps the other factor's exponents, so a constant factor adds
    none."""
    if len(a) > len(b):  # the shorter factor is the outer loop
        a, b = b, a
    add, get = operator.add, target.get
    for ea, ca in a.items():
        ca *= sign
        shift = any(ea)
        for e, cb in b.items():
            if shift:
                e = tuple(map(add, ea, e))
            c = get(e, 0) + ca * cb
            if c:
                target[e] = c
            else:  # every coefficient is nonzero, so `e` was there
                del target[e]


def products(chart: Chart, items: Iterable[Tuple[object, int, Poly, Poly]]) -> Dict:
    """The term map ``{key: sum of sign·a·b}`` over ``(key, sign, a, b)``
    items, ``a`` and ``b`` polynomials over ``chart`` and ``sign`` a
    nonzero int.

    One pass over the items sums each item's monomial products straight
    into the term map of its key, with no polynomial built per item.  The
    sums are integer numerators over one running common denominator
    ``den``: each factor gives its numerators over its own denominator
    (``_num`` and ``_den``), an item whose denominator product divides
    ``den`` is scaled up to it, and one that does not first rescales the
    partial sums to the lcm.  Each key's sums are reduced against ``den``
    by one gcd at the end, and no call builds a ``Fraction``.  A key whose
    products cancel is left out, so the result is a canonical tensor term
    map."""
    grouped: Dict = {}
    den = 1
    for key, sign, a, b in items:
        na, nb = a._num, b._num
        d = a._den * b._den
        if d != den:
            # factors with different denominators: bring the partial sums to
            # the new lcm.  Not rare (about half the items of a rational
            # document's lifts and brackets); per-denominator buckets were
            # measured slower, and a per-key rescale not clearly faster.
            if den % d:
                scale = d // math.gcd(den, d)
                den *= scale
                for terms in grouped.values():
                    for e in terms:
                        terms[e] *= scale
            sign *= den // d
        terms = grouped.get(key)
        if terms is None:
            terms = grouped[key] = {}
        _monomial_products(terms, na, nb, sign)
    return {key: Poly._make(chart, terms, den) for key, terms in grouped.items() if terms}


def poly_sum(chart: Chart, pieces: Iterable[Poly]) -> Poly:
    """The sum of ``pieces``, all over ``chart``, in one pass of the
    accumulation kernel (a chain of ``+`` copies the running sum on every
    addition), their numerators brought to the lcm of their
    denominators."""
    pieces = list(pieces)
    den = math.lcm(*[p._den for p in pieces])
    return Poly._make(chart, accumulate(chain.from_iterable(
        _scaled(p, den // p._den) for p in pieces)), den)


# -- function spellings of Poly.partial and Poly.eval_at ----------------------

def partial(p: Poly, var: str) -> Poly:
    """Partial derivative of ``p`` with respect to coordinate ``var``."""
    return p.partial(var)


def eval_at(p: Poly, point: Mapping[str, Scalar]) -> Fraction:
    """Evaluate ``p`` at a rational point ``{coordinate: value}``."""
    return p.eval_at(point)


# -- parsing -----------------------------------------------------------------

#: Deepest parenthesis nesting :func:`parse_poly` accepts.  The parser
#: recurses once per level, so the bound keeps hostile input from exhausting
#: the interpreter stack.
MAX_NESTING_DEPTH = 100

#: Largest exponent literal :func:`parse_poly` accepts.
MAX_EXPONENT = 100

#: Most terms a product or power in an expression may expand to, counted
#: before expanding: ``len(a) * len(b)`` for a product and
#: ``comb(e + t - 1, t - 1)`` for a ``t``-term base to the power ``e``.
MAX_TERMS = 500

#: Most terms all the products and powers of one :func:`parse_poly` call may
#: expand to together, each charged as counted for :data:`MAX_TERMS`, so
#: repeating an accepted power does not repeat its cost without bound.  A
#: product or power of single terms is free: its cost is linear in the text,
#: and every printed polynomial (a sum of such monomials) stays parseable.
MAX_EXPANSION = 2000

#: Most bits a power may raise its base's largest numerator or denominator
#: to (``e`` times that bit length); nested powers of a constant would
#: otherwise grow without bound under the exponent limit.
MAX_COEFFICIENT_BITS = 10000

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)|(?P<bad>.))", re.S)

#: Most significant digits an exponent literal can have and still be at
#: most :data:`MAX_EXPONENT`.
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))


def _tokenize(text: str) -> List[Tuple[str | None, str | None, int]]:
    """The (kind, value, position) tokens of ``text`` in one regex pass,
    ending in the sentinel ``(None, None, len(text))``.  An operator is its
    own value, which no literal or identifier equals."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            break
        if kind == "bad":
            raise PolySyntaxError(f"unexpected character {m[kind]!r}", position=m.start())
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append((None, None, len(text)))
    return tokens


def _integer(value: str, at: int) -> int:
    """The integer literal ``value`` at position ``at``; one longer than
    ``int()`` reads raises ``PolySyntaxError`` there."""
    try:
        return int(value)
    except ValueError:
        raise PolySyntaxError(f"integer literal of {len(value)} digits is too long",
                              position=at) from None


def _check_bits(e: int, bits: int, at: int) -> None:
    """Refuse, at position ``at``, the power ``e`` of a base whose largest
    numerator or denominator has ``bits`` bits if it would pass
    :data:`MAX_COEFFICIENT_BITS`."""
    if e * bits > MAX_COEFFICIENT_BITS:
        raise PolySyntaxError(
            f"power may grow a coefficient past {MAX_COEFFICIENT_BITS} "
            f"bits", position=at)


class _Parser:
    """Recursive-descent reader of the expression grammar in the module doc.

    The tokens are read by index.  A term keeps its single factors
    (rational literals, coordinates and their powers) as one numerator, one
    denominator and one exponent list; only a parenthesised sum is a
    :class:`Poly`, multiplied in with ``*`` and ``**``.  An expression sums
    its terms' numerators over the lcm of their denominators in one
    :func:`accumulate` call."""

    __slots__ = ("chart", "tokens", "i", "depth", "expansion")

    def __init__(self, text: str, chart: Chart):
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.expansion = 0

    def charge(self, terms: int, at: int) -> None:
        """Count ``terms`` against the expression's :data:`MAX_EXPANSION`."""
        if terms < 2:
            return
        self.expansion += terms
        if self.expansion > MAX_EXPANSION:
            raise PolySyntaxError(
                f"expression may expand to more than {MAX_EXPANSION} terms in "
                f"all", position=at)

    def parse(self) -> Poly:
        result = self.expr()
        _, value, at = self.tokens[self.i]
        if value is not None:
            raise PolySyntaxError(f"unexpected trailing {value!r}", position=at)
        return result

    def expr(self) -> Poly:
        items: List = []
        tokens = self.tokens
        sign = 1
        while True:
            self.term(items, sign)
            value = tokens[self.i][1]
            if value == "+":
                sign = 1
            elif value == "-":
                sign = -1
            else:
                break
            self.i += 1
        if len(items) == 1:  # a single term is already summed
            key, n, d = items[0]
            return Poly._make(self.chart, {key: n}, d)
        den = math.lcm(*[d for _, _, d in items])
        return Poly._make(self.chart, accumulate(
            [(key, n) for key, n, _ in items] if den == 1
            else [(key, n * (den // d)) for key, n, d in items]), den)

    def exponent(self, i: int) -> Tuple[int, int]:
        """The exponent literal of token ``i``, after a ``^``, and its
        position."""
        kind, value, at = self.tokens[i]
        if value == "-":
            raise NegativeExponent(f"negative exponent at position {at}")
        if kind != "num":
            raise PolySyntaxError("expected a nonnegative integer exponent", position=at)
        digits = value.lstrip("0")
        if len(digits) > _EXPONENT_DIGITS:
            raise PolySyntaxError(f"exponent of {len(digits)} digits exceeds "
                                  f"{MAX_EXPONENT}", position=at)
        e = int(digits or "0")
        if e > MAX_EXPONENT:
            raise PolySyntaxError(
                f"exponent {e} exceeds {MAX_EXPONENT}", position=at)
        return e, at

    def term(self, items: List, sign: int) -> None:
        """Append to ``items`` the (exponent, numerator, denominator) triples
        of the next term times ``sign``."""
        tokens, chart = self.tokens, self.chart
        i = self.i
        num, den = sign, 1
        exps = None  # the exponent list, made at the first coordinate
        poly = None  # the product of the parenthesised factors, if any
        star = None  # the position of the '*' before the factor being read
        while True:
            kind, value, at = tokens[i]
            i += 1
            if kind == "num" or value == "-":
                if value == "-":  # a sign may open a rational literal, nothing else
                    kind, value, at = tokens[i]
                    if kind != "num":
                        raise PolySyntaxError(
                            "'-' must be followed by an integer literal here "
                            "(write -1*x for a negated coordinate)",
                            position=at,
                        )
                    i += 1
                    n = -_integer(value, at)
                else:
                    n = _integer(value, at)
                d = 1
                if tokens[i][1] == "/":
                    kind, value, at = tokens[i + 1]
                    if kind != "num":
                        raise PolySyntaxError("expected an integer denominator", position=at)
                    i += 2
                    d = _integer(value, at)
                    if d == 0:
                        raise PolySyntaxError("denominator must be positive", position=at)
                    g = math.gcd(n, d)
                    if g != 1:
                        n, d = n // g, d // g
                if tokens[i][1] == "^":
                    e, at = self.exponent(i + 1)
                    i += 2
                    _check_bits(e, max(n.bit_length(), d.bit_length()) if n else 0, at)
                    n, d = n ** e, d ** e
                factor, count = None, 1 if n else 0
            elif kind == "ident":
                index = chart._index.get(value)
                if index is None:
                    raise UnknownVariable(
                        f"{value!r} is not a coordinate of chart {chart.coords!r}"
                    )
                n = d = 1
                if exps is None:
                    exps = list(chart._origin)
                if tokens[i][1] == "^":
                    exps[index] += self.exponent(i + 1)[0]
                    i += 2
                else:
                    exps[index] += 1
                factor, count = None, 1
            elif value == "(":
                if self.depth == MAX_NESTING_DEPTH:
                    raise PolySyntaxError(
                        f"parentheses nest deeper than {MAX_NESTING_DEPTH}", position=at)
                self.depth += 1
                self.i = i
                factor = self.expr()
                _, value, at = tokens[self.i]
                if value != ")":
                    raise PolySyntaxError("expected ')'", position=at)
                self.depth -= 1
                i = self.i + 1
                if tokens[i][1] == "^":
                    e, at = self.exponent(i + 1)
                    i += 2
                    factor = self.power(factor, e, at)
                n = d = 1
                count = len(factor._num)
            else:
                raise PolySyntaxError("expected a rational, coordinate, or '('",
                                      position=at)
            # the checks and charges of multiplying the product so far by
            # this factor: free unless a parenthesised factor takes part
            if star is not None and (poly is not None or factor is not None):
                terms = (len(poly._num) if poly is not None else 1) * count if num else 0
                if terms > MAX_TERMS:
                    raise PolySyntaxError(
                        f"product may expand to more than {MAX_TERMS} terms",
                        position=star)
                self.charge(terms, star)
            if num:
                num *= n
                den *= d
                if factor is not None:
                    poly = factor if poly is None else poly * factor
                    if not poly._num:
                        num = 0
            _, value, star = tokens[i]
            if value != "*":
                break
            i += 1
        self.i = i
        if not num:
            return
        # a constant keeps the chart's one zero exponent, as Chart.coerce does
        key = chart._origin if exps is None else tuple(exps)
        if poly is None:
            items.append((key, num, den))
            return
        if num != den or exps is not None:
            poly = poly * Poly._make(chart, {key: num}, den)
        den = poly._den
        items.extend([(e, n, den) for e, n in poly._num.items()])

    def power(self, base: Poly, e: int, at: int) -> Poly:
        """``base ** e`` for a parenthesised ``base``, checked and charged."""
        t = max(1, len(base._num))
        terms = math.comb(e + t - 1, t - 1)
        if terms > MAX_TERMS:
            raise PolySyntaxError(
                f"power may expand to more than {MAX_TERMS} terms", position=at)
        den, bits = base._den, 0
        for n in base._num.values():
            g = math.gcd(n, den)  # the coefficient n/den in lowest terms
            bits = max(bits, (n // g).bit_length(), (den // g).bit_length())
        _check_bits(e, bits, at)
        self.charge(terms, at)
        return base ** e


def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse an expression string into a canonical :class:`Poly`."""
    return _Parser(text, chart).parse()


# -- canonical printing ------------------------------------------------------

def poly_to_string(p: Poly) -> str:
    """Canonical string form: descending lexicographic monomial order, and
    grammar-safe signs (a leading negative term prints its coefficient, e.g.
    ``-1*x``, because bare ``-x`` is not in the grammar).  Each term's
    magnitude is read off its numerator and ``_den`` with one gcd, spelled
    as ``str`` spells the coefficient's ``int`` or ``Fraction``."""
    num = p._num
    if not num:
        return "0"
    den = p._den
    names = p.chart.coords
    pieces = []
    for exp in sorted(num, reverse=True):
        n = num[exp]
        negative = n < 0
        if negative:
            n = -n
        if den == 1:
            mag = str(n)
        else:
            g = math.gcd(n, den)
            mag = str(n // g) if g == den else f"{n // g}/{den // g}"
        mono = "*".join([name if e == 1 else f"{name}^{e}"
                         for name, e in zip(names, exp) if e])
        if not mono:
            body = mag
        elif mag == "1" and (pieces or not negative):
            body = mono  # "-x" is not parseable; "-1*x" is
        else:
            body = f"{mag}*{mono}"
        if pieces:
            pieces.append(f" - {body}" if negative else f" + {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return "".join(pieces)
