"""The expression reader and canonical printer of ``algebroids.ring`` as
they were before the reader and the printer became one-pass, and its
product kernel as it was before it became one pass, kept verbatim below
the imports as the reference of ``tests/test_ring.py``'s differential
tests.  Only the tests import it.  Since polynomials store their
numerators over one denominator, the kernel reads each factor's ``_den``
slot, always set, and builds each result with the public constructor."""

import math
import operator
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

from algebroids.errors import NegativeExponent, PolySyntaxError, UnknownVariable
from algebroids.ring import (
    MAX_COEFFICIENT_BITS,
    MAX_EXPANSION,
    MAX_EXPONENT,
    MAX_NESTING_DEPTH,
    MAX_TERMS,
    Chart,
    Exponent,
    Poly,
    Scalar,
    accumulate,
    poly_sum,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolySyntaxError(
                f"unexpected character {stripped[0]!r}", position=pos
            )
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar in the module doc."""

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.expansion = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None, len(self.text))

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise PolySyntaxError(f"expected {op!r}", position=at)
        self.advance()

    def charge(self, terms: int, at: int) -> None:
        """Count ``terms`` against the expression's :data:`MAX_EXPANSION`."""
        if terms < 2:
            return
        self.expansion += terms
        if self.expansion > MAX_EXPANSION:
            raise PolySyntaxError(
                f"expression may expand to more than {MAX_EXPANSION} terms in "
                f"all", position=at)

    def at_op(self, *ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def parse(self) -> Poly:
        result = self.expr()
        kind, value, at = self.peek()
        if kind is not None:
            raise PolySyntaxError(f"unexpected trailing {value!r}", position=at)
        return result

    def expr(self) -> Poly:
        pieces = [self.term()]
        while self.at_op("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            pieces.append(rhs if op == "+" else -rhs)
        return poly_sum(self.chart, pieces)

    def term(self) -> Poly:
        result = self.factor()
        while self.at_op("*"):
            at = self.advance()[2]
            rhs = self.factor()
            terms = len(result.terms) * len(rhs.terms)
            if terms > MAX_TERMS:
                raise PolySyntaxError(
                    f"product may expand to more than {MAX_TERMS} terms",
                    position=at)
            self.charge(terms, at)
            result = result * rhs
        return result

    def factor(self) -> Poly:
        base = self.base()
        if self.at_op("^"):
            self.advance()
            kind, value, at = self.peek()
            if kind == "op" and value == "-":
                raise NegativeExponent(
                    f"negative exponent at position {at} in {self.text!r}"
                )
            if kind != "num":
                raise PolySyntaxError("expected a nonnegative integer exponent", position=at)
            self.advance()
            return self.power(base, int(value), at)
        return base

    def power(self, base: Poly, e: int, at: int) -> Poly:
        if e > MAX_EXPONENT:
            raise PolySyntaxError(
                f"exponent {e} exceeds {MAX_EXPONENT}", position=at)
        t = max(1, len(base.terms))
        terms = math.comb(e + t - 1, t - 1)
        if terms > MAX_TERMS:
            raise PolySyntaxError(
                f"power may expand to more than {MAX_TERMS} terms", position=at)
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in base.terms.values()), default=0)
        if e * bits > MAX_COEFFICIENT_BITS:
            raise PolySyntaxError(
                f"power may grow a coefficient past {MAX_COEFFICIENT_BITS} "
                f"bits", position=at)
        self.charge(terms, at)
        return base ** e

    def base(self) -> Poly:
        kind, value, at = self.peek()
        if kind == "op" and value == "-":
            # A sign may open a rational literal, nothing else.
            self.advance()
            kind, value, at = self.peek()
            if kind != "num":
                raise PolySyntaxError(
                    "'-' must be followed by an integer literal here "
                    "(write -1*x for a negated coordinate)",
                    position=at,
                )
            return -self.rational()
        if kind == "num":
            return self.rational()
        if kind == "ident":
            self.advance()
            if value not in self.chart:
                raise UnknownVariable(
                    f"{value!r} is not a coordinate of chart {self.chart.coords!r}"
                )
            return self.chart.coordinate(value)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING_DEPTH:
                raise PolySyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING_DEPTH}", position=at)
            self.depth += 1
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise PolySyntaxError("expected a rational, coordinate, or '('", position=at)

    def rational(self) -> Poly:
        kind, value, at = self.peek()
        if kind != "num":
            raise PolySyntaxError("expected an integer literal", position=at)
        self.advance()
        numerator = int(value)
        if self.at_op("/"):
            self.advance()
            kind, value, at = self.peek()
            if kind != "num":
                raise PolySyntaxError("expected an integer denominator", position=at)
            self.advance()
            if int(value) == 0:
                raise PolySyntaxError("denominator must be positive", position=at)
            return self.chart.const(Fraction(numerator, int(value)))
        return self.chart.const(numerator)


def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse an expression string into a canonical :class:`Poly`."""
    return _Parser(text, chart).parse()


# -- canonical printing ------------------------------------------------------

def _monomial_string(chart: Chart, exp: Exponent) -> str:
    parts = []
    for name, e in zip(chart.coords, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_to_string(p: Poly) -> str:
    """Canonical string form: descending lexicographic monomial order, and
    grammar-safe signs (a leading negative term prints its coefficient, e.g.
    ``-1*x``, because bare ``-x`` is not in the grammar)."""
    if not p.terms:
        return "0"
    pieces = []
    for exp in sorted(p.terms, reverse=True):
        coeff = p.terms[exp]
        mono = _monomial_string(p.chart, exp)
        first = not pieces
        mag = -coeff if coeff < 0 else coeff
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if first:
            if coeff < 0:
                # "-x" is not parseable; "-1*x" and "-3/2" are.
                pieces.append(f"-{mag}*{mono}" if mono else f"-{mag}")
            else:
                pieces.append(body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


# -- the product kernel ---------------------------------------------------------

def _cleared(p: Poly, den: int) -> Poly:
    """The integral polynomial ``den·p``, for a multiple ``den`` of the
    denominator of ``p``: its coefficients are those of ``p`` brought to
    the common denominator ``den``, numerators only."""
    if den == 1:  # an integral polynomial is its own numerators
        return p
    terms = {}
    for e, c in p.terms.items():
        n, d = c.as_integer_ratio()
        terms[e] = n * (den // d)
    return Poly._make(p.chart, terms, 1)


def _over(sums: Mapping, den: int) -> Dict:
    """The integer sums of a term map, each divided by ``den`` once, in the
    stored form: an ``int`` when ``den`` divides it, else a ``Fraction``."""
    return {key: c // den if not c % den else Fraction(c, den)
            for key, c in sums.items()}


def _monomial_products(a: Mapping[Exponent, Scalar], b: Mapping[Exponent, Scalar]):
    """The (exponent, coefficient) pairs of the term-by-term product of the
    term maps ``a`` and ``b``, unsummed: the one place monomial exponents
    are added."""
    add = operator.add
    return ((tuple(map(add, ea, eb)), ca * cb)
            for ea, ca in a.items() for eb, cb in b.items())


def _signed_products(items: Iterable[Tuple[object, int, Poly, Poly]], origin: Exponent,
                     aside: List):
    """The ((key, exponent), coefficient) pairs of every ``sign·a·b`` over
    :func:`products` items with two integral factors, unsummed; ``sign`` is
    any nonzero int.  Each item with a non-integral factor is appended to
    ``aside`` instead."""
    for key, sign, a, b in items:
        if a._den * b._den != 1:
            aside.append((key, sign, a, b))
            continue
        a, b = a.terms, b.terms
        # `a` is the constant side if there is one, as in Poly.__mul__
        if len(a) > len(b) or len(b) == 1 and origin in b:
            a, b = b, a
        if len(a) == 1 and origin in a:
            c = a[origin] * sign
            for e, v in b.items():
                yield (key, e), v * c
        else:
            if sign != 1:  # scale the shorter factor, once
                a = {e: c * sign for e, c in a.items()}
            for e, v in _monomial_products(a, b):
                yield (key, e), v


def products(chart: Chart, items: Iterable[Tuple[object, int, Poly, Poly]]) -> Dict:
    """The term map ``{key: sum of sign·a·b}`` over ``(key, sign, a, b)``
    items, ``a`` and ``b`` polynomials over ``chart`` and ``sign`` ±1.

    Every monomial product is summed straight into the result, keyed by
    (key, exponent), in one pass of :func:`accumulate` and then grouped by
    key: no polynomial is built per item.  The items with two integral
    factors are summed as ints.  Those with a non-integral factor are set
    aside and then summed, in a second pass that starts from the first,
    as integer numerators over one common denominator ``den`` (the lcm of
    their factors' denominator products); each sum is divided by ``den``
    once at the end.  A key whose products cancel is left out, so the
    result is a canonical tensor term map."""
    aside: List = []
    sums = accumulate(_signed_products(items, chart._origin, aside))
    if aside:  # every factor set aside has its denominator in its slot
        den = math.lcm(*(a._den * b._den for _, _, a, b in aside))
        cleared = ((key, sign * (den // (a._den * b._den)), _cleared(a, a._den),
                    _cleared(b, b._den)) for key, sign, a, b in aside)
        # the cleared factors are integral: this pass appends nothing to aside
        sums = _over(accumulate(_signed_products(cleared, chart._origin, aside),
                                {k: c * den for k, c in sums.items()}), den)
    grouped: Dict = {}
    for (key, e), c in sums.items():
        terms = grouped.get(key)
        if terms is None:
            grouped[key] = {e: c}
        else:
            terms[e] = c
    for key, terms in grouped.items():  # replaces values only: no resize
        grouped[key] = Poly(chart, terms)
    return grouped
