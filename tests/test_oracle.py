"""The ring layer against an independent engine: sympy's sparse polynomials.

Every identity of the package is decided as a literal zero of
``algebroids.ring``, so its arithmetic is checked here against
``sympy.polys.rings.ring("x,y", QQ)``, which shares no code with it: the
product kernel ``products``, ``Poly.__mul__`` and ``partial`` on random term
maps; the printer, by having sympy read each printed text back; and the
reader, on generated texts where the two grammars agree.  Each check also
asserts the stored form of every result (``_stored_exactly`` and
``_den_is_right`` of ``tests/test_ring.py``).

The grammars differ in one respect: ours reads a sign or a ``/`` before a
literal as part of the literal, so ``-3^2`` is 9 and ``2/3^2`` is 4/9, where
sympy reads -9 and 2/9.  The generated texts therefore parenthesise every
literal that takes a power; ``tests/test_ring.py`` pins those readings and
the reader's error classes and positions, of which sympy knows nothing.
This is the only test module that imports ``sympy``; the timing test of
distinct prime denominators in ``tests/test_ring.py`` borrows its helpers.
"""

import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.parsing.sympy_parser import auto_number, convert_xor, parse_expr
from sympy.polys.rings import ring

from algebroids.ring import Poly, parse_poly, poly_to_string, products
from test_ring import (
    _COEFFICIENTS, _MIXED, _MIXED_ITEMS, _MIXED_MAPS, XY, _den_is_right, _stored_exactly,
)

R, SX, SY = ring("x,y", QQ)

#: sympy's reading of our texts: ``x`` and ``y`` are its symbols, an integer
#: literal is a sympy ``Integer`` (so ``3/2`` is exact) and ``^`` is a power.
_SYMBOLS = dict(zip(("x", "y"), R.symbols))
_SYMPY_TEXT = (auto_number, convert_xor)


def _sympy(terms):
    """The term map ``{exponent: coefficient}`` over XY as a sympy polynomial."""
    return R({e: QQ(c.numerator, c.denominator) for e, c in terms.items()})


def _sympy_read(text):
    """sympy's polynomial for the expression ``text`` over x and y."""
    return R.from_expr(parse_expr(text, local_dict=_SYMBOLS, transformations=_SYMPY_TEXT))


def _sums(items):
    """The oracle's ``{key: sum of sign·a·b}`` over (key, sign, a, b) items of
    sympy polynomials, each key whose sum is zero left out."""
    sums = {}
    for key, sign, a, b in items:
        sums[key] = sums.get(key, R.zero) + sign * a * b
    return {key: s for key, s in sums.items() if s}


def _assert_matches(result, expected):
    """``result``, a ``products`` term map, is the oracle's ``expected`` and
    each of its polynomials has the stored form."""
    assert {key: _sympy(q.terms) for key, q in result.items()} == expected
    for q in result.values():
        assert q.terms and q.chart is XY and _stored_exactly(q) and _den_is_right(q)


# --- products and partials -----------------------------------------------------

#: Coefficients by call kind: integral, rational (an integral one is
#: stored as an ``int``) and mixed, of both signs; denominators up to 12
#: often do not divide one another, which makes the kernel rescale its
#: partial sums.
_KERNEL_COEFFICIENTS = {
    "integral": st.integers(-5, 5).filter(bool),
    "rational": st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 12)),
    "mixed": _MIXED,
}
_MONOMIALS = st.tuples(st.integers(0, 2), st.integers(0, 2))

#: Term maps of factors of each kind: general ones, constants and the zero.
_KERNEL_FACTORS = {kind: st.lists(st.one_of(
    st.dictionaries(_MONOMIALS, coefficient, max_size=4),
    st.dictionaries(st.just((0, 0)), coefficient, min_size=1, max_size=1)),
    min_size=1, max_size=5) for kind, coefficient in _KERNEL_COEFFICIENTS.items()}

#: Items over ``n`` factors: a key, a sign other than ±1 as well, and the
#: indices of the two factors.  Built once per ``n``, so that hypothesis
#: works out each strategy's properties once.
_PICKS = {n: st.lists(st.tuples(
    st.sampled_from(["a", "b", (0, 1)]), st.sampled_from([1, -1, 2, -3]),
    st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8) for n in range(1, 6)}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_product_kernel_matches_the_oracle(data):
    """Items share factor objects, take signs other than ±1 and, when
    mirrored, cancel every key."""
    kind = data.draw(st.sampled_from(sorted(_KERNEL_COEFFICIENTS)))
    factors = data.draw(_KERNEL_FACTORS[kind])
    picks = data.draw(_PICKS[len(factors)])
    if data.draw(st.booleans()):  # each item mirrored: every key cancels
        picks += [(key, -sign, j, i) for key, sign, i, j in picks]
    polys = [Poly(XY, terms) for terms in factors]
    oracle = [_sympy(terms) for terms in factors]
    result = products(XY, iter([(key, sign, polys[i], polys[j])
                                for key, sign, i, j in picks]))
    _assert_matches(result, _sums([(key, sign, oracle[i], oracle[j])
                                   for key, sign, i, j in picks]))


@settings(max_examples=300, deadline=None)
@given(_MIXED_ITEMS)
def test_rational_products_match_the_oracle(items):
    polys = [(key, sign, Poly(XY, a), Poly(XY, b)) for key, sign, a, b in items]
    _assert_matches(products(XY, iter(polys)),
                    _sums([(key, sign, _sympy(a), _sympy(b)) for key, sign, a, b in items]))
    # each item mirrored with the other sign: every key cancels
    assert products(XY, polys + [(key, -sign, b, a) for key, sign, a, b in polys]) == {}


@settings(max_examples=300, deadline=None)
@given(_MIXED_MAPS, _MIXED_MAPS)
def test_poly_mul_and_partial_match_the_oracle(a, b):
    pa, pb = Poly(XY, a), Poly(XY, b)
    product = pa * pb
    expected = _sympy(a) * _sympy(b)
    assert _sympy(product.terms) == expected
    assert _stored_exactly(product) and _den_is_right(product)
    assert product == pb * pa
    for q, s in ((pa, _sympy(a)), (product, expected)):
        for name, generator in (("x", SX), ("y", SY)):
            d = q.partial(name)
            assert _sympy(d.terms) == s.diff(generator)
            assert _stored_exactly(d) and _den_is_right(d)


# --- the printer ---------------------------------------------------------------

#: A coefficient of either stored type, or 1 or -1 as an int or as a
#: ``Fraction``, which the printer leaves out before a monomial.
_PRINTED_COEFFICIENTS = st.one_of(
    _COEFFICIENTS, st.sampled_from([1, -1, Fraction(1), Fraction(-1)]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       _PRINTED_COEFFICIENTS, max_size=8))
def test_the_oracle_reads_back_what_the_printer_writes(terms):
    """sympy reads the printed text as the polynomial, and our reader as
    the same stored form; the terms come in descending monomial order, and
    each coefficient is spelled in lowest terms, a unit one only as the
    ``-1*`` of a leading term."""
    q = Poly(XY, terms)
    text = poly_to_string(q)
    assert _sympy_read(text) == _sympy(terms)
    read = parse_poly(text, XY)
    assert read == q and _stored_exactly(read) and _den_is_right(read)
    if q:
        spelled = [dict(re.findall(r"([xy])\^?([0-9]*)", piece))
                   for piece in re.split(r" [+-] ", text)]
        assert [tuple(int(powers[v] or 1) if v in powers else 0 for v in "xy")
                for powers in spelled] == sorted(q._num, reverse=True)
    for literal in re.findall(r"(?<![\w^])[0-9]+(?:/[0-9]+)?", text):
        assert str(Fraction(literal)) == literal
    assert re.search(r"(?<![\d/])1\*", text.removeprefix("-1*")) is None


# --- the reader ----------------------------------------------------------------

#: Integer literals of either sign, over a positive denominator or not.
_LITERALS = [f"{n}/{d}" if d > 1 else str(n) for n in range(-12, 13) for d in range(1, 10)]

#: Factors of one term each: a literal, a coordinate to a power or not, and
#: a parenthesised literal to a power (a bare one reads differently).  Each
#: is one draw from a list of texts.
_MONOMIAL_FACTORS = st.one_of(
    st.sampled_from(_LITERALS),
    st.sampled_from([name + power for name in "xy" for power in ("", "^0", "^1", "^2", "^3")]),
    st.sampled_from([f"({literal})^{e}" for literal in _LITERALS for e in range(4)]))


def _sums_of_products(factors):
    """Texts of one to three terms, each a product of one to three
    ``factors``, joined by either operator with or without spaces."""
    terms = st.lists(factors, min_size=1, max_size=3).map("*".join)
    return st.builds(lambda first, rest: first + "".join(op + t for op, t in rest),
                     terms, st.lists(st.tuples(st.sampled_from([" + ", " - ", "+", "-"]),
                                               terms), max_size=2))


#: Sums of products of monomial factors and of parenthesised such sums, to
#: the power 0, 1 or 2 or none: at most 6 terms a power and 216 a product,
#: 810 in all, under ``MAX_TERMS`` and ``MAX_EXPANSION``, so every text is
#: read.
_READER_TEXTS = _sums_of_products(st.one_of(
    _MONOMIAL_FACTORS,
    st.builds("({}){}".format, _sums_of_products(_MONOMIAL_FACTORS),
              st.sampled_from(["", "^0", "^1", "^2"]))))


@settings(max_examples=400, deadline=None)
@given(_READER_TEXTS)
def test_the_reader_matches_the_oracle(text):
    q = parse_poly(text, XY)
    assert _sympy(q.terms) == _sympy_read(text)
    assert _stored_exactly(q) and _den_is_right(q)

