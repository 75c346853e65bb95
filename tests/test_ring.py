"""Ring layer: chart/polynomial arithmetic, the expression grammar, printing."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebroids.ring
import ring_reference
from algebroids.errors import (
    AlgebroidError,
    BadPoint,
    ChartMismatch,
    MissingCoordinate,
    NegativeExponent,
    PolySyntaxError,
    UnknownVariable,
)
from algebroids.model import dumps_model, loads_model
from algebroids.ring import (
    MAX_EXPANSION,
    MAX_EXPONENT,
    MAX_NESTING_DEPTH,
    MAX_TERMS,
    Chart,
    Poly,
    accumulate,
    eval_at,
    parse_poly,
    partial,
    poly_to_string,
    products,
)

XY = Chart(["x", "y"])
X = Chart(["x"])
POINT = Chart([])


def p(text, chart=XY):
    return parse_poly(text, chart)


# --- parsing ----------------------------------------------------------------

def test_parse_basic_forms():
    assert p("0").is_zero()
    assert p("3/2") == Fraction(3, 2)
    assert p("-3/2") == Fraction(-3, 2)
    assert p("x + y") == XY.coordinate("x") + XY.coordinate("y")
    assert p("x^2*y") == XY.coordinate("x") ** 2 * XY.coordinate("y")
    assert p("(x + y)^2") == p("x^2 + 2*x*y + y^2")
    assert p("2 - 3") == -1
    assert p("3 - -2") == 5
    assert p("2 * -3") == -6
    assert p("x^0") == 1


def test_parse_whitespace_is_ignored():
    assert p(" x +\t2*y ") == p("x+2*y")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolySyntaxError):
        p("2x")
    with pytest.raises(PolySyntaxError):
        p("x y")
    with pytest.raises(PolySyntaxError):
        p("2(x)")


def test_parse_rejects_bare_negated_variable():
    # The grammar only allows '-' to open an integer literal.
    with pytest.raises(PolySyntaxError):
        p("-x")
    with pytest.raises(PolySyntaxError):
        p("-(x)")
    assert p("-1*x") == -p("x")
    assert p("0 - x") == -p("x")


def test_parse_error_classes():
    with pytest.raises(UnknownVariable):
        p("z")
    with pytest.raises(NegativeExponent):
        p("x^-1")
    with pytest.raises(PolySyntaxError):
        p("x^(2)")
    with pytest.raises(PolySyntaxError):
        p("x +")
    with pytest.raises(PolySyntaxError):
        p("x + + y")
    with pytest.raises(PolySyntaxError):
        p("(x")
    with pytest.raises(PolySyntaxError):
        p("x)")
    with pytest.raises(PolySyntaxError):
        p("1/0")
    with pytest.raises(PolySyntaxError):
        p("x/2")  # '/' only joins integer literals
    with pytest.raises(PolySyntaxError):
        p("")
    with pytest.raises(PolySyntaxError):
        p("٣*x", X)  # digits are ASCII only


def test_parenthesis_nesting_is_bounded():
    deep = MAX_NESTING_DEPTH
    assert p("(" * deep + "x" + ")" * deep) == p("x")
    with pytest.raises(PolySyntaxError) as err:
        p("(" * 3000 + "x" + ")" * 3000)
    assert err.value.position == deep


def test_expansion_is_bounded():
    # "(x+y+1)^30" expands to 496 terms, "(x+y+1)^31" to 528
    assert len(p("(x+y+1)^30").terms) == 496 <= MAX_TERMS
    cases = {
        "(x+y+1)^31": 8,              # comb(33, 2) terms
        f"x^{MAX_EXPONENT + 1}": 2,   # the exponent literal alone
        "9^1000000": 2,
        "((9^100)^100)^100": 9,       # coefficient bits, not terms
        "(x+y+1)^20*(x+y+1)^20": 10,  # 231 * 231 product terms
        # 496 terms a power: the fifth power passes the expression's budget
        "+".join(["(x+y+1)^30"] * 20): 4 * 11 + 8,
    }
    for text, position in cases.items():
        with pytest.raises(PolySyntaxError) as err:
            p(text)
        assert err.value.position == position, text
    with pytest.raises(PolySyntaxError):
        parse_poly("(x+y+z+1)^20", Chart(["x", "y", "z"]))
    assert 4 * 496 <= MAX_EXPANSION < 5 * 496
    assert len(p("+".join(["(x+y+1)^30"] * 4)).terms) == 496
    # products and powers of single terms are free, so a printed polynomial
    # of any size parses back
    q = p("(x+y+1)^30")
    big = q * q.partial("x") * Fraction(3, 7)
    assert len(big.terms) > MAX_EXPANSION // 4
    assert p(poly_to_string(big)) == big


@pytest.mark.parametrize("text, position", [
    ("1" * 5000, 0),
    ("1/" + "1" * 5000, 2),
    ("x^" + "1" * 5000, 2),
], ids=["numerator", "denominator", "exponent"])
def test_an_integer_literal_longer_than_int_reads_is_a_syntax_error(text, position):
    """A literal past the interpreter's int-to-str digit limit (4,300
    digits by default) is refused at its position, not with a bare
    ``ValueError``."""
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, X)
    assert err.value.position == position


def test_an_exponent_literal_is_read_by_its_significant_digits():
    assert p("x^0002") == p("x^2") and p("x^" + "0" * 5000) == 1
    with pytest.raises(PolySyntaxError) as err:
        p("x^0" + "1" * 4)
    assert err.value.position == 2


#: Pieces of the expression alphabet: integer literals up to 10^7 (so
#: exponents and coefficients can be large), coordinates of XY, one
#: identifier that is not, whitespace and every operator.
_PIECES = st.one_of(
    st.integers(min_value=0, max_value=10**7).map(str),
    st.sampled_from(["x", "y", "q", " ", "+", "-", "*", "/", "^", "(", ")"]),
)

#: Runs of one digit longer than the 4,300 digits ``int()`` reads by default.
_LONG_DIGIT_RUNS = st.builds(lambda digit, n: digit * n,
                             st.sampled_from("0123456789"), st.integers(4301, 4400))


@settings(max_examples=300, deadline=5000)
@given(st.lists(st.one_of(_PIECES, _LONG_DIGIT_RUNS), max_size=40).map("".join))
def test_parse_fails_closed(text):
    try:
        result = parse_poly(text, XY)
    except AlgebroidError:
        return
    assert isinstance(result, Poly)


def test_empty_chart_constants_only():
    assert parse_poly("5/3 + 1", POINT) == Fraction(8, 3)
    with pytest.raises(UnknownVariable):
        parse_poly("x", POINT)


def test_chart_validation():
    with pytest.raises(PolySyntaxError):
        Chart(["x", "x"])
    with pytest.raises(PolySyntaxError):
        Chart(["2bad"])


@pytest.mark.parametrize("coords", ["xy", "x", ""])
def test_a_string_is_not_a_coordinate_list(coords):
    """``tuple("xy")`` is two coordinates; a caller meaning one named ``xy``
    must get an error, not a chart of a different dimension."""
    with pytest.raises(PolySyntaxError):
        Chart(coords)
    assert Chart(["xy"]).dim == 1


@pytest.mark.parametrize("name", [5, None, b"x", 1.5])
def test_a_coordinate_name_that_is_not_a_string_is_rejected(name):
    with pytest.raises(PolySyntaxError):
        Chart([name])
    with pytest.raises(PolySyntaxError):
        Chart(["x", name])


@pytest.mark.parametrize("name", [["x"], {"x"}, {"x": 0}])
def test_an_unhashable_name_is_no_coordinate(name):
    """Looking up a name that cannot be hashed is an ``UnknownVariable``, as
    for any other name outside the chart, and not the ``TypeError`` of
    hashing it."""
    q = p("x^2*y")
    for lookup in (lambda: XY.index(name), lambda: XY.coordinate(name),
                   lambda: q.partial(name), lambda: q.transport(XY, {"x": name}),
                   lambda: q.transport(Chart(["u", "y"]), {"x": name})):
        with pytest.raises(UnknownVariable):
            lookup()


@pytest.mark.parametrize("exponent", [True, False, -1, 1.0, Fraction(2), "2"])
def test_a_power_is_a_nonnegative_int_and_not_a_bool(exponent):
    with pytest.raises(NegativeExponent):
        p("x + 1") ** exponent


@pytest.mark.parametrize("exponent", [(1.5, 0), (1, "a"), (None, 0), (1, 1.0)])
def test_an_exponent_that_is_not_an_int_is_rejected(exponent):
    """Non-integer exponents would print as x^1.5, which the parser rejects;
    the exact-polynomial contract takes nonnegative ints only."""
    with pytest.raises(PolySyntaxError):
        Poly(XY, {exponent: 1})
    with pytest.raises(PolySyntaxError):
        Poly(XY, [(exponent, 1)])


@pytest.mark.parametrize("build", [
    lambda: Poly(X, {5: 1}),
    lambda: Poly(X, 5),
    lambda: Chart(5),
], ids=["exponent-not-a-tuple", "terms-not-iterable", "chart-not-iterable"])
def test_input_that_is_not_iterable_is_rejected(build):
    with pytest.raises(PolySyntaxError):
        build()


# --- the stored representation ------------------------------------------------

def _stored_exactly(q):
    """Every coefficient is a nonzero int, or a Fraction that is not one."""
    return all(c and (type(c) is int if c.denominator == 1 else type(c) is Fraction)
               for c in q.terms.values())


def test_integral_coefficients_are_stored_as_ints():
    x, y = XY.coordinate("x"), XY.coordinate("y")
    half_x = XY.coerce(Fraction(1, 2)) * x
    built = {
        "coerce": XY.coerce(Fraction(4, 2)),
        "coordinate": x,
        "parse_poly": p("4/2*x + 6/3*y^2 - 5 + 1/2 + 1/2"),
        "scalar *": half_x * 2,
        "constant *": XY.coerce(2) * half_x,
        "product": (half_x + y) * (2 * x),
        "+": half_x + half_x,
        "partial": (half_x * x).partial("x"),
    }
    for how, q in built.items():
        assert q.terms and _stored_exactly(q), how
        assert all(type(c) is int for c in q.terms.values()), how
    assert _stored_exactly(half_x) and half_x.terms[(1, 0)] == Fraction(1, 2)


def test_a_bool_coefficient_is_stored_as_an_int():
    one = XY.coerce(True)
    assert type(one.terms[(0, 0)]) is int and str(one) == "1"
    assert str(Poly(XY, {(1, 0): True})) == "x"
    assert not XY.coerce(False).terms


def test_each_chart_has_one_zero():
    assert XY.zero() is XY.zero()
    assert XY.coerce(0) is XY.zero() and XY.coerce(Fraction(0)) is XY.zero()
    x = XY.coordinate("x")
    assert x * 0 is XY.zero() and x - x == XY.zero()


def test_kernel_results_without_terms_are_the_shared_zero():
    """A sum that cancels, a vanishing partial, the negated or transported
    zero, an empty product and the constructor given no terms, or terms
    that cancel, all return the chart's one zero object."""
    zero, q = XY.zero(), p("x^2 + 3*x*y - 1/2")
    y_only = p("y^2 - 1")
    assert q - q is zero and q + (-q) is zero
    assert y_only.partial("x") is zero and p("7").partial("y") is zero
    assert -zero is zero and zero.transport(XY) is zero
    assert (p("x + y") * p("x - y") - p("x^2 - y^2")) is zero
    assert X.zero().transport(XY) is zero
    assert p("1/2*x - 1/2*x") is zero and p("x - x") is zero
    assert Poly(XY, {}) is zero and Poly(XY, [((1, 0), 1), ((1, 0), -1)]) is zero
    assert not zero.terms and zero == 0


def _counted(original, log):
    """``original``, logging the arguments of each call to ``log``."""
    def call(*args):
        log.append(args)
        return original(*args)
    return call


def test_constant_products_and_zero_sums_take_no_accumulate_pass(monkeypatch):
    """A product with a constant or the zero and a sum with the zero take
    no pass of the kernel; a product of two non-constant polynomials is
    one call of the product kernel."""
    q = p("x^2 + 3*x*y - 1/2")
    triple, minus_half = p("3*x^2 + 9*x*y - 3/2"), p("-1/2*x^2 - 3/2*x*y + 1/4")
    square = p("x^4 + 6*x^3*y + 9*x^2*y^2 - x^2 - 3*x*y + 1/4")
    calls, product_calls = [], []

    monkeypatch.setattr(algebroids.ring, "accumulate",
                        _counted(algebroids.ring.accumulate, calls))
    monkeypatch.setattr(algebroids.ring, "products",
                        _counted(algebroids.ring.products, product_calls))
    zero = XY.zero()
    assert q * 3 == 3 * q == q * XY.coerce(3) == XY.coerce(3) * q == triple
    assert q * Fraction(-1, 2) == minus_half
    assert q * 0 is zero and zero * q is zero and q * zero is zero
    assert q + zero is q and zero + q is q and q + 0 is q and 0 + q is q
    assert calls == [] and product_calls == []
    assert q * q == square
    assert len(product_calls) == 1


def test_a_printed_sum_of_monomials_is_read_in_one_accumulate_pass(monkeypatch):
    """A sum of products of single factors (rational literals, coordinates
    and their powers) is read with no product kernel call and summed in one
    pass of the accumulation kernel."""
    q = Poly(XY, {(3, 1): Fraction(-3, 2), (2, 0): 1, (0, 4): -1, (1, 1): 7,
                  (0, 0): Fraction(5, 6)})
    text = poly_to_string(q)
    assert text == "-3/2*x^3*y + x^2 + 7*x*y - y^4 + 5/6"
    calls, product_calls = [], []

    monkeypatch.setattr(algebroids.ring, "accumulate",
                        _counted(algebroids.ring.accumulate, calls))
    monkeypatch.setattr(algebroids.ring, "products",
                        _counted(algebroids.ring.products, product_calls))
    assert parse_poly(text, XY).terms == q.terms
    assert product_calls == [] and len(calls) == 1
    # factors of one term are multiplied into one monomial in any order
    assert parse_poly("2*x*3/4*y^2*x - 1/2*y*y + 7", XY).terms == \
        {(2, 2): Fraction(3, 2), (0, 2): Fraction(-1, 2), (0, 0): 7}
    assert product_calls == [] and len(calls) == 2


#: A coefficient of either stored type: a nonzero int, or a Fraction whose
#: denominator is not 1.
_COEFFICIENTS = st.one_of(
    st.integers(-10**6, 10**6).filter(bool),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(2, 60))
    .filter(lambda c: c.denominator != 1),
)
_TERM_MAPS = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                             _COEFFICIENTS, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_TERM_MAPS)
def test_parse_print_parse_keeps_the_stored_term_map(terms):
    q = Poly(XY, terms)
    first = parse_poly(poly_to_string(q), XY)
    second = parse_poly(poly_to_string(first), XY)
    for r in (first, second):
        assert r.terms == q.terms
        assert {e: type(c) for e, c in r.terms.items()} == \
            {e: type(c) for e, c in q.terms.items()}
        assert _stored_exactly(r)


@settings(max_examples=200, deadline=None)
@given(_TERM_MAPS)
def test_int_and_fraction_coefficients_print_alike(terms):
    as_ints = Poly(XY, terms)
    as_fractions = Poly(XY, {e: Fraction(2 * c) / 2 for e, c in terms.items()})
    assert poly_to_string(as_ints).encode() == poly_to_string(as_fractions).encode()
    assert {e: type(c) for e, c in as_ints.terms.items()} == \
        {e: type(c) for e, c in as_fractions.terms.items()}


# --- arithmetic -------------------------------------------------------------

def test_ring_smoke():
    x, y = XY.coordinate("x"), XY.coordinate("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert x - x == XY.zero()
    assert (x * y) ** 3 == x ** 3 * y ** 3
    assert 2 * x == x + x
    assert Fraction(1, 2) * (x + x) == x


@pytest.mark.parametrize("value", [1.5, 0.1, None, float("nan"), [1]])
def test_coefficients_are_rationals_polys_or_strings(value):
    with pytest.raises(AlgebroidError):
        XY.const(value)
    with pytest.raises(AlgebroidError):
        Poly(XY, {(1, 0): value})
    with pytest.raises(AlgebroidError):
        XY.coerce(value)


def test_coercion_rule():
    x = XY.coordinate("x")
    assert XY.coerce(x) is x
    assert XY.coerce(Fraction(3, 2)) == p("3/2")
    assert XY.coerce(0) == XY.zero() and not XY.coerce(0).terms
    assert XY.coerce("x*y - 1") == p("x*y - 1")
    # a term map's coefficients go through the same rule
    assert Poly(XY, {(1, 0): "y", (0, 0): Fraction(1, 2)}) == p("x*y + 1/2")
    other = X.coordinate("x")
    with pytest.raises(ChartMismatch):
        XY.coerce(other)
    with pytest.raises(ChartMismatch):
        x + other
    with pytest.raises(ChartMismatch):
        x * other
    # other types stay with Python's protocol
    assert x != "x" and x != other
    with pytest.raises(TypeError):
        x + "x"


def test_accumulate_drops_cancelled_keys():
    one = Fraction(1)
    assert accumulate([("a", one), ("b", one), ("a", -one)]) == {"b": one}
    start = {"a": one}
    assert accumulate([("a", -one)], start) == {}
    assert start == {"a": one}


def _random_poly(rng, chart, degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            if chart.dim:
                exp[rng.randrange(chart.dim)] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(chart, terms)


def test_ring_laws_random():
    rng = random.Random(20260818)
    for _ in range(200):
        a = _random_poly(rng, XY)
        b = _random_poly(rng, XY)
        c = _random_poly(rng, XY)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partial_is_a_derivation():
    rng = random.Random(7)
    for _ in range(100):
        a = _random_poly(rng, XY)
        b = _random_poly(rng, XY)
        for v in ("x", "y"):
            assert partial(a * b, v) == partial(a, v) * b + a * partial(b, v)
            assert partial(a + b, v) == partial(a, v) + partial(b, v)


def test_gradient_of_a_constant_takes_no_partials(monkeypatch):
    calls = []
    original = Poly.partial

    def counted(poly, name):
        calls.append(name)
        return original(poly, name)

    monkeypatch.setattr(Poly, "partial", counted)
    for constant in (p("0"), p("-3/2"), Chart(["x", "y", "z"]).const(7)):
        assert constant.gradient() == []
    assert calls == []
    assert p("x^2*y + y").gradient() == [(0, p("2*x*y")), (1, p("x^2 + 1"))]
    assert calls == ["x", "y"]


def test_a_second_gradient_takes_no_partials(monkeypatch):
    calls = []
    original = Poly.partial

    def counted(poly, name):
        calls.append(name)
        return original(poly, name)

    monkeypatch.setattr(Poly, "partial", counted)
    q = p("x^2*y + y")
    first = q.gradient()
    assert calls == ["x", "y"]
    first.clear()  # a caller's list is its own: the kept partials stay
    for _ in range(3):
        assert q.gradient() == [(0, p("2*x*y")), (1, p("x^2 + 1"))]
    assert calls == ["x", "y"]
    # an equal polynomial is another object, differentiated once itself
    assert p("x^2*y + y").gradient() == q.gradient()
    assert calls == ["x", "y", "x", "y"]


#: Product items over XY: a basis key, a sign and two term maps with small
#: coefficients, so that products of different items often cancel.
_SMALL = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 3)),
)
_SMALL_MAPS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              _SMALL, max_size=3)
_PRODUCT_ITEMS = st.lists(st.tuples(st.sampled_from(["a", "b", (0, 1)]),
                                    st.sampled_from([1, -1]),
                                    _SMALL_MAPS, _SMALL_MAPS), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_PRODUCT_ITEMS)
def test_product_kernel_is_the_sum_of_the_signed_products(items):
    items = [(key, sign, Poly(XY, a), Poly(XY, b)) for key, sign, a, b in items]
    # each item mirrored with the other sign: every key cancels
    mirrored = items + [(key, -sign, b, a) for key, sign, a, b in items]
    assert products(XY, mirrored) == {}
    expected = accumulate((key, a * b if sign > 0 else -(a * b))
                          for key, sign, a, b in items)
    result = products(XY, iter(items))
    assert result == expected
    assert all(q.terms and q.chart is XY and _stored_exactly(q)
               for q in result.values())


def test_product_kernel_cancels_and_demotes_like_the_ring():
    x, y = XY.coordinate("x"), XY.coordinate("y")
    half, third = XY.coerce(Fraction(1, 2)), XY.coerce(Fraction(1, 3))
    # a key whose products cancel is left out, as a zero tensor term is
    assert products(XY, [("k", 1, x, y), ("k", -1, y, x), ("j", 1, x, x)]) == \
        {"j": x * x}
    assert products(XY, [("k", 1, x, XY.zero())]) == {}
    # an integral Fraction product, or sum of products, is stored as an int
    two_thirds_y = Poly(XY, {(0, 1): Fraction(2, 3)})
    three_halves_x = Poly(XY, {(1, 0): Fraction(3, 2)})
    for items in ([("k", 1, three_halves_x, two_thirds_y)],
                  [("k", 1, half, x * y), ("k", 1, x, half * y)],
                  [("k", -1, third * x, y + x), ("k", -1, x * Fraction(2, 3), y + x)]):
        (q,) = products(XY, items).values()
        assert _stored_exactly(q) and all(type(c) is int for c in q.terms.values())
    # products that cancel leave the chart's shared zero: the rotation field
    # y d/dx - x d/dy kills x^2 + y^2
    from algebroids.algebroid import anchor_derivative, build_algebroid

    A = build_algebroid(XY, ["e"], [["y", "-1*x"]])
    assert anchor_derivative(A, 0, p("x^2 + y^2")) is XY.zero()


# --- the rational route of the product kernel ---------------------------------

def _fraction_reference(items):
    """``{key: {exponent: coefficient}}`` of the items' signed products, each
    monomial product formed and summed as its own ``Fraction``: the per-term
    route that the common denominator replaces."""
    sums = {}
    for key, sign, a, b in items:
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                at = (key, tuple(i + j for i, j in zip(ea, eb)))
                sums[at] = sums.get(at, Fraction(0)) + sign * Fraction(ca) * Fraction(cb)
    grouped = {}
    for (key, e), c in sums.items():
        if c:
            grouped.setdefault(key, {})[e] = c
    return grouped


def _true_den(q):
    return math.lcm(*(Fraction(c).denominator for c in q.terms.values()))


def _den_is_right(q):
    """The stored form: ``_den`` is the lcm of the denominators of
    ``terms``, the numerators are in lowest terms against it, and each
    coefficient is its numerator over it."""
    return (q._den == _true_den(q) and math.gcd(q._den, *q._num.values()) == 1
            and q._num.keys() == q.terms.keys()
            and all(c * q._den == q._num[e] for e, c in q.terms.items()))


#: Coefficients of either stored type with denominators up to 12, of both
#: signs, so that products of different items often cancel.
_MIXED = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(2, 12)),
)
_MIXED_MAPS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              _MIXED, max_size=4)
_MIXED_ITEMS = st.lists(st.tuples(st.sampled_from(["a", "b", (0, 1)]),
                                  st.sampled_from([1, -1]),
                                  _MIXED_MAPS, _MIXED_MAPS), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_MIXED_ITEMS)
def test_rational_products_match_the_per_term_fraction_route(items):
    items = [(key, sign, Poly(XY, a), Poly(XY, b)) for key, sign, a, b in items]
    result = products(XY, iter(items))
    assert {key: q.terms for key, q in result.items()} == _fraction_reference(items)
    for q in result.values():
        assert q.terms and q.chart is XY and _stored_exactly(q) and _den_is_right(q)
        assert all((type(c) is int) == (Fraction(c).denominator == 1)
                   for c in q.terms.values())


@settings(max_examples=300, deadline=None)
@given(_MIXED_MAPS, _MIXED_MAPS)
def test_poly_mul_matches_the_per_term_fraction_route(a, b):
    pa, pb = Poly(XY, a), Poly(XY, b)
    expected = _fraction_reference([("k", 1, pa, pb)]).get("k", {})
    product = pa * pb
    assert product.terms == expected
    assert _stored_exactly(product) and _den_is_right(product)
    assert product == pb * pa


@settings(max_examples=200, deadline=None)
@given(_MIXED_MAPS)
def test_a_known_denominator_is_the_true_one(terms):
    q = Poly(XY, terms)
    x, y = XY.coordinate("x"), XY.coordinate("y")
    xyz = Chart(["x", "y", "z"])
    derived = [q, -q, q.partial("x"), q.partial("y"), q.transport(xyz),
               q.transport(Chart(["y", "x"])), q.transport(X, {"y": "x"}),
               q * x, q * y * Fraction(1, 3), q + q, q - x,
               *(d for _, d in q.gradient()),
               *products(XY, [("k", 1, q, q), ("j", -1, q, x + y)]).values()]
    for r in derived:
        assert _den_is_right(r) and _stored_exactly(r)
    # integral polynomials built from integral ones have the denominator 1
    integral = x * y + 2 * x
    for r in (integral, -integral, integral.partial("x"), integral.transport(xyz),
              integral.transport(X, {"y": "x"}), integral + x, integral - y,
              *products(XY, [("k", -1, integral, x)]).values(), XY.zero(),
              XY.coerce(3), XY.coordinate("y")):
        assert r._den == 1


def _routes(a, b):
    """(route, build) for a rational polynomial made from the term maps
    ``a`` and ``b`` by every route of the ring."""
    pa, pb = Poly(XY, a), Poly(XY, b)
    xyz, yx = Chart(["x", "y", "z"]), Chart(["y", "x"])
    return [
        ("constructor", lambda: Poly(XY, a)),
        ("parser", lambda: p(poly_to_string(pa))),
        ("kernel", lambda: products(XY, [("k", 1, pa, pb), ("k", -1, pb, pb)]).get(
            "k", XY.zero())),
        ("mul", lambda: pa * pb),
        ("add", lambda: pa + pb),
        ("sub", lambda: pa - pb),
        ("neg", lambda: -pb),
        ("scale", lambda: pb * Fraction(6, 5)),
        ("scale-to-integral", lambda: pb * pb._den),
        ("pow", lambda: pb ** 2),
        ("partial", lambda: pb.partial("x")),
        ("transport-extend", lambda: pb.transport(xyz)),
        ("transport-permute", lambda: pb.transport(yx)),
        ("transport-merge", lambda: pb.transport(X, {"y": "x"})),
    ]


@settings(max_examples=200, deadline=None)
@given(_MIXED_MAPS, _MIXED_MAPS)
def test_every_route_keeps_the_stored_form(a, b):
    for route, build in _routes(a, b):
        with pytest.raises(AttributeError):
            build().no_such_slot
        r = build()
        assert _den_is_right(r), route
        assert all(type(c) is int or c.denominator != 1 for c in r.terms.values()), route
        for twin in (parse_poly(poly_to_string(r), r.chart), Poly(r.chart, r.terms)):
            assert twin == r and hash(twin) == hash(r), route


def _counted_fractions(monkeypatch):
    """A list that gets the arguments of every ``Fraction`` built from now
    on."""
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    return made


def test_terms_are_a_view_of_the_numerators(monkeypatch):
    """Building and combining rational polynomials builds no ``Fraction``;
    each read of a non-integral polynomial's ``terms`` builds an equal new
    map, and an integral polynomial's ``terms`` is its ``_num``."""
    half_x, third_y = p("1/2*x"), p("x + 1/3*y")
    fifth, two = Fraction(1, 5), Fraction(4, 2)
    made = _counted_fractions(monkeypatch)
    rational = [half_x * third_y, half_x + third_y, -half_x,
                half_x.partial("x") * fifth, half_x.transport(X, {"y": "x"}),
                Poly(XY, {(1, 0): fifth})]
    integral = [half_x * 2, Poly(XY, {(0, 1): two}), third_y * 3]
    assert made == [] and all(r._den != 1 for r in rational)
    for r in rational:
        terms = r.terms
        assert made and terms and r.terms == terms and r.terms is not terms
        assert _den_is_right(r) and type(r) is Poly
        with pytest.raises(AttributeError):
            r.terms = terms
    for r in integral:
        assert r._den == 1 and r.terms is r._num and _den_is_right(r)


def test_a_cancelling_rational_sum_drops_its_key():
    x, y = XY.coordinate("x"), XY.coordinate("y")
    half_x, two = XY.coerce(Fraction(1, 2)) * x, XY.coerce(2)
    # ½x·2 − x·1, by the constant branch and by the monomial products
    assert products(XY, [("k", 1, half_x, two), ("k", -1, x, XY.one())]) == {}
    assert products(XY, [("k", 1, half_x, 2 * y), ("k", -1, x, y),
                         ("j", 1, half_x, y)]) == {"j": half_x * y}
    # an integral item and a rational one cancel over the common denominator
    assert products(XY, [("k", -1, x, y), ("k", 1, half_x * 3, y * Fraction(2, 3))]) == {}


def test_an_empty_item_stream_gives_no_terms():
    assert products(XY, iter(())) == {}
    assert products(POINT, []) == {}


def test_distinct_prime_denominators_take_no_pathological_time():
    """Two 60-term polynomials whose 120 coefficients have distinct prime
    denominators: the common denominator is the product of all 120 primes,
    and the sums still match the per-term route well inside a second."""
    primes = [n for n in range(2, 700) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    a = Poly(XY, {(i, 59 - i): Fraction(1 + i, primes[i]) for i in range(60)})
    b = Poly(XY, {(j, 59 - j): Fraction(-1 - j, primes[60 + j]) for j in range(60)})
    items = [("k", 1, a, b), ("k", -1, a, XY.coordinate("x")), ("j", 1, b, b)]
    started = time.perf_counter()
    result = products(XY, items)
    product = a * b
    elapsed = time.perf_counter() - started
    expected = _fraction_reference(items)
    assert {key: q.terms for key, q in result.items()} == expected
    assert product.terms == _fraction_reference([("k", 1, a, b)])["k"]
    assert elapsed < 1.0


# --- the product kernel against its reference ---------------------------------

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


def _kernel_factors(draw, kind):
    """Term maps of factors of ``kind``: general ones, constants and the
    zero."""
    coefficient = _KERNEL_COEFFICIENTS[kind]
    return draw(st.lists(st.one_of(
        st.dictionaries(_MONOMIALS, coefficient, max_size=4),
        st.dictionaries(st.just((0, 0)), coefficient, min_size=1, max_size=1)),
        min_size=1, max_size=5))


def _kernel_result(result):
    """Each key's terms with the types they read as, and its ``_den`` and
    ``_num`` slots."""
    return {key: (sorted((e, c, type(c)) for e, c in q.terms.items()), q._den,
                  sorted(q._num.items()))
            for key, q in result.items()}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_product_kernel_matches_its_reference(data):
    kind = data.draw(st.sampled_from(sorted(_KERNEL_COEFFICIENTS)))
    factors = _kernel_factors(data.draw, kind)
    picks = data.draw(st.lists(st.tuples(
        st.sampled_from(["a", "b", (0, 1)]), st.sampled_from([1, -1, 2, -3]),
        st.integers(0, len(factors) - 1), st.integers(0, len(factors) - 1)),
        max_size=8))
    if data.draw(st.booleans()):  # each item mirrored: every key cancels
        picks += [(key, -sign, j, i) for key, sign, i, j in picks]
    polys = [Poly(XY, terms) for terms in factors]
    items = [(key, sign, polys[i], polys[j]) for key, sign, i, j in picks]
    assert _kernel_result(products(XY, iter(items))) == _kernel_result(
        ring_reference.products(XY, iter(items)))


#: A model document with rational entries of every table, one of them
#: read from a parenthesised power.
_RATIONAL_DOCUMENT = json.dumps({
    "charts": {"plane": ["x", "y"]},
    "algebroids": {"A": {"chart": "plane", "fibers": ["e", "f"],
                         "anchor": [["1/2*x", "0"], ["0", "2/3*y"]]}},
    "poisson": {"P": {"chart": "plane", "bivector": {"1,2": "5/7*x*y"}}},
    "tensors": {"t": {"owner": "A", "kind": "form", "degree": 1,
                      "terms": {"1": "1/2*x^2 - 3/4*y", "2": "(1/2*x + y)^2"}}},
})


def test_a_factor_is_cleared_once_and_integral_calls_build_no_fraction(monkeypatch):
    q = Poly(XY, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3), (0, 0): Fraction(5, 4)})
    num = q._num  # cleared once, by the constructor
    assert (q._den, num) == (12, {(1, 0): 6, (0, 1): -8, (0, 0): 15})
    x, y = XY.coordinate("x"), XY.coordinate("y")
    two_thirds, minus_half = Fraction(2, 3), Fraction(-1, 2)
    text = dumps_model(loads_model(_RATIONAL_DOCUMENT))

    made = _counted_fractions(monkeypatch)
    first = products(XY, [("a", 1, q, x), ("b", -1, y, q), ("a", 2, q, q)])
    second = products(XY, [("c", 1, q, q)])
    assert q * x + 2 * second["c"] == first["a"]
    # neither the kernel nor the ring operations on numerators build one
    derived = [-q, q - x, q + first["b"], q * two_thirds, q.partial("x"),
               first["b"].partial("y"), first["a"].transport(Chart(["y", "x"]))]
    assert made == [] and q._num is num

    # nor does the text layer: the reader, the constructor, coerce, the
    # printer of a rational product, and a model document's round trip
    read = [p("1/2*x^2 - 2/3*x*y + 5/6"), p("(1/2*x + 2/3*y)^2*x - 1/3*(x - y)"),
            Poly(XY, {(1, 0): minus_half, (0, 1): two_thirds, (0, 0): 2}),
            XY.coerce(two_thirds)]
    printed = poly_to_string(read[0] * read[1])
    assert dumps_model(loads_model(text)) == text
    assert made == [] and all(r._den != 1 for r in read)
    assert printed == poly_to_string(Poly(XY, (read[0] * read[1]).terms))
    assert "(1/2*x + y)^2" not in text and '"1/4*x^2 + x*y + y^2"' in text
    made.clear()

    integral = p("x^2 - 3*x*y + 2")
    result = products(XY, [("a", 1, integral, x), ("a", -2, y, integral),
                           ("b", 3, integral, integral), ("b", 1, XY.coerce(4), y)])
    assert made == [] and all(r._den == 1 for r in result.values())
    assert integral._num is integral.terms  # shared, not copied
    assert all(r.terms is r._num for r in result.values())
    assert all(_den_is_right(r) for r in derived)
    assert made  # reading a non-integral result's terms builds its Fractions

    built = []
    make = Poly._make.__func__

    def counted_make(cls, *args):
        built.append(args)
        return make(cls, *args)

    monkeypatch.setattr(Poly, "_make", classmethod(counted_make))
    assert products(XY, []) == {} and products(XY, iter(())) == {}
    assert built == []


def test_partials_commute():
    rng = random.Random(8)
    for _ in range(100):
        a = _random_poly(rng, XY, degree=4)
        assert partial(partial(a, "x"), "y") == partial(partial(a, "y"), "x")


def test_eval_is_a_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(100):
        a = _random_poly(rng, XY)
        b = _random_poly(rng, XY)
        pt = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
              "y": Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
        assert eval_at(a + b, pt) == eval_at(a, pt) + eval_at(b, pt)
        assert eval_at(a * b, pt) == eval_at(a, pt) * eval_at(b, pt)


def test_eval_requires_full_point():
    with pytest.raises(MissingCoordinate):
        eval_at(p("x + y"), {"x": 1})
    # Extra coordinates are tolerated so one point serves several charts.
    assert eval_at(parse_poly("x^2", X), {"x": 2, "zz": 9}) == 4


def test_the_constant_value_is_the_constant_coefficient():
    """An ``int`` when the constant coefficient is integral, though the
    polynomial need not be, a ``Fraction`` otherwise, and ``0`` when there
    is no constant term; and a value at a point is always a ``Fraction``."""
    for q, expected in [(p("2 + 1/2*x"), 2), (p("1/3 + 1/2*x"), Fraction(1, 3)),
                        (p("x - 1/2*y"), 0), (XY.zero(), 0), (p("-4"), -4)]:
        value = q.constant_value()
        assert value == expected and type(value) is type(expected), q
    value = eval_at(p("x^2 - 3*y + 2"), {"x": 2, "y": 1})
    assert value == 3 and type(value) is Fraction
    assert type(eval_at(XY.zero(), {"x": 1, "y": 1})) is Fraction


@pytest.mark.parametrize("value", ["abc", "1/0", "1/2", None, [1], 0.1, 1.5,
                                   float("nan")])
def test_eval_at_fails_closed(value):
    """A point's values follow the coefficient rule: an int or a Fraction.
    A float is not silently read as its binary value."""
    for target in (p("x + y"), p("3")):
        with pytest.raises(BadPoint):
            eval_at(target, {"x": 1, "y": value})
        with pytest.raises(BadPoint):
            target.eval_at({"x": value, "y": Fraction(1, 2)})
    # a key outside the chart is still ignored, whatever its value
    assert eval_at(parse_poly("x^2", X), {"x": Fraction(1, 2), "y": value}) \
        == Fraction(1, 4)


# --- parse/eval oracle ------------------------------------------------------
#
# Random expression ASTs are rendered to strings and pushed through the
# parser, then compared against a direct Fraction evaluation of the same AST.
# The AST walker shares no code with Poly arithmetic.

def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("num", Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        return ("var", rng.choice(["x", "y"]))
    op = rng.choice(["+", "-", "*", "^"])
    if op == "^":
        return ("^", _random_ast(rng, depth - 1), rng.randint(0, 3))
    return (op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def _render(ast):
    kind = ast[0]
    if kind == "num":
        return str(ast[1])
    if kind == "var":
        return ast[1]
    if kind == "^":
        return f"({_render(ast[1])})^{ast[2]}"
    return f"({_render(ast[1])}) {kind} ({_render(ast[2])})"


def _direct_eval(ast, pt):
    kind = ast[0]
    if kind == "num":
        return ast[1]
    if kind == "var":
        return pt[ast[1]]
    if kind == "^":
        return _direct_eval(ast[1], pt) ** ast[2]
    a, b = _direct_eval(ast[1], pt), _direct_eval(ast[2], pt)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def test_parse_then_eval_matches_direct_evaluation():
    rng = random.Random(31337)
    for _ in range(60):
        ast = _random_ast(rng, depth=4)
        pt = {"x": Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              "y": Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        assert eval_at(p(_render(ast)), pt) == _direct_eval(ast, pt)


# --- canonical printing -----------------------------------------------------

def test_print_forms():
    assert poly_to_string(XY.zero()) == "0"
    assert poly_to_string(p("x + y")) == "x + y"
    assert poly_to_string(p("0 - x")) == "-1*x"
    assert poly_to_string(p("3/2*x^2*y - 1")) == "3/2*x^2*y - 1"
    assert poly_to_string(parse_poly("7/2", POINT)) == "7/2"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_print_parse_round_trip(rnd):
    q = _random_poly(rnd, XY, degree=4, max_terms=6)
    assert parse_poly(poly_to_string(q), XY) == q


def test_print_is_deterministic_and_canonical():
    a = p("x*y + x^2")
    b = p("x^2 + x*y")
    assert poly_to_string(a) == poly_to_string(b)


# --- the reader and the printer against their reference ------------------------

#: Pieces that reach the product and power bounds: sums whose products and
#: powers are checked and charged, a sum that cancels, and single factors.
_BOUNDED_PIECES = st.sampled_from(
    ["(x+y+1)^30", "(x+y+1)^20*", "(x-x)*", "(x+1/2)", "0*", "2/3*x*"])


def _read(reader, text):
    """The terms ``reader`` gives for ``text``, each with its stored type,
    or the class and position of the error it raises."""
    try:
        q = reader(text, XY)
    except AlgebroidError as exc:
        return type(exc), getattr(exc, "position", None)
    return sorted((e, c, type(c)) for e, c in q.terms.items())


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_PIECES, _BOUNDED_PIECES), max_size=40).map("".join))
def test_the_reader_matches_its_reference_on_any_text(text):
    assert _read(parse_poly, text) == _read(ring_reference.parse_poly, text)


#: A coefficient of either stored type, or 1 or -1 as an int or as a
#: ``Fraction`` (the printer reads sign and magnitude off ``str``, which
#: spells both types of one value alike).
_PRINTED_COEFFICIENTS = st.one_of(
    _COEFFICIENTS, st.sampled_from([1, -1, Fraction(1), Fraction(-1)]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       _PRINTED_COEFFICIENTS, max_size=8))
def test_the_printer_and_the_reader_match_their_reference(terms):
    q = Poly._make(XY, terms)
    text = poly_to_string(q)
    assert text == ring_reference.poly_to_string(q)
    assert _read(parse_poly, text) == _read(ring_reference.parse_poly, text) \
        == _read(lambda _, chart: Poly(chart, terms), None)


# --- transport --------------------------------------------------------------

def test_transport_embeds_and_permutes():
    big = Chart(["y", "x", "z"])
    q = p("x^2 + 2*y")
    moved = q.transport(big)
    assert moved == parse_poly("x^2 + 2*y", big)
    renamed = q.transport(Chart(["u", "v"]), rename={"x": "u", "y": "v"})
    assert renamed == parse_poly("u^2 + 2*v", Chart(["u", "v"]))


def _accumulated_transport(q, new_chart, rename=None):
    """The transport as every call once ran it, kept as the reference: the
    column rebuilt per call and every term summed by ``accumulate``."""
    rename = rename or {}
    column = [new_chart.index(rename.get(name, name)) for name in q.chart.coords]
    n = new_chart.dim

    def moved():
        for exp, coeff in q.terms.items():
            new_exp = [0] * n
            for j, e in zip(column, exp):
                new_exp[j] += e
            yield tuple(new_exp), coeff

    return Poly._make(new_chart, accumulate(moved()))


#: (source chart, target chart, rename): an extension, an equal chart, a
#: permutation into a larger chart, a rename, and two merging renames.
_TRANSPORTS = {
    "extension": (XY, Chart(["x", "y", "x_dot", "y_dot"]), None),
    "equal-chart": (XY, Chart(["x", "y"]), None),
    "permutation": (Chart(["x", "y", "z"]), Chart(["z", "w", "x", "y"]), None),
    "rename": (XY, Chart(["v", "u"]), {"x": "u", "y": "v"}),
    "merging-rename": (XY, Chart(["u"]), {"x": "u", "y": "u"}),
    "partly-merging": (Chart(["x", "y", "z"]), Chart(["z", "u"]), {"x": "u", "y": "u"}),
}


@pytest.mark.parametrize("case", sorted(_TRANSPORTS))
def test_transport_matches_the_accumulated_reference(case):
    from algebroids.tensor import random_coefficient

    source, target, rename = _TRANSPORTS[case]
    for seed in range(120):
        q = random_coefficient(random.Random(seed), source, 3)
        fast = q.transport(target, rename)
        ref = _accumulated_transport(q, target, rename)
        assert fast.chart == target
        assert list(fast.terms.items()) == list(ref.terms.items()), seed
        assert fast == ref


def test_a_merging_rename_sums_and_cancels_terms():
    U = Chart(["u"])
    merge = {"x": "u", "y": "u"}
    assert p("x + y").transport(U, merge) == parse_poly("2*u", U)
    assert p("x - y").transport(U, merge) is U.zero()
    assert p("x^2 - x*y + 3").transport(U, merge) == parse_poly("3", U)


def test_transport_along_an_injective_column_accumulates_nothing(monkeypatch):
    calls = []
    original = algebroids.ring.accumulate

    def counted(pairs, start=()):
        calls.append(1)
        return original(pairs, start)

    q = p("x^2*y + 3*y - 1/2")
    big, swapped = Chart(["x", "y", "x_dot", "y_dot"]), Chart(["y", "x"])
    expected = [parse_poly("x^2*y + 3*y - 1/2", chart) for chart in (big, swapped)]
    monkeypatch.setattr(algebroids.ring, "accumulate", counted)
    assert [q.transport(big), q.transport(swapped)] == expected
    assert calls == []
    # only a merging rename sums its terms
    q.transport(Chart(["u"]), {"x": "u", "y": "u"})
    assert calls == [1]
