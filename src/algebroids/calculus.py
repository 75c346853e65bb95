"""Differential operators and graded brackets over an algebroid.

Everything here is generated by the structure data of the owning algebroid:

* the exterior differential acts on generators by
  ``d f = sum_i (anchor e_i)(f) e*_i`` and
  ``d e*_k = -sum_{i<j} c_ij^k e*_i∧e*_j``,
  extended as a graded derivation, in one loop for functions and forms of
  every degree.  Every term is emitted as a merged, signed basis key with
  its two coefficient factors (``rho_i^a`` and ``d_a f`` for the anchor
  part, ``c_ij^k`` and ``f`` for the structure part) into the product
  kernel :func:`~algebroids.ring.products`, so no polynomial is built per
  term or per fiber.  Both parts are read from the algebroid's tables of
  nonzero entries: the anchor entries of each coordinate with a nonzero
  partial, and the structure functions c_ij^k of each fiber k of the key;
  a zero form gives the zero of one degree higher at once;
* every function is differentiated once: the anchors applied to it share
  its :meth:`~algebroids.ring.Poly.gradient`, which a polynomial keeps
  once taken, and a constant, whose gradient is empty, has no anchor
  applied to it;
* Lie differentials are graded commutators of contraction with d — with a
  minus sign for multivector actors and a plus sign for vector-valued forms
  (the two conventions are deliberately kept distinct, since the simple-
  tensor expansion of the mixed one depends on the plus);
* the generalized Schouten bracket is the section bracket and the anchor
  extended as a biderivation, with alternating signs; its symmetric sibling
  is the same rule without signs on the symmetric algebra.  Both are one
  call to the bracket kernel of :mod:`algebroids.algebroid`, which also
  computes the section bracket and emits every term as a signed basis key;
* the Nijenhuis–Richardson bracket is the purely algebraic commutator of
  insertions of vector-valued forms (no algebroid structure involved);
* the Frölicher–Nijenhuis bracket is computed in one pass: each operand is
  split by bundle factor, K = sum_i mu_i⊗e_i and L = sum_j nu_j⊗e_j (every
  term of the simple-tensor formula is additive in the form for a fixed
  section, so the split is exact), each mu_i is differentiated once and,
  for every fiber j of the other operand, contracted with e_j and Lie-
  differentiated along it once (and likewise each nu_j), [e_i, e_j] is read
  from the structure table, and the five pieces of every block (mu_i,
  nu_j) are emitted as signed keys with their coefficient factors into one
  pass of the product kernel.

Degrees are graded with a shift for the Schouten and N-R brackets (a
degree-a multivector sits in graded slot a-1), and unshifted (raw form
degree) for the F-N bracket; antisymmetry and Jacobi tests must use the
matching convention.
"""

from __future__ import annotations

from .algebroid import Algebroid, _anchor_terms, _bracket_tensors, _tables_of
from .ring import accumulate, products
from .tensor import (_FORM, _MIXED, _MULTIVECTOR, _NO_OWNER, _SECTION, GradedTensor,
                     Kind, _as_kind, _contract, _contract_mixed, _insert_index, _require,
                     _sort_skew, _tensor_sum, _view, _wedge)

#: what a Lie differential is taken along: multivectors and vector-valued forms
_ACTOR = {**_MULTIVECTOR, **_MIXED}


# -- exterior differential ------------------------------------------------------


def differential(algebroid: Algebroid, mu: GradedTensor) -> GradedTensor:
    """The exterior differential of a form (a function reads as a 0-form).
    Squares to zero and is a graded derivation."""
    mu = _view(mu, "differential", algebroid, Kind.FORM)
    return _differential(algebroid, mu)


def _differential(algebroid: Algebroid, mu: GradedTensor) -> GradedTensor:
    mu = _as_kind(mu, Kind.FORM)
    if not mu.terms:
        return GradedTensor._make(algebroid, Kind.FORM, mu.degree + 1, {})
    by_target = _tables_of(algebroid).by_target

    def items():
        # d(f e*_K) = df∧e*_K + f·sum_r (−1)^r e*_{K[:r]}∧d e*_{k_r}∧e*_{K[r+1:]}
        for key, coeff in mu.terms.items():
            gradient = coeff.gradient()  # empty, and df = 0, for a constant
            if gradient:
                # (anchor e_i)(f) = sum_a rho_i^a d_a f
                for i, rho, d in _anchor_terms(algebroid, gradient):
                    hit = _sort_skew((i,) + key)
                    if hit:
                        yield hit[0], hit[1], rho, d
            for r, k in enumerate(key):
                # d e*_k = −sum_{i<j} c_ij^k e*_i∧e*_j
                for pair, c in by_target[k]:
                    hit = _sort_skew(key[:r] + pair + key[r + 1:])
                    if hit:
                        yield hit[0], -hit[1] if r % 2 == 0 else hit[1], c, coeff

    return GradedTensor._make(algebroid, Kind.FORM, mu.degree + 1,
                              products(algebroid.base, items()))


# -- Lie differentials ----------------------------------------------------------


def lie_derivative(algebroid: Algebroid, actor: GradedTensor,
                   mu: GradedTensor) -> GradedTensor:
    """Lie differential of a form along a multivector or vector-valued form.

    For a degree-k multivector X:      L_X = i_X∘d − (−1)^k d∘i_X.
    For a mixed tensor K of form-degree k:  L_K = i_K∘d + (−1)^k d∘i_K.

    The degree-1 multivector case is the classical Cartan formula; the two
    sign conventions agree there.
    """
    _require(actor, "lie_derivative", algebroid, _ACTOR)
    mu = _view(mu, "lie_derivative", algebroid, Kind.FORM)
    return _lie_derivative(algebroid, actor, mu)


def _lie_derivative(algebroid: Algebroid, actor: GradedTensor,
                    mu: GradedTensor) -> GradedTensor:
    mu = _as_kind(mu, Kind.FORM)
    sign = -1 if actor.degree % 2 else 1
    if actor.kind is Kind.MV:
        first = _contract(actor, _differential(algebroid, mu))
        second = _differential(algebroid, _contract(actor, mu))
        return first - second * sign
    first = _contract_mixed(actor, _differential(algebroid, mu))
    second = _differential(algebroid, _contract_mixed(actor, mu))
    return first + second * sign


# -- generalized Schouten bracket -------------------------------------------------


def schouten(algebroid: Algebroid, x: GradedTensor, y: GradedTensor) -> GradedTensor:
    """The generalized Schouten bracket on multivectors.

    The section bracket on degree 1, the anchor action
    [X, f] = (anchor X)(f) against degree 0, zero on two functions, and on
    decomposables

        [X_1∧…∧X_p, Y_1∧…∧Y_q] =
            sum_{i,j} (−1)^{i+j} [X_i, Y_j] ∧ X∖i ∧ Y∖j,

    computed term by term by the bracket kernel.

    Antisymmetry and Jacobi hold in the shifted grading (degree a sits in
    slot a−1).
    """
    x = _view(x, "schouten", algebroid, Kind.MV)
    y = _view(y, "schouten", algebroid, Kind.MV)
    return _schouten(algebroid, x, y)


def _schouten(algebroid: Algebroid, x: GradedTensor, y: GradedTensor) -> GradedTensor:
    return _bracket_tensors(algebroid, _as_kind(x, Kind.MV), _as_kind(y, Kind.MV))


# -- symmetric Schouten bracket ----------------------------------------------------


def sym_schouten(algebroid: Algebroid, x: GradedTensor, y: GradedTensor) -> GradedTensor:
    """The symmetric Schouten bracket: the same bracket kernel as the
    alternating one, on the symmetric algebra and with no signs.  An
    (ungraded) Lie bracket and a biderivation — the abstract Poisson algebra
    structure on symmetric multivectors."""
    x = _view(x, "sym_schouten", algebroid, Kind.SYM)
    y = _view(y, "sym_schouten", algebroid, Kind.SYM)
    return _sym_schouten(algebroid, x, y)


def _sym_schouten(algebroid: Algebroid, x: GradedTensor, y: GradedTensor) -> GradedTensor:
    return _bracket_tensors(algebroid, _as_kind(x, Kind.SYM), _as_kind(y, Kind.SYM))


# -- Nijenhuis–Richardson bracket ---------------------------------------------------


def nr_bracket(k: GradedTensor, l: GradedTensor) -> GradedTensor:
    """The Nijenhuis–Richardson bracket of vector-valued forms:

        [K, L] = i_K L − (−1)^{(a−1)(b−1)} i_L K

    with a, b the form degrees.  Purely algebraic — it never touches the
    anchor or the structure functions."""
    k = _view(k, "nr_bracket", _NO_OWNER, Kind.MIXED)
    l = _view(l, "nr_bracket", k.owner, Kind.MIXED)
    return _nr_bracket(k, l)


def _nr_bracket(k: GradedTensor, l: GradedTensor) -> GradedTensor:
    k, l = _as_kind(k, Kind.MIXED), _as_kind(l, Kind.MIXED)
    first = _contract_mixed(k, l)
    second = _contract_mixed(l, k)
    sign = -1 if ((k.degree - 1) * (l.degree - 1)) % 2 else 1
    return first - second * sign


# -- Frölicher–Nijenhuis bracket -----------------------------------------------------


def _tensor_form_section(theta: GradedTensor, z: GradedTensor) -> GradedTensor:
    """theta ⊗ Z for a form theta and a section Z, as a mixed tensor."""
    return GradedTensor(theta.owner, Kind.MIXED, theta.degree,
                        [((fkey, j), c * g) for fkey, c in theta.terms.items()
                         for (j,), g in z.terms.items()])


def fn_bracket_simple(algebroid: Algebroid, mu: GradedTensor, x: GradedTensor,
                      nu: GradedTensor, y: GradedTensor) -> GradedTensor:
    """The Frölicher–Nijenhuis bracket on a pair of simple tensors
    mu⊗X, nu⊗Y (mu, nu forms; X, Y sections):

        mu∧nu⊗[X,Y] + mu∧(L_X nu)⊗Y − (L_Y mu)∧nu⊗X
        + (−1)^{deg mu} (d mu∧i_X nu⊗Y + i_Y mu∧d nu⊗X).

    The total is C∞-linear in each simple tensor even though individual
    terms are not; the well-definedness test exercises exactly that.
    """
    for t, shapes in ((mu, _FORM), (x, _SECTION), (nu, _FORM), (y, _SECTION)):
        _require(t, "fn_bracket_simple", algebroid, shapes)
    sign = -1 if mu.degree % 2 else 1
    return _tensor_sum(algebroid, Kind.MIXED, mu.degree + nu.degree, (
        _tensor_form_section(_wedge(mu, nu), _bracket_tensors(algebroid, x, y)),
        _tensor_form_section(_wedge(mu, _lie_derivative(algebroid, x, nu)), y),
        -_tensor_form_section(_wedge(_lie_derivative(algebroid, y, mu), nu), x),
        _tensor_form_section(
            _wedge(_differential(algebroid, mu), _contract(x, nu)), y) * sign,
        _tensor_form_section(
            _wedge(_contract(y, mu), _differential(algebroid, nu)), x) * sign))


def _split(t: GradedTensor):
    """The forms mu_i of t = sum_i mu_i⊗e_i, as term maps keyed by fiber i."""
    split = {}
    for (fkey, i), c in t.terms.items():
        split.setdefault(i, {})[fkey] = c
    return split


def _insert(terms, j: int):
    """The term map of i_{e_j} of a form; inserting e_j is injective on the
    keys that hold it, so nothing needs accumulating."""
    out = {}
    for key, c in terms.items():
        hit = _insert_index(key, j)
        if hit:
            out[hit[0]] = c if hit[1] > 0 else -c
    return out


def _prepare_forms(algebroid: Algebroid, split, degree: int, fibers):
    """For each form mu_i of a split operand: mu_i, d mu_i, and for every
    fiber j of the other operand i_{e_j} mu_i and
    L_{e_j} mu_i = i_{e_j} d mu_i + d i_{e_j} mu_i, each differentiated once."""
    def d(terms, deg):
        form = GradedTensor._make(algebroid, Kind.FORM, deg, terms)
        return _differential(algebroid, form).terms

    prepared = {}
    for i, mu in split.items():
        dmu = d(mu, degree)
        inserted = {j: _insert(mu, j) for j in fibers}
        lie = {j: accumulate(_insert(dmu, j).items(),
                             d(imu, degree - 1) if imu else ())
               for j, imu in inserted.items()}
        prepared[i] = mu, dmu, inserted, lie
    return prepared


def _wedge_into(a, b, fiber, sign: int):
    """The product items (key, sign, factor, factor) of sign·(a∧b)⊗e_fiber
    for the term maps a, b of two forms."""
    for ka, ca in a.items():
        for kb, cb in b.items():
            hit = _sort_skew(ka + kb)
            if hit:
                yield (hit[0], fiber), hit[1] * sign, ca, cb


def fn_bracket(algebroid: Algebroid, k: GradedTensor, l: GradedTensor) -> GradedTensor:
    """The Frölicher–Nijenhuis bracket, extended bilinearly over the split
    K = sum_i mu_i⊗e_i, L = sum_j nu_j⊗e_j by bundle factor: the simple-
    tensor formula of :func:`fn_bracket_simple` on each pair (mu_i⊗e_i,
    nu_j⊗e_j), with [e_i, e_j] read from the structure table.  Graded by raw
    form degree (no shift): antisymmetry and Jacobi use (−1)^{ab}, and
    L_[K,L] = L_K∘L_L − (−1)^{ab} L_L∘L_K."""
    k, l = (_view(t, "fn_bracket", algebroid, Kind.MIXED) for t in (k, l))
    return _fn_bracket(algebroid, k, l)


def _fn_bracket(algebroid: Algebroid, k: GradedTensor, l: GradedTensor) -> GradedTensor:
    k, l = _as_kind(k, Kind.MIXED), _as_kind(l, Kind.MIXED)
    k_split, l_split = _split(k), _split(l)
    k_forms = _prepare_forms(algebroid, k_split, k.degree, l_split)
    l_forms = _prepare_forms(algebroid, l_split, l.degree, k_split)
    s = -1 if k.degree % 2 else 1

    def items():
        for i, (mu, dmu, i_mu, lie_mu) in k_forms.items():
            for j, (nu, dnu, i_nu, lie_nu) in l_forms.items():
                # mu∧nu⊗[e_i, e_j]
                column, sign = algebroid.column(i, j)
                if column:
                    for (key, _), key_sign, f, g in _wedge_into(mu, nu, None, sign):
                        fg = f * g
                        for m, c in column.items():
                            yield (key, m), key_sign, c, fg
                # + mu∧L_{e_i}nu⊗e_j − L_{e_j}mu∧nu⊗e_i
                yield from _wedge_into(mu, lie_nu[i], j, 1)
                yield from _wedge_into(lie_mu[j], nu, i, -1)
                # + (−1)^{deg mu} (d mu∧i_{e_i}nu⊗e_j + i_{e_j}mu∧d nu⊗e_i)
                yield from _wedge_into(dmu, i_nu[i], j, s)
                yield from _wedge_into(i_mu[j], dnu, i, s)

    return GradedTensor._make(algebroid, Kind.MIXED, k.degree + l.degree,
                              products(algebroid.base, items()))
