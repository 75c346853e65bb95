"""Named identity suites: every titled law of the calculus, re-verified on
seeded random instances with structured, replayable reports.

Each suite checks one block of identities over the algebroids and Poisson
structures of a model (the built-in fixture set by default).  A suite result
is a JSON-ready dict::

    {"suite": ..., "title": ..., "seed": ..., "trials": ...,
     "status": "pass" | "fail", "notes": [...],
     "items": [{"id": ..., "label": ..., "status": ..., "checked": n,
                "witness": {...}?}, ...]}

A failing identity carries a witness with everything needed to replay it:
a self-contained mini model (the inputs and the nonzero residual as named
tensors), an integer point where the residual does not vanish, the residual's
term values at that point, and the one-line ``eval`` command that reproduces
them.

Instances are drawn from a per-(seed, suite, item) generator, so results are
deterministic for a given seed and independent of item order.  One loop,
``_Run._record``, records every item: it builds the item's generator, hands
it to the item's instance stream, counts instances up to the first witness
and appends the item.  ``_Run.identity`` and ``_Run.predicate`` are its two
judges (a residual must vanish; a predicate must hold).

Most items are declared (``_Run.declare``): an id, a label, the fixtures,
each argument as ``(kind, degrees[, keys])`` or ``FUNCTION``, and a residual
function of ``(fixture, **arguments)`` that never sees the generator.  A
declared item checks the standard stream: the trial share per fixture, in
fixture order.  One enumerator, ``_Run.arguments``, draws the arguments in
declaration order: a degree chosen from the declared list (an int is taken
as is), then the tensor; ``FUNCTION`` is one random coefficient, handed
over as a function on the owner.  Eight items pass their own stream, a
function of ``rng``: theorem-6 ``antisymmetry`` (both degrees chosen before
either draw), and seven whose draw count is not the share: theorem-2
``operator-identity`` (a basis of forms per draw), theorem-5
``lambda-inverse`` (an invertibility probe), theorem-17 and theorem-24
``injectivity`` (``trials`` on one fixture), theorem-19 ``bivectors`` (a
skipped fixture), theorem-20 ``poisson-routes`` and theorem-24
``nijenhuis-instance`` (one instance per fixture, no draw).

The written-out references (velocities, lifts on a chart, the tangent anchor,
the expansions of H and G) sum their terms in one call of a library kernel
(``GradedTensor``, ``poly_sum``, ``tensor_sum``) and call no map they check.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from operator import attrgetter

from . import tensor as _tensor_conventions
from .algebroid import (
    anchor_apply,
    canonical_algebroid,
    dotted_chart,
    dual_chart,
    linear_poisson,
    section_bracket,
    tangent_lift,
)
from .calculus import (
    differential,
    fn_bracket,
    lie_derivative,
    nr_bracket,
    schouten,
    sym_schouten,
)
from .errors import DimensionMismatch, NotInvertible, UnknownName, ValidationError
from .lifts import (
    G_map,
    H_map,
    J_map,
    Jstar,
    canonical_transport,
    classical_complete_lift,
    classical_vertical_lift,
    complete_lift_T,
    cot_complete_G_vec,
    iota,
    vertical_lift_V,
    vertical_pi,
)
from .model import Model, builtin_model, model_document, tensor_key_string
from .poisson import (
    extended_bracket,
    g_p,
    h_p,
    koszul_schouten,
    lambda_p,
    poisson_bracket,
    r_p,
    tangent_poisson,
)
from .ring import poly_sum
from .tensor import (
    GradedTensor,
    Kind,
    _draw_tensor,
    _require,
    basis_keys,
    contract,
    contract_mixed,
    mixed_from_vector,
    random_coefficient,
    remap,
    sym_product,
    tensor_sum,
    wedge,
)

DEFAULT_SEED = 0
DEFAULT_TRIALS = 50


# -- witnesses ---------------------------------------------------------------

def _grid_points(dim, rng):
    """Small integer points, deterministic first, then seeded random draws."""
    values = (0, 1, -1, 2, -2, 3, -3)
    if dim == 0:
        yield ()
        return
    if len(values) ** dim <= 20000:
        yield from itertools.product(values, repeat=dim)
    else:
        for _ in range(5000):
            yield tuple(rng.randint(-9, 9) for _ in range(dim))


def _witness_point(residual, rng):
    chart = residual.owner.base
    for values in _grid_points(chart.dim, rng):
        point = dict(zip(chart.coords, values))
        evaluated = {key: coeff.eval_at(point)
                     for key, coeff in residual.terms.items()}
        if any(evaluated.values()):
            return point, evaluated
    return None, {}


def _witness_model(tensors):
    """A self-contained model holding the named input tensors (and the
    residual), inventing names for their charts and owners."""
    model = Model()
    charts = {}      # Chart -> name
    owners = {}      # Algebroid -> name

    def chart_name(chart):
        if chart not in charts:
            charts[chart] = f"chart{len(charts) + 1}" if charts else "chart"
            model.charts[charts[chart]] = chart
        return charts[chart]

    def owner_name(owner):
        if owner not in owners:
            name = chart_name(owner.base)
            if not owner.is_canonical:
                name = f"A{len(model.algebroids) + 1}"
                model.algebroids[name] = owner
            owners[owner] = name
        return owners[owner]

    for name, tensor in tensors.items():
        model.tensors[name] = tensor
        model.tensor_owners[name] = owner_name(tensor.owner)
    return model


def _witness(fixture, label, inputs, residual, rng):
    named = dict(inputs)
    named["residual"] = residual
    model = _witness_model(named)
    point, evaluated = _witness_point(residual, rng)
    at = ",".join(f"{name}={value}" for name, value in point.items()) if point else ""
    payload = {
        "fixture": fixture,
        "identity": label,
        "model": model_document(model),
        "point": {name: str(value) for name, value in (point or {}).items()},
        "residual_at_point": {
            tensor_key_string(residual.kind, key): str(value)
            for key, value in sorted(evaluated.items(), key=repr)},
        "replay": ("save the 'model' object as witness.json, then: "
                   f"algebroids eval --model witness.json --tensor residual"
                   + (f" --at {at}" if at else "")),
    }
    return payload


#: The argument spec of one random function on the draw owner's base.
FUNCTION = "function"


class _Run:
    """Accumulates one suite's items."""

    def __init__(self, suite, title, model, seed, trials, coeff_degree):
        self.suite = suite
        self.title = title
        self.model = model
        self.seed = seed
        self.trials = trials
        self.coeff_degree = coeff_degree
        self.items = []
        self.notes = []

    def rng(self, item_id):
        return random.Random(f"{self.seed}:{self.suite}:{item_id}")

    def share(self, buckets):
        return max(1, -(-self.trials // max(1, buckets)))

    def algebroids(self):
        return sorted(self.model.algebroids.items())

    def poisson(self):
        return sorted(self.model.poisson.items())

    def canonical(self):
        return [(name, A) for name, A in self.algebroids() if A.is_canonical]

    def draw(self, rng, owner, kind, degree, keys=2):
        # the settings were checked by run_suite, so the draw skips the guards
        return _draw_tensor(rng, owner, kind, degree, self.coeff_degree, keys)

    def note(self, text):
        self.notes.append(text)

    def arguments(self, rng, owner, args):
        """The enumerator: draw ``args`` ({name: spec}) on ``owner`` in
        declaration order.  ``FUNCTION`` is one ``random_coefficient`` on
        the owner's base, handed over as ``owner.fn(...)``.  Any other spec
        is ``(kind, degrees[, keys])``: an int degree is drawn as is, with
        no ``rng.choice``; a sequence is one ``rng.choice`` over its entries
        exactly as listed, duplicates included, each entry an int or a
        function of the owner (``_upto2``, ``_rank``)."""
        drawn = {}
        for name, spec in args.items():
            if spec is FUNCTION:
                drawn[name] = owner.fn(random_coefficient(
                    rng, owner.base, self.coeff_degree))
                continue
            kind, degrees, *keys = spec
            if not isinstance(degrees, int):
                degrees = rng.choice([d(owner) if callable(d) else d
                                      for d in degrees])
            drawn[name] = self.draw(rng, owner, kind, degrees, *keys)
        return drawn

    def declare(self, item_id, label, fixtures, owner=None, **args):
        """Decorate ``residual(fixture, **args)`` into an item over the
        standard stream: ``share(len(fixtures))`` instances per fixture, in
        the order given, each drawing ``args`` on ``owner(fixture)`` (the
        fixture itself by default) and checking the residual, or the tuple
        of residuals, of them."""
        per = self.share(len(fixtures))

        def declared(residual):
            def stream(rng):
                for name, fixture in fixtures:
                    on = fixture if owner is None else owner(fixture)
                    for _ in range(per):
                        drawn = self.arguments(rng, on, args)
                        yield name, drawn, residual(fixture, **drawn)

            self.identity(item_id, label, stream)
            return residual
        return declared

    def identity(self, item_id, label, stream):
        """``stream(rng)`` yields (fixture, inputs, residual) — or a tuple
        of residuals, the components of one identity, each of which must
        vanish on its own.  The witness of the first nonzero residual
        carries its 1-based position as ``component`` (1 for a single
        residual)."""
        def witness(fixture, inputs, residual):
            residuals = residual if isinstance(residual, tuple) else (residual,)
            for component, nonzero in enumerate(residuals, 1):
                if not nonzero.is_zero():
                    found = _witness(fixture, label, inputs, nonzero,
                                     self.rng(f"{item_id}/witness"))
                    found["component"] = component
                    return found
            return None

        self._record(item_id, label, stream, witness)

    def predicate(self, item_id, label, stream):
        """``stream(rng)`` yields (fixture, inputs, ok) for checks that are
        not residual-shaped (injectivity, error paths); the witness of the
        first false ``ok`` holds the inputs that are tensors."""
        def witness(fixture, inputs, ok):
            if ok:
                return None
            named = {name: t for name, t in inputs.items()
                     if isinstance(t, GradedTensor)}
            return {"fixture": fixture, "identity": label,
                    "model": model_document(_witness_model(named))}

        self._record(item_id, label, stream, witness)

    def _record(self, item_id, label, stream, witness):
        """The one recording loop: run ``stream`` on the item's own
        generator, count instances up to the first one ``witness`` turns
        into a witness, and append the item."""
        checked = 0
        found = None
        for fixture, inputs, outcome in stream(self.rng(item_id)):
            checked += 1
            found = witness(fixture, inputs, outcome)
            if found is not None:
                break
        item = {"id": item_id, "label": label,
                "status": "fail" if found else "pass", "checked": checked}
        if found:
            item["witness"] = found
        self.items.append(item)

    def result(self):
        status = "pass" if all(i["status"] == "pass" for i in self.items) else "fail"
        return {"suite": self.suite, "title": self.title, "seed": self.seed,
                "trials": self.trials, "status": status,
                "notes": self.notes, "items": self.items}


def _upto2(owner):
    """The degree entry ``min(2, rank)`` of the draw owner."""
    return min(2, owner.rank)


#: The degree entry ``rank`` of the draw owner.
_rank = attrgetter("rank")
#: A Poisson structure's owner, the canonical algebroid of its chart: its
#: forms and functions draw there.
_poisson_owner = attrgetter("owner")


def _sign(n):
    """(−1)^n."""
    return -1 if n % 2 else 1


def _graded_jacobi(bracket, x, y, z, shift=0, right=False):
    """The cyclic graded-Jacobi sum of ``x, y, z``: Σ (−1)^{|p||r|}
    [[p, q], r] over (p, q, r) = (x, y, z), (y, z, x), (z, x, y), nesting
    as [p, [q, r]] when ``right``; |t| is the degree of t minus ``shift``."""
    def term(p, q, r):
        nested = bracket(p, bracket(q, r)) if right else bracket(bracket(p, q), r)
        return nested * _sign((p.degree - shift) * (r.degree - shift))
    return term(x, y, z) + term(y, z, x) + term(z, x, y)


def _vt_table(op, base, x, y, V, T):
    """The V/T table of a bilinear ``op`` as its four residuals:
    op(Vx, Vy) = 0, op(Vx, Ty) = op(Tx, Vy) = V(base), op(Tx, Ty) = T(base),
    where ``op`` acts on the lift and ``base`` is the same op on x and y."""
    vx, tx, vy, ty = V(x), T(x), V(y), T(y)
    v_base = V(base)
    return (op(vx, vy), op(vx, ty) - v_base, op(tx, vy) - v_base,
            op(tx, ty) - T(base))


def _lift_table(A, op, x, y, owned=True):
    """The V/T table of ``op`` over ``A`` and its tangent lift; ``op``
    takes the owner first when ``owned``."""
    def on(owner):
        return partial(op, owner) if owned else op
    return _vt_table(on(tangent_lift(A)), on(A)(x, y), x, y,
                     partial(vertical_lift_V, A), partial(complete_lift_T, A))


def _velocity(coeff, source, target):
    # the velocity of coordinate a is coordinate n + a of the velocity chart
    n = source.dim
    if target.dim != 2 * n or target.coords[:n] != source.coords:
        raise DimensionMismatch(f"{target!r} is not the velocity chart of {source!r}")
    return poly_sum(target, (
        d.transport(target) * target.coordinate(target.coords[n + a])
        for a, d in enumerate(map(coeff.partial, source.coords)) if not d.is_zero()))


# -- exterior calculus -------------------------------------------------------

def _suite_theorem_1(run):
    """d² = 0 and the Leibniz / commutator laws of i_X and L_X."""
    fixtures = run.algebroids()

    @run.declare("d-squared", "d∘d = 0", fixtures,
                 mu=(Kind.FORM, (0, 1, _upto2)))
    def d_squared(A, mu):
        return differential(A, differential(A, mu))

    @run.declare("d-leibniz", "d(mu∧nu) = d(mu)∧nu + (−1)^k mu∧d(nu)",
                 fixtures, mu=(Kind.FORM, (0, 1)), nu=(Kind.FORM, (0, 1)))
    def d_leibniz(A, mu, nu):
        return (differential(A, wedge(mu, nu))
                - wedge(differential(A, mu), nu)
                - wedge(mu, differential(A, nu)) * _sign(mu.degree))

    @run.declare("i-leibniz", "i_X(mu∧nu) = i_X(mu)∧nu + (−1)^k mu∧i_X(nu)",
                 fixtures, mu=(Kind.FORM, (1, _upto2)),
                 nu=(Kind.FORM, (1, _upto2)), x=(Kind.MV, 1))
    def i_leibniz(A, mu, nu, x):
        return (contract(x, wedge(mu, nu))
                - wedge(contract(x, mu), nu)
                - wedge(mu, contract(x, nu)) * _sign(mu.degree))

    @run.declare("lie-leibniz", "L_X(mu∧nu) = L_X(mu)∧nu + mu∧L_X(nu)",
                 fixtures, mu=(Kind.FORM, (0, 1)),
                 nu=(Kind.FORM, (0, 1, _upto2)), x=(Kind.MV, 1))
    def lie_leibniz(A, mu, nu, x):
        return (lie_derivative(A, x, wedge(mu, nu))
                - wedge(lie_derivative(A, x, mu), nu)
                - wedge(mu, lie_derivative(A, x, nu)))

    @run.declare("lie-commutator", "L_X∘L_Y − L_Y∘L_X = L_[X,Y]", fixtures,
                 mu=(Kind.FORM, (1, _upto2)), x=(Kind.MV, 1), y=(Kind.MV, 1))
    def lie_commutator(A, mu, x, y):
        return (lie_derivative(A, x, lie_derivative(A, y, mu))
                - lie_derivative(A, y, lie_derivative(A, x, mu))
                - lie_derivative(A, section_bracket(A, x, y), mu))

    @run.declare("lie-insertion", "L_X∘i_Y − i_Y∘L_X = i_[X,Y]", fixtures,
                 mu=(Kind.FORM, (1, _upto2)), x=(Kind.MV, 1), y=(Kind.MV, 1))
    def lie_insertion(A, mu, x, y):
        return (lie_derivative(A, x, contract(y, mu))
                - contract(y, lie_derivative(A, x, mu))
                - contract(section_bracket(A, x, y), mu))


def _suite_theorem_2(run):
    """The operator identity that pins the generalized Schouten bracket, on a
    full basis of forms; the bracket on functions; the adjoint derivation."""
    run.note("active contraction order: "
             + _tensor_conventions.CONTRACTION_ORDER)
    fixtures = run.algebroids()
    draws = run.share(len(fixtures))

    def operator(rng):
        for name, A in fixtures:
            degrees = range(1, min(3, A.rank) + 1)
            for _ in range(draws):
                a = rng.choice(list(degrees))
                b = rng.choice(list(degrees))
                x = run.draw(rng, A, Kind.MV, a)
                y = run.draw(rng, A, Kind.MV, b)
                sign = _sign(a * (b - 1))
                for degree in range(1, min(3, A.rank) + 1):
                    for key in basis_keys(A, Kind.FORM, degree):
                        mu = GradedTensor.basis(A, Kind.FORM, key)
                        residual = (lie_derivative(A, y, contract(x, mu))
                                    - contract(x, lie_derivative(A, y, mu)) * sign
                                    + contract(schouten(A, x, y), mu))
                        yield name, {"x": x, "y": y, "mu": mu}, residual

    run.identity("operator-identity",
                 "L_Y∘i_X − (−1)^{a(b−1)} i_X∘L_Y = −i_[X,Y] on basis forms",
                 operator)

    @run.declare("bracket-on-functions", "[X, f] = anchor(X)(f)", fixtures,
                 x=(Kind.MV, 1), f=FUNCTION)
    def on_functions(A, x, f):
        value = f.as_function()
        applied = poly_sum(A.base, (c * A.anchor[i][a] * value.partial(coord)
                                    for (i,), c in x.terms.items()
                                    for a, coord in enumerate(A.base.coords)))
        return schouten(A, x, f) - A.fn(applied)

    @run.declare("adjoint-derivation",
                 "[X, Y∧Z] = [X,Y]∧Z + (−1)^{(a−1)b} Y∧[X,Z]", fixtures,
                 x=(Kind.MV, (1, 2)), y=(Kind.MV, (1, _upto2)), z=(Kind.MV, 1))
    def derivation(A, x, y, z):
        return (schouten(A, x, wedge(y, z))
                - wedge(schouten(A, x, y), z)
                - wedge(y, schouten(A, x, z)) * _sign((x.degree - 1) * y.degree))


def _suite_theorem_3(run):
    """The Nijenhuis–Richardson bracket is a graded Lie bracket."""
    fixtures = run.algebroids()

    @run.declare("antisymmetry", "[K,L] = −(−1)^{(a−1)(b−1)} [L,K]", fixtures,
                 K=(Kind.MIXED, (0, 1, _upto2)), L=(Kind.MIXED, (0, 1)))
    def antisymmetry(A, K, L):
        return (nr_bracket(K, L)
                + nr_bracket(L, K) * _sign((K.degree - 1) * (L.degree - 1)))

    mixed = (Kind.MIXED, (0, 1, _upto2))

    @run.declare("graded-jacobi", "graded Jacobi identity", fixtures,
                 K=mixed, L=mixed, M=mixed)
    def jacobi(A, K, L, M):
        return _graded_jacobi(nr_bracket, K, L, M, shift=1)


def _suite_theorem_4(run):
    """The Frölicher–Nijenhuis bracket: the Lie-differential operator
    identity and the graded Lie laws."""
    fixtures = run.algebroids()
    mixed = (Kind.MIXED, (0, 1, _upto2))

    @run.declare("operator-identity", "L_[K,L] = L_K∘L_L − (−1)^{ab} L_L∘L_K",
                 fixtures, K=mixed, L=(Kind.MIXED, (0, 1)),
                 omega=(Kind.FORM, (1, _upto2)))
    def operator(A, K, L, omega):
        return (lie_derivative(A, fn_bracket(A, K, L), omega)
                - lie_derivative(A, K, lie_derivative(A, L, omega))
                + lie_derivative(A, L, lie_derivative(A, K, omega))
                * _sign(K.degree * L.degree))

    @run.declare("antisymmetry", "[K,L] = −(−1)^{ab} [L,K]", fixtures,
                 K=mixed, L=(Kind.MIXED, (0, 1)))
    def antisymmetry(A, K, L):
        return (fn_bracket(A, K, L)
                + fn_bracket(A, L, K) * _sign(K.degree * L.degree))

    @run.declare("graded-jacobi", "graded Jacobi identity", fixtures,
                 K=mixed, L=mixed, M=mixed)
    def jacobi(A, K, L, M):
        return _graded_jacobi(partial(fn_bracket, A), K, L, M)


def _suite_eq_1_12(run):
    """Insertion operators compose to the Nijenhuis–Richardson bracket."""
    mixed = (Kind.MIXED, (0, 1, _upto2))

    @run.declare("insertion-identity",
                 "i_[K,L] = i_K∘i_L − (−1)^{(a−1)(b−1)} i_L∘i_K",
                 run.algebroids(), K=mixed, L=mixed,
                 omega=(Kind.FORM, (1, _upto2, _rank)))
    def operator(A, K, L, omega):
        return (contract_mixed(nr_bracket(K, L), omega)
                - contract_mixed(K, contract_mixed(L, omega))
                + contract_mixed(L, contract_mixed(K, omega))
                * _sign((K.degree - 1) * (L.degree - 1)))


# -- Poisson structures ------------------------------------------------------

def _suite_theorem_5(run):
    """Λ maps the Koszul–Schouten bracket to the Schouten bracket; it inverts
    exactly over an invertible bundle map."""
    fixtures = run.poisson()
    per = run.share(len(fixtures))
    form = (Kind.FORM, (0, 1, 2))

    @run.declare("lambda-homomorphism", "Λ[mu,nu]_P = [Λmu, Λnu]", fixtures,
                 owner=_poisson_owner, mu=form, nu=form)
    def homomorphism(ps, mu, nu):
        return (lambda_p(ps, koszul_schouten(ps, mu, nu))
                - schouten(ps.owner, lambda_p(ps, mu), lambda_p(ps, nu)))

    def inverse(rng):
        for name, ps in fixtures:
            O = ps.owner
            try:
                lambda_p(ps, O.e(0), "inverse")
            except NotInvertible:
                yield name, {}, True
                continue
            for _ in range(per):
                mu = run.draw(rng, O, Kind.FORM, rng.choice([1, 2]))
                back = lambda_p(ps, lambda_p(ps, mu), "inverse")
                yield name, {"mu": mu}, back == mu

    run.predicate("lambda-inverse",
                  "Λ⁻¹∘Λ = id wherever the bundle map inverts", inverse)


def _suite_theorem_6(run):
    """The extended bracket is a graded Lie bracket restricting to the
    Poisson bracket on functions and compatible with d."""
    fixtures = run.poisson()
    per = run.share(len(fixtures))

    @run.declare("poisson-on-functions", "{f, g}_P is the Poisson bracket",
                 fixtures, owner=_poisson_owner, f=FUNCTION, g=FUNCTION)
    def on_functions(ps, f, g):
        bracket = poisson_bracket(ps, f.as_function(), g.as_function())
        return (extended_bracket(ps, f, g)
                - GradedTensor(ps.owner, Kind.FORM, 0, {(): bracket}))

    def antisymmetry(rng):
        for name, ps in fixtures:
            O = ps.owner
            for _ in range(per):
                ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1])
                mu = run.draw(rng, O, Kind.FORM, ka)
                nu = run.draw(rng, O, Kind.FORM, kb)
                yield name, {"mu": mu, "nu": nu}, (
                    extended_bracket(ps, mu, nu)
                    + extended_bracket(ps, nu, mu) * _sign(ka * kb))

    run.identity("antisymmetry", "graded antisymmetry of {,}_P", antisymmetry)

    form = (Kind.FORM, (0, 1, 2), 1)

    @run.declare("graded-jacobi", "graded Jacobi identity of {,}_P", fixtures,
                 owner=_poisson_owner, mu=form, nu=form, rho=form)
    def jacobi(ps, mu, nu, rho):
        return _graded_jacobi(partial(extended_bracket, ps), mu, nu, rho,
                              right=True)

    @run.declare("d-compatibility", "{d mu, nu}_P = d{mu, nu}_P", fixtures,
                 owner=_poisson_owner, mu=(Kind.FORM, (0, 1)),
                 nu=(Kind.FORM, (0, 1, 2)))
    def d_compat(ps, mu, nu):
        return (extended_bracket(ps, differential(ps.owner, mu), nu)
                - differential(ps.owner, extended_bracket(ps, mu, nu)))

    @run.declare("term-expansion-0-1",
                 "{g0, f0 df1}_P = {g0,f0} df1 + f0 d{g0,f1}", fixtures,
                 owner=_poisson_owner, g0=FUNCTION, f0=FUNCTION, f1=FUNCTION)
    def term_expansion_01(ps, g0, f0, f1):
        O = ps.owner
        g0, f0, f1 = (f.as_function() for f in (g0, f0, f1))

        def d0(f):
            return differential(O, O.fn(f))

        lhs = extended_bracket(ps, O.fn(g0), d0(f1) * f0)
        rhs = (d0(f1) * poisson_bracket(ps, g0, f0)
               + d0(poisson_bracket(ps, g0, f1)) * f0)
        return lhs - rhs

    @run.declare("term-expansion-1-1", "six-term expansion of {g0 dg1, f0 df1}_P",
                 fixtures, owner=_poisson_owner, g0=FUNCTION, g1=FUNCTION,
                 f0=FUNCTION, f1=FUNCTION)
    def term_expansion_11(ps, g0, g1, f0, f1):
        O = ps.owner
        g0, g1, f0, f1 = (f.as_function() for f in (g0, g1, f0, f1))

        def d0(f):
            return differential(O, O.fn(f))

        def pb(a, b):
            return poisson_bracket(ps, a, b)

        lhs = extended_bracket(ps, d0(g1) * g0, d0(f1) * f0)
        rhs = (wedge(d0(g1), d0(f1)) * pb(g0, f0)
               + wedge(d0(pb(g1, f0)), d0(f1)) * g0
               - wedge(d0(pb(g1, f1)), d0(f0)) * g0
               - wedge(d0(pb(g0, f1)), d0(g1)) * f0
               + wedge(d0(pb(g1, f1)), d0(g0)) * f0
               - wedge(d0(g0), d0(f0)) * pb(g1, f1))
        return lhs - rhs


def _suite_theorem_7(run):
    """d, H and G intertwine the extended bracket with the Koszul–Schouten,
    Frölicher–Nijenhuis and Schouten brackets."""
    fixtures = run.poisson()
    low = (Kind.FORM, (0, 1))

    @run.declare("d-homomorphism", "[d mu, d nu]_P = d{mu, nu}_P", fixtures,
                 owner=_poisson_owner, mu=low, nu=low)
    def d_homomorphism(ps, mu, nu):
        O = ps.owner
        return (koszul_schouten(ps, differential(O, mu), differential(O, nu))
                - differential(O, extended_bracket(ps, mu, nu)))

    @run.declare("h-homomorphism", "H{mu,nu}_P = [H mu, H nu]^{F-N}", fixtures,
                 owner=_poisson_owner, mu=low, nu=low)
    def h_homomorphism(ps, mu, nu):
        return (h_p(ps, extended_bracket(ps, mu, nu))
                - fn_bracket(ps.owner, h_p(ps, mu), h_p(ps, nu)))

    @run.declare("g-homomorphism", "G{mu,nu}_P = [G mu, G nu]", fixtures,
                 owner=_poisson_owner, mu=(Kind.FORM, (0, 1, 2)), nu=low)
    def g_homomorphism(ps, mu, nu):
        return (g_p(ps, extended_bracket(ps, mu, nu))
                - schouten(ps.owner, g_p(ps, mu), g_p(ps, nu)))


def _suite_eq_2_6(run):
    """The Koszul–Schouten bracket agrees with its insertion/Lie expansion."""
    form = (Kind.FORM, (0, 1, 2))

    @run.declare("h-r-expansion", "[mu,nu]_P = i_{H mu} nu − (−1)^k L_{R mu} nu",
                 run.poisson(), owner=_poisson_owner, mu=form, nu=form)
    def expansion(ps, mu, nu):
        return (koszul_schouten(ps, mu, nu)
                - contract_mixed(h_p(ps, mu), nu)
                + lie_derivative(ps.owner, r_p(ps, mu), nu) * _sign(mu.degree))


# -- lifts to the tangent algebroid ------------------------------------------

def _suite_theorem_8(run):
    """Vertical and complete lifts: function laws and module structure."""
    fixtures = run.algebroids()

    @run.declare("function-lifts",
                 "V(f) is the pullback; T(f) is the velocity derivative",
                 fixtures, f=FUNCTION)
    def function_laws(A, f):
        TL = tangent_lift(A)
        value = f.as_function()
        return (vertical_lift_V(A, f) - TL.fn(value.transport(TL.base)),
                complete_lift_T(A, f) - TL.fn(_velocity(value, A.base, TL.base)))

    @run.declare("module-laws",
                 "V(fX) = V(f)V(X) and T(fX) = T(f)V(X) + V(f)T(X)",
                 fixtures, f=FUNCTION, x=(Kind.MV, 1))
    def module_laws(A, f, x):
        fx = x * f.as_function()
        vf = vertical_lift_V(A, f).as_function()
        tf = complete_lift_T(A, f).as_function()
        return (vertical_lift_V(A, fx) - vertical_lift_V(A, x) * vf,
                complete_lift_T(A, fx) - vertical_lift_V(A, x) * tf
                - complete_lift_T(A, x) * vf)


def _suite_theorem_9(run):
    """V and T form a Leibniz pair for wedge and symmetric products."""
    for item_id, kind, product, what in (
            ("wedge-leibniz", Kind.MV, wedge, "multivector wedges"),
            ("sym-leibniz", Kind.SYM, sym_product, "symmetric products"),
            ("form-leibniz", Kind.FORM, wedge, "form wedges")):
        low = (kind, (1, _upto2))

        @run.declare(item_id, f"V/T Leibniz pair on {what}", run.algebroids(),
                     s=low, t=low)
        def leibniz_pair(A, s, t, product=product):
            V, T = partial(vertical_lift_V, A), partial(complete_lift_T, A)
            return (V(product(s, t)) - product(V(s), V(t)),
                    T(product(s, t)) - product(T(s), V(t)) - product(V(s), T(t)))


def _suite_theorem_10(run):
    """The tangent-lift anchor intertwines V/T with the classical lifts."""
    fixtures = [(n, A) for n, A in run.algebroids() if A.base.dim]
    skipped = [n for n, A in run.algebroids() if not A.base.dim]
    if skipped:
        run.note("skipped over a point (no vector fields to lift): "
                 + ", ".join(skipped))

    @run.declare("anchor-intertwines",
                 "anchor∘V = v_T∘anchor and anchor∘T = d_T∘anchor",
                 fixtures, x=(Kind.MV, 1))
    def anchor(A, x):
        TL = tangent_lift(A)
        return (anchor_apply(TL, vertical_lift_V(A, x))
                - classical_vertical_lift(anchor_apply(A, x)),
                anchor_apply(TL, complete_lift_T(A, x))
                - classical_complete_lift(anchor_apply(A, x)))


def _suite_theorem_11(run):
    """The V/T multiplication table for the Schouten brackets."""
    fixtures = run.algebroids()
    mv, sym = (Kind.MV, (1, _upto2)), (Kind.SYM, (1, 2))

    @run.declare("schouten-table", "[VV]=0, [VT]=[TV]=V[,], [TT]=T[,]",
                 fixtures, x=mv, y=mv)
    def table(A, x, y):
        return _lift_table(A, schouten, x, y)

    @run.declare("sym-schouten-table", "the same table for the symmetric bracket",
                 fixtures, x=sym, y=sym)
    def sym_table(A, x, y):
        return _lift_table(A, sym_schouten, x, y)


def _suite_theorem_12(run):
    """Contraction, differential and Lie derivative against V/T lifts."""
    fixtures = run.algebroids()
    form = (Kind.FORM, (1, _upto2))

    @run.declare("contraction-table", "i_{V/T} on V/T-lifted forms", fixtures,
                 x=(Kind.MV, 1), mu=form)
    def contraction(A, x, mu):
        return _lift_table(A, contract, x, mu, owned=False)

    @run.declare("differential-table", "d∘V = V∘d and d∘T = T∘d", fixtures,
                 mu=(Kind.FORM, (0, 1, _upto2)))
    def differential_table(A, mu):
        TL = tangent_lift(A)
        dmu = differential(A, mu)
        return (differential(TL, vertical_lift_V(A, mu)) - vertical_lift_V(A, dmu),
                differential(TL, complete_lift_T(A, mu)) - complete_lift_T(A, dmu))

    @run.declare("lie-table", "L_{V/T} on V/T-lifted forms", fixtures,
                 x=(Kind.MV, 1), mu=form)
    def lie_table(A, x, mu):
        return _lift_table(A, lie_derivative, x, mu)


def _suite_theorem_13(run):
    """The V/T table for the Nijenhuis–Richardson bracket."""
    low = (Kind.MIXED, (0, 1))

    @run.declare("nr-table", "the V/T table for the N-R bracket",
                 run.algebroids(), K=low, L=low)
    def table(A, K, L):
        return _lift_table(A, nr_bracket, K, L, owned=False)


def _suite_theorem_14(run):
    """The V/T table for the Frölicher–Nijenhuis bracket."""
    low = (Kind.MIXED, (0, 1))

    @run.declare("fn-table", "the V/T table for the F-N bracket",
                 run.algebroids(), K=low, L=low)
    def table(A, K, L):
        return _lift_table(A, fn_bracket, K, L)


# -- lifts to the dual bundle ------------------------------------------------

def _suite_theorem_15(run):
    """The dual-chart Schouten identities tying iota, V_pi and G together."""
    fixtures = run.algebroids()
    # every item draws x, y, mu and nu, whichever of them it uses
    instance = {"x": (Kind.MV, 1), "y": (Kind.MV, 1),
                "mu": (Kind.FORM, (1, _upto2)), "nu": (Kind.FORM, 1)}

    @run.declare("a-multiplicative", "V_pi(mu∧nu) = V_pi(mu)∧V_pi(nu)",
                 fixtures, **instance)
    def wedge_mult(A, x, y, mu, nu):
        return (vertical_pi(A, wedge(mu, nu))
                - wedge(vertical_pi(A, mu), vertical_pi(A, nu)))

    @run.declare("b-commuting", "[V_pi mu, V_pi nu] = 0", fixtures, **instance)
    def commute(A, x, y, mu, nu):
        D = linear_poisson(A).owner
        return schouten(D, vertical_pi(A, mu), vertical_pi(A, nu))

    @run.declare("c-iota", "[iota(X), V_pi mu] = −V_pi(i_X mu)", fixtures,
                 **instance)
    def iota_bracket(A, x, y, mu, nu):
        D = linear_poisson(A).owner
        return (schouten(D, D.fn(iota(A, x)), vertical_pi(A, mu))
                + vertical_pi(A, contract(x, mu)))

    @run.declare("d-differential", "[P, V_pi mu] = V_pi(d mu)", fixtures,
                 **instance)
    def p_bracket(A, x, y, mu, nu):
        ps = linear_poisson(A)
        return (schouten(ps.owner, ps.bivector, vertical_pi(A, mu))
                - vertical_pi(A, differential(A, mu)))

    @run.declare("e-lie", "[G(X), V_pi mu] = V_pi(L_X mu)", fixtures, **instance)
    def g_lie(A, x, y, mu, nu):
        D = linear_poisson(A).owner
        return (schouten(D, cot_complete_G_vec(A, x), vertical_pi(A, mu))
                - vertical_pi(A, lie_derivative(A, x, mu)))

    @run.declare("f-bracket", "[G(X), G(Y)] = G([X, Y])", fixtures, **instance)
    def g_g(A, x, y, mu, nu):
        D = linear_poisson(A).owner
        return (schouten(D, cot_complete_G_vec(A, x), cot_complete_G_vec(A, y))
                - cot_complete_G_vec(A, section_bracket(A, x, y)))

    @run.declare("g-iota", "[G(X), iota(Y)] = iota([X, Y])", fixtures,
                 **instance)
    def g_iota(A, x, y, mu, nu):
        D = linear_poisson(A).owner
        return (schouten(D, cot_complete_G_vec(A, x), D.fn(iota(A, y)))
                - D.fn(iota(A, section_bracket(A, x, y))))


def _g_expanded(A, k):
    """The product-rule branch of the dual complete lift of a mixed tensor."""
    pieces = []
    for (form_key, j), coeff in k.terms.items():
        mu = GradedTensor(A, Kind.FORM, k.degree, {form_key: coeff})
        pieces += (wedge(cot_complete_G_vec(A, A.e(j)), vertical_pi(A, mu)),
                   vertical_pi(A, differential(A, mu)) * -iota(A, A.e(j)))
    return tensor_sum(linear_poisson(A).owner, Kind.MV, k.degree + 1, pieces)


def _suite_theorem_16(run):
    """The mixed-tensor maps J and G extend −iota and the vector lift, and
    the two routes to G agree."""
    fixtures = run.algebroids()

    @run.declare("degree-zero", "J(X) = −iota(X) and G(X) = G_vec(X)",
                 fixtures, x=(Kind.MV, 1))
    def degree_zero(A, x):
        k = mixed_from_vector(x)
        return (J_map(A, k) + canonical_algebroid(dual_chart(A)).fn(iota(A, x)),
                G_map(A, k) - cot_complete_G_vec(A, x))

    @run.declare("dual-routes",
                 "[P, J(K)] equals the product-rule expansion of G(K)",
                 fixtures, K=(Kind.MIXED, (0, 1, _upto2)))
    def dual_routes(A, K):
        ps = linear_poisson(A)
        return schouten(ps.owner, ps.bivector, J_map(A, K)) - _g_expanded(A, K)


def _suite_theorem_17(run):
    """J is an injective homomorphism of the N-R bracket."""
    fixtures = run.algebroids()
    low = (Kind.MIXED, (0, 1))

    @run.declare("nr-homomorphism", "[J(K), J(L)] = J([K,L]^{N-R})",
                 fixtures, K=low, L=low)
    def homomorphism(A, K, L):
        return (schouten(canonical_algebroid(dual_chart(A)),
                         J_map(A, K), J_map(A, L))
                - J_map(A, nr_bracket(K, L)))

    def injectivity(rng):
        plane = next(((name, A) for name, A in fixtures
                      if A.is_canonical and A.rank == 2), None)
        if plane is None:
            return
        name, A = plane
        slots = [(key, j) for degree in (0, 1, 2)
                 for key in basis_keys(A, Kind.FORM, degree)
                 for j in range(A.rank)]
        for _ in range(run.trials):
            terms = {}
            degree = rng.choice([0, 1, 2])
            for key, j in slots:
                if len(key) == degree and rng.random() < 0.5:
                    c = rng.randint(-2, 2)
                    if c:
                        terms[(key, j)] = c
            k = GradedTensor(A, Kind.MIXED, degree, terms)
            yield name, {"K": k}, J_map(A, k).is_zero() == k.is_zero()

    run.predicate("injectivity",
                  "J(K) = 0 only for K = 0 on a spanning set of mixed "
                  "tensors of form degree ≤ 2", injectivity)


def _suite_theorem_18(run):
    """The dual complete lift G is a homomorphism of the F-N bracket."""
    low = (Kind.MIXED, (0, 1))

    @run.declare("fn-homomorphism", "[G(K), G(L)] = G([K,L]^{F-N})",
                 run.algebroids(), K=low, L=low)
    def homomorphism(A, K, L):
        return (schouten(canonical_algebroid(dual_chart(A)),
                         G_map(A, K), G_map(A, L))
                - G_map(A, fn_bracket(A, K, L)))


# -- the canonical case ------------------------------------------------------

def _direct_vertical_vector(chart, x):
    target = canonical_algebroid(dotted_chart(chart))
    n = chart.dim
    return GradedTensor(target, Kind.MV, 1,
                        {(n + key[0],): c.transport(target.base)
                         for key, c in x.terms.items()})


def _direct_complete_vector(chart, x):
    target = canonical_algebroid(dotted_chart(chart))
    n = chart.dim
    return GradedTensor(target, Kind.MV, 1, (
        term for (a,), c in x.terms.items()
        for term in (((a,), c.transport(target.base)),
                     ((n + a,), _velocity(c, chart, target.base)))))


def _pullback(owner, mu):
    """The form ``mu`` with its coefficients transported onto the base of
    ``owner``, keys unchanged: the direct vertical lift of a form on the
    dotted chart, and the pullback to a dual chart."""
    return GradedTensor(owner, Kind.FORM, mu.degree,
                        {key: c.transport(owner.base)
                         for key, c in mu.terms.items()})


def _direct_complete_form(chart, mu):
    target = canonical_algebroid(dotted_chart(chart))
    n = chart.dim
    terms = []
    for key, c in mu.terms.items():
        pulled = c.transport(target.base)
        terms.append((key, _velocity(c, chart, target.base)))
        terms += ((key[:r] + (n + key[r],) + key[r + 1:], pulled) for r in range(len(key)))
    return GradedTensor(target, Kind.FORM, mu.degree, terms)


def _direct_vertical_bivector(chart, p):
    target = canonical_algebroid(dotted_chart(chart))
    n = chart.dim
    return GradedTensor(target, Kind.MV, 2,
                        {(n + u, n + v): c.transport(target.base)
                         for (u, v), c in p.terms.items()})


def _direct_complete_bivector(chart, p):
    target = canonical_algebroid(dotted_chart(chart))
    n = chart.dim
    terms = []
    for (u, v), c in p.terms.items():
        pulled = c.transport(target.base)
        terms += (((n + u, n + v), _velocity(c, chart, target.base)),
                  ((u, n + v), pulled), ((n + u, v), pulled))
    return GradedTensor(target, Kind.MV, 2, terms)


def _suite_theorem_19(run):
    """The flip transports carry V/T to the classical vertical/complete
    lifts, written out independently."""
    fixtures = run.canonical()
    if not fixtures:
        run.note("no canonical algebroids in the model")
    per = run.share(len(fixtures))

    @run.declare("vectors", "kappa∘V = v_T and kappa∘T = d_T on vector fields",
                 fixtures, x=(Kind.MV, 1))
    def vectors(A, x):
        return (canonical_transport("kappa", vertical_lift_V(A, x))
                - _direct_vertical_vector(A.base, x),
                canonical_transport("kappa", complete_lift_T(A, x))
                - _direct_complete_vector(A.base, x))

    def bivectors(rng):
        for name, A in fixtures:
            chart = A.base
            if A.rank < 2:
                continue
            for _ in range(per):
                p = run.draw(rng, A, Kind.MV, 2)
                yield name, {"p": p}, (
                    canonical_transport("kappa", vertical_lift_V(A, p))
                    - _direct_vertical_bivector(chart, p),
                    canonical_transport("kappa", complete_lift_T(A, p))
                    - _direct_complete_bivector(chart, p))

    run.identity("bivectors", "the same on bivectors", bivectors)

    @run.declare("forms", "alpha∘V = v_T and alpha∘T = d_T on forms",
                 fixtures, mu=(Kind.FORM, (1, _upto2)))
    def forms(A, mu):
        dotted = canonical_algebroid(dotted_chart(A.base))
        return (canonical_transport("alpha", vertical_lift_V(A, mu))
                - _pullback(dotted, mu),
                canonical_transport("alpha", complete_lift_T(A, mu))
                - _direct_complete_form(A.base, mu))

    @run.declare("involution", "kappa∘kappa = id and alpha∘alpha = id",
                 fixtures, owner=tangent_lift, s=(Kind.MV, (1, 2)),
                 mu=(Kind.FORM, (1, 2)))
    def involution(A, s, mu):
        return (canonical_transport("kappa", canonical_transport("kappa", s)) - s,
                canonical_transport("alpha", canonical_transport("alpha", mu)) - mu)


def _suite_theorem_20(run):
    """The flip is the tangent-lift anchor and an algebroid isomorphism; the
    two routes to the tangent Poisson structure agree."""
    fixtures = run.canonical()

    @run.declare("anchor-is-kappa", "the tangent-lift anchor is the flip",
                 fixtures, owner=tangent_lift, s=(Kind.MV, 1))
    def anchor(A, s):
        return anchor_apply(tangent_lift(A), s) - canonical_transport("kappa", s)

    @run.declare("bracket-isomorphism", "kappa intertwines the section brackets",
                 fixtures, owner=tangent_lift, s=(Kind.MV, 1), t=(Kind.MV, 1))
    def bracket_iso(A, s, t):
        return (canonical_transport("kappa", section_bracket(tangent_lift(A), s, t))
                - section_bracket(canonical_algebroid(dotted_chart(A.base)),
                                  canonical_transport("kappa", s),
                                  canonical_transport("kappa", t)))

    def poisson_routes(_rng):
        for name, A in run.algebroids():
            lifted = tangent_poisson(linear_poisson(A))
            relinearized = linear_poisson(tangent_lift(A))
            position = {c: i for i, c in enumerate(relinearized.chart.coords)}
            fiber_map = {i: position[c]
                         for i, c in enumerate(lifted.chart.coords)}
            residual = (remap(lifted.bivector, relinearized.owner, fiber_map)
                        - relinearized.bivector)
            yield name, {"lifted": lifted.bivector,
                         "relinearized": relinearized.bivector}, residual

    run.identity("poisson-routes",
                 "lifting the fiberwise-linear bivector matches linearizing "
                 "the tangent lift", poisson_routes)


def _suite_theorem_21(run):
    """The classical-lift tables on the canonical case."""
    fixtures = run.canonical()
    V, T = classical_vertical_lift, classical_complete_lift

    @run.declare("schouten-table", "the v_T/d_T Schouten table", fixtures,
                 x=(Kind.MV, (1, _upto2)), y=(Kind.MV, 1))
    def schouten_table(A, x, y):
        target = canonical_algebroid(dotted_chart(A.base))
        return _vt_table(partial(schouten, target), schouten(A, x, y),
                         x, y, V, T)

    low = (Kind.MIXED, (0, 1))

    @run.declare("mixed-tables", "the v_T/d_T tables for N-R and F-N",
                 fixtures, K=low, L=low)
    def mixed_tables(A, K, L):
        target = canonical_algebroid(dotted_chart(A.base))
        return (_vt_table(nr_bracket, nr_bracket(K, L), K, L, V, T)
                + _vt_table(partial(fn_bracket, target), fn_bracket(A, K, L),
                            K, L, V, T))

    @run.declare("cartan-tables", "the v_T/d_T tables for i, d and L",
                 fixtures, x=(Kind.MV, 1), mu=(Kind.FORM, (1, _upto2)))
    def cartan_tables(A, x, mu):
        target = canonical_algebroid(dotted_chart(A.base))
        dmu = differential(A, mu)
        return (_vt_table(contract, contract(x, mu), x, mu, V, T)
                + (differential(target, V(mu)) - V(dmu),
                   differential(target, T(mu)) - T(dmu))
                + _vt_table(partial(lie_derivative, target),
                            lie_derivative(A, x, mu), x, mu, V, T))


def _suite_theorem_22(run):
    """The degreewise-signed bundle map of the fiberwise-linear bivector
    recovers the dual lifts of forms and mixed tensors."""
    fixtures = run.canonical()

    @run.declare("pullbacks", "Λ*(pullback mu) = V_pi(mu)", fixtures,
                 mu=(Kind.FORM, (0, 1, _upto2)))
    def pullbacks(A, mu):
        ps = linear_poisson(A)
        return lambda_p(ps, _pullback(ps.owner, mu), "star") - vertical_pi(A, mu)

    @run.declare("contracted-pullbacks", "Λ*(J*(K)) = −J(K)", fixtures,
                 K=(Kind.MIXED, (0, 1, _upto2)))
    def contracted(A, K):
        return lambda_p(linear_poisson(A), Jstar(K), "star") + J_map(A, K)

    @run.declare("differentials", "Λ*(d J*(K)) = −G(K)", fixtures,
                 K=(Kind.MIXED, (0, 1)))
    def differentials(A, K):
        ps = linear_poisson(A)
        return (lambda_p(ps, differential(ps.owner, Jstar(K)), "star")
                + G_map(A, K))

    @run.declare("d-intertwine", "Λ*(d nu) = [P, Λ*(nu)]", fixtures,
                 owner=lambda A: linear_poisson(A).owner,
                 nu=(Kind.FORM, (1, 2)))
    def d_intertwine(A, nu):
        ps = linear_poisson(A)
        return (lambda_p(ps, differential(ps.owner, nu), "star")
                - schouten(ps.owner, ps.bivector, lambda_p(ps, nu, "star")))


def _suite_theorem_23(run):
    """J* maps the F-N bracket to the extended bracket."""
    @run.declare("extended-homomorphism", "{J*K, J*L}_P = J*([K,L]^{F-N})",
                 run.canonical(), K=(Kind.MIXED, (0, 1)),
                 L=(Kind.MIXED, (0, 1, _upto2)))
    def homomorphism(A, K, L):
        return (extended_bracket(linear_poisson(A), Jstar(K), Jstar(L))
                - Jstar(fn_bracket(A, K, L)))


def _literal_h(A, k):
    """The slot-by-slot momentum expansion of H on a canonical algebroid,
    written out independently of the Hamiltonian-map route."""
    D = canonical_algebroid(dual_chart(A))
    chart = D.base
    n = A.base.dim
    terms = []
    for (form_key, a), coeff in k.terms.items():
        f = coeff.transport(chart)
        terms.append(((form_key, a), f))
        for i, slot in enumerate(form_key, start=1):
            rest = form_key[:i - 1] + form_key[i:]
            terms.append((((n + a,) + rest, n + slot), -f * _sign(i)))
        momentum = chart.coordinate(chart.coords[n + a])
        for b, name in enumerate(A.base.coords):
            df = coeff.partial(name)
            if df.is_zero():
                continue
            weight = df.transport(chart) * momentum
            terms.append(((form_key, n + b), -weight))
            for i, slot in enumerate(form_key, start=1):
                rest = form_key[:i - 1] + form_key[i:]
                terms.append((((b,) + rest, n + slot), -weight * _sign(i)))
    return GradedTensor(D, Kind.MIXED, k.degree, terms)


def _literal_g(A, k):
    """The momentum expansion of G on a canonical algebroid (the orientation
    opposite to the shipped calibration)."""
    D = canonical_algebroid(dual_chart(A))
    chart = D.base
    n = A.base.dim
    terms = []
    for (form_key, a), coeff in k.terms.items():
        lifted = tuple(n + s for s in form_key)
        terms.append(((a,) + lifted, -coeff.transport(chart)))
        momentum = chart.coordinate(chart.coords[n + a])
        partials = map(coeff.partial, A.base.coords)
        terms += (((n + b,) + lifted, df.transport(chart) * momentum)
                  for b, df in enumerate(partials) if not df.is_zero())
    return GradedTensor(D, Kind.MV, k.degree + 1, terms)


def _suite_theorem_24(run):
    """H is an injective F-N homomorphism; the local momentum expansions of
    H and G; the Nijenhuis criterion instance."""
    run.note("orientation convention: G(dx⊗e_x) = +e_x∧e_p_x; the opposite "
             "global sign of G is a consistent alternative and is recorded "
             "by the literal-expansion item")
    fixtures = run.canonical()
    low, mixed = (Kind.MIXED, (0, 1)), (Kind.MIXED, (0, 1, _upto2))

    @run.declare("fn-homomorphism", "[H(K), H(L)]^{F-N} = H([K,L]^{F-N})",
                 fixtures, K=low, L=low)
    def homomorphism(A, K, L):
        return (fn_bracket(canonical_algebroid(dual_chart(A)), H_map(K), H_map(L))
                - H_map(fn_bracket(A, K, L)))

    @run.declare("h-expansion", "H agrees with its momentum expansion",
                 fixtures, K=mixed)
    def h_expansion(A, K):
        return H_map(K) - _literal_h(A, K)

    @run.declare("g-expansion", "G agrees with its momentum expansion up to "
                 "the recorded global sign", fixtures, K=mixed)
    def g_expansion(A, K):
        return G_map(A, K) + _literal_g(A, K)

    def injectivity(rng):
        for name, A in fixtures:
            if A.rank != 2:
                continue
            slots = [(key, j) for key in basis_keys(A, Kind.FORM, 1)
                     for j in range(A.rank)]
            for _ in range(run.trials):
                terms = {}
                for key, j in slots:
                    c = rng.randint(-2, 2)
                    if c:
                        terms[(key, j)] = c
                k = GradedTensor(A, Kind.MIXED, 1, terms)
                yield name, {"K": k}, H_map(k).is_zero() == k.is_zero()

    run.predicate("injectivity", "H(K) = 0 only for K = 0 on basis sums",
                  injectivity)

    def nijenhuis(_rng):
        for name, A in fixtures:
            if A.rank != 1:
                continue
            N = GradedTensor(A, Kind.MIXED, 1, {((0,), 0): 1})
            D = canonical_algebroid(dual_chart(A))
            fn_zero = fn_bracket(A, N, N).is_zero()
            g_zero = schouten(D, G_map(A, N), G_map(A, N)).is_zero()
            yield name, {"N": N}, fn_zero and g_zero

    run.predicate("nijenhuis-instance",
                  "[N,N]^{F-N} = 0 and [G(N), G(N)] = 0 for N = dx⊗e_x",
                  nijenhuis)


def _suite_eq_7_12(run):
    """The dual flip intertwines the two exterior derivatives."""
    @run.declare("alpha-d", "alpha∘d = d∘alpha", run.canonical(),
                 owner=tangent_lift, mu=(Kind.FORM, (0, 1, 2)))
    def intertwine(A, mu):
        target = canonical_algebroid(dotted_chart(A.base))
        return (canonical_transport("alpha", differential(tangent_lift(A), mu))
                - differential(target, canonical_transport("alpha", mu)))


def _tangent_anchor_map(A, s):
    """The tangent map of the anchor applied to a section of the tangent
    lift: barred components carry the anchor entries on the barred block,
    dotted components carry them on the dotted block and pick up the
    velocity derivative of the entries on the barred block."""
    n, m = A.base.dim, A.rank
    target = tangent_lift(canonical_algebroid(A.base))
    tb = target.base
    terms = []
    for (idx,), c in s.terms.items():
        for a, rho in enumerate(A.anchor[idx % m]):
            pulled = c * rho.transport(tb)
            if idx < m:
                terms.append(((a,), pulled))
            elif not pulled.is_zero():
                terms += (((n + a,), pulled), ((a,), c * _velocity(rho, A.base, tb)))
    return GradedTensor(target, Kind.MV, 1, terms)


def _suite_eq_7_13(run):
    """Flipping the tangent-lift anchor gives the tangent map of the
    anchor."""
    fixtures = [(n, A) for n, A in run.algebroids() if A.base.dim]
    skipped = [n for n, A in run.algebroids() if not A.base.dim]
    if skipped:
        run.note("skipped over a point (the tangent of the base is trivial): "
                 + ", ".join(skipped))

    @run.declare("kappa-anchor", "kappa∘(tangent-lift anchor) = T(anchor)",
                 fixtures, owner=tangent_lift, s=(Kind.MV, 1))
    def intertwine(A, s):
        return (canonical_transport("kappa", anchor_apply(tangent_lift(A), s))
                - _tangent_anchor_map(A, s))


# -- registry ----------------------------------------------------------------

SUITES = {
    "theorem-1": ("exterior calculus: d, insertion and Lie derivative",
                  _suite_theorem_1),
    "theorem-2": ("the generalized Schouten bracket's operator identity",
                  _suite_theorem_2),
    "theorem-3": ("Nijenhuis–Richardson graded Lie laws", _suite_theorem_3),
    "theorem-4": ("Frölicher–Nijenhuis graded Lie laws", _suite_theorem_4),
    "theorem-5": ("Λ as a bracket homomorphism", _suite_theorem_5),
    "theorem-6": ("the extended bracket on forms", _suite_theorem_6),
    "theorem-7": ("d, H and G as bracket homomorphisms", _suite_theorem_7),
    "theorem-8": ("vertical and complete lifts of functions and sections",
                  _suite_theorem_8),
    "theorem-9": ("the V/T Leibniz pair", _suite_theorem_9),
    "theorem-10": ("the tangent-lift anchor on lifted sections",
                   _suite_theorem_10),
    "theorem-11": ("the V/T Schouten tables", _suite_theorem_11),
    "theorem-12": ("i, d and L against V/T lifts", _suite_theorem_12),
    "theorem-13": ("the V/T Nijenhuis–Richardson table", _suite_theorem_13),
    "theorem-14": ("the V/T Frölicher–Nijenhuis table", _suite_theorem_14),
    "theorem-15": ("dual-chart Schouten identities for iota, V_pi and G",
                   _suite_theorem_15),
    "theorem-16": ("the mixed-tensor maps J and G", _suite_theorem_16),
    "theorem-17": ("J as an injective N-R homomorphism", _suite_theorem_17),
    "theorem-18": ("G as an F-N homomorphism", _suite_theorem_18),
    "theorem-19": ("flip transports against direct classical lifts",
                   _suite_theorem_19),
    "theorem-20": ("the flip as anchor and isomorphism", _suite_theorem_20),
    "theorem-21": ("classical-lift bracket tables", _suite_theorem_21),
    "theorem-22": ("the signed bundle map recovers the dual lifts",
                   _suite_theorem_22),
    "theorem-23": ("J* maps F-N to the extended bracket", _suite_theorem_23),
    "theorem-24": ("H as an injective F-N homomorphism; expansions; the "
                   "Nijenhuis criterion", _suite_theorem_24),
    "eq-1-12": ("insertion operators compose to the N-R bracket",
                _suite_eq_1_12),
    "eq-2-6": ("the Koszul–Schouten insertion/Lie expansion", _suite_eq_2_6),
    "eq-7-12": ("the dual flip intertwines the differentials", _suite_eq_7_12),
    "eq-7-13": ("the flip carries the lifted anchor to the tangent anchor",
                _suite_eq_7_13),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name, model=None, seed=None, trials=None) -> dict:
    """Run one named suite and return its structured result."""
    if name.__class__ is not str or name not in SUITES:
        raise UnknownName(f"no suite named {name!r}; choose from "
                          f"{', '.join(SUITE_NAMES)}")
    model = builtin_model() if model is None else _require(model, "run_suite", cls=Model)
    seed = model.suite.get("seed", DEFAULT_SEED) if seed is None else seed
    if seed.__class__ is not int:
        raise ValidationError(f"seed must be an int, got {seed!r}")
    trials = model.suite.get("trials", DEFAULT_TRIALS) if trials is None else trials
    coeff_degree = model.suite.get("max_degree", 2)
    # checked before any draw: a draw of a negative degree never returns
    for setting, value, minimum in (("trials", trials, 1), ("max_degree", coeff_degree, 0)):
        if value.__class__ is not int or value < minimum:
            raise ValidationError(f"{setting} must be an int of at least {minimum}, "
                                  f"got {value!r}")
    title, runner = SUITES[name]
    run = _Run(name, title, model, seed, trials, coeff_degree)
    runner(run)
    return run.result()


def run_all(model=None, seed=None, trials=None) -> list:
    """Run every suite, in registry order."""
    model = builtin_model() if model is None else model
    return [run_suite(name, model, seed, trials) for name in SUITE_NAMES]
